"""How tests/csv_contract.py judges one command's base and head runs."""

from subprocess import CompletedProcess

from csv_contract import compare

CSV = "# twinwell 0.2.7\n# config_sha256: {sha}\nt,E\n0.1,{e}\n"


def run(returncode=0, sha="aa", e="0.5", version="0.2.7"):
    out = CSV.format(sha=sha, e=e).replace("0.2.7", version, 1)
    return CompletedProcess([], returncode, out if returncode == 0 else "", "")


def test_same_bytes_keep_the_contract():
    assert compare(run(), run()) == ("same bytes", False)


def test_changed_bytes_under_the_same_version_break_it():
    status, broken = compare(run(), run(e="0.6"))
    assert broken and status.startswith("BROKEN")


def test_version_bump_allows_changed_bytes():
    status, broken = compare(run(), run(e="0.6", version="0.2.8"))
    assert not broken and status.startswith("changed, version")


def test_changed_config_is_not_comparable():
    status, broken = compare(run(), run(sha="bb", e="0.6"))
    assert not broken and status == "not comparable: the config changed"


def test_base_failure_is_not_comparable():
    # say, the base tree rejects a config key or a flag that head added
    status, broken = compare(run(returncode=2), run())
    assert not broken and status == "not comparable: the base run failed"

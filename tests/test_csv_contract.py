"""How tests/csv_contract.py judges one command's base and head runs."""

from subprocess import CompletedProcess

from csv_contract import compare, config_bytes

CSV = "# twinwell 0.2.7\n# config_sha256: {sha}\nt,E\n0.1,{e}\n"


def run(returncode=0, sha="aa", e="0.5", version="0.2.7"):
    out = CSV.format(sha=sha, e=e).replace("0.2.7", version, 1)
    return CompletedProcess([], returncode, out if returncode == 0 else "", "")


def test_same_bytes_keep_the_contract():
    assert compare(run(), run(), False) == ("same bytes", False)


def test_changed_bytes_under_the_same_version_break_it():
    status, broken = compare(run(), run(e="0.6"), False)
    assert broken and status.startswith("BROKEN")


def test_version_bump_allows_changed_bytes():
    status, broken = compare(run(), run(e="0.6", version="0.2.8"), False)
    assert not broken and status.startswith("changed, version")


def test_version_bump_alone_reads_same_bytes_apart_from_the_version():
    status, broken = compare(run(), run(version="0.2.8"), False)
    assert not broken
    assert status == "same bytes apart from the version, '# twinwell 0.2.7' -> '# twinwell 0.2.8'"


def test_version_bump_with_a_moved_hash_reads_changed():
    # only the version line is set aside: a moved header line still counts
    status, broken = compare(run(), run(sha="bb", version="0.2.8"), False)
    assert not broken and status.startswith("changed, version")


def test_changed_config_is_not_comparable():
    status, broken = compare(run(), run(sha="bb", e="0.6"), True)
    assert not broken and status == "not comparable: the config changed"


def test_moved_hash_of_the_same_config_file_breaks_it():
    # say, a key deleted from the schema moves every config's hash: the
    # file is the same, so the moved hash line needs a version bump
    status, broken = compare(run(), run(sha="bb"), False)
    assert broken and status.startswith("BROKEN")


def test_moved_hash_of_the_same_config_file_with_a_version_bump():
    status, broken = compare(run(), run(sha="bb", e="0.6", version="0.2.8"), False)
    assert not broken and status.startswith("changed, version")


def test_base_failure_is_not_comparable():
    # say, the base tree rejects a config key or a flag that head added
    status, broken = compare(run(returncode=2), run(), False)
    assert not broken and status == "not comparable: the base run failed"


def test_config_file_read_from_each_tree(tmp_path):
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "a.json").write_text("{}")
    assert config_bytes(tmp_path, "a.json") == b"{}"
    assert config_bytes(tmp_path, "missing.json") is None

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twinwell
from twinwell import cli, sweeps
from twinwell.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def data_rows(csv):
    """Data rows of a CSV text, split into cells ('#' lines and the column
    header dropped)."""
    return [line.split(",") for line in csv.splitlines() if not line.startswith("#")][1:]


SMALL_WIGNER = {"n_traj": 400, "chunk_size": 100, "dtau": 1e-3, "seed": 7}


class TestSqueeze:
    def test_zero_time_row(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"sweep": {"tau_max": 1.0, "n_tau": 3}})
        code, out, _ = run_cli(capsys, "squeeze", "--config", cfg)
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        first = lines[1].split(",")
        row = dict(zip(header, first))
        assert float(row["tau"]) == 0.0
        assert float(row["S_local"]) == pytest.approx(1.0, abs=1e-10)
        assert row["E_product"] == ""  # joint columns empty for squeeze
        assert row["se_S_local"] == ""

    def test_header_block(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"sweep": {"tau_max": 1.0, "n_tau": 2}})
        code, out, _ = run_cli(capsys, "squeeze", "--config", cfg)
        assert code == 0
        assert out.startswith("# twinwell ")
        assert "# config_sha256: " in out
        assert "# seed: " in out


class TestDeterminism:
    def test_two_step_exact_byte_identical(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"sweep": {"tau_max": 2.0, "n_tau": 4}})
        _, out1, _ = run_cli(capsys, "two-step", "--config", cfg)
        _, out2, _ = run_cli(capsys, "two-step", "--config", cfg)
        assert out1 == out2

    def test_dynamic_wigner_byte_identical(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "preset": {"tag": "B9p116G", "kappa": 0.5},
                "sweep": {"tau_max": 0.5, "n_tau": 3},
                "wigner": SMALL_WIGNER,
            },
        )
        _, out1, _ = run_cli(capsys, "dynamic", "--config", cfg)
        _, out2, _ = run_cli(capsys, "dynamic", "--config", cfg)
        assert out1 == out2
        assert any(l.startswith("tau,") and "se_E_product" in l for l in out1.splitlines())

    def test_seed_changes_output(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"sweep": {"tau_max": 0.5, "n_tau": 3}, "wigner": SMALL_WIGNER},
        )
        _, out1, _ = run_cli(capsys, "two-step", "--config", cfg, "--engine", "wigner")
        _, out2, _ = run_cli(
            capsys, "two-step", "--config", cfg, "--engine", "wigner", "--seed", "8"
        )
        assert out1 != out2

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["two-step"], "two_step_n2000.json"),
            (
                ["two-step"],
                {"initial": {"N_A": 2000}, "sweep": {"tau_max": 16.0, "n_tau": 161, "theta_objective": "epr"}},
            ),
            (
                ["dynamic"],
                {
                    "preset": {"tag": "B9p116G", "kappa": 1.0},
                    "losses": {"gamma12": 1e-3},
                    "sweep": {"tau_grid": [0.0, 0.25, 0.5]},
                    "wigner": {"n_traj": 1000, "chunk_size": 250, "dtau": 1e-3, "seed": 5},
                },
            ),
            (
                # tunneling, 13 taus of 5 ensemble rows
                ["dynamic"],
                {
                    "preset": {"tag": "B9p116G", "kappa": 1.0},
                    "sweep": {"tau_max": 0.06, "n_tau": 13},
                    "wigner": SMALL_WIGNER,
                },
            ),
        ],
        ids=["exact", "exact_epr", "wigner", "wigner_cahill_blocks"],
    )
    def test_bytes_independent_of_blas_threads(self, tmp_path, argv, doc):
        # the epr objective's angle solve calls LAPACK for its companion
        # eigenvalues, and so does the product objective on the rows its
        # closed-form quartic leaves out (the moment conversion calls no
        # BLAS); the results must not depend on how many threads the
        # library uses
        root = Path(__file__).resolve().parents[1]
        cfg = str(root / "configs" / doc) if isinstance(doc, str) else write_cfg(tmp_path, doc)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=src + os.pathsep + path if path else src,
            )
            done = subprocess.run(
                [sys.executable, "-m", "twinwell.cli", *argv, "--config", cfg],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


def fresh_interpreter(probe):
    """The words `probe` prints, run in a new interpreter on this tree's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_package_import_builds_no_dataclass():
    # every CLI run pays for building its records at import, and a
    # dataclass compiles each generated method with its own exec; numpy
    # releases that import `dataclasses` themselves are not checked
    probe = (
        "import sys, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import twinwell.sweeps, twinwell.cli\n"
        "print(before, 'dataclasses' in sys.modules)"
    )
    by_numpy, after = fresh_interpreter(probe)
    if by_numpy == "True":
        pytest.skip("numpy itself imports dataclasses")
    assert after == "False"


def test_config_hash_loads_no_openssl():
    # hashlib loads OpenSSL's libcrypto (`_hashlib`), several MB and a few
    # ms per process; the config hash uses CPython's built-in SHA-256
    probe = (
        "import importlib.util, sys, numpy\n"
        "by_numpy = '_hashlib' in sys.modules\n"
        "name = '_sha2' if sys.version_info >= (3, 12) else '_sha256'\n"
        "builtin = importlib.util.find_spec(name) is not None\n"
        "import twinwell.sweeps, twinwell.cli\n"
        "from twinwell.config import config_hash, validate_config\n"
        "config_hash(validate_config({}))\n"
        "print(by_numpy, builtin, '_hashlib' in sys.modules)"
    )
    by_numpy, builtin, after = fresh_interpreter(probe)
    if by_numpy == "True":
        pytest.skip("numpy itself imports _hashlib")
    if builtin == "False":
        pytest.skip("this interpreter has no built-in SHA-256 module")
    assert after == "False"


class TestWignerTwoStep:
    def test_stderr_columns_filled(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"sweep": {"tau_max": 1.0, "n_tau": 3}, "wigner": SMALL_WIGNER},
        )
        code, out, _ = run_cli(capsys, "two-step", "--config", cfg, "--engine", "wigner")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert row["se_E_product"] != ""
        assert float(row["se_E_product"]) > 0

    def test_traj_override(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"sweep": {"tau_max": 0.5, "n_tau": 2}, "wigner": SMALL_WIGNER},
        )
        code, out, _ = run_cli(
            capsys, "two-step", "--config", cfg, "--engine", "wigner", "--traj", "200"
        )
        assert code == 0

    def test_dynamic_beam_splitter_flag(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "preset": {"tag": "B9p116G", "kappa": 0.1},
                "sweep": {"tau_grid": [0.0, 0.5]},
                "wigner": SMALL_WIGNER,
            },
        )
        code_on, out_on, _ = run_cli(
            capsys, "dynamic", "--config", cfg, "--beam-splitter", "on"
        )
        code_off, out_off, _ = run_cli(
            capsys, "dynamic", "--config", cfg, "--beam-splitter", "off"
        )
        assert code_on == 0 and code_off == 0
        assert "# beam_splitter: on" in out_on
        assert "# beam_splitter: off" in out_off
        assert out_on != out_off  # criteria differ even on the same ensemble


class TestErrorPaths:
    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"wat": 1})
        code, _, err = run_cli(capsys, "squeeze", "--config", cfg)
        assert code == 2
        assert "wat" in err

    def test_negative_rate_named_in_error(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"losses": {"gamma12": -0.5}})
        code, _, err = run_cli(capsys, "squeeze", "--config", cfg)
        assert code == 2
        assert "gamma12" in err

    def test_non_finite_number_exit_2(self, capsys, tmp_path):
        # json writes and reads NaN; it must not reach the sweep
        cfg = write_cfg(tmp_path, {"sweep": {"tau_max": float("nan"), "n_tau": 3}})
        code, out, err = run_cli(capsys, "two-step", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "tau_max" in err and "finite" in err

    def test_non_integral_number_exit_2(self, capsys, tmp_path):
        # int() would run 1000 trajectories without a word
        cfg = write_cfg(tmp_path, {"wigner": {"n_traj": 1000.9, "chunk_size": 500}})
        code, out, err = run_cli(capsys, "dynamic", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "n_traj" in err and "integer" in err

    @pytest.mark.parametrize(
        "doc, argv, field",
        [
            ({"initial": {"N_A": None}}, ["squeeze"], "initial.N_A"),
            ({"wigner": {"seed": None}}, ["squeeze"], "wigner.seed"),
            ({"wigner": {"seed": None}}, ["dynamic", "--traj", "4"], "wigner.seed"),
            ({"losses": 5}, ["two-step"], "losses"),
            ({"wigner": [1]}, ["dynamic", "--seed", "3"], "wigner"),
            ([1], ["dynamic", "--traj", "4"], "config"),
            (None, ["squeeze"], "config"),
        ],
        ids=[
            "null-N_A",
            "null-seed-squeeze",
            "null-seed-dynamic",
            "losses-5",
            "wigner-array",
            "array",
            "null",
        ],
    )
    def test_null_or_non_object_exit_2(self, capsys, tmp_path, doc, argv, field):
        # these used to print a traceback and exit 1, or run with seed None
        code, out, err = run_cli(capsys, *argv, "--config", write_cfg(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert f"{field}: expected a" in err and "Traceback" not in err

    def test_seed_past_64_bits_exit_2(self, capsys, tmp_path):
        # the seed is 64 bits by contract; a larger one once reached numpy
        # and raised OverflowError mid-run: a traceback
        cfg = write_cfg(tmp_path, {"preset": {"kappa": 1.0}, "wigner": SMALL_WIGNER})
        code, out, err = run_cli(
            capsys, "dynamic", "--config", cfg, "--seed", str(2**64), "--traj", "200"
        )
        assert code == 2
        assert out == ""
        assert "wigner.seed: must be <= 18446744073709551615" in err
        assert "Traceback" not in err

    def test_euler_maruyama_stepper_exit_2(self, capsys, tmp_path):
        # the midpoint rule is the only integrator, and `stepper` is no
        # longer a key
        cfg = write_cfg(tmp_path, {"wigner": {"stepper": "euler-maruyama"}})
        code, out, err = run_cli(capsys, "dynamic", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "stepper" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "squeeze", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_exact_engine_rejects_tunneling(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"preset": {"tag": "B9p116G", "kappa": 1.0}})
        code, _, err = run_cli(capsys, "two-step", "--config", cfg)
        assert code == 2
        assert "kappa" in err

    @pytest.mark.parametrize(
        "command", [["squeeze"], ["two-step", "--engine", "exact"]], ids=["squeeze", "two-step"]
    )
    def test_exact_engine_rejects_losses(self, capsys, tmp_path, command):
        cfg = write_cfg(tmp_path, {"losses": {"gamma1": 0.01}})
        code, out, err = run_cli(capsys, *command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert "losses: the exact engine supports lossless dynamics only" in err

    def test_divergence_exit_3(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "couplings": {"g11": 10.0, "g22": 10.0},
                "sweep": {"tau_grid": [50.0]},
                "wigner": {"n_traj": 4, "chunk_size": 2, "dtau": 10.0},
            },
        )
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, "dynamic", "--config", cfg)
        assert code == 3
        assert "diverged" in err

    @pytest.mark.parametrize("command", ["two-step", "squeeze"])
    def test_degenerate_reference_exit_4(self, capsys, tmp_path, command):
        # at N = 2000 the transverse coherence <a2† a1> underflows to zero
        # by tau = 30000, so no measurement angle is defined there; the
        # taus before it keep their rows
        doc = {
            "preset": {"tag": "B9p116G"},
            "initial": {"N_A": 2000},
            "sweep": {"tau_grid": [0, 1, 30000]},
        }
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, command, "--config", write_cfg(tmp_path, doc), "--out", str(out_path)
        )
        assert code == 4
        assert out == ""
        assert err.startswith("degenerate reference: ") and "30000" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        rows = data_rows(out_path.read_text())
        assert len(rows) == 3
        assert rows[2] == ["30000"] + [""] * (len(sweeps.CSV_COLUMNS) - 1)

        doc["sweep"]["tau_grid"] = [0, 1]
        code, out, _ = run_cli(capsys, command, "--config", write_cfg(tmp_path, doc, "ref.json"))
        assert code == 0
        for got, want in zip(rows[:2], data_rows(out), strict=True):
            assert [c == "" for c in got] == [c == "" for c in want]
            for g, w in zip(got, want):
                if w:
                    assert float(g) == pytest.approx(float(w), rel=1e-12), (got, want)


    def test_dephased_difference_block_exit_0(self, capsys, tmp_path):
        # at N = 50 and tau = 40 the angle objective's top Fourier
        # coefficient is exactly 0; the angle search deflates it
        doc = {"initial": {"N_A": 50}, "sweep": {"tau_grid": [0, 40.0]}}
        code, out, err = run_cli(capsys, "two-step", "--config", write_cfg(tmp_path, doc))
        assert code == 0, err
        rows = data_rows(out)
        assert len(rows) == 2 and all(c for c in rows[1][:11])


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, {"sweep": {"tau_max": 1.0, "n_tau": 2}})
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "squeeze", "--config", cfg, "--out", str(out_path))
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("# twinwell")

    def test_version_matches_pyproject(self, capsys, tmp_path):
        # the CSV header names the package version; a bump must touch both
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
        assert twinwell.__version__ == version
        cfg = write_cfg(tmp_path, {"sweep": {"tau_max": 1.0, "n_tau": 2}})
        _, out, _ = run_cli(capsys, "squeeze", "--config", cfg)
        assert out.splitlines()[0] == f"# twinwell {version}"

    def test_defaults_without_config(self, capsys, tmp_path):
        # no --config at all: built-in defaults (400-point grid)
        code, out, _ = run_cli(capsys, "squeeze", "--out", str(tmp_path / "x.csv"))
        assert code == 0

    @pytest.mark.parametrize(
        "command, sweep",
        [
            ("squeeze", "squeeze_sweep"),
            ("two-step", "two_step_sweep"),
            ("dynamic", "dynamic_sweep"),
            ("validate", "validation_report"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_exit_2_before_the_sweep(
        self, capsys, tmp_path, monkeypatch, command, sweep, target
    ):
        # the path used to be opened only after the sweep: a traceback,
        # exit 1 and the finished sweep lost
        ran = []
        monkeypatch.setattr(cli, sweep, lambda *a, **k: ran.append(sweep))
        out_path = tmp_path / target
        code, out, err = run_cli(capsys, command, "--out", str(out_path))
        assert (code, out, ran) == (2, "", [])
        assert err == f"out: cannot write {out_path}: " + (
            f"no directory {tmp_path / 'missing'}\n" if target != "." else "it is a directory\n"
        )
        assert sorted(os.listdir(tmp_path)) == []

    def test_failed_write_exit_2(self, capsys, tmp_path, monkeypatch):
        # a path that passes the check but fails when opened (say, a
        # directory removed during the sweep) ends the same way
        monkeypatch.setattr(cli, "_check_out", lambda out_path: None)
        cfg = write_cfg(tmp_path, {"sweep": {"tau_max": 1.0, "n_tau": 2}})
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "squeeze", "--config", cfg, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"out: cannot write {out_path}: No such file or directory\n"

    def test_no_file_without_a_csv(self, capsys, tmp_path):
        # a diverged run writes no CSV, so it leaves no empty file behind
        cfg = write_cfg(
            tmp_path,
            {
                "couplings": {"g11": 10.0, "g22": 10.0},
                "sweep": {"tau_grid": [50.0]},
                "wigner": {"n_traj": 4, "chunk_size": 2, "dtau": 10.0},
            },
        )
        out_path = tmp_path / "x.csv"
        with np.errstate(all="ignore"):
            code, _, _ = run_cli(capsys, "dynamic", "--config", cfg, "--out", str(out_path))
        assert code == 3
        assert not out_path.exists()


class TestValidate:
    def test_validate_passes(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path, {"wigner": {"n_traj": 600, "chunk_size": 200, "dtau": 1e-3}}
        )
        code, out, _ = run_cli(capsys, "validate", "--config", cfg)
        assert code == 0
        assert "[PASS] closed form vs Fock oracle" in out
        assert "[PASS] stochastic vs exact" in out

    def test_validate_example_config_passes(self, capsys):
        # the standard error comes from 8 chunks of 125 trajectories; with
        # the config's 2 chunks of 500 it was one difference, and this
        # command failed or passed by seed
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "two_step_n2000.json")
        code, out, _ = run_cli(capsys, "validate", "--config", cfg, "--traj", "1000")
        assert code == 0, out
        assert "[PASS] stochastic vs exact (n_traj=1000 in 8 chunks)" in out

    @pytest.mark.parametrize("offset, want", [(3.5, 0), (4.5, 1)])
    def test_validate_limit_is_4_standard_errors(self, capsys, tmp_path, monkeypatch, offset, want):
        # set the stochastic E_product `offset` standard errors above the
        # exact one at every tau
        real = sweeps.evaluate_criteria
        stochastic = []

        def shifted(table, theta=None, **kwargs):
            r = real(table, theta=theta, **kwargs)
            if theta is None:
                stochastic.append(r.E_product)
            else:
                e = stochastic[0]
                se = e[:, 1:].std(ddof=1, axis=1) / math.sqrt(e.shape[1] - 1)
                e[:, 0] = r.E_product[:, 0] + offset * se
            return r

        monkeypatch.setattr(sweeps, "evaluate_criteria", shifted)
        cfg = write_cfg(tmp_path, {"wigner": {"n_traj": 400, "dtau": 1e-3}})
        code, out, _ = run_cli(capsys, "validate", "--config", cfg)
        assert code == want, out
        assert f"deviation {offset:.2f} standard errors (limit 4)" in out

    def test_validate_skips_with_tunneling(self, capsys, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "preset": {"tag": "B9p116G", "kappa": 1.0},
                "wigner": {"n_traj": 400, "chunk_size": 200, "dtau": 1e-3},
            },
        )
        code, out, _ = run_cli(capsys, "validate", "--config", cfg)
        assert code == 0
        assert "[SKIP]" in out

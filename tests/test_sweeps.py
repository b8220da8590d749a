"""The sweeps' CSV columns, cell by cell against the arrays they come from."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from twinwell.config import validate_config
from twinwell.criteria import evaluate_criteria
from twinwell.kerr import moment_table
from twinwell.operators import NormalPoly
from twinwell.spins import optimal_angle, spin_moments, squeezing
from twinwell.sweeps import (
    CSV_COLUMNS,
    run_meta,
    squeeze_sweep,
    two_step_sweep,
    write_csv,
)
from twinwell.wigner import moment_source, run_ensemble

README = Path(__file__).resolve().parent.parent / "README.md"
CRITERIA = ("S_minus", "S_plus", "E_product", "E_EPR_product", "duan_sum")
MEASURED = ("S_local",) + CRITERIA


def readme_columns():
    """The column list in README's "CSV schema" block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Fixed columns:\n\n```\n(.*?)```", text, re.S).group(1)
    return tuple(name.strip() for name in block.replace("\n", " ").split(",") if name.strip())


def csv_cells(text):
    """Header and data rows of a CSV, '#' lines dropped."""
    lines = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    return lines[0], lines[1:]


def fmt(x):
    return f"{x:.12g}"


def expected_columns(table, taus):
    """Every column of `criteria_row`, formatted, from the criteria and
    spin-moment arrays; empty where a column has no value."""
    m = spin_moments(table)
    r = evaluate_criteria(table)
    arrays = {name: getattr(r, name) for name in CRITERIA}
    arrays["S_local"] = squeezing(m, optimal_angle(m)[:, :1])
    want = {"tau": [fmt(t) for t in taus]}
    for name in ("theta_opt", "delta_theta", "g", "g_prime"):
        want[name] = [fmt(x) for x in getattr(r, name)]
    for name, x in arrays.items():
        want[name] = [fmt(v) for v in x[:, 0]]
        chunks = x[:, 1:]
        if chunks.shape[1] >= 2:
            se = chunks.std(ddof=1, axis=1) / math.sqrt(chunks.shape[1])
            want[f"se_{name}"] = [fmt(v) for v in se]
        else:
            want[f"se_{name}"] = [""] * len(taus)
    return want


def assert_cells(text, want):
    header, rows = csv_cells(text)
    assert tuple(header) == CSV_COLUMNS
    assert len(rows) == len(want["tau"])
    for i, row in enumerate(rows):
        assert dict(zip(header, row, strict=True)) == {c: want[c][i] for c in CSV_COLUMNS}, i


def test_columns_are_readmes_in_order():
    assert CSV_COLUMNS == readme_columns()
    assert len(CSV_COLUMNS) == 17


class TestColumns:
    def test_exact_two_step(self):
        cfg = validate_config(
            {"initial": {"N_A": 2000}, "sweep": {"tau_grid": list(np.linspace(0.0, 16.0, 9))}}
        )
        columns = two_step_sweep(cfg)
        assert tuple(columns) == CSV_COLUMNS
        assert all(len(v) == 9 for v in columns.values())
        # one merged ensemble: no standard errors
        for name in MEASURED:
            assert columns[f"se_{name}"] == [None] * 9
        table = moment_table(cfg.couplings, cfg.initial, cfg.sweep.taus)
        text = write_csv(columns, run_meta(cfg, "two-step", "exact", True))
        assert_cells(text, expected_columns(table, cfg.sweep.taus))

    def test_wigner_two_step_three_chunks(self):
        cfg = validate_config(
            {
                "initial": {"N_A": 100, "N_B": 100},
                "sweep": {"tau_grid": [0.0, 0.05, 0.1]},
                "wigner": {"n_traj": 150, "chunk_size": 50, "dtau": 1e-3, "seed": 3},
            }
        )
        columns = two_step_sweep(cfg, engine="wigner")
        assert all(v is not None for name in MEASURED for v in columns[f"se_{name}"])
        sums = run_ensemble(cfg.couplings, cfg.losses, cfg.initial, cfg.sweep.taus, cfg.wigner)
        table = moment_source(sums, cfg.wigner.chunk_size)
        assert table.shape[1] == 4  # merged ensemble and 3 chunks
        text = write_csv(columns, run_meta(cfg, "two-step", "wigner", True))
        assert_cells(text, expected_columns(table, cfg.sweep.taus))

    def test_squeeze_leaves_joint_columns_empty(self):
        cfg = validate_config({"initial": {"N_A": 2000}, "sweep": {"tau_grid": [0.0, 1.0, 4.0]}})
        columns = squeeze_sweep(cfg)
        filled = ("tau", "theta_opt", "delta_theta", "S_local")
        empty = [c for c in CSV_COLUMNS if c not in filled]
        assert len(empty) == 13 and all(columns[c] == [None] * 3 for c in empty)
        m = spin_moments(moment_table(cfg.couplings, cfg.initial, cfg.sweep.taus))
        theta = optimal_angle(m)[:, 0]
        want = {
            "tau": [fmt(t) for t in cfg.sweep.taus],
            "theta_opt": [fmt(x) for x in theta],
            "delta_theta": [fmt(x) for x in m.delta_theta],
            "S_local": [fmt(x) for x in squeezing(m, theta[:, None])[:, 0]],
        }
        want.update({c: [""] * 3 for c in empty})
        assert_cells(write_csv(columns, run_meta(cfg, "squeeze", "exact", None)), want)


def test_sweep_builds_each_product_once(monkeypatch):
    # a sweep without a degenerate tau evaluates its table once: the 13
    # products of one `criteria_row` (TestOperatorProducts), no tau-by-tau
    # pass
    calls = []
    mul = NormalPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(NormalPoly, "__mul__", counting)
    cfg = validate_config({"sweep": {"tau_grid": [0.0, 1.0]}})
    two_step_sweep(cfg)
    assert len(calls) == 13


def test_engine_is_loaded_only_by_a_run_that_steps():
    # in a fresh interpreter: the pipeline module and an exact two-step
    # sweep leave the stochastic engine unloaded, and a dynamic sweep
    # loads it
    script = """
import sys
from twinwell.config import validate_config
from twinwell.sweeps import dynamic_sweep, two_step_sweep
two_step_sweep(validate_config({"sweep": {"tau_grid": [0.0, 1.0]}}))
print("twinwell.wigner" in sys.modules)
dynamic_sweep(validate_config({
    "preset": {"tag": "B9p116G", "kappa": 1.0},
    "sweep": {"tau_grid": [0.0, 0.1]},
    "wigner": {"n_traj": 8, "chunk_size": 4, "dtau": 0.05},
}))
print("twinwell.wigner" in sys.modules)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]

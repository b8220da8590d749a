"""Tests of the benchmark itself (the package's own suite, under tests/, does
not collect them).

    python3 -m pytest perfbench/tests -q

Smoke runs use `--smoke`: each workload cut to its first output times.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_names_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in W.WORKLOADS.values()
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= (2 if trace else 1)
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for s in specs:
        m = result["metrics"][s["name"]]
        assert m["unit"] == s["unit"]
        assert isinstance(m["value"], (int, float))
        assert f"{s['name']} = " in out.stdout
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["sweep_s"]["value"] > 0
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if W.is_stochastic(W.WORKLOADS[workload]):
            assert m["wigner.drift.calls"] > 0 and m["wigner.traj_steps"] > 0
            assert m["operators.mul.calls"] > 0  # criteria still build operators
        else:
            assert m["wigner.drift.calls"] == 0 and m["kerr.site_moment.calls"] > 0
        if workload == "tw_lossy":
            assert m["wigner.noise_term.calls"] > 0
            assert m["wigner.rng.useful_ratio"] == pytest.approx(2 / 8)
        if workload == "tw_tunnel":
            assert m["wigner.noise_term.calls"] == 0
    assert "environment: " in out.stdout


def test_exact_check_catches_a_changed_value():
    with open(os.path.join(BENCH, "reference", "exact_n2000.csv"), encoding="utf-8") as fh:
        ref = fh.read()
    n = len(checks.parse_csv(ref)["tau"])
    assert checks.check_exact(ref, ref, n) == []
    lines = ref.splitlines(keepends=True)
    header = [i for i, ln in enumerate(lines) if ln.startswith("tau,")][0]
    row = lines[header + 20].split(",")
    col = lines[header].split(",").index("E_EPR_product")
    row[col] = repr(float(row[col]) * (1 + 1e-7))
    lines[header + 20] = ",".join(row)
    problems = checks.check_exact("".join(lines), ref, n)
    assert len(problems) == 1 and "E_EPR_product" in problems[0]
    assert checks.check_exact("".join(lines[:-1]), ref, n)  # a missing row


def _csv_from_reference(ref, sweep, z=1.0, shift=0.0, se_scale=1.0):
    """A CSV whose values lie `shift` + or - `z` reference deviations from the
    reference mean, the sign alternating over taus, columns and sweeps."""
    cols = ["tau"] + list(W.CRITERIA) + ["se_" + c for c in W.CRITERIA]
    rows = [",".join(cols)]
    for i, tau in enumerate(ref["taus"]):
        signs = [(-1) ** (i + j + sweep) for j in range(len(W.CRITERIA))]
        vals = [tau] + [
            ref["mean"][c][i] + (shift + sign * z) * ref["sd"][c][i] for c, sign in zip(W.CRITERIA, signs)
        ]
        vals += [se_scale * ref["sd"][c][i] for c in W.CRITERIA]
        rows.append(",".join(repr(v) for v in vals))
    return "\n".join(rows) + "\n"


def _check_run(workload, sweeps=5, **kwargs):
    """Per-sweep problems and run problems of `sweeps` synthetic CSVs (tw_lossy
    does 4 or 5 sweeps in a run of the benchmark's length)."""
    check = checks.OutputCheck(W.WORKLOADS[workload], smoke=False)
    per_sweep = [check.sweep(_csv_from_reference(check.ref, k, **kwargs)) for k in range(sweeps)]
    return [p for ps in per_sweep for p in ps], check.run()


@pytest.mark.parametrize("workload", ["tw_tunnel", "tw_lossy"])
def test_stochastic_check_catches_bias_and_larger_errors(workload):
    assert _check_run(workload) == ([], [])
    # A gross bias fails each sweep.
    biased, _ = _check_run(workload, shift=10.0)
    assert biased and all("combined standard errors" in p for p in biased)
    # A 3-deviation bias passes each sweep but not the run.
    per_sweep, run = _check_run(workload, shift=3.0)
    assert per_sweep == [] and any(p.startswith("mean_z.") for p in run)
    # Twice the reference's errors, in the values or in the reported errors.
    per_sweep, run = _check_run(workload, z=2.0)
    assert per_sweep == [] and [p for p in run if p.startswith("rms_z")]
    per_sweep, run = _check_run(workload, se_scale=2.0)
    assert per_sweep == [] and [p.split()[0] for p in run] == ["pooled_se"]


def test_sweep_seeds_repeat_and_heldout_differs():
    assert W.sweep_seed(5, 2) == W.sweep_seed(5, 2)
    seen = {W.sweep_seed(s, k) for s in range(4) for k in range(4)}
    held = {W.sweep_seed(s, k, heldout=True) for s in range(4) for k in range(4)}
    assert len(seen) == 16 and not seen & held
    assert max(seen | held) < W.REFERENCE_SEED_BASE


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "exact_n2000", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

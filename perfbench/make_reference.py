"""Regenerate the output references in `reference/` from the current code.

    python3 perfbench/make_reference.py

Run from the repository root; it uses one process per CPU.  The exact
workload stores its CSV; each stochastic workload runs REFERENCE_SEEDS
sweeps with reference seeds (REFERENCE_SEED_BASE + i) at the workload's
trajectory count and stores, per tau and criterion column, the mean and
seed-to-seed deviation of the merged values, plus the mean and
seed-to-seed deviation of each per-sweep statistic that the run check
uses (checks.sweep_stats), at full size and at smoke size.  A
reference is a statement about the code it was made from: regenerate it
only together with a change that is meant to alter the results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor

import workloads as W
from checks import parse_csv, sweep_stats, z_scores
from run import ROOT, environment

sys.path.insert(0, os.path.join(ROOT, "src"))

REFERENCE_SEEDS = 32


def _sweep(name: str, seed: int | None) -> str:
    import twinwell
    from twinwell import sweeps

    w = W.WORKLOADS[name]
    cfg = twinwell.validate_config(W.document(w, twinwell.validate_config, seed))
    return W.run_pipeline(sweeps, w, cfg)


def _moments(runs: list[dict], n_rows: int) -> dict:
    return {
        "mean": {c: [statistics.fmean(r[c][i] for r in runs) for i in range(n_rows)] for c in W.CRITERIA},
        "sd": {c: [statistics.stdev(r[c][i] for r in runs) for i in range(n_rows)] for c in W.CRITERIA},
    }


def _summary(name: str, csvs: list[str], seeds: list[int]) -> dict:
    w = W.WORKLOADS[name]
    runs = [parse_csv(t) for t in csvs]
    n_rows = len(runs[0]["tau"])
    ref = {"workload": name, "n_traj": w.n_traj, "seeds": seeds, "taus": runs[0]["tau"]}
    ref.update(_moments(runs, n_rows))
    # Each seed is taken against the reference made from the other seeds,
    # as a new sweep is taken against the whole reference.
    per_seed = {"full": [], "smoke": []}
    worst = 0.0
    for k, r in enumerate(runs):
        loo = dict(ref, seeds=seeds[:-1], **_moments(runs[:k] + runs[k + 1 :], n_rows))
        per_seed["full"].append(sweep_stats(r, loo, n_rows))
        per_seed["smoke"].append(sweep_stats(r, loo, w.smoke_taus))
        worst = max(worst, max(abs(z) for _, _, z in z_scores(r, loo, n_rows)))
    ref["sweep_stats"] = {
        size: {
            key: {
                "mean": statistics.fmean(s[key] for s in stats),
                "sd": statistics.stdev(s[key] for s in stats),
                "values": [s[key] for s in stats],
            }
            for key in stats[0]
        }
        for size, stats in per_seed.items()
    }
    # How close the reference seeds themselves come to Z_LIMIT.
    ref["loo_max_abs_z"] = worst
    return ref


def main() -> int:
    out_dir = os.path.join(W.HERE, "reference")
    env = environment()
    for name, w in W.WORKLOADS.items():
        if not W.is_stochastic(w):
            text = _sweep(name, None)
            with open(os.path.join(out_dir, f"{name}.csv"), "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"{name}: wrote CSV", flush=True)
            continue
        seeds = [W.REFERENCE_SEED_BASE + i for i in range(REFERENCE_SEEDS)]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(min(os.cpu_count() or 1, len(seeds)), mp_context=ctx) as pool:
            csvs = list(pool.map(_sweep, [name] * len(seeds), seeds))
        ref = _summary(name, csvs, seeds)
        ref["environment"] = env
        with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        stats = ref["sweep_stats"]["full"]
        print(
            f"{name}: {len(seeds)} seeds, leave-one-out max |z| {ref['loo_max_abs_z']:.2f}; "
            + ", ".join(f"{k} {v['mean']:.3f} +- {v['sd']:.3f}" for k, v in stats.items()),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions shared by run.py, the worker and the reference
generator.

Each workload is one of the repository's example configurations, copied
into `configs/` here so that the benchmark input cannot drift with the
examples.  The stochastic workloads run fewer trajectories than the
example files (a multiple of 500), but keep `chunk_size` at 500: the
per-chunk Python loops are part of the cost being measured.

This module imports neither numpy nor twinwell at import time, so the
entry point can use it without paying for either.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

# Criterion columns checked against the references.
CRITERIA = ("S_local", "S_minus", "S_plus", "E_product", "E_EPR_product", "duan_sum")

# Reference runs use trajectory seeds at or above this value; the seeds a
# benchmark run derives from `--seed` are 32-bit, so the two never meet.
REFERENCE_SEED_BASE = 2**40


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file under configs/
    command: str  # CLI pipeline it mirrors: "two-step" or "dynamic"
    engine: str  # "exact" or "wigner"
    beam_splitter: bool
    n_traj: int | None  # trajectories per sweep (None: engine has none)
    smoke_taus: int  # leading output times kept in smoke mode
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_n2000",
            "two_step_n2000.json",
            "two-step",
            "exact",
            True,
            None,
            9,
            "exact Kerr engine, 161 taus, beam splitter: operator algebra and "
            "criteria on scalars, never touches the wigner layer",
        ),
        Workload(
            "tw_tunnel",
            "dynamic_strong_tunneling.json",
            "dynamic",
            "wigner",
            False,
            2000,
            3,
            "TW with tunneling and no loss: drift, stepping and 51 chunked moment "
            "records, no noise draws (bypass case for noise pruning)",
        ),
        Workload(
            "tw_lossy",
            "two_step_losses_n2000.json",
            "two-step",
            "wigner",
            True,
            1000,
            2,
            "TW with inter-species loss, 7000 steps and 29 records: noise draws "
            "and noise stepping dominate, criteria cost little",
        ),
    )
}


def is_stochastic(w: Workload) -> bool:
    return w.engine == "wigner"


def load_document(w: Workload) -> dict:
    with open(os.path.join(HERE, "configs", w.config), "r", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_seed(seed: int, index: int, heldout: bool = False) -> int:
    """Trajectory seed of the `index`-th sweep of a run started with `seed`.

    The held-out stream gives seeds that tuning on the default stream
    never sees, for checking a claim on unseen inputs.
    """
    import numpy as np

    entropy = [int(seed), int(index), 1 if heldout else 0]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def document(w: Workload, validate, wigner_seed: int | None = None, smoke: bool = False) -> dict:
    """Config document of one sweep of `w`.

    `validate` is `twinwell.validate_config`; it is needed only in smoke
    mode, to cut the workload's own tau grid to its first points, so the
    reference rows for those taus still apply.
    """
    doc = load_document(w)
    if w.n_traj is not None:
        wig = dict(doc.get("wigner") or {}, n_traj=w.n_traj)
        if wigner_seed is not None:
            wig["seed"] = int(wigner_seed)
        doc["wigner"] = wig
    if smoke:
        taus = validate(doc).sweep.taus[: w.smoke_taus]
        sweep = {k: v for k, v in doc.get("sweep", {}).items() if k not in ("tau_max", "n_tau")}
        doc["sweep"] = dict(sweep, tau_grid=list(taus))
    return doc


def run_pipeline(sweeps, w: Workload, cfg) -> str:
    """Validated config -> CSV text, through the public sweep pipeline."""
    if w.command == "two-step":
        rows = sweeps.two_step_sweep(cfg, engine=w.engine)
    else:
        rows = sweeps.dynamic_sweep(cfg, beam_splitter=w.beam_splitter)
    return sweeps.write_csv(rows, sweeps.run_meta(cfg, w.command, w.engine, w.beam_splitter))

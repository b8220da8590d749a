"""Sweep pipelines shared by the CLI.

Three pipelines mirror the three experiments:

  squeeze   nonlinear evolution only, single-site squeezing (exact engine)
  two-step  nonlinear evolution, then the tunneling-pulse beam splitter,
            then joint criteria (exact or stochastic engine)
  dynamic   simultaneous tunneling + nonlinearity (+ losses), stochastic
            engine, criteria with or without a final beam splitter

Both engines produce one normal-ordered moment table per sweep, each
through one builder that also states the engine's domain (`_exact_table`:
lossless, no tunneling) or accuracy rule (`_wigner_table`: a warning below
50 atoms per well), and the criteria are evaluated on it for all taus at
once.  Every pipeline
returns the same CSV columns: a dict keyed by CSV_COLUMNS, in order,
each value a list with one entry per tau, None where the pipeline has
no value.  Standard-error columns are filled for stochastic runs only
(sub-ensemble spread with angle and gains frozen at the merged-ensemble
optimum).  A degenerate reference at some tau is handled only after the
whole-table evaluation has raised: the taus are then evaluated one by
one, and DegenerateSweepError carries the columns of every tau, those
of the degenerate ones empty but for `tau`.
"""

from __future__ import annotations

import io
import math
import warnings

import numpy as np

from . import __version__
from .config import RunConfig, config_hash
from .criteria import evaluate_criteria
from .errors import ConfigError, DegenerateReferenceError, DegenerateSweepError
from .kerr import fock_moment_table, moment_table
from .operators import FULL_KEYS
from .spins import optimal_angle, spin_moments, squeezing


CSV_COLUMNS = (
    "tau",
    "theta_opt",
    "delta_theta",
    "S_local",
    "S_minus",
    "S_plus",
    "E_product",
    "E_EPR_product",
    "g",
    "g_prime",
    "duan_sum",
    "se_S_local",
    "se_S_minus",
    "se_S_plus",
    "se_E_product",
    "se_E_EPR_product",
    "se_duan_sum",
)


def _columns(taus, **values) -> dict:
    """CSV columns over `taus`: the lists in `values`, and a list of None
    for every other column."""
    n = len(taus)
    return {c: list(taus) if c == "tau" else values.get(c, [None] * n) for c in CSV_COLUMNS}


def _se(x: np.ndarray) -> list:
    """Per-tau standard errors from the chunk rows of an (n_tau, n_ens)
    array; None without at least two chunks."""
    if x.shape[1] <= 2:
        return [None] * x.shape[0]
    chunks = x[:, 1:]
    return (chunks.std(ddof=1, axis=1) / math.sqrt(chunks.shape[1])).tolist()


def criteria_row(table, sweep, beam_splitter: bool = True) -> dict:
    """Columns of `sweep`, one entry per tau, from its (n_tau, n_ens,
    NBASIS) moment table over the 117 number-conserving basis monomials."""
    m = spin_moments(table)
    s_local = squeezing(m, optimal_angle(m)[:, :1])
    r = evaluate_criteria(
        table,
        beam_splitter=beam_splitter,
        theta=sweep.fixed_theta,
        objective=sweep.theta_objective,
    )
    values = {
        "S_local": s_local,
        "S_minus": r.S_minus,
        "S_plus": r.S_plus,
        "E_product": r.E_product,
        "E_EPR_product": r.E_EPR_product,
        "duan_sum": r.duan_sum,
    }
    return _columns(
        sweep.taus,
        theta_opt=r.theta_opt.tolist(),
        delta_theta=r.delta_theta.tolist(),
        g=r.g.tolist(),
        g_prime=r.g_prime.tolist(),
        **{name: x[:, 0].tolist() for name, x in values.items()},
        **{f"se_{name}": _se(x) for name, x in values.items()},
    )


def _squeeze_columns(table, sweep) -> dict:
    m = spin_moments(table)
    theta = optimal_angle(m)[:, 0]
    s_local = squeezing(m, theta[:, None])[:, 0]
    return _columns(
        sweep.taus,
        theta_opt=theta.tolist(),
        delta_theta=m.delta_theta.tolist(),
        S_local=s_local.tolist(),
    )


def _tau_by_tau(evaluate, table, sweep, **kwargs) -> dict:
    """`evaluate(table, sweep, **kwargs)` on the whole table, or, if a
    degenerate reference stops that, on each tau's slice alone.

    Raises DegenerateSweepError with the columns of every tau, the
    degenerate ones empty but for `tau`, when any tau is degenerate.
    """
    try:
        return evaluate(table, sweep, **kwargs)
    except DegenerateReferenceError:
        pass
    columns = {c: [] for c in CSV_COLUMNS}
    reasons = {}
    for i, tau in enumerate(sweep.taus):
        one = sweep._replace(taus=(tau,))
        try:
            part = evaluate(table[i : i + 1], one, **kwargs)
        except DegenerateReferenceError as exc:
            reasons[tau] = str(exc)
            part = _columns(one.taus)
        for c in CSV_COLUMNS:
            columns[c] += part[c]
    if reasons:
        raise DegenerateSweepError(reasons, columns)
    return columns


def _require_no_tunneling(cfg: RunConfig, what: str) -> None:
    if cfg.couplings.tunneling:
        raise ConfigError(
            [f"couplings.kappa: {what} requires zero tunneling (got "
             f"kappa1={cfg.couplings.kappa1}, kappa2={cfg.couplings.kappa2})"]
        )


def _exact_table(cfg: RunConfig) -> np.ndarray:
    """Moment table of the exact Kerr closed form at the config's taus:
    lossless dynamics without tunneling only."""
    _require_no_tunneling(cfg, "the exact engine")
    if cfg.losses.enabled:
        raise ConfigError(["losses: the exact engine supports lossless dynamics only"])
    return moment_table(cfg.couplings, cfg.initial, cfg.sweep.taus)


def _wigner_table(cfg: RunConfig) -> np.ndarray:
    """Moment table of a truncated-Wigner run of the config, merged
    ensemble and chunks; warns below 50 atoms per well, where the
    method's corrections (order 1/N^(3/2)) are no longer small."""
    # imported here: exact runs never step, and the stochastic engine's
    # import and Cahill tables are set-up they would otherwise pay
    from .wigner import moment_source, run_ensemble

    if min(cfg.initial.N_A, cfg.initial.N_B) < 50:
        warnings.warn(
            "truncated-Wigner accuracy degrades for min(N_A, N_B) < 50 (corrections "
            "scale as 1/N^(3/2))",
            stacklevel=3,
        )
    sums = run_ensemble(cfg.couplings, cfg.losses, cfg.initial, cfg.sweep.taus, cfg.wigner)
    return moment_source(sums, cfg.wigner.chunk_size)


def squeeze_sweep(cfg: RunConfig) -> dict:
    """Single-site squeezing vs tau (exact engine, no beam splitter)."""
    return _tau_by_tau(_squeeze_columns, _exact_table(cfg), cfg.sweep)


def two_step_sweep(cfg: RunConfig, engine: str = "exact") -> dict:
    """Nonlinear evolution, beam splitter, joint criteria."""
    _require_no_tunneling(cfg, "the two-step pipeline")
    if engine not in ("exact", "wigner"):
        raise ConfigError([f"engine: expected 'exact' or 'wigner', got {engine!r}"])
    table = _exact_table(cfg) if engine == "exact" else _wigner_table(cfg)
    return _tau_by_tau(criteria_row, table, cfg.sweep, beam_splitter=True)


def dynamic_sweep(cfg: RunConfig, beam_splitter: bool = False) -> dict:
    """Simultaneous tunneling + nonlinearity + losses (stochastic engine)."""
    return _tau_by_tau(criteria_row, _wigner_table(cfg), cfg.sweep, beam_splitter=beam_splitter)


def write_csv(columns, meta: dict) -> str:
    """CSV of a sweep's columns (keyed by CSV_COLUMNS, one entry per tau)
    with a '#' header block (config hash, seed, version); None is an
    empty cell."""
    buf = io.StringIO()
    buf.write(f"# twinwell {__version__}\n")
    for key, value in meta.items():
        buf.write(f"# {key}: {value}\n")
    buf.write("# columns: " + ",".join(CSV_COLUMNS) + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    cells = [["" if v is None else f"{v:.12g}" for v in columns[c]] for c in CSV_COLUMNS]
    buf.writelines(",".join(row) + "\n" for row in zip(*cells))
    return buf.getvalue()


def run_meta(cfg: RunConfig, command: str, engine: str, beam_splitter: bool | None) -> dict:
    meta = {
        "command": command,
        "engine": engine,
        "seed": cfg.wigner.seed,
        "config_sha256": config_hash(cfg),
    }
    if beam_splitter is not None:
        meta["beam_splitter"] = "on" if beam_splitter else "off"
    return meta


VALIDATE_CHUNKS = 8


def validation_report(cfg: RunConfig, n_traj: int | None = None):
    """Oracle suites: closed form vs Fock basis over every monomial of
    order <= 4 (`FULL_KEYS`), stochastic vs exact.

    Returns (lines, ok).  Kept deliberately small so it runs in seconds
    at default settings.
    """
    from .config import InitialState, preset_couplings

    lines = []
    ok = True

    ratios = preset_couplings("B9p116G", 1.0)
    small = InitialState(N_A=8.0, N_B=8.0)
    taus = np.random.default_rng(2024).uniform(0.01, 0.2, 5)
    exact = moment_table(ratios, small, taus, FULL_KEYS)
    fock = fock_moment_table(ratios, small, taus, cutoff=40, keys=FULL_KEYS)
    worst = float(np.max(np.abs(exact - fock) / (np.abs(fock) + 1e-12)))
    passed = worst < 1e-8
    ok &= passed
    lines.append(
        f"[{'PASS' if passed else 'FAIL'}] closed form vs Fock oracle: "
        f"max relative error {worst:.3e} (tolerance 1e-8)"
    )

    # the standard error is the spread of VALIDATE_CHUNKS chunk values,
    # whatever the config's chunk_size: 2 chunks give a single difference
    n_traj = n_traj or min(cfg.wigner.n_traj, 4000)
    n_traj = max(n_traj - n_traj % VALIDATE_CHUNKS, 2 * VALIDATE_CHUNKS)
    short = cfg._replace(
        sweep=cfg.sweep._replace(taus=tuple(np.linspace(0.0, 2.0, 5))),
        wigner=cfg.wigner._replace(n_traj=n_traj, chunk_size=n_traj // VALIDATE_CHUNKS),
    )
    try:
        exact = _exact_table(short)
    except ConfigError:
        lines.append("[SKIP] stochastic vs exact: requires zero tunneling and losses")
        return lines, bool(ok)
    rw = evaluate_criteria(_wigner_table(short))
    re_ = evaluate_criteria(exact, theta=rw.theta_opt)
    se = np.array(_se(rw.E_product))
    dev = np.abs(rw.E_product[:, 0] - re_.E_product[:, 0])
    worst_dev = float(np.max(dev[se > 0] / se[se > 0], initial=0.0))
    passed = worst_dev < 4.0
    ok &= passed
    lines.append(
        f"[{'PASS' if passed else 'FAIL'}] stochastic vs exact "
        f"(n_traj={n_traj} in {VALIDATE_CHUNKS} chunks): "
        f"max |E_product| deviation {worst_dev:.2f} standard errors (limit 4)"
    )
    return lines, bool(ok)

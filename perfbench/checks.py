"""Output checks against the references stored in `reference/`.

exact workload
    Every criterion column matches the stored CSV to 1e-9 relative (with
    an absolute floor of 1e-12 times the column's largest magnitude, for
    the exact zeros at tau = 0).

stochastic workloads
    The reference holds, per tau and criterion column, the mean and the
    seed-to-seed standard deviation of the merged-ensemble value over
    REFERENCE_SEEDS reference seeds at the workload's trajectory count.
    It also holds, for each per-sweep statistic of `sweep_stats`, its
    mean and seed-to-seed deviation over the reference seeds, each seed
    taken against the reference made from the others.

    * Each sweep passes when every merged value lies within Z_LIMIT
      combined standard errors of the reference mean.
    * The sweeps of a run that pass are then judged together.  For each
      statistic, the run's mean over its k sweeps may differ from the
      reference mean by at most RUN_K deviations of a k-sweep mean
      (the seed-to-seed deviation over sqrt(k)): upwards for `rms_z`
      (larger errors than the reference) and `pooled_se` (larger
      reported standard errors), either way for `mean_z.<column>`
      (a bias of one criterion across all taus).

    A single sweep is too noisy to judge the size of the errors: its
    values at neighbouring taus come from the same trajectories, and its
    standard errors from 2 to 4 chunks.  The run's mean is not.  No check
    depends on the random stream, so an integrator that changes the draws
    can still pass.
"""

from __future__ import annotations

import json
import math
import os
import statistics

import workloads as W

EXACT_RTOL = 1e-9
EXACT_ATOL_SCALE = 1e-12
Z_LIMIT = 7.0
RUN_K = 4.5


def parse_csv(text: str) -> dict:
    """Columns of a twinwell CSV: name -> list of float (None when empty)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header row")
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"row {n} has {len(fields)} fields, header has {len(header)}")
        for h, v in zip(header, fields):
            cols[h].append(float(v) if v else None)
    return cols


def _rows(cols: dict, n_rows: int, columns: tuple[str, ...]) -> list[str]:
    missing = [c for c in columns if c not in cols]
    if missing:
        return [f"missing columns {missing}"]
    if len(cols["tau"]) != n_rows:
        return [f"expected {n_rows} rows, got {len(cols['tau'])}"]
    return []


def _taus_match(got: list, ref: list) -> list[str]:
    return [
        f"tau[{i}] = {g!r}, reference {r!r}"
        for i, (g, r) in enumerate(zip(got, ref))
        if g is None or abs(g - r) > 1e-12 * max(1.0, abs(r))
    ]


def check_exact(text: str, ref_text: str, n_rows: int) -> list[str]:
    """Problems of an exact-engine CSV against the first `n_rows` reference rows."""
    ref = parse_csv(ref_text)
    try:
        got = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    problems = _rows(got, n_rows, ("tau",) + W.CRITERIA) or _taus_match(got["tau"], ref["tau"])
    if problems:
        return problems
    for col in W.CRITERIA:
        floor = EXACT_ATOL_SCALE * max(abs(v) for v in ref[col])
        for i in range(n_rows):
            g, r = got[col][i], ref[col][i]
            if g is None or not abs(g - r) <= EXACT_RTOL * abs(r) + floor:
                problems.append(f"{col} at tau={ref['tau'][i]}: {g!r} vs reference {r!r}")
    return problems


def pooled_se(cols: dict, sd: dict, n_rows: int) -> float:
    """RMS of se_<col> / reference seed-to-seed deviation over taus and columns."""
    acc = []
    for col in W.CRITERIA:
        for i in range(n_rows):
            s = sd[col][i]
            if s > 0.0:
                se = cols["se_" + col][i]
                acc.append(math.inf if se is None else (se / s) ** 2)
    return math.sqrt(sum(acc) / len(acc))


def z_scores(cols: dict, ref: dict, n_rows: int) -> list[tuple[str, int, float]]:
    """(column, row, z) of each merged value against the reference mean."""
    r_seeds = len(ref["seeds"])
    out = []
    for col in W.CRITERIA:
        mean, sd = ref["mean"][col], ref["sd"][col]
        for i in range(n_rows):
            g = cols[col][i]
            comb = sd[i] * math.sqrt(1.0 + 1.0 / r_seeds)
            if g is None or not math.isfinite(g):
                z = math.inf
            elif comb > 0.0:
                z = (g - mean[i]) / comb
            else:
                z = 0.0 if g == mean[i] else math.inf
            out.append((col, i, z))
    return out


def sweep_stats(cols: dict, ref: dict, n_rows: int) -> dict:
    """Per-sweep statistics that the run check averages over sweeps."""
    zs = z_scores(cols, ref, n_rows)
    stats = {
        "rms_z": math.sqrt(statistics.fmean(z * z for _, _, z in zs)),
        "pooled_se": pooled_se(cols, ref["sd"], n_rows),
    }
    for col in W.CRITERIA:
        stats["mean_z." + col] = statistics.fmean(z for c, _, z in zs if c == col)
    return stats


def check_stochastic(text: str, ref: dict, n_rows: int) -> tuple[list[str], dict | None]:
    """Problems of a stochastic-engine CSV against a reference summary, and
    the sweep's statistics for the run check (None when it has problems)."""
    try:
        got = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"], None
    columns = ("tau",) + W.CRITERIA + tuple("se_" + c for c in W.CRITERIA)
    problems = _rows(got, n_rows, columns) or _taus_match(got["tau"], ref["taus"])
    if problems:
        return problems, None
    for col, i, z in z_scores(got, ref, n_rows):
        if not abs(z) <= Z_LIMIT:
            problems.append(
                f"{col} at tau={ref['taus'][i]}: {got[col][i]!r} is {z:.2f} combined "
                f"standard errors from the reference mean {ref['mean'][col][i]!r}"
            )
    if problems:
        return problems, None
    return [], sweep_stats(got, ref, n_rows)


def check_run(stats: list[dict], limits: dict) -> list[str]:
    """Problems of a run's sweeps taken together (see the module docstring).

    `limits` maps each statistic to its reference {"mean", "sd", ...}."""
    k = len(stats)
    problems = []
    for key, lim in limits.items():
        mean = statistics.fmean(s[key] for s in stats)
        dev = (mean - lim["mean"]) / (lim["sd"] / math.sqrt(k))
        if not (abs(dev) if key.startswith("mean_z.") else dev) <= RUN_K:
            problems.append(
                f"{key} averages {mean:.3f} over {k} sweeps, {dev:+.1f} deviations of a "
                f"{k}-sweep mean from the reference {lim['mean']:.3f}"
            )
    return problems


def reference_path(w: W.Workload) -> str:
    ext = "json" if W.is_stochastic(w) else "csv"
    return os.path.join(W.HERE, "reference", f"{w.name}.{ext}")


class OutputCheck:
    """Checks each sweep's CSV as it is made, then the run's sweeps together.

    Only the statistics of each sweep are kept, not its CSV, so the memory
    a run takes does not grow with the number of sweeps."""

    def __init__(self, w: W.Workload, smoke: bool):
        self.stochastic = W.is_stochastic(w)
        n_rows = w.smoke_taus if smoke else None
        with open(reference_path(w), "r", encoding="utf-8") as fh:
            if self.stochastic:
                self.ref = json.load(fh)
                self.n_rows = n_rows or len(self.ref["taus"])
                self.limits = self.ref["sweep_stats"]["smoke" if smoke else "full"]
            else:
                self.ref_text = fh.read()
                self.n_rows = n_rows or len(parse_csv(self.ref_text)["tau"])
        self.stats: list[dict] = []

    def sweep(self, text: str) -> list[str]:
        if not self.stochastic:
            return check_exact(text, self.ref_text, self.n_rows)
        problems, stats = check_stochastic(text, self.ref, self.n_rows)
        if stats is not None:
            self.stats.append(stats)
        return problems

    def run(self) -> list[str]:
        if not self.stats:
            return []
        return check_run(self.stats, self.limits)

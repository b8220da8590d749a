"""Benchmark worker: one fresh process per set-up probe or per run.

    worker.py setup --workload NAME
    worker.py sweep --workload NAME --seed N --seconds S --trace 0|1 [--heldout] [--smoke]

`setup` times the import of the pipeline (`twinwell.sweeps`, which pulls
in every layer and its import-time tables) plus `validate_config`, then
times the calibration loop (calibrate.py), and prints {"setup_s",
"calibration_s", "twinwell"}.  `sweep` runs sweeps back to back until
the next one would overrun `--seconds` (always at least one; with
`--trace 1`, untraced and traced sweeps in turn), with the calibration
loop between sweeps.  It checks each sweep's CSV as soon as it is made
(checks.py) and keeps only its problems.  It prints the per-sweep times,
calibration times and problems, the problems of the run's sweeps taken
together, the peak resident memory and, when traced, the per-layer
figures.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import statistics
import sys
import time

import checks
import workloads as W

# Bounds a batch whose sweeps fail at once instead of running.
MAX_SWEEPS = 1000


def _setup(w: W.Workload) -> dict:
    doc = W.load_document(w)
    # numpy is loaded first (calibrate imports it): its import, and the
    # start of the BLAS thread pool, vary by tens of milliseconds from
    # process to process and are not twinwell's set-up work.
    import calibrate

    t0 = time.perf_counter()
    import twinwell.sweeps

    twinwell.validate_config(doc)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "calibration_s": calibrate.loop_s(), "twinwell": twinwell.__file__}


def _useful_noise_columns(tw, cfg) -> int:
    """Noise columns with a nonzero rate, in the layout of `wigner._noise_term`."""
    losses = cfg.losses
    linear = tw.wigner.n_noise_columns(cfg.wigner.linear_loss_mode) - 4 if losses.gamma1 else 0
    return 2 * (losses.gamma12 > 0) + 2 * (losses.gamma22 > 0) + linear


def _count(total: int, n: int):
    """A per-sweep mean count, as an int when every sweep counted the same."""
    return total // n if total % n == 0 else total / n


def _layer_values(tw, cfg, tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-sweep means of the traced sweeps' span aggregates and counters."""
    n = len(traced)
    busy, self_, calls, counts = (collections.Counter() for _ in range(4))
    for s in traced:
        for name, agg in s["spans"].items():
            busy[name] += agg["busy"]
            self_[name] += agg["self"]
            calls[name] += agg["calls"]
        counts.update(s["counts"])
    values = {}
    for name in tracer.names:
        values[f"{name}.busy_s"] = busy[name] / n
        values[f"{name}.self_s"] = self_[name] / n
        values[f"{name}.calls"] = _count(calls[name], n)
    steps = counts["wigner.traj_steps"]
    noise = counts["wigner.rng.noise_normals"]
    useful = 2 * _useful_noise_columns(tw, cfg) * steps if cfg.losses.enabled else 0
    lookups = counts["kerr.lookups"]
    values.update(
        {
            "wigner.traj_steps": _count(steps, n),
            "wigner.rng.normals": _count(noise + counts["wigner.rng.initial_normals"], n),
            "wigner.rng.useful_ratio": useful / noise if noise else 1.0,
            "kerr.cache_hit_ratio": counts["kerr.hits"] / lookups if lookups else 0.0,
            "sweeps.csv_bytes": _count(sum(s["csv_bytes"] for s in traced), n),
            "trace.overhead_ratio": statistics.median(s["seconds"] for s in traced)
            / statistics.median(s["seconds"] for s in untraced),
            "trace.unattributed_s": statistics.fmean(s["unattributed"] for s in traced),
        }
    )
    return values


def _sweep(args, w: W.Workload) -> dict:
    import calibrate
    import twinwell.sweeps
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    check = checks.OutputCheck(w, args.smoke)
    # The root span's self time is the pipeline's own glue, which no layer
    # below it accounts for.
    root = "sweeps.two_step_sweep" if w.command == "two-step" else "sweeps.dynamic_sweep"
    seeds = []
    calibrations = []

    def one(index: int, traced: bool) -> dict:
        seed = W.sweep_seed(args.seed, index, args.heldout) if W.is_stochastic(w) else None
        seeds.append(seed)
        out = {"index": index, "traced": traced, "seconds": 0.0}
        if traced:
            tracer.reset()
            tracer.install()
        try:
            cfg = twinwell.validate_config(W.document(w, twinwell.validate_config, seed, args.smoke))
            first = tracer.mark() if traced else 0
            t0 = time.perf_counter()
            try:
                csv = W.run_pipeline(twinwell.sweeps, w, cfg)
            finally:
                out["seconds"] = time.perf_counter() - t0
        except Exception as exc:  # a failed sweep is counted, not fatal
            out["problems"] = [f"{type(exc).__name__}: {exc}"]
            return out
        finally:
            if traced:
                tracer.uninstall()
        out["problems"] = check.sweep(csv)
        out["csv_bytes"] = len(csv.encode())
        if traced:
            last = tracer.mark()
            spans, _ = tracer.aggregate(0, last)
            window, attributed = tracer.aggregate(first, last)
            out.update(spans=spans, counts=dict(tracer.counts))
            out["unattributed"] = out["seconds"] - attributed + window[root]["self"]
        return out

    def batch(kinds: tuple[bool, ...]) -> list[dict]:
        """Rounds of one sweep per entry of `kinds` (traced or not), with
        the calibration loop before the first sweep and after each one,
        until the next round would overrun the run."""
        done = []
        start = time.perf_counter()
        calibrations.append(calibrate.loop_s())
        while len(done) < MAX_SWEEPS:
            round_start = time.perf_counter()
            for traced in kinds:
                s = one(len(done), traced)
                calibrations.append(calibrate.loop_s())
                done.append(s)
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
        return done

    # Warm-up: a smoke-size sweep of the same workload (same array shapes)
    # lets allocations and first-call costs settle before anything is timed.
    try:
        doc = W.document(w, twinwell.validate_config, W.sweep_seed(args.seed, 0, args.heldout)
                         if W.is_stochastic(w) else None, smoke=True)
        W.run_pipeline(twinwell.sweeps, w, twinwell.validate_config(doc))
    except Exception:  # the timed sweeps report any failure
        pass

    if not args.trace:
        sweeps = batch((False,))
        layers = None
    else:
        # Untraced and traced sweeps alternate, so that a drift in the
        # machine's speed cancels out of trace.overhead_ratio.
        sweeps = batch((False, True))
        traced = [s for s in sweeps if "spans" in s]
        untraced = [s for s in sweeps if not s["traced"]]
        cfg = twinwell.validate_config(W.load_document(w))
        layers = _layer_values(twinwell, cfg, tracer, traced, untraced) if traced else None
        for s in traced:
            del s["spans"], s["counts"]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sweeps": sweeps,
        "calibrations": calibrations,
        "run_problems": check.run(),
        "peak_rss_mb": peak_kib / 1024.0,
        "layers": layers,
        "seeds": seeds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep"))
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    w = W.WORKLOADS[args.workload]
    result = _setup(w) if args.mode == "setup" else _sweep(args, w)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

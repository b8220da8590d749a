"""twinwell benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--heldout] [--smoke]

Run from the repository root.  One run

1. starts one worker process that runs the workload through the public
   pipeline (`validate_config` -> `two_step_sweep`/`dynamic_sweep` ->
   `write_csv`) for `--seconds` seconds, one sweep after another, each
   stochastic sweep with its own trajectory seed derived from `--seed`,
   and checks every sweep's CSV against `reference/` (see checks.py);
2. times set-up in SETUP_PROBES fresh processes, half of them before the
   worker and half after it (import of the pipeline `twinwell.sweeps`
   plus `validate_config`);
3. reports sweep time (`sweep_s`) and set-up time (`setup_s`) in
   calibrated seconds (see calibrate.py): `sweep_s` is the mean sweep
   time over the mean time of the calibration loop, which runs between
   the sweeps, and `setup_s` the median over the probes of each probe's
   set-up time over its own calibration time, both times the loop's
   nominal time;
4. prints each metric as `name = value unit`, an `environment:` line,
   and, last, one JSON object with `correct`, `attempted`, `failed` and
   `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, with
tracing off.  `--trace 1` runs untraced and traced sweeps in turn and
reports the per-layer metrics (tracer.py).
`--heldout` derives the trajectory seeds from a second stream that
tuning never uses; `--smoke` cuts each workload to its first few output
times and makes few set-up probes, for the benchmark's own tests.

The worker is a single process and inherits the thread settings of the
environment (nothing is pinned); the settings are recorded in the
`environment:` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import workloads as W

ROOT = os.path.dirname(W.HERE)
WORKER = os.path.join(W.HERE, "worker.py")
SETUP_PROBES = 12
SMOKE_SETUP_PROBES = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _src_fingerprint() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "twinwell")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the git repository rooted here, if this checkout is one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment() -> dict:
    """Versions, CPU count, thread settings and code identity of this run."""
    try:
        import numpy

        numpy_version = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (ImportError, KeyError, TypeError):
        numpy_version, blas = None, None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_fingerprint(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py with `args`; its last stdout line is a JSON object."""
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        out = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    if out.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {out.returncode}:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _require_layout(w: W.Workload) -> None:
    needed = [
        os.path.join(ROOT, "src", "twinwell", "__init__.py"),
        os.path.join(W.HERE, "configs", w.config),
        checks.reference_path(w),
        os.path.join(ROOT, "BENCHMARK.json"),
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise BenchError("missing " + ", ".join(os.path.relpath(p, ROOT) for p in missing))


def _metric_specs(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    w = W.WORKLOADS[args.workload]
    _require_layout(w)
    start = time.perf_counter()
    remaining = lambda: DEADLINE_S - (time.perf_counter() - start)

    probes = SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES
    setup_times = []

    def probe_setup(n: int) -> None:
        for _ in range(n):
            probe = _run_child(["setup", "--workload", w.name], min(60.0, remaining()))
            if not os.path.abspath(probe["twinwell"]).startswith(os.path.join(ROOT, "src") + os.sep):
                raise BenchError(f"imported twinwell from {probe['twinwell']}, not from this checkout")
            setup_times.append((probe["setup_s"], probe["calibration_s"]))

    worker_args = [
        "sweep",
        "--workload", w.name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    worker_args += ["--heldout"] * args.heldout + ["--smoke"] * args.smoke
    # Half the probes run before the sweeps and half after, so that they
    # sample the machine over the same stretch of time as the sweeps.
    probe_setup(probes // 2)
    result = _run_child(worker_args, remaining())
    probe_setup(probes - probes // 2)

    failed = 0
    for sweep in result["sweeps"]:
        if sweep["problems"]:
            failed += 1
            if failed <= 5:
                print(f"sweep {sweep['index']} failed: " + "; ".join(sweep["problems"][:5]), file=sys.stderr)
    attempted = len(result["sweeps"])
    if result["run_problems"]:
        # The run check judges the sweeps together; none of them counts as good.
        print("the run's sweeps failed together: " + "; ".join(result["run_problems"]), file=sys.stderr)
        failed = attempted

    untraced = [s["seconds"] for s in result["sweeps"] if not s["traced"]]
    # A mean, not a median: tw_lossy runs only 3 or 4 sweeps, and the means
    # of both series over the same stretch of time cancel the machine's
    # drift best.
    calibration = statistics.fmean(result["calibrations"])
    values = {
        "sweep_s": statistics.fmean(untraced) / calibration * calibrate.NOMINAL_S,
        "setup_s": statistics.median(t / c for t, c in setup_times) * calibrate.NOMINAL_S,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    values.update(result.get("layers") or {})
    metrics = {}
    for spec in _metric_specs(bool(args.trace)):
        if spec["name"] not in values:
            raise BenchError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']} = {values[spec['name']]!r} {spec['unit']}")
    times = " ".join(f"{s['seconds']:.3f}{'t' if s['traced'] else ''}" for s in result["sweeps"])
    print(f"sweep seconds (t: traced): {times}")
    print("sweep calibration seconds: " + " ".join(f"{c:.4f}" for c in result["calibrations"]))
    print("set-up seconds: " + " ".join(f"{t:.4f}" for t, _ in setup_times))
    print("set-up calibration seconds: " + " ".join(f"{c:.3f}" for _, c in setup_times))
    print("environment: " + json.dumps(dict(environment(), seeds=result["seeds"])))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twinwell benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true", help="use the held-out seed stream")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

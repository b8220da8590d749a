"""Command-line front end.

Subcommands mirror the sweep pipelines:

  squeeze    single-site squeezing vs tau (exact engine)
  two-step   nonlinear evolution + beam splitter + criteria
  dynamic    simultaneous tunneling/losses via stochastic trajectories
  validate   run the oracle cross-check suites and print a report

Output is CSV on stdout (or --out) with a '#' header carrying the
config hash, seed and version, so identical config + seed reproduce the
file byte for byte.  Exit codes: 0 success, 1 failed validation,
2 configuration error or an --out path that cannot be written (checked
before the sweep runs), 3 numerical divergence, 4 degenerate reference
(a criterion's mean spin or variance vanished at some tau: the CSV is
still written, with that tau's cells empty but for `tau`, and stderr
names the tau).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import RunConfig, validate_config
from .errors import ConfigError, DegenerateReferenceError, DegenerateSweepError, DivergenceError
from .sweeps import (
    dynamic_sweep,
    run_meta,
    squeeze_sweep,
    two_step_sweep,
    validation_report,
    write_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinwell",
        description="Two-well BEC squeezing / entanglement / EPR-steering sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, engine_choices=None, beam_splitter=False):
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
        p.add_argument("--seed", type=int, help="override wigner.seed")
        p.add_argument("--traj", type=int, help="override wigner.n_traj")
        if engine_choices:
            p.add_argument(
                "--engine", choices=engine_choices, default=engine_choices[0]
            )
        if beam_splitter:
            p.add_argument(
                "--beam-splitter",
                choices=("on", "off"),
                default="off",
                help="apply the tunneling-pulse beam splitter before the criteria",
            )

    common(sub.add_parser("squeeze", help="local squeezing sweep (exact engine)"))
    common(
        sub.add_parser("two-step", help="evolve, then beam splitter, then criteria"),
        engine_choices=("exact", "wigner"),
    )
    common(
        sub.add_parser("dynamic", help="simultaneous tunneling + losses (stochastic)"),
        beam_splitter=True,
    )
    common(sub.add_parser("validate", help="oracle cross-check report"))
    return parser


def _load(args) -> RunConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"config: cannot read {args.config}: {exc}"]) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: invalid JSON in {args.config}: {exc}"]) from exc
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.traj is not None:
        overrides["n_traj"] = args.traj
    # a document or wigner section that is not a JSON object is left for
    # validate_config to report
    if overrides and isinstance(doc, dict) and isinstance(doc.get("wigner", {}), dict):
        doc = dict(doc, wigner=dict(doc.get("wigner", {}), **overrides))
    return validate_config(doc)


class _OutError(Exception):
    """The --out path cannot be written: exit 2 with this one line."""


def _check_out(out_path: str | None) -> None:
    """Raise _OutError unless `out_path` can be written, before a sweep
    runs and without creating the file: an existing path must be a
    writable file, a new one needs a writable directory."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        why = "it is a directory"
    elif os.path.exists(out_path):
        why = None if os.access(out_path, os.W_OK) else "permission denied"
    else:
        parent = os.path.dirname(out_path) or os.curdir
        if not os.path.isdir(parent):
            why = f"no directory {parent}"
        else:
            why = None if os.access(parent, os.W_OK | os.X_OK) else "permission denied"
    if why:
        raise _OutError(f"out: cannot write {out_path}: {why}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutError(f"out: cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        _check_out(args.out)
        if args.command == "validate":
            lines, ok = validation_report(cfg, n_traj=args.traj)
            _emit("\n".join(lines) + "\n", args.out)
            return 0 if ok else 1
        if args.command == "squeeze":
            meta = run_meta(cfg, "squeeze", "exact", None)
            sweep = lambda: squeeze_sweep(cfg)
        elif args.command == "two-step":
            meta = run_meta(cfg, "two-step", args.engine, True)
            sweep = lambda: two_step_sweep(cfg, engine=args.engine)
        else:
            bs = args.beam_splitter == "on"
            meta = run_meta(cfg, "dynamic", "wigner", bs)
            sweep = lambda: dynamic_sweep(cfg, beam_splitter=bs)
        try:
            columns, code = sweep(), 0
        except DegenerateSweepError as exc:
            columns, code = exc.columns, 4
            print(f"degenerate reference: {exc}", file=sys.stderr)
        _emit(write_csv(columns, meta), args.out)
        return code
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except _OutError as exc:
        print(exc, file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    except DegenerateReferenceError as exc:
        print(f"degenerate reference: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()

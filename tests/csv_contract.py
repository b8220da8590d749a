"""Bit contract: the CLI's CSVs keep their bytes unless the version moves.

    python tests/csv_contract.py BASE_DIR

runs a few short CLI commands in two trees, BASE_DIR (say, a `git
worktree` of the base commit) and the tree this script lives in, each
with its own package sources and its own `configs/` file, and compares
the CSVs.  A CSV that differs while its `# twinwell <version>` line is
the same breaks the contract: the same config and seed must give the same
bytes until a version bump says otherwise.  A command is not comparable,
and not counted, when its config file differs between the two trees or
when only the base run fails (the base tree lacks the config, rejects a
key or does not know an argument).  With the same config file the bytes
are compared as usual, so a change that moves `# config_sha256` (say, by
changing how the config is hashed) needs a version bump too.  Exits 1 if
any command breaks the contract, 2 if a command fails to run in this
tree.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (config, CLI arguments): the exact engine, the wigner engine with
# two-body loss noise, in two chunks with one-body loss noise, and
# lossless without tunneling (no noise terms at all), the stochastic
# tunneling pipeline with and without the splitter, and tunneling
# together with loss noise
COMMANDS = (
    ("two_step_n2000.json", ("squeeze",)),
    ("two_step_n2000.json", ("two-step",)),
    ("two_step_losses_n2000.json", ("two-step", "--engine", "wigner", "--traj", "500")),
    ("two_step_linear_loss.json", ("two-step", "--engine", "wigner", "--traj", "1000")),
    ("two_step_n2000.json", ("two-step", "--engine", "wigner", "--traj", "1000")),
    ("dynamic_strong_tunneling.json", ("dynamic", "--traj", "500")),
    ("dynamic_strong_tunneling.json", ("dynamic", "--traj", "500", "--beam-splitter", "on")),
    ("dynamic_tunneling_losses.json", ("dynamic", "--traj", "500")),
)


def run_csv(tree: Path, config: str, args) -> subprocess.CompletedProcess:
    """One CLI command run with `tree`'s package on `tree`'s config file."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "twinwell.cli", *args, "--config", str(tree / "configs" / config)],
        env=env,
        capture_output=True,
        text=True,
        cwd=tree,
    )


def config_bytes(tree: Path, config: str) -> bytes | None:
    path = tree / "configs" / config
    return path.read_bytes() if path.is_file() else None


def header_line(csv: str, prefix: str) -> str:
    return next((line for line in csv.splitlines() if line.startswith(prefix)), "")


def compare(
    old: subprocess.CompletedProcess, new: subprocess.CompletedProcess, config_changed: bool
) -> tuple[str, bool]:
    """(status, broken) of one command's base and head runs, given whether
    its config file differs between the trees; head must run."""
    if old.returncode != 0:
        return "not comparable: the base run failed", False
    if config_changed:
        return "not comparable: the config changed", False
    before, after = old.stdout, new.stdout
    if before == after:
        return "same bytes", False
    version_before = header_line(before, "# twinwell ")
    version_after = header_line(after, "# twinwell ")
    if version_before != version_after:
        return f"changed, version {version_before!r} -> {version_after!r}", False
    return f"BROKEN: bytes changed under the same {version_after!r}", True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path, help="tree to compare against")
    base = parser.parse_args(argv).base_dir.resolve()
    broken = 0
    for config, cli_args in COMMANDS:
        label = f"{' '.join(cli_args)} --config configs/{config}"
        new = run_csv(ROOT, config, cli_args)
        if new.returncode != 0:
            print(f"FAIL to run {label} in {ROOT}:\n{new.stderr}", file=sys.stderr)
            return 2
        changed = config_bytes(base, config) != config_bytes(ROOT, config)
        status, bad = compare(run_csv(base, config, cli_args), new, changed)
        broken += bad
        print(f"{label}: {status}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

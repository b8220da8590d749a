"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration; collects every violated field at once."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        msg = "invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(msg)


class DegenerateReferenceError(ArithmeticError):
    """A criterion's reference denominator (mean spin or variance) vanished."""


class DegenerateSweepError(DegenerateReferenceError):
    """Some taus of a sweep have a degenerate reference.

    `reasons` maps each such tau to its message; `columns` holds the CSV
    columns of the whole sweep, every cell but `tau` empty at those taus.
    """

    def __init__(self, reasons: dict, columns: dict):
        self.reasons = reasons
        self.columns = columns
        taus = ", ".join(f"{tau:.12g}" for tau in self.reasons)
        why = "; ".join(dict.fromkeys(self.reasons.values()))
        super().__init__(f"at tau {taus}: {why}")


class TruncationError(RuntimeError):
    """Fock cutoff too small for the requested accuracy."""

    def __init__(self, tail_mass: float, cutoff: int):
        self.tail_mass = float(tail_mass)
        self.cutoff = int(cutoff)
        super().__init__(
            f"Fock cutoff {cutoff} too small: truncated tail mass {tail_mass:.3e}"
        )


class DivergenceError(RuntimeError):
    """A stochastic trajectory left the finite domain."""

    def __init__(self, tau: float, trajectory: int, step: int):
        self.tau = float(tau)
        self.trajectory = int(trajectory)
        self.step = int(step)
        super().__init__(
            f"trajectory {trajectory} diverged near tau={tau:.6g} (step {step})"
        )

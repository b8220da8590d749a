"""Single-moment entry to the truncated Fock-basis oracle of `twinwell.kerr`."""

from __future__ import annotations

from twinwell.kerr import _fock_state, _fock_sum


def fock_site_moment(
    p1: int,
    p2: int,
    q1: int,
    q2: int,
    alpha1,
    alpha2,
    g11: float,
    g12: float,
    g22: float,
    tau: float,
    cutoff: int | None = None,
    tail_tol: float = 1e-10,
) -> complex:
    """Truncated Fock-basis oracle for `site_moment` at one time."""
    state = _fock_state(alpha1, alpha2, g11, g12, g22, [tau], cutoff, tail_tol)
    return complex(_fock_sum(state, p1, p2, q1, q2)[0])

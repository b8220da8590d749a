"""Exact dynamics of coherent states under the per-site Kerr Hamiltonian.

Each well evolves with

    H = (1/2) g11 n1(n1-1) + g12 n1 n2 + (1/2) g22 n2(n2-1),

which is diagonal in the joint Fock basis and conserves each mode number.
The Heisenberg solution a_i(t) = exp(-i sum_j g_ij N_j t) a_i(0) reduces
every normal-ordered monomial to a phase-dressed product of coherent
amplitudes: commuting each operator through the exponentials with
a_i f(N_j) = f(N_j + δ_ij) a_i leaves

    <a1†^p1 a2†^p2 a1^q1 a2^q2>(t)
      = ᾱ1^p1 α1^q1 ᾱ2^p2 α2^q2
        · exp[λ1 (e^{-i u1 t} - 1) + λ2 (e^{-i u2 t} - 1) + i φ t],

    u1 = (q1-p1) g11 + (q2-p2) g12,   u2 = (q1-p1) g12 + (q2-p2) g22,
    φ  = g11 (p1(p1-1) - q1(q1-1))/2 + g22 (p2(p2-1) - q2(q2-1))/2
         + g12 (p1 p2 - q1 q2),

with λ_i = |α_i|²; `site_moment` evaluates this one expression.  Wells
never couple under this Hamiltonian, so cross-site monomials factorize:
`moment_table` tabulates the moment basis (or any list of monomial keys)
for a grid of times from the closed form, and `fock_moment_table` from an
independent truncated Fock-basis oracle that cross-checks it.  Both
evaluate every well part of the keys once per distinct coherent
amplitude, over all times at once (one `site_moment` call when the wells
share α), and form each column as its well-A part times its well-B part.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import TruncationError
from .operators import BASIS_KEYS


def _abs2(x) -> float:
    z = complex(x)
    return z.real * z.real + z.imag * z.imag


def site_moment(
    p1,
    p2,
    q1,
    q2,
    alpha1,
    alpha2,
    g11: float,
    g12: float,
    g22: float,
    tau,
):
    """Closed-form <a1†^p1 a2†^p2 a1^q1 a2^q2>(tau) for one well,

        ᾱ1^p1 α1^q1 ᾱ2^p2 α2^q2
          · exp[λ1 (e^{-i u1 t} - 1) + λ2 (e^{-i u2 t} - 1) + i φ t]

    (u1, u2, φ as in the module docstring), evaluated as that one
    expression on (parts × times) broadcast arrays.

    `tau` may be a scalar or an array of times, and the exponents ints or
    int arrays of one shape, a batch of well parts; the result has shape
    (*tau.shape, *parts.shape).  Every entry takes the same numpy array
    operations whatever the batch, so its bits do not depend on the batch.
    """
    alpha1 = complex(alpha1)
    alpha2 = complex(alpha2)
    tau = np.asarray(tau, dtype=float)
    exps = np.broadcast_arrays(p1, p2, q1, q2)
    # parts along axis 0 and times along axis 1, even for a single part:
    # numpy's scalar arithmetic may round a complex product apart
    p1, p2, q1, q2 = (e.reshape(-1, 1) for e in exps)
    t = tau.reshape(1, -1)
    pref = alpha1.conjugate() ** p1 * alpha1**q1 * alpha2.conjugate() ** p2 * alpha2**q2
    u1 = (q1 - p1) * g11 + (q2 - p2) * g12
    u2 = (q1 - p1) * g12 + (q2 - p2) * g22
    phi = (
        0.5 * g11 * (p1 * (p1 - 1) - q1 * (q1 - 1))
        + 0.5 * g22 * (p2 * (p2 - 1) - q2 * (q2 - 1))
        + g12 * (p1 * p2 - q1 * q2)
    )
    exponent = (
        _abs2(alpha1) * (np.exp(-1j * (u1 * t)) - 1.0)
        + _abs2(alpha2) * (np.exp(-1j * (u2 * t)) - 1.0)
        + 1j * (phi * t)
    )
    return (pref * np.exp(exponent)).T.reshape(tau.shape + exps[0].shape)[()]


def _site_parts(key):
    """(well A, well B) exponents (p1, p2, q1, q2) of a two-well monomial key."""
    return (key[0], key[1], key[4], key[5]), (key[2], key[3], key[6], key[7])


@functools.lru_cache(maxsize=4)
def _part_index(keys):
    """The distinct non-trivial well parts of `keys` as a (4, n_parts)
    exponent array, and for each key the columns of its well-A and well-B
    part in a part table whose column 0 is the trivial part (1), all
    read-only.  Built on first use: the basis has 35 parts, the full key
    list 69."""
    key_parts = [_site_parts(key) for key in keys]
    parts = sorted({p for pair in key_parts for p in pair} - {(0, 0, 0, 0)})
    column = {p: j for j, p in enumerate([(0, 0, 0, 0)] + parts)}
    index = (
        np.array(parts).T,
        np.array([column[a] for a, _ in key_parts]),
        np.array([column[b] for _, b in key_parts]),
    )
    for a in index:
        a.flags.writeable = False
    return index


def _tabulate(initial, n_tau: int, site, keys) -> np.ndarray:
    """Normal-ordered moments of `keys`: (n_tau, 1, len(keys)).

    `site(parts, alpha)` gives the (n_tau, n_parts) moments of the well
    parts `parts`, a (4, n_parts) array of exponents (p1, p2, q1, q2), for
    the coherent amplitude `alpha`.  It is called once per distinct
    amplitude, for every part of `keys` at once.  Wells evolve
    independently, so each monomial is its well-A part times its well-B
    part, gathered through the `_part_index` columns.  The single ensemble
    row keeps the layout of the stochastic engine's table.
    """
    parts, a_col, b_col = _part_index(tuple(keys))
    tables = {}
    for alpha in (initial.alpha_a, initial.alpha_b):
        if alpha not in tables:
            part_table = np.empty((n_tau, 1 + parts.shape[1]), dtype=complex)
            part_table[:, 0] = 1.0
            part_table[:, 1:] = site(parts, alpha)
            tables[alpha] = part_table
    a_parts, b_parts = tables[initial.alpha_a], tables[initial.alpha_b]
    return np.multiply(a_parts[:, a_col], b_parts[:, b_col])[:, None]


def moment_table(couplings, initial, taus, keys=BASIS_KEYS) -> np.ndarray:
    """Exact moments of `keys` (default the basis) for a grid of times,
    (n_tau, 1, len(keys)): one `site_moment` call per distinct amplitude,
    vectorised over the times and the well parts.  The oracle checks pass
    `FULL_KEYS`, every monomial of order <= 4.

    `site_moment` is looked up when called, so a wrapper installed on the
    module attribute sees every evaluation.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    c = couplings
    return _tabulate(
        initial,
        taus.size,
        lambda parts, alpha: site_moment(*parts, alpha, alpha, c.g11, c.g12, c.g22, taus),
        keys,
    )


def default_fock_cutoff(nbar: float) -> int:
    """Cutoff with Poisson tail far below the 1e-8 targets at order <= 4."""
    return max(10, int(math.ceil(nbar + 10.0 * math.sqrt(max(nbar, 1.0)))))


def _fock_state(alpha1, alpha2, g11, g12, g22, taus, cutoff=None, tail_tol=1e-10):
    """Truncated Fock amplitudes of one well's coherent state, with the
    diagonal phases exp[-i tau (g11 n1(n1-1)/2 + g12 n1 n2 + g22 n2(n2-1)/2)]
    at each of `taus`: (log-factorials, psi of shape (n_tau, cutoff+1, cutoff+1)).
    Raises TruncationError, carrying the tail mass, if the cutoff leaves
    more than `tail_tol` probability outside the basis.
    """
    alpha1 = complex(alpha1)
    alpha2 = complex(alpha2)
    lam1 = _abs2(alpha1)
    lam2 = _abs2(alpha2)
    if cutoff is None:
        cutoff = default_fock_cutoff(max(lam1, lam2))
    n = np.arange(cutoff + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff + 1)))))

    def amplitudes(alpha, lam):
        if lam == 0.0:
            c = np.zeros(cutoff + 1, dtype=complex)
            c[0] = 1.0
            return c
        mag = np.exp(-0.5 * lam + n * (0.5 * math.log(lam)) - 0.5 * log_fact)
        return mag * np.exp(1j * n * cmath.phase(alpha))

    c1 = amplitudes(alpha1, lam1)
    c2 = amplitudes(alpha2, lam2)
    for c, lam in ((c1, lam1), (c2, lam2)):
        tail = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
        if tail > tail_tol:
            raise TruncationError(tail, cutoff)

    n1 = n[:, None]
    n2 = n[None, :]
    theta = 0.5 * g11 * n1 * (n1 - 1) + g12 * n1 * n2 + 0.5 * g22 * n2 * (n2 - 1)
    taus = np.asarray(taus, dtype=float)[:, None, None]
    return log_fact, c1[:, None] * c2[None, :] * np.exp(-1j * taus * theta)


def _fock_sum(state, p1: int, p2: int, q1: int, q2: int) -> np.ndarray:
    """(n_tau,) <a1†^p1 a2†^p2 a1^q1 a2^q2> from a `_fock_state`, summing
    the monomial matrix elements directly (numpy pairwise summation)."""
    log_fact, psi = state
    cutoff = len(log_fact) - 1
    kmax1 = cutoff - max(p1, q1)
    kmax2 = cutoff - max(p2, q2)
    if kmax1 < 0 or kmax2 < 0:
        raise TruncationError(1.0, cutoff)
    # <k+p| a†^p e^{...} a^q |k+q> ladder factors, in log space
    f1, f2 = (
        np.exp(0.5 * (log_fact[k + q] - log_fact[k]) + 0.5 * (log_fact[k + p] - log_fact[k]))
        for k, p, q in ((np.arange(kmax1 + 1), p1, q1), (np.arange(kmax2 + 1), p2, q2))
    )
    bra = psi[:, p1 : p1 + kmax1 + 1, p2 : p2 + kmax2 + 1].conj()
    ket = psi[:, q1 : q1 + kmax1 + 1, q2 : q2 + kmax2 + 1]
    return (bra * ket * f1[:, None] * f2[None, :]).reshape(len(psi), -1).sum(axis=1)


def fock_moment_table(
    couplings, initial, taus, cutoff: int | None = None, keys=BASIS_KEYS
) -> np.ndarray:
    """Oracle counterpart of `moment_table`: the Fock state is built once
    per coherent amplitude for all times, and each well part summed on it."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    c = couplings

    def site(parts, alpha):
        state = _fock_state(alpha, alpha, c.g11, c.g12, c.g22, taus, cutoff)
        return np.stack([_fock_sum(state, *p) for p in parts.T.tolist()], axis=1)

    return _tabulate(initial, taus.size, site, keys)

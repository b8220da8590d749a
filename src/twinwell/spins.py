"""Schwinger-spin moments, optimal quadrature angle and squeezing for one site.

Moments are read from a normal-ordered moment table of shape
(n_tau, n_ens, NBASIS), over the 117 number-conserving monomials of
order <= 4 (`operators.BASIS_KEYS`): ensemble row 0 is the merged
ensemble (the only row of the exact engine), the rows after it are
trajectory chunks.

The mode-phase convention Δθ = π/2 − arg<a2† a1> makes <J^X> = 0 and
<J^Y> = |<a2† a1>| ≥ 0 at every time; the squeezing reference is then
|<J^Y>|/2.  The phase factor e^{iΔθ} is computed as i·conj(w)/|w| rather
than through trigonometric functions of arg(w), which keeps the tau = 0
shot-noise baselines exact to machine precision.

`_site_moments` fixes that frame and reads the means and symmetrised
covariances of any Hermitian operators in it; `spin_moments` here and
`criteria.joint_moments` both read their moments through it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateReferenceError
from .operators import SITE_A, SITE_B, CompiledPolys, raising_bilinear, spin_operators


def phase_factor_from(w) -> np.ndarray:
    """e^{iΔθ} for Δθ = π/2 − arg(w), formed as i·conj(w)/|w|."""
    w = np.asarray(w, dtype=complex)
    aw = np.abs(w)
    if np.any(aw == 0.0):
        raise DegenerateReferenceError("zero transverse coherence <a2† a1>")
    return 1j * np.conj(w) / aw


def delta_theta_from(w) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    return 0.5 * np.pi - np.arctan2(w.imag, w.real)


class SpinMoments(NamedTuple):
    """First and second moments of one site's spin triple.

    Moment fields are (n_tau, n_ens) arrays, ensemble row 0 = merged;
    `delta_theta` is (n_tau,), fixed by the merged ensemble.
    """

    mean_JX: np.ndarray
    mean_JY: np.ndarray
    mean_JZ: np.ndarray
    var_JZ: np.ndarray
    var_JX: np.ndarray
    cov_ZX: np.ndarray
    delta_theta: np.ndarray = float("nan")


def _site_moments(table, sites, ops):
    """Frame and second moments of Hermitian `ops` over a moment table.

    e^{iΔθ} is fixed per tau by the merged ensemble of the first site.
    Returns <S> = e^{iΔθ}<m2† m1> per site, (n_tau, n_ens, n_sites); Δθ,
    (n_tau,); and the means, (n_tau, n_ens, n_ops), and symmetrised
    covariance matrices, (n_tau, n_ens, n_ops, n_ops), of `ops` at that
    phase.  Each pair's product AB is built once, and the real part of
    its expectation is the symmetrised one: BA = (AB)† for Hermitian A
    and B, so Re<AB> = <(AB + BA)/2>.  The polynomials are compiled once
    per call at unit phase factor.
    """
    w = CompiledPolys([raising_bilinear(site) for site in sites]).expectations(table)
    pf = phase_factor_from(w[:, 0, 0])
    n = len(ops)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    products = [ops[i] * ops[j] for i, j in pairs]
    e = CompiledPolys(list(ops) + products).expectations(table, pf).real
    means = e[..., :n]
    cov = np.empty(e.shape[:2] + (n, n))
    for k, (i, j) in enumerate(pairs):
        cov[..., i, j] = cov[..., j, i] = e[..., n + k] - means[..., i] * means[..., j]
    return pf[:, None, None] * w, delta_theta_from(w[:, 0, 0]), means, cov


def spin_moments(table, site=SITE_A) -> SpinMoments:
    """Spin moments of one site over a moment table."""
    jx, _, jz = spin_operators(site)
    s, delta_theta, means, cov = _site_moments(table, (site,), [jz, jx])
    return SpinMoments(
        s[..., 0].real,
        s[..., 0].imag,
        means[..., 0],
        cov[..., 0, 0],
        cov[..., 1, 1],
        cov[..., 0, 1],
        delta_theta,
    )


def rotated_variance(m: SpinMoments, theta):
    """Variance of J^θ = cosθ J^Z + sinθ J^X."""
    c = np.cos(theta)
    s = np.sin(theta)
    return c * c * m.var_JZ + s * s * m.var_JX + 2.0 * s * c * m.cov_ZX


def _fold_angle(theta):
    """Fold into (-pi/2, pi/2]."""
    theta = np.fmod(theta, np.pi)
    return np.where(
        theta <= -0.5 * np.pi, theta + np.pi, np.where(theta > 0.5 * np.pi, theta - np.pi, theta)
    )


def optimal_angle(m: SpinMoments):
    """Angles in (-pi/2, pi/2] minimizing `rotated_variance`, elementwise.

    The stationarity condition tan(2θ) = 2 cov / (varZ − varX) yields a
    minimum/maximum pair; both candidates are compared explicitly.  The
    fully degenerate case gives 0, and exact ties go to the smaller |θ|.
    """
    num = 2.0 * np.asarray(m.cov_ZX, dtype=float)
    den = np.asarray(m.var_JZ, dtype=float) - m.var_JX
    t0 = _fold_angle(0.5 * np.arctan2(num, den))
    t1 = _fold_angle(t0 + 0.5 * np.pi)
    v0 = rotated_variance(m, t0)
    v1 = rotated_variance(m, t1)
    tie = np.where(np.abs(t0) <= np.abs(t1), t0, t1)
    theta = np.where(v0 == v1, tie, np.where(v0 < v1, t0, t1))
    return np.where((num == 0.0) & (den == 0.0), 0.0, theta)


def squeezing(m: SpinMoments, theta):
    """Rotated variance over the Heisenberg reference |<J^Y>|/2; < 1 squeezed."""
    ref = 0.5 * np.abs(m.mean_JY)
    if np.any(ref == 0.0):
        raise DegenerateReferenceError("mean transverse spin <J^Y> is zero")
    return rotated_variance(m, theta) / ref


__all__ = [
    "SpinMoments",
    "spin_moments",
    "rotated_variance",
    "optimal_angle",
    "squeezing",
    "phase_factor_from",
    "delta_theta_from",
    "SITE_A",
    "SITE_B",
]

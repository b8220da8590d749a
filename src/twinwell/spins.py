"""Schwinger-spin moments, optimal quadrature angle and squeezing for one site.

Moments are read from a normal-ordered moment table of shape
(n_tau, n_ens, NBASIS): ensemble row 0 is the merged ensemble (the only
row of the exact engine), the rows after it are trajectory chunks.

The mode-phase convention Δθ = π/2 − arg<a2† a1> makes <J^X> = 0 and
<J^Y> = |<a2† a1>| ≥ 0 at every time; the squeezing reference is then
|<J^Y>|/2.  The phase factor e^{iΔθ} is computed as i·conj(w)/|w| rather
than through trigonometric functions of arg(w), which keeps the tau = 0
shot-noise baselines exact to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class SpinMoments:
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


def spin_moments(table, site=SITE_A) -> SpinMoments:
    """Spin moments of one site over a moment table.

    The spin operators are compiled once per call at unit phase factor;
    the phase convention is fixed per tau from the merged ensemble.
    """
    jx, _, jz = spin_operators(site)
    w = CompiledPolys([raising_bilinear(site)]).expectations(table)[..., 0]
    pf = phase_factor_from(w[:, 0])
    second = [jz, jz * jz, jx * jx, 0.5 * (jz * jx + jx * jz)]
    e = CompiledPolys(second).expectations(table, pf).real

    s_mean = pf[:, None] * w  # <S> with the phase applied; Im -> J^Y, Re -> J^X
    mean_jx = s_mean.real
    mean_jz = e[..., 0]
    return SpinMoments(
        mean_jx,
        s_mean.imag,
        mean_jz,
        e[..., 1] - mean_jz * mean_jz,
        e[..., 2] - mean_jx * mean_jx,
        e[..., 3] - mean_jz * mean_jx,
        delta_theta_from(w[:, 0]),
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

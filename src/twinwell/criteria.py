"""Two-site spin correlations: inference variances, entanglement and
EPR-steering criteria with optimized measurement angle and gains.

A whole sweep is evaluated at once, from a normal-ordered moment table
of shape (n_tau, n_ens, NBASIS), over the 117 number-conserving
monomials of order <= 4: ensemble row 0 is the merged ensemble,
the rows after it are trajectory chunks.  The frame and the symmetrised
covariances of the sum and difference spins come from the same routine
as the single-site spin moments (`spins._site_moments`), so every mean
and covariance is one contraction with the table, and the angle and
gain optimisations run over all taus together.  The angle and gains are
chosen on the merged ensemble and frozen for the chunks.

The criteria read the measured site pair (1, 2): (C, D) after the
tunneling-pulse beam splitter, (A, B) without it.  Every variance comes
from the sum and difference spins of that pair,

    P^θ = J_1^θ + J_2^θ,        K^θ = J_1^θ − J_2^θ,

so that J_1^θ − g J_2^θ = g₋ P^θ + g₊ K^θ with g± = (1 ± g)/2, and
J_1 ∓ J_2 are K and P themselves.  With the splitter, P = J_A + J_B
term for term; the tests check this and K against its hand expansion.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateReferenceError
from .operators import SITE_A, SITE_B, SITE_C, SITE_D, spin_operators
from .spins import _fold_angle, _site_moments

# samples of the angle objective over one period of φ = 2θ: enough for
# the Fourier coefficients of n'd − nd', of degree at most 6 in φ
N_SAMPLE = 16
# samples whose spread is at most FLAT_TOL times their largest value are flat
FLAT_TOL = 1e-8
TIE_TOL = 1e-9
# the closed-form quartic is used where its lead is at least QUARTIC_LEAD_TOL
# of its largest coefficient and its last Newton step at most
# QUARTIC_STEP_TOL of each root's modulus
QUARTIC_LEAD_TOL = 1e-3
QUARTIC_STEP_TOL = 1e-12


class GainPair(NamedTuple):
    """Inference gains minimizing var(J_C^θ − g J_D^θ) and var(J_C^θ' + g' J_D^θ').

    One pair per tau, chosen on the merged ensemble.
    """

    g: np.ndarray
    g_prime: np.ndarray


class JointSpinMoments(NamedTuple):
    """Second moments of the site-pair spins at angle θ (and θ + π/2).

    `theta` and `delta_theta` are (n_tau,); the other fields are
    (n_tau, n_ens) arrays, ensemble row 0 = merged.
    """

    theta: np.ndarray
    delta_theta: np.ndarray
    mean_JY_C: np.ndarray
    mean_JY_D: np.ndarray
    var_minus_theta: np.ndarray
    var_plus_theta: np.ndarray
    var_minus_perp: np.ndarray
    var_plus_perp: np.ndarray
    cov_theta: np.ndarray
    cov_perp: np.ndarray
    var_JC_theta: np.ndarray
    var_JC_perp: np.ndarray
    var_JD_theta: np.ndarray
    var_JD_perp: np.ndarray


class CriteriaResult(NamedTuple):
    """All per-tau outputs of the joint-criteria pipeline.

    E_product < 1 signals entanglement (< 0.5, EPR); E_EPR_product < 1
    signals steering; duan_sum < 0 is the sum-criterion violation.
    Per-tau fields are (n_tau,); the criteria are (n_tau, n_ens).
    """

    theta_opt: np.ndarray
    delta_theta: np.ndarray
    S_minus: np.ndarray
    S_plus: np.ndarray
    E_product: np.ndarray
    E_EPR_product: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    duan_sum: np.ndarray
    joint: JointSpinMoments


def _basis_ops(site_c, site_d):
    """(P^Z, P^X, K^Z, K^X) of the site pair at unit phase factor."""
    jcx, _, jcz = spin_operators(site_c)
    jdx, _, jdz = spin_operators(site_d)
    return [jcz + jdz, jcx + jdx, jcz - jdz, jcx - jdx]


def _quad(V, i, j, c, s):
    """cov(c·Z_i + s·X_i, c·Z_j + s·X_j) for block offsets i, j in {0, 2}."""
    return (
        c * c * V[..., i, j]
        + s * s * V[..., i + 1, j + 1]
        + c * s * (V[..., i, j + 1] + V[..., i + 1, j])
    )


def _combos(V, theta):
    """Site 1/2 variances and covariance at angle θ, and var(J_1 ∓ J_2)."""
    c = np.cos(theta)
    s = np.sin(theta)
    wpp = _quad(V, 0, 0, c, s)
    wkk = _quad(V, 2, 2, c, s)
    wpk = _quad(V, 0, 2, c, s)
    return {
        "var_C": 0.25 * (wpp + wkk + 2.0 * wpk),
        "var_D": 0.25 * (wpp + wkk - 2.0 * wpk),
        "cov": 0.25 * (wpp - wkk),
        "v_minus": wkk,
        "v_plus": wpp,
    }


def _num_den(V, theta, objective: str):
    """The angle objective at θ as num/den: the product of the inference
    variances at θ and θ + π/2, plain (den = 1) or gain-optimized."""
    a = _combos(V, theta)
    b = _combos(V, theta + 0.5 * math.pi)
    if objective == "epr":
        det_a = a["var_C"] * a["var_D"] - a["cov"] ** 2
        det_b = b["var_C"] * b["var_D"] - b["cov"] ** 2
        return det_a * det_b, a["var_D"] * b["var_D"]
    return a["v_minus"] * b["v_plus"], np.ones_like(a["v_minus"])


def _quadratic_roots(b, c):
    """Both roots of y² + b y + c, the larger one without cancellation."""
    disc = np.sqrt(b * b - 4.0 * c)
    disc = np.where((b.conj() * disc).real < 0.0, -disc, disc)
    y1 = -0.5 * (b + disc)
    return y1, c / y1


def _quartic_roots(coef):
    """Roots (n_rows, 4) of the quartics with the coefficients `coef`
    (n_rows, 5), highest power first, and the mask of rows they are
    trusted on.

    Ferrari's method (see Flocke, ACM TOMS 41, 30 (2015), on solving
    quartics stably in floating point): the depressed quartic
    y⁴ + p y² + q y + r, y = z + b/4, is the difference of squares
    (y² + p/2 + m)² − 2m (y − q/4m)² at a root m of the resolvent cubic
    m³ + p m² + (p²/4 − r) m − q²/8, solved by Cardano; its root of
    largest modulus keeps the two quadratic factors free of cancellation.
    Two Newton steps on P(z) then polish each root.  A row is trusted
    when its lead is at least QUARTIC_LEAD_TOL of its largest coefficient
    and the last Newton step moved each root by at most QUARTIC_STEP_TOL
    of its modulus.  That leaves out leads dephased to rounding noise,
    whose roots near 0 and infinity spoil the solve, and roots so close to
    double that Newton's method converges slowly.
    """
    lead = coef[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b, c, d, e = (coef[:, 1:] / lead[:, None]).T
        bb = b * b
        p = c - 0.375 * bb
        q = d - 0.5 * b * c + 0.125 * bb * b
        r = e - 0.25 * b * d + 0.0625 * bb * c - 0.01171875 * bb * bb
        # the resolvent cubic, depressed by m = t − p/3: t³ + P t + Q
        P = -p * p / 12.0 - r
        Q = -p * p * p / 108.0 + p * r / 3.0 - 0.125 * q * q
        root = np.sqrt(0.25 * Q * Q + P * P * P / 27.0)
        u3 = np.where((Q.conj() * root).real > 0.0, -0.5 * Q - root, -0.5 * Q + root)
        u = u3 ** (1.0 / 3.0) * np.exp(2j * np.pi / 3.0 * np.arange(3))[:, None]
        m = u - P / (3.0 * u) - p / 3.0
        m = m[np.argmax(np.abs(m), axis=0), np.arange(len(p))]
        s = np.sqrt(2.0 * m)
        y1, y2 = _quadratic_roots(-s, 0.5 * p + m + 0.5 * q / s)
        y3, y4 = _quadratic_roots(s, 0.5 * p + m - 0.5 * q / s)
        z = np.stack([y1, y3, y2, y4], axis=1) - 0.25 * b[:, None]
        for _ in range(2):
            val, slope = coef[:, :1], 0.0
            for a in coef[:, 1:].T:
                slope = slope * z + val
                val = val * z + a[:, None]
            step = val / slope
            z = z - step
        ok = (np.abs(step) <= QUARTIC_STEP_TOL * np.abs(z)).all(axis=1)
    ok &= np.abs(lead) >= QUARTIC_LEAD_TOL * np.abs(coef).max(axis=1)
    return z, ok


def _stationary_phases(g, deg, samples):
    """Candidate phases φ, (n_rows, 2 deg): those of the roots of
    z^deg Σ_{|k| <= deg} g_k z^k, g_{-k} = conj(g_k), one row per row of g.

    At deg 2 a row's quartic is solved in closed form (`_quartic_roots`)
    where that can be trusted; every other row takes the eigenvalues of
    its companion matrix.  A row whose top coefficient g_deg is 0, or so
    small that the companion matrix overflows, has a root at 0 and one at
    infinity: it is deflated to degree deg − 1, and so on down.  Its 2 d
    roots are repeated to fill the row.  A row with no coefficient left
    takes the phase of its smallest sample in `samples` (n_rows, N_SAMPLE).
    """
    phi = np.empty((len(g), 2 * deg))
    todo = np.ones(len(g), dtype=bool)
    for d in range(deg, 0, -1):
        rows = np.flatnonzero(todo)
        # highest power first
        coef = np.concatenate([g[rows, d:0:-1], g[rows, : d + 1].conj()], axis=1)
        if d == deg == 2:
            roots, ok = _quartic_roots(coef)
            phi[rows[ok]] = np.angle(roots[ok])
            todo[rows[ok]] = False
            rows, coef = rows[~ok], coef[~ok]
        with np.errstate(divide="ignore", invalid="ignore"):
            top = -coef[:, 1:] / coef[:, :1]
        ok = np.isfinite(top).all(axis=1)
        if ok.any():
            companion = np.zeros((np.count_nonzero(ok), 2 * d, 2 * d), dtype=complex)
            companion[:, 0] = top[ok]
            companion[:, np.arange(1, 2 * d), np.arange(2 * d - 1)] = 1.0
            phi[rows[ok]] = np.angle(np.linalg.eigvals(companion))[:, np.arange(2 * deg) % (2 * d)]
            todo[rows[ok]] = False
        if not todo.any():
            return phi
    phi[todo] = 2.0 * np.pi / N_SAMPLE * np.argmin(samples[todo], axis=1)[:, None]
    return phi


def optimal_theta(V, objective: str = "product") -> np.ndarray:
    """Angles in (-pi/2, pi/2] minimizing the joint inference-variance
    product, one per covariance matrix of V (shape (n_tau, 4, 4)).

    Every variance is s0 + s1 cos 2θ + s2 sin 2θ, so num and den are
    trigonometric polynomials in φ = 2θ, and the objective is stationary
    at the real roots of n'd − nd', found for all rows at once in
    z = e^{iφ} (`_stationary_phases`) and polished by Newton steps.
    Where θ ∓ π/2 is within TIE_TOL of the best root (the objective
    repeats every π/2 for "epr", and for "product" when the sites are
    uncorrelated) the smaller |θ| wins, π/4 over −π/4.  Where
    the samples are flat (the initial coherent state at tau = 0) rounding
    alone would pick the angle, so it is 0.  Where the top coefficient of
    n'd − nd' vanishes (a difference-spin block dephased to isotropy) the
    polynomial is deflated to its true degree (`_stationary_phases`).
    """
    theta = np.zeros(len(V))
    num, den = _num_den(V[:, None], np.pi / N_SAMPLE * np.arange(N_SAMPLE), objective)
    f = num / den
    live = np.ptp(f, axis=-1) > FLAT_TOL * np.abs(f).max(axis=-1)
    V, num, den = V[live], num[live], den[live]
    m = np.arange(N_SAMPLE // 2 + 1)
    deriv = lambda x: np.fft.irfft(1j * m * np.fft.rfft(x), N_SAMPLE)
    g = np.fft.rfft(deriv(num) * den - num * deriv(den)) / N_SAMPLE
    deg = 6 if objective == "epr" else 2
    phi = _stationary_phases(g, deg, f[live])
    k = np.arange(1, deg + 1)
    for _ in range(3):
        terms = g[:, None, 1 : deg + 1] * np.exp(1j * k * phi[..., None])
        val = g[:, None, 0].real + 2.0 * terms.real.sum(axis=-1)
        slope = -2.0 * (k * terms.imag).sum(axis=-1)
        phi = phi - np.divide(val, slope, out=np.zeros_like(val), where=slope != 0.0)
    cand = _fold_angle(0.5 * phi)
    f = np.divide(*_num_den(V[:, None], cand, objective))
    best = cand[np.arange(len(V)), np.argmin(f, axis=1)]
    alt = _fold_angle(best + 0.5 * math.pi)
    f0, f1 = np.divide(*_num_den(V, np.stack([best, alt]), objective))
    closer = (np.abs(alt) < np.abs(best)) | ((np.abs(alt) == np.abs(best)) & (alt > 0.0))
    theta[live] = np.where((np.abs(f1 - f0) <= TIE_TOL * np.abs(f0)) & closer, alt, best)
    return theta


def joint_moments(
    table,
    theta=None,
    beam_splitter: bool = True,
    objective: str = "product",
) -> JointSpinMoments:
    """Joint spin moments at angles θ (per tau, or one for all taus);
    optimized on the merged ensemble when not given."""
    site_c, site_d = (SITE_C, SITE_D) if beam_splitter else (SITE_A, SITE_B)
    s, delta_theta, _, V = _site_moments(table, (site_c, site_d), _basis_ops(site_c, site_d))
    if theta is None:
        theta = optimal_theta(V[:, 0], objective)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), delta_theta.shape)
    at = _combos(V, theta[:, None])
    ap = _combos(V, theta[:, None] + 0.5 * math.pi)
    return JointSpinMoments(
        theta=theta,
        delta_theta=delta_theta,
        mean_JY_C=s[..., 0].imag,
        mean_JY_D=s[..., 1].imag,
        var_minus_theta=at["v_minus"],
        var_plus_theta=at["v_plus"],
        var_minus_perp=ap["v_minus"],
        var_plus_perp=ap["v_plus"],
        cov_theta=at["cov"],
        cov_perp=ap["cov"],
        var_JC_theta=at["var_C"],
        var_JC_perp=ap["var_C"],
        var_JD_theta=at["var_D"],
        var_JD_perp=ap["var_D"],
    )


def _n0(j: JointSpinMoments):
    return 0.5 * (np.abs(j.mean_JY_C) + np.abs(j.mean_JY_D))


def e_product(j: JointSpinMoments):
    """sqrt(Δ²(J_C^θ−J_D^θ)·Δ²(J_C^θ'+J_D^θ')) over the two-site shot noise."""
    n0 = _n0(j)
    if np.any(n0 == 0.0):
        raise DegenerateReferenceError("zero mean transverse spin at both sites")
    num = np.sqrt(np.maximum(j.var_minus_theta, 0.0) * np.maximum(j.var_plus_perp, 0.0))
    return num / n0


def optimal_gains(j: JointSpinMoments) -> GainPair:
    """Gains minimizing the two inference variances (merged ensemble)."""
    var_theta = j.var_JD_theta[:, 0]
    var_perp = j.var_JD_perp[:, 0]
    if np.any(var_theta <= 0.0) or np.any(var_perp <= 0.0):
        raise DegenerateReferenceError("zero variance at the inferring site")
    return GainPair(j.cov_theta[:, 0] / var_theta, -j.cov_perp[:, 0] / var_perp)


def inference_variances(j: JointSpinMoments, gains: GainPair):
    """Δ²(J_C^θ − g J_D^θ) and Δ²(J_C^θ' + g' J_D^θ')."""
    g = np.asarray(gains.g)[..., None]
    gp = np.asarray(gains.g_prime)[..., None]
    v1 = j.var_JC_theta - 2.0 * g * j.cov_theta + g * g * j.var_JD_theta
    v2 = j.var_JC_perp + 2.0 * gp * j.cov_perp + gp * gp * j.var_JD_perp
    return v1, v2


def e_epr_product(j: JointSpinMoments, gains: GainPair):
    """Gain-optimized steering product over the single-site reference |<J_C^Y>|/2."""
    ref = 0.5 * np.abs(j.mean_JY_C)
    if np.any(ref == 0.0):
        raise DegenerateReferenceError("zero mean transverse spin at site C")
    v1, v2 = inference_variances(j, gains)
    return np.sqrt(np.maximum(v1, 0.0) * np.maximum(v2, 0.0)) / ref


def duan_sum_spin(j: JointSpinMoments):
    """LHS − RHS of the sum criterion in the rotated frame; < 0 ⇒ entangled."""
    return (
        j.var_minus_theta + j.var_plus_perp - (np.abs(j.mean_JY_C) + np.abs(j.mean_JY_D))
    )


def evaluate_criteria(
    table,
    beam_splitter: bool = True,
    theta=None,
    objective: str = "product",
) -> CriteriaResult:
    """Criteria for every tau of a moment table (angle, gains, S∓,
    products, sum)."""
    j = joint_moments(table, theta, beam_splitter, objective)
    gains = optimal_gains(j)
    n0 = _n0(j)
    return CriteriaResult(
        theta_opt=j.theta,
        delta_theta=j.delta_theta,
        S_minus=j.var_minus_theta / n0,
        S_plus=j.var_plus_perp / n0,
        E_product=e_product(j),
        E_EPR_product=e_epr_product(j, gains),
        g=gains.g,
        g_prime=gains.g_prime,
        duan_sum=duan_sum_spin(j),
        joint=j,
    )

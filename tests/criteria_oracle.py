"""Per-tau reference for the compiled criteria.

At every tau the operators are built at that tau's phase factor, and
each expectation is summed term by term by `NormalPoly.expectation`
(compensated, independent of term order).  With the beam splitter the
post-splitter spin operators are expanded head-on, without the
sum/difference regrouping the package uses.  The angle search is a dense
scan of the objective, then scalar golden-section refinement of the best
bracket; the gains are the scalar originals.  Nothing here is vectorised
over tau.
"""

from __future__ import annotations

import math

import numpy as np

from twinwell.operators import (
    BASIS_INDEX,
    SITE_A,
    SITE_B,
    SITE_C,
    SITE_D,
    raising_bilinear,
    spin_operators,
)

JOINT_FIELDS = (
    "mean_JY_C",
    "mean_JY_D",
    "var_minus_theta",
    "var_plus_theta",
    "var_minus_perp",
    "var_plus_perp",
    "cov_theta",
    "cov_perp",
    "var_JC_theta",
    "var_JC_perp",
    "var_JD_theta",
    "var_JD_perp",
)
CRITERIA = ("S_minus", "S_plus", "E_product", "E_EPR_product", "duan_sum")


def _evaluators(rows):
    """One poly -> expectation callable per ensemble row (row 0 merged)."""
    return [
        (lambda poly, r=row: poly.expectation(lambda key: complex(r[BASIS_INDEX[key]])))
        for row in rows
    ]


def _phase_factor(w: complex) -> complex:
    return 1j * w.conjugate() / abs(w)


def _combos(V, theta):
    """Site C/D variances and covariance at angle theta (a scalar or an
    array of angles), and J_C ∓ J_D."""
    c, s = np.cos(theta), np.sin(theta)

    def quad(i, j):
        return c * c * V[i, j] + s * s * V[i + 1, j + 1] + c * s * (V[i, j + 1] + V[i + 1, j])

    var_c, var_d, cov = quad(0, 0), quad(2, 2), quad(0, 2)
    return {
        "var_C": var_c,
        "var_D": var_d,
        "cov": cov,
        "v_minus": var_c + var_d - 2.0 * cov,
        "v_plus": var_c + var_d + 2.0 * cov,
    }


def _objective(V, theta, objective):
    a = _combos(V, theta)
    b = _combos(V, theta + 0.5 * math.pi)
    if objective == "epr":
        v1 = a["var_C"] - a["cov"] ** 2 / np.maximum(a["var_D"], 1e-300)
        v2 = b["var_C"] - b["cov"] ** 2 / np.maximum(b["var_D"], 1e-300)
        return v1 * v2
    return a["v_minus"] * b["v_plus"]


def optimal_theta(V, objective="product", n_scan=720):
    """Scan, then scalar golden-section refinement of the best bracket;
    0 where the scan's spread is at most 1e-8 of its largest value.  The
    angle is in (-pi/2, pi/2], with ties broken by rounding alone."""
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_scan, endpoint=False)
    values = _objective(V, grid, objective)
    if np.ptp(values) <= 1e-8 * np.abs(values).max():
        return 0.0
    i = int(np.argmin(values))
    step = math.pi / n_scan
    a, b = grid[i] - step, grid[i] + step
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = _objective(V, c, objective), _objective(V, d, objective)
    for _ in range(64):
        if b - a < 1e-12:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _objective(V, c, objective)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _objective(V, d, objective)
    theta = 0.5 * (a + b)
    if theta <= -0.5 * math.pi:
        theta += math.pi
    elif theta > 0.5 * math.pi:
        theta -= math.pi
    return theta


def criteria(rows, beam_splitter=True, theta=None, objective="product"):
    """Criteria at one tau from the (n_ens, NBASIS) rows of a moment table.

    Returns a dict: "theta", "g", "g_prime" (merged ensemble), and for
    every criterion and joint field a list over the ensemble rows, with
    the angle and gains frozen at the merged optimum.
    """
    evs = _evaluators(rows)
    site_c, site_d = (SITE_C, SITE_D) if beam_splitter else (SITE_A, SITE_B)
    w_c = [ev(raising_bilinear(site_c)) for ev in evs]
    w_d = [ev(raising_bilinear(site_d)) for ev in evs]
    pf = _phase_factor(w_c[0])
    jcx, _, jcz = spin_operators(site_c, pf)
    jdx, _, jdz = spin_operators(site_d, pf)
    ops = [jcz, jcx, jdz, jdx]
    sym = {
        (i, j): 0.5 * (ops[i] * ops[j] + ops[j] * ops[i]) for i in range(4) for j in range(i, 4)
    }
    covs = []
    for ev in evs:
        means = [ev(op).real for op in ops]
        V = np.empty((4, 4))
        for (i, j), op in sym.items():
            V[i, j] = V[j, i] = ev(op).real - means[i] * means[j]
        covs.append(V)
    if theta is None:
        theta = optimal_theta(covs[0], objective)
    at = [_combos(V, theta) for V in covs]
    ap = [_combos(V, theta + 0.5 * math.pi) for V in covs]
    g = at[0]["cov"] / at[0]["var_D"]
    gp = -ap[0]["cov"] / ap[0]["var_D"]
    out = {"theta": theta, "g": g, "g_prime": gp}
    for k in JOINT_FIELDS + CRITERIA:
        out[k] = []
    for e, (a, p) in enumerate(zip(at, ap)):
        jy_c = (pf * w_c[e]).imag
        jy_d = (pf * w_d[e]).imag
        n0 = 0.5 * (abs(jy_c) + abs(jy_d))
        v1 = a["var_C"] - 2.0 * g * a["cov"] + g * g * a["var_D"]
        v2 = p["var_C"] + 2.0 * gp * p["cov"] + gp * gp * p["var_D"]
        values = {
            "mean_JY_C": jy_c,
            "mean_JY_D": jy_d,
            "var_minus_theta": a["v_minus"],
            "var_plus_theta": a["v_plus"],
            "var_minus_perp": p["v_minus"],
            "var_plus_perp": p["v_plus"],
            "cov_theta": a["cov"],
            "cov_perp": p["cov"],
            "var_JC_theta": a["var_C"],
            "var_JC_perp": p["var_C"],
            "var_JD_theta": a["var_D"],
            "var_JD_perp": p["var_D"],
            "S_minus": a["v_minus"] / n0,
            "S_plus": p["v_plus"] / n0,
            "E_product": math.sqrt(max(a["v_minus"], 0.0) * max(p["v_plus"], 0.0)) / n0,
            "E_EPR_product": math.sqrt(max(v1, 0.0) * max(v2, 0.0)) / (0.5 * abs(jy_c)),
            "duan_sum": a["v_minus"] + p["v_plus"] - (abs(jy_c) + abs(jy_d)),
        }
        for k, v in values.items():
            out[k].append(v)
    return out


def local_squeezing(rows, site=SITE_A):
    """(S_local per ensemble row, merged-optimum angle) at one tau."""
    evs = _evaluators(rows)
    w = [ev(raising_bilinear(site)) for ev in evs]
    pf = _phase_factor(w[0])
    jx, _, jz = spin_operators(site, pf)
    stats = []
    for ev, we in zip(evs, w):
        mx, my = (pf * we).real, (pf * we).imag
        mz = ev(jz).real
        stats.append(
            (
                my,
                ev(jz * jz).real - mz * mz,
                ev(jx * jx).real - mx * mx,
                ev(0.5 * (jz * jx + jx * jz)).real - mz * mx,
            )
        )
    _, vz, vx, czx = stats[0]
    theta = 0.0
    if czx != 0.0 or vz != vx:
        t0 = 0.5 * math.atan2(2.0 * czx, vz - vx)
        t1 = t0 + 0.5 * math.pi if t0 <= 0.0 else t0 - 0.5 * math.pi

        def var(t):
            return math.cos(t) ** 2 * vz + math.sin(t) ** 2 * vx + 2.0 * math.sin(t) * math.cos(t) * czx

        theta = t0 if var(t0) <= var(t1) else t1
    c, s = math.cos(theta), math.sin(theta)
    s_local = [(c * c * z + s * s * x + 2.0 * s * c * zx) / (0.5 * abs(my)) for my, z, x, zx in stats]
    return s_local, theta

"""Normal-ordered operator algebra over the four bosonic modes.

Modes are ordered (a1, a2, b1, b2): two internal components at well A
followed by two at well B.  A monomial is the normal-ordered product

    a1†^p0 a2†^p1 b1†^p2 b2†^p3 · a1^q0 a2^q1 b1^q2 b2^q3

encoded as the 8-tuple ``(p0, p1, p2, p3, q0, q1, q2, q3)``.  Polynomials
are sparse complex combinations of such monomials; products are put back
into normal order on the fly with the per-mode identity

    a^q a†^r = sum_k k! C(q,k) C(r,k) a†^(r-k) a^(q-k),

each term pair reading the contractions and integer factors of its
exponent pair (q, r) from a cached table (`_contractions`).

Mode transforms (the tunneling-pulse beam splitter in particular) are
carried as exact numerator/half-power pairs so that bilinear expansion
coefficients like 1/2 stay exact floats; this keeps shot-noise baselines
clean to ~1e-13 even at N = 2000.

Both moment engines tabulate expectations over one fixed basis: every
number-conserving monomial of total order <= 4 (`BASIS_KEYS`, 117 of the
495 monomials of order <= 4 in `FULL_KEYS`, in the same relative order).
The criteria read variances of sums of spin operators, products of
bilinears m† n, so every monomial they need has as many creation as
annihilation operators.  `CompiledPolys` turns polynomials into weights
over that basis, so their expectations become one contraction with a
moment table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

N_MODES = 4
MAX_ORDER = 4


# Each order's monomials in ascending tuple order: a monomial of order n
# is a multiset of n operator slots (the 8 exponent positions), and the
# multisets that combinations_with_replacement lists, reversed, have
# ascending exponent tuples.
FULL_KEYS = tuple(
    tuple(slots.count(m) for m in range(2 * N_MODES))
    for order in range(MAX_ORDER + 1)
    for slots in reversed(
        list(itertools.combinations_with_replacement(range(2 * N_MODES), order))
    )
)
BASIS_KEYS = tuple(key for key in FULL_KEYS if sum(key[:4]) == sum(key[4:]))
BASIS_INDEX = {k: i for i, k in enumerate(BASIS_KEYS)}
NBASIS = len(BASIS_KEYS)


def key_dagger(key):
    return key[4:] + key[:4]


@functools.cache
def _contractions(q1, p2):
    """Wick contractions of a^q1 (annihilators, per mode) past a†^p2.

    One row per contraction vector kk, in itertools.product order: the
    8-tuple kk + kk to subtract from the uncontracted product's exponents
    (None when nothing is contracted), and the integer factors
    k! C(q, k) C(p, k) of the contracted modes, in mode order.  Cached by
    (q1, p2), so each exponent pair derives its factors once per process;
    the pairs of order <= 4 number at most 70².
    """
    rows = []
    for kk in itertools.product(*(range(min(q, p) + 1) for q, p in zip(q1, p2))):
        factors = tuple(
            math.comb(q, k) * math.comb(p, k) * math.factorial(k)
            for q, p, k in zip(q1, p2, kk)
            if k
        )
        rows.append((kk + kk if any(kk) else None, factors))
    return tuple(rows)


class NormalPoly:
    """Sparse complex polynomial in normal-ordered mode monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0j) + c
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
        return NormalPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NormalPoly({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, NormalPoly):  # pragma: no cover - symmetry
            return scalar.__mul__(self)
        s = complex(scalar)
        if s == 0:
            return NormalPoly()
        return NormalPoly({k: s * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, NormalPoly):
            return self.__rmul__(other)
        out: dict = {}
        get = out.get
        for k1, c1 in self.terms.items():
            q1 = k1[4:]
            for k2, c2 in other.terms.items():
                base = c1 * c2
                total = tuple(map(operator.add, k1, k2))
                for kk, factors in _contractions(q1, k2[:4]):
                    w = base
                    for f in factors:
                        w *= f
                    key = total if kk is None else tuple(map(operator.sub, total, kk))
                    v = get(key, 0j) + w
                    if v == 0:
                        out.pop(key, None)
                    else:
                        out[key] = v
        return NormalPoly(out)

    def dagger(self) -> "NormalPoly":
        return NormalPoly({key_dagger(k): c.conjugate() for k, c in self.terms.items()})

    def expectation(self, source) -> complex:
        """Exact expectation via a monomial source, summed with fsum.

        fsum makes the term sum order-independent and lets structurally
        cancelling terms cancel exactly (shot-noise baselines at tau=0).
        """
        re, im = [], []
        for k, c in self.terms.items():
            v = c * source(k)
            re.append(v.real)
            im.append(v.imag)
        return complex(math.fsum(re), math.fsum(im))

    def __repr__(self):  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}: {c:.4g}" for k, c in sorted(self.terms.items()))
        return f"NormalPoly({{{items}}})"


class ModeVector(NamedTuple):
    """Linear combination of bare annihilation operators with exact scale.

    The coefficient of mode m is ``num[m] / sqrt(2)**nhalf``.  All
    transforms used here have numerators in {0, ±1, ±1j}, so bilinear
    coefficients are exact multiples of powers of 1/2.
    """

    num: tuple
    nhalf: int = 0


SITE_A = (ModeVector((1, 0, 0, 0)), ModeVector((0, 1, 0, 0)))
SITE_B = (ModeVector((0, 0, 1, 0)), ModeVector((0, 0, 0, 1)))


def beam_splitter(a: ModeVector, b: ModeVector):
    """50:50 splitter with pi/2 phase: c = (a + i b)/√2, d = (b + i a)/√2."""
    if a.nhalf != b.nhalf:
        raise ValueError("cannot mix modes with different normalization")
    c = ModeVector(tuple(x + 1j * y for x, y in zip(a.num, b.num)), a.nhalf + 1)
    d = ModeVector(tuple(y + 1j * x for x, y in zip(a.num, b.num)), a.nhalf + 1)
    return c, d


SITE_C = tuple(beam_splitter(a, b)[0] for a, b in zip(SITE_A, SITE_B))
SITE_D = tuple(beam_splitter(a, b)[1] for a, b in zip(SITE_A, SITE_B))


def bilinear(left: ModeVector, right: ModeVector) -> NormalPoly:
    """Normal-ordered left† · right expanded over the bare modes."""
    halves = left.nhalf + right.nhalf
    if halves % 2:
        raise ValueError("bilinear of mixed normalization is not exact")
    scale = 0.5 ** (halves // 2)
    unit = [tuple(int(j == m) for j in range(4)) for m in range(4)]
    # each (m, n) pair is its own monomial, so no two terms meet; adding
    # to 0j turns a -0.0 part into +0.0
    return NormalPoly(
        {
            unit[m] + unit[n]: 0j + complex(cm).conjugate() * cn * scale
            for m, cm in enumerate(left.num)
            if cm != 0
            for n, cn in enumerate(right.num)
            if cn != 0
        }
    )


def raising_bilinear(site) -> NormalPoly:
    """m2† m1 for a (possibly transformed) site; its phase defines Δθ."""
    m1, m2 = site
    return bilinear(m2, m1)


def spin_operators(site, phase_factor=1.0):
    """(J^X, J^Y, J^Z) for one site with mode-phase factor e^{iΔθ} on m2† m1."""
    m1, m2 = site
    s = complex(phase_factor) * bilinear(m2, m1)
    sd = s.dagger()
    jx = 0.5 * (s + sd)
    jy = -0.5j * (s - sd)
    jz = 0.5 * (bilinear(m2, m2) - bilinear(m1, m1))
    return jx, jy, jz


def component2_charge(key) -> int:
    """Component-2 quanta a monomial creates: #a2† + #b2† − #a2 − #b2."""
    return key[1] + key[3] - key[5] - key[7]


class CompiledPolys:
    """Polynomials as dense weights over the basis columns they touch,
    grouped by component-2 charge.

    The mode-phase factor pf = e^{iΔθ} enters the spin operators only
    through the bilinears that move one quantum into component 2 (factor
    pf) or out of it (factor pf* = 1/pf).  In any product of them, a
    monomial of component-2 charge Q therefore carries exactly pf^Q.  So
    the polynomials are built once at pf = 1, and evaluating them at a
    per-tau pf scales the partial sum over each charge group by pf^Q.
    """

    def __init__(self, polys):
        cols: dict = {}  # charge -> basis columns
        for key in {k for p in polys for k in p.terms}:
            if key not in BASIS_INDEX:
                raise ValueError(
                    f"monomial {key} is not in the moment basis: it must have order <= "
                    f"{MAX_ORDER} and be number-conserving (as many creation as "
                    "annihilation operators)"
                )
            cols.setdefault(component2_charge(key), []).append(BASIS_INDEX[key])
        self.groups = []
        slot = {}  # basis column -> (group weights, position in the group)
        for charge in sorted(cols):
            group = sorted(cols[charge])
            weights = np.zeros((len(polys), len(group)), dtype=complex)
            slot.update({col: (weights, j) for j, col in enumerate(group)})
            self.groups.append((charge, np.array(group, dtype=np.intp), weights))
        for r, poly in enumerate(polys):
            for key, c in poly.terms.items():
                weights, j = slot[BASIS_INDEX[key]]
                weights[r, j] = c

    def expectations(self, table: np.ndarray, phase_factor=None) -> np.ndarray:
        """(n_tau, n_ens, n_polys) expectations over a (n_tau, n_ens, NBASIS)
        moment table, with the polynomials evaluated at the (n_tau,) phase
        factors `phase_factor` (None: as built, pf = 1)."""
        out = 0.0
        for charge, cols, weights in self.groups:
            part = np.einsum("tec,pc->tep", table[..., cols], weights)
            if phase_factor is not None and charge:
                power = np.ones_like(phase_factor, dtype=complex)
                for _ in range(abs(charge)):
                    power = power * phase_factor
                # pf^-n = conj(pf^n) exactly, since |pf| = 1
                part *= (power if charge > 0 else np.conj(power))[:, None, None]
            out = out + part
        return out

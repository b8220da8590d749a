import itertools
import math

import numpy as np
import pytest

from twinwell import spins
from twinwell.criteria import _basis_ops, joint_moments
from twinwell.operators import (
    BASIS_INDEX,
    BASIS_KEYS,
    FULL_KEYS,
    MAX_ORDER,
    NBASIS,
    SITE_A,
    SITE_B,
    SITE_C,
    SITE_D,
    CompiledPolys,
    ModeVector,
    NormalPoly,
    beam_splitter,
    bilinear,
    component2_charge,
    key_dagger,
    raising_bilinear,
    spin_operators,
)


def creation(mode: int) -> NormalPoly:
    p = [0] * 8
    p[mode] = 1
    return NormalPoly({tuple(p): 1.0 + 0j})


def annihilation(mode: int) -> NormalPoly:
    q = [0] * 8
    q[4 + mode] = 1
    return NormalPoly({tuple(q): 1.0 + 0j})


def kz_poly() -> NormalPoly:
    """K^Z = J_C^Z − J_D^Z by hand: (i/2)(a2†b2 − b2†a2 − a1†b1 + b1†a1)."""
    i2 = 0.5j
    return NormalPoly(
        {
            (0, 1, 0, 0, 0, 0, 0, 1): i2,  # a2† b2
            (0, 0, 0, 1, 0, 1, 0, 0): -i2,  # b2† a2
            (1, 0, 0, 0, 0, 0, 1, 0): -i2,  # a1† b1
            (0, 0, 1, 0, 1, 0, 0, 0): i2,  # b1† a1
        }
    )


def kx_poly(pf: complex = 1.0) -> NormalPoly:
    """K^X = J_C^X − J_D^X by hand, at phase factor pf = e^{iΔθ}:
    (i/2)[pf (a2†b1 − b2†a1) + pf* (a1†b2 − b1†a2)]."""
    i2 = 0.5j
    pfc = complex(pf).conjugate()
    return NormalPoly(
        {
            (0, 1, 0, 0, 0, 0, 1, 0): i2 * pf,  # a2† b1
            (0, 0, 0, 1, 1, 0, 0, 0): -i2 * pf,  # b2† a1
            (1, 0, 0, 0, 0, 0, 0, 1): i2 * pfc,  # a1† b2
            (0, 0, 1, 0, 0, 1, 0, 0): -i2 * pfc,  # b1† a2
        }
    )


def constant(c) -> NormalPoly:
    return NormalPoly({(0,) * 8: complex(c)})


def number_operator(site) -> NormalPoly:
    m1, m2 = site
    return bilinear(m1, m1) + bilinear(m2, m2)


def poly_close(a: NormalPoly, b: NormalPoly, tol=1e-14) -> bool:
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) <= tol for k in keys)


def loop_mul(a: NormalPoly, b: NormalPoly) -> NormalPoly:
    """a * b with each term pair's Wick factors derived afresh (oracle):
    the per-pair loop that the contraction table replaced."""
    out: dict = {}
    for k1, c1 in a.terms.items():
        p1, q1 = k1[:4], k1[4:]
        for k2, c2 in b.terms.items():
            p2, q2 = k2[:4], k2[4:]
            base = c1 * c2
            ranges = [range(min(q1[i], p2[i]) + 1) for i in range(4)]
            for kk in itertools.product(*ranges):
                w = base
                for i in range(4):
                    if kk[i]:
                        w *= math.comb(q1[i], kk[i]) * math.comb(p2[i], kk[i]) * math.factorial(kk[i])
                key = tuple(p1[i] + p2[i] - kk[i] for i in range(4)) + tuple(
                    q1[i] + q2[i] - kk[i] for i in range(4)
                )
                v = out.get(key, 0j) + w
                if v == 0:
                    out.pop(key, None)
                else:
                    out[key] = v
    return NormalPoly(out)


def term_bits(poly: NormalPoly):
    """Keys, in insertion order, with the exact bits of each coefficient."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in poly.terms.items()]


def random_poly(rng, n_terms: int, slots=range(8), exact=False) -> NormalPoly:
    """Up to `n_terms` monomials of order <= 4 over the exponent `slots`.
    The coefficients are in {0, ±1} + i{0, ±1} when `exact`, so that
    products can cancel exactly, and standard normal otherwise, so that
    they round."""
    terms = {}
    for _ in range(n_terms):
        key = [0] * 8
        for slot in rng.choice(slots, size=rng.integers(0, MAX_ORDER + 1)):
            key[slot] += 1
        if exact:
            terms[tuple(key)] = complex(*rng.integers(-1, 2, size=2)) or 1.0 + 0j
        else:
            terms[tuple(key)] = complex(*rng.standard_normal(2))
    return NormalPoly(terms)


def fock_matrix(poly: NormalPoly, cutoff=4) -> np.ndarray:
    """Dense matrix of a poly on a small four-mode Fock space (oracle)."""
    dim = cutoff + 1
    ladder = np.diag(np.sqrt(np.arange(1, dim)), 1)  # annihilation
    eye = np.eye(dim)

    def op_for(mode, dag):
        mats = [eye] * 4
        mats[mode] = ladder.T if dag else ladder
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    total = np.zeros((dim**4, dim**4), dtype=complex)
    for key, c in poly.terms.items():
        term = np.eye(dim**4, dtype=complex)
        for mode in range(4):
            for _ in range(key[mode]):
                term = term @ op_for(mode, True)
        for mode in range(4):
            for _ in range(key[4 + mode]):
                term = term @ op_for(mode, False)
        total += c * term
    return total


class TestNormalOrdering:
    def test_commutator(self):
        # a a† = a† a + 1 after normal ordering
        got = annihilation(0) * creation(0)
        want = creation(0) * annihilation(0) + constant(1.0)
        assert poly_close(got, want)

    def test_product_against_fock_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            keys = [
                tuple(rng.integers(0, 2, size=8)),
                tuple(rng.integers(0, 2, size=8)),
            ]
            a = NormalPoly({keys[0]: 1.0 + 0.3j})
            b = NormalPoly({keys[1]: 0.7 - 0.1j})
            lhs = fock_matrix(a * b, cutoff=3)
            rhs = fock_matrix(a, cutoff=3) @ fock_matrix(b, cutoff=3)
            # normal ordering only moves population within the cutoff for
            # the probed subspace; compare on the lower block
            n = 3**4
            assert np.allclose(lhs[:n, :n], rhs[:n, :n], atol=1e-10)

    def test_products_match_the_per_pair_loop_bit_for_bit(self):
        # keys, their insertion order and the coefficient bits, on every
        # ordered pair of the four sites' spin operators (at unit and at a
        # general phase factor) and on random polynomials up to order 4
        ops = [
            op
            for pf in (1.0, np.exp(0.73j))
            for site in (SITE_A, SITE_B, SITE_C, SITE_D)
            for op in spin_operators(site, pf)
        ]
        pairs = list(itertools.product(ops, repeat=2))
        rng = np.random.default_rng(11)
        pairs += [(random_poly(rng, 6), random_poly(rng, 6)) for _ in range(100)]
        # well A alone, where terms collide and cancel
        slots = (0, 1, 4, 5)
        pairs += [
            (random_poly(rng, 6, slots, exact=True), random_poly(rng, 6, slots, exact=True))
            for _ in range(100)
        ]
        for a, b in pairs:
            assert term_bits(a * b) == term_bits(loop_mul(a, b))

    def test_cancelled_term_leaves_the_product(self):
        # (a1 + a2)(a1† − a2†): the constants +1 and −1 cancel, and the
        # cancelled key is dropped where the loop drops it
        a = annihilation(0) + annihilation(1)
        b = creation(0) - creation(1)
        got = a * b
        assert (0,) * 8 not in got.terms
        assert term_bits(got) == term_bits(loop_mul(a, b))

    def test_dagger(self):
        p = NormalPoly({(1, 0, 0, 0, 0, 1, 0, 0): 2.0 + 1j})
        pd = p.dagger()
        assert pd.terms == {(0, 1, 0, 0, 1, 0, 0, 0): 2.0 - 1j}
        assert poly_close(p.dagger().dagger(), p)

    def test_expectation_uses_source(self):
        p = NormalPoly({(0,) * 8: 2.0, (1, 0, 0, 0, 1, 0, 0, 0): 3.0})
        val = p.expectation(lambda key: 5.0 if sum(key) else 1.0)
        assert val == pytest.approx(2.0 + 15.0)


class TestBeamSplitter:
    def test_vacuum_first_moments(self):
        # all first moments zero in, zero out: linear map with no offset
        c, d = beam_splitter(SITE_A[0], SITE_B[0])
        for mv in (c, d):
            poly = bilinear(ModeVector((1, 0, 0, 0), mv.nhalf), mv)
            assert all(sum(k) == 2 for k in poly.terms)

    def test_coherent_vacuum_split(self):
        # a coherent alpha, b vacuum: <c> = alpha/sqrt2, <d> = i alpha/sqrt2
        alpha = 1.7 - 0.4j

        def source(key):
            # coherent state in a1 only: <a1†^p a1^q> = conj(alpha)^p alpha^q
            if any(key[1:4]) or any(key[5:8]):
                return 0.0 + 0j
            return alpha.conjugate() ** key[0] * alpha ** key[4]

        c1, d1 = SITE_C[0], SITE_D[0]
        got_c = sum(
            (complex(n) / np.sqrt(2)) * source((0, 0, 0, 0) + tuple(e))
            for n, e in zip(c1.num, np.eye(4, dtype=int))
        )
        got_d = sum(
            (complex(n) / np.sqrt(2)) * source((0, 0, 0, 0) + tuple(e))
            for n, e in zip(d1.num, np.eye(4, dtype=int))
        )
        assert got_c == pytest.approx(alpha / np.sqrt(2))
        assert got_d == pytest.approx(1j * alpha / np.sqrt(2))

    def test_number_conservation_identity(self):
        # c†c + d†d == a†a + b†b as an operator identity
        lhs = number_operator(SITE_C) + number_operator(SITE_D)
        rhs = number_operator(SITE_A) + number_operator(SITE_B)
        assert poly_close(lhs, rhs)

    def test_mixed_normalization_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter(SITE_A[0], SITE_C[0])
        with pytest.raises(ValueError):
            bilinear(SITE_A[0], SITE_C[0])


class TestSpinOperators:
    def test_hermiticity(self):
        pf = np.exp(0.37j)
        for site in (SITE_A, SITE_B, SITE_C, SITE_D):
            jx, jy, jz = spin_operators(site, pf)
            for op in (jx, jy, jz):
                assert poly_close(op, op.dagger())

    def test_decomposition_identity(self):
        # the post-splitter basis is P = J_A + J_B and the hand-expanded K,
        # term for term
        jax_, _, jaz = spin_operators(SITE_A)
        jbx, _, jbz = spin_operators(SITE_B)
        want = [jaz + jbz, jax_ + jbx, kz_poly(), kx_poly()]
        assert [op.terms for op in _basis_ops(SITE_C, SITE_D)] == [w.terms for w in want]
        # J_C^i - g J_D^i == g- (J_A^i + J_B^i) + g+ K^i  for i in {Z, X}
        pf = np.exp(-0.81j)
        jax_, _, jaz = spin_operators(SITE_A, pf)
        jbx, _, jbz = spin_operators(SITE_B, pf)
        jcx, _, jcz = spin_operators(SITE_C, pf)
        jdx, _, jdz = spin_operators(SITE_D, pf)
        for g in (-0.3, 0.0, 0.5, 1.0, 1.7):
            gm, gp = 0.5 * (1 - g), 0.5 * (1 + g)
            lhs_z = jcz - g * jdz
            rhs_z = gm * (jaz + jbz) + gp * kz_poly()
            assert poly_close(lhs_z, rhs_z)
            lhs_x = jcx - g * jdx
            rhs_x = gm * (jax_ + jbx) + gp * kx_poly(complex(pf))
            assert poly_close(lhs_x, rhs_x)

    def test_reversed_product_is_exact_dagger(self):
        # BA = (AB)† for Hermitian A and B, bit for bit (every coefficient
        # is a dyadic rational): the covariances build each product once
        jx, _, jz = spin_operators(SITE_A)
        for ops in ([jz, jx], _basis_ops(SITE_A, SITE_B), _basis_ops(SITE_C, SITE_D)):
            for a in ops:
                for b in ops:
                    assert (b * a).terms == (a * b).dagger().terms

    def test_phase_factor_enters_as_charge_power(self):
        # operators built at pf equal those built at pf = 1 with every
        # monomial scaled by pf^Q, Q its component-2 charge
        pf = np.exp(0.61j)
        for site in (SITE_A, SITE_C):
            jx, jy, jz = spin_operators(site, pf)
            jx1, jy1, jz1 = spin_operators(site)
            for got, unit in ((jx, jx1), (jx * jz, jx1 * jz1), (jy * jx, jy1 * jx1)):
                dressed = NormalPoly(
                    {k: c * pf ** component2_charge(k) for k, c in unit.terms.items()}
                )
                assert poly_close(got, dressed, tol=1e-13)

    def test_raising_bilinear_order(self):
        assert raising_bilinear(SITE_A).terms == {(0, 1, 0, 0, 1, 0, 0, 0): 1.0 + 0j}


class TestMonomialKeys:
    def test_key_dagger_and_basis(self):
        key = (1, 2, 0, 0, 0, 1, 0, 0)  # a1† a2†² a2
        assert key_dagger(key) == (0, 1, 0, 0, 1, 2, 0, 0)
        assert len(FULL_KEYS) == len(set(FULL_KEYS)) == 495
        # 495 distinct exponent tuples of order <= 4 are all of them; they
        # run by order, each order in ascending tuple order
        assert all(min(k) >= 0 and sum(k) <= MAX_ORDER for k in FULL_KEYS)
        assert list(FULL_KEYS) == sorted(FULL_KEYS, key=lambda k: (sum(k), k))
        assert len(BASIS_KEYS) == NBASIS == 117
        for i, k in enumerate(BASIS_KEYS):
            assert BASIS_INDEX[k] == i and sum(k) <= MAX_ORDER
            assert key_dagger(k) in BASIS_INDEX and key_dagger(key_dagger(k)) == k
        # the number-conserving keys of the full list, in its order
        assert BASIS_KEYS == tuple(k for k in FULL_KEYS if sum(k[:4]) == sum(k[4:]))

    def test_pipeline_polynomials_close_on_the_basis(self, monkeypatch):
        # every monomial that spins and criteria compile is in the basis,
        # and together they read every basis column but the constant
        seen = set()

        class Recording(CompiledPolys):
            def __init__(self, polys):
                seen.update(k for p in polys for k in p.terms)
                super().__init__(polys)

        monkeypatch.setattr(spins, "CompiledPolys", Recording)
        table = np.ones((2, 1, NBASIS), dtype=complex)
        spins.spin_moments(table)
        for beam_splitter in (False, True):
            joint_moments(table, theta=0.0, beam_splitter=beam_splitter)
        assert seen == set(BASIS_KEYS) - {(0,) * 8}

    @pytest.mark.parametrize(
        "key", [(0, 0, 0, 0, 1, 0, 0, 0), (2, 0, 0, 0, 0, 1, 0, 0)], ids=["a1", "a1+a1+a2"]
    )
    def test_compiling_outside_the_basis_names_both_rules(self, key):
        with pytest.raises(ValueError, match=r"order <= 4.*number-conserving"):
            CompiledPolys([NormalPoly({key: 1.0 + 0j})])

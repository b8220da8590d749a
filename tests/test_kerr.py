import cmath
import math

import numpy as np
import pytest

from twinwell.config import InitialState, preset_couplings
from twinwell.errors import TruncationError
from twinwell.kerr import (
    fock_oracle_moment,
    fock_site_moment,
    kerr_moment,
    moment_table,
    single_mode_expectation,
    site_moment,
    two_mode_first_moment,
)
from twinwell.operators import BASIS_INDEX, ModeMonomial

RATIOS = preset_couplings("B9p116G", 1.0)  # g11 = 1, ratio-scaled couplings


def all_site_monomials(max_order=4):
    return [
        (p1, p2, q1, q2)
        for p1 in range(max_order + 1)
        for p2 in range(max_order + 1)
        for q1 in range(max_order + 1)
        for q2 in range(max_order + 1)
        if 0 < p1 + p2 + q1 + q2 <= max_order
    ]


class TestSingleMode:
    def test_free_evolution(self):
        assert single_mode_expectation(1.3 + 0.2j, 0.0, 5.0) == 1.3 + 0.2j

    def test_revival(self):
        alpha = 4.0  # |alpha|^2 = 16
        g = 0.37
        got = single_mode_expectation(alpha, g, 2.0 * math.pi / g)
        assert abs(got - alpha) < 1e-12

    def test_against_fock_oracle(self):
        alpha = 2.0  # |alpha|^2 = 4 in one mode, other mode empty
        g, t = 1.0, 0.1
        closed = single_mode_expectation(alpha, g, t)
        oracle = fock_site_moment(0, 0, 1, 0, alpha, 0.0, g, 0.0, 0.0, t, cutoff=60)
        assert abs(closed - oracle) < 1e-8


class TestTwoModeFirstMoment:
    def test_zero_couplings(self):
        from twinwell.config import PhysicalCouplings

        c = PhysicalCouplings(g11=1e-300, g12=0.0, g22=0.0)  # effectively free
        alpha = 3.0 + 1.0j
        got = two_mode_first_moment(alpha, c, 1, 1.0)
        assert abs(got - alpha / math.sqrt(2)) < 1e-12

    def test_revival_commensurate(self):
        from twinwell.config import PhysicalCouplings

        c = PhysicalCouplings(g11=1.0, g12=2.0, g22=4.0)  # all phases 2*pi*k at t=2*pi
        alpha = 2.5
        t = 2.0 * math.pi
        for i in (1, 2):
            got = two_mode_first_moment(alpha, c, i, t)
            assert abs(got - alpha / math.sqrt(2)) < 1e-10

    def test_matches_general_monomial_and_oracle(self):
        alpha = 4.0  # |alpha|^2 = 16, per mode 8
        init = InitialState(N_A=16.0, N_B=16.0)
        tau = 0.05
        for i, key in ((1, ModeMonomial.site_a(0, 0, 1, 0)), (2, ModeMonomial.site_a(0, 0, 0, 1))):
            quoted = two_mode_first_moment(alpha, RATIOS, i, tau)
            general = kerr_moment(key, RATIOS, tau, init)
            oracle = fock_oracle_moment(key, RATIOS, tau, init, cutoff=50)
            assert abs(quoted - general) < 1e-12
            assert abs(quoted - oracle) < 1e-8

    def test_bad_mode_index(self):
        with pytest.raises(ValueError):
            two_mode_first_moment(1.0, RATIOS, 3, 0.1)


class TestKerrMoment:
    def test_number_operator_conserved(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        n1 = ModeMonomial.site_a(1, 0, 1, 0)
        for tau in (0.0, 0.3, 2.0, 17.0):
            assert kerr_moment(n1, RATIOS, tau, init) == pytest.approx(4.0, rel=1e-12)

    def test_coherent_overlap_at_zero_time(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        m = ModeMonomial.site_a(0, 1, 1, 0)  # a2† a1
        assert kerr_moment(m, RATIOS, 0.0, init) == pytest.approx(4.0, rel=1e-14)

    def test_all_low_order_monomials_match_oracle(self):
        init = InitialState(N_A=16.0, N_B=16.0)  # |alpha|^2 = 8 per mode
        rng = np.random.default_rng(42)
        taus = rng.uniform(0.0, 0.2, 3)
        table = moment_table(RATIOS, init, taus)
        for tau, row in zip(taus, table[:, 0]):
            for m in all_site_monomials():
                key = ModeMonomial.site_a(*m).key
                a = row[BASIS_INDEX[key]]
                b = fock_oracle_moment(key, RATIOS, tau, init, cutoff=50)
                assert abs(a - b) / (abs(b) + 1e-12) < 1e-8

    def test_oracle_equivalence_random_couplings(self):
        # random (tau, coupling) draws, order <= 4, against the oracle
        from twinwell.config import PhysicalCouplings

        init = InitialState(N_A=12.0, N_B=12.0)
        rng = np.random.default_rng(100)
        mons = all_site_monomials()
        for _ in range(20):
            coup = PhysicalCouplings(
                g11=float(rng.uniform(0.2, 2.0)),
                g12=float(rng.uniform(0.0, 2.0)),
                g22=float(rng.uniform(0.0, 2.0)),
            )
            tau = float(rng.uniform(0.0, 0.3))
            for m in (mons[i] for i in rng.integers(0, len(mons), 12)):
                key = ModeMonomial.site_a(*m).key
                a = kerr_moment(key, coup, tau, init)
                b = fock_oracle_moment(key, coup, tau, init, cutoff=45)
                assert abs(a - b) / (abs(b) + 1e-12) < 1e-8

    def test_conjugation_symmetry(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        rng = np.random.default_rng(3)
        for m in all_site_monomials():
            tau = float(rng.uniform(0.0, 1.0))
            mono = ModeMonomial.site_a(*m)
            a = kerr_moment(mono, RATIOS, tau, init)
            b = kerr_moment(mono.dagger(), RATIOS, tau, init)
            assert a == b.conjugate()

    def test_number_conserving_monomials_are_static(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        for (p1, p2, q1, q2) in all_site_monomials():
            if p1 != q1 or p2 != q2:
                continue
            mono = ModeMonomial.site_a(p1, p2, q1, q2)
            v0 = kerr_moment(mono, RATIOS, 0.0, init)
            v1 = kerr_moment(mono, RATIOS, 0.77, init)
            assert abs(v0 - v1) < 1e-10 * (abs(v0) + 1.0)

    def test_cross_site_factorization(self):
        init = InitialState(N_A=8.0, N_B=18.0)
        tau = 0.13
        a_part = (1, 0, 0, 1)
        b_part = (0, 1, 1, 0)
        cross = (1, 0, 0, 1, 0, 1, 1, 0)  # a1† b2† a2 b1
        va = kerr_moment(ModeMonomial.site_a(*a_part), RATIOS, tau, init)
        vb = kerr_moment(ModeMonomial.site_b(*b_part), RATIOS, tau, init)
        vc = kerr_moment(cross, RATIOS, tau, init)
        assert vc == pytest.approx(va * vb, rel=1e-12)

    def test_table_matches_per_monomial_moments(self):
        # the vectorised table against per-key, per-tau evaluation, both wells
        init = InitialState(N_A=8.0, N_B=18.0, phase=0.4)
        taus = (0.0, 0.13, 2.5)
        table = moment_table(RATIOS, init, taus)
        assert table.shape == (3, 1, len(BASIS_INDEX))
        for key, i in BASIS_INDEX.items():
            for t, tau in enumerate(taus):
                want = kerr_moment(key, RATIOS, tau, init)
                assert table[t, 0, i] == pytest.approx(want, rel=1e-13, abs=1e-13)


class TestFockOracle:
    def test_first_moment_at_zero_time(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        m = ModeMonomial.site_a(0, 0, 1, 0)
        got = fock_oracle_moment(m, RATIOS, 0.0, init, cutoff=50)
        assert abs(got - init.alpha_a) < 1e-10

    def test_product_of_conserved_numbers(self):
        init = InitialState(N_A=8.0, N_B=8.0)  # per-mode mean 4
        m = ModeMonomial.site_a(1, 1, 1, 1)  # a1† a1 a2† a2 normal ordered
        for tau in (0.0, 0.4):
            got = fock_oracle_moment(m, RATIOS, tau, init, cutoff=50)
            assert got == pytest.approx(16.0, rel=1e-10)

    def test_revival(self):
        from twinwell.config import PhysicalCouplings

        c = PhysicalCouplings(g11=1.0, g12=2.0, g22=3.0)
        init = InitialState(N_A=8.0, N_B=8.0)
        m = ModeMonomial.site_a(0, 0, 1, 0)
        got = fock_oracle_moment(m, c, 2.0 * math.pi, init, cutoff=60)
        assert abs(got - init.alpha_a) < 1e-8

    def test_truncation_error_carries_tail(self):
        with pytest.raises(TruncationError) as err:
            fock_site_moment(0, 0, 1, 0, 10.0, 10.0, 1.0, 0.0, 1.0, 0.1, cutoff=90)
        assert err.value.tail_mass > 0.0

    def test_phase_of_alpha_respected(self):
        # oracle handles complex amplitudes, matching the closed form
        alpha = 2.0 * cmath.exp(0.9j)
        got = fock_site_moment(0, 0, 1, 0, alpha, alpha, 1.0, 0.4, 0.8, 0.07, cutoff=40)
        want = site_moment(0, 0, 1, 0, alpha, alpha, 1.0, 0.4, 0.8, 0.07)
        assert abs(got - want) < 1e-10

import math

import numpy as np
import pytest

from twinwell.config import InitialState, preset_couplings
from twinwell.errors import DegenerateReferenceError
from twinwell.kerr import fock_moment_table, moment_table
from twinwell.spins import (
    SITE_B,
    SpinMoments,
    optimal_angle,
    rotated_variance,
    spin_moments,
    squeezing,
)


def exact_table(tag, N, taus, phase=0.0):
    coup = preset_couplings(tag, N)
    init = InitialState(N_A=N, phase=phase)
    return moment_table(coup, init, np.atleast_1d(taus))


class TestBaselines:
    def test_coherent_state_moments(self):
        m = spin_moments(exact_table("B9p116G", 200.0, 0.0))
        assert m.mean_JY == pytest.approx(100.0, abs=1e-10)
        assert m.mean_JX == 0.0
        assert m.mean_JZ == pytest.approx(0.0, abs=1e-12)
        assert m.var_JZ == pytest.approx(50.0, abs=1e-10)
        assert m.var_JX == pytest.approx(50.0, abs=1e-10)
        assert m.cov_ZX == pytest.approx(0.0, abs=1e-10)
        assert m.delta_theta == pytest.approx(math.pi / 2)

    def test_squeezing_is_unity_at_zero_time(self):
        for N in (200.0, 2000.0):
            m = spin_moments(exact_table("B9p116G", N, 0.0))
            assert squeezing(m, optimal_angle(m)) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_couplings_keep_populations_equal(self):
        m = spin_moments(exact_table("NoCrossCoupling", 200.0, [0.1, 1.0, 4.0]))
        assert m.mean_JZ == pytest.approx(0.0, abs=1e-10)

    def test_squeezing_develops(self):
        m = spin_moments(exact_table("B9p116G", 200.0, 2.0))
        assert squeezing(m, optimal_angle(m))[0, 0] < 1.0

    def test_squeezing_within_default_sweep(self):
        # the default grid only probes the early linear regime, but the
        # minimum over it must already dip below shot noise
        m = spin_moments(exact_table("B9p116G", 200.0, [0.05, 0.1, 0.2]))
        assert squeezing(m, optimal_angle(m)).min() < 1.0 - 1e-4


class TestFockPipeline:
    def test_moments_match_fock_assembly(self):
        # same spin assembly fed by the independent Fock oracle
        N = 200.0
        coup = preset_couplings("B9p116G", N)
        init = InitialState(N_A=N)
        taus = (0.04, 2.0)
        closed = spin_moments(moment_table(coup, init, taus))
        oracle = spin_moments(fock_moment_table(coup, init, taus, cutoff=210))
        for f in ("mean_JY", "mean_JZ", "var_JZ", "var_JX", "cov_ZX"):
            assert getattr(oracle, f) == pytest.approx(getattr(closed, f), rel=1e-7, abs=1e-7)


class TestOptimalAngle:
    def test_plain_cases(self):
        m = SpinMoments(0.0, 10.0, 0.0, var_JZ=1.0, var_JX=2.0, cov_ZX=0.0)
        assert optimal_angle(m) == 0.0
        m = SpinMoments(0.0, 10.0, 0.0, var_JZ=2.0, var_JX=2.0, cov_ZX=0.5)
        assert optimal_angle(m) == pytest.approx(-math.pi / 4)
        m = SpinMoments(0.0, 10.0, 0.0, var_JZ=2.0, var_JX=2.0, cov_ZX=0.0)
        assert optimal_angle(m) == 0.0  # fully degenerate conventions

    def test_beats_dense_scan(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(-math.pi / 2, math.pi / 2, 720, endpoint=False)
        for _ in range(50):
            a, b, c = rng.uniform(0.1, 3.0, 3)
            m = SpinMoments(0.0, 10.0, 0.0, var_JZ=a, var_JX=b, cov_ZX=(c - 1.5))
            theta = optimal_angle(m)
            assert theta <= math.pi / 2 and theta > -math.pi / 2
            best = rotated_variance(m, grid).min()
            assert rotated_variance(m, theta) <= best + 1e-12

    def test_angle_on_dynamical_state(self):
        m = spin_moments(exact_table("B9p116G", 200.0, 3.0))
        theta = optimal_angle(m)
        grid = np.linspace(-math.pi / 2, math.pi / 2, 720, endpoint=False)
        assert rotated_variance(m, theta) <= rotated_variance(m, grid).min() + 1e-10


class TestRotatedVariance:
    def test_axis_values(self):
        m = SpinMoments(0.0, 1.0, 0.0, var_JZ=3.0, var_JX=7.0, cov_ZX=1.0)
        assert rotated_variance(m, 0.0) == pytest.approx(3.0)
        assert rotated_variance(m, math.pi / 2) == pytest.approx(7.0)

    def test_pi_periodicity(self):
        m = SpinMoments(0.0, 1.0, 0.0, var_JZ=3.0, var_JX=7.0, cov_ZX=-1.3)
        for theta in np.linspace(-1.5, 1.5, 11):
            assert rotated_variance(m, theta) == pytest.approx(
                rotated_variance(m, theta + math.pi), rel=1e-12
            )

    def test_isotropic_shot_noise(self):
        m = spin_moments(exact_table("B9p116G", 200.0, 0.0))
        for theta in np.linspace(-1.5, 1.5, 7):
            assert rotated_variance(m, theta) == pytest.approx(50.0, abs=1e-9)


class TestSqueezingProperties:
    def test_uncertainty_product(self):
        # uncertainty relation at the optimal angle, allowing numerical dust
        m = spin_moments(exact_table("B9p116G", 200.0, [0.5, 2.0, 5.0]))
        theta = optimal_angle(m)
        lhs = rotated_variance(m, theta) * rotated_variance(m, theta + math.pi / 2)
        ref = (np.abs(m.mean_JY) / 2.0) ** 2
        assert np.all(lhs >= ref - 1e-8 * 200.0**2)

    def test_conjugate_product_bound_when_uncorrelated(self):
        m = SpinMoments(0.0, 20.0, 0.0, var_JZ=5.0, var_JX=21.0, cov_ZX=0.0)
        s1 = squeezing(m, 0.0)
        s2 = squeezing(m, math.pi / 2)
        assert s1 * s2 >= 1.0  # var product >= (JY/2)^2 here by construction

    def test_phase_covariance(self):
        # a global phase on the initial amplitudes changes nothing
        base = spin_moments(exact_table("B9p116G", 200.0, 1.7, phase=0.0))
        rot = spin_moments(exact_table("B9p116G", 200.0, 1.7, phase=2.1))
        for f in ("mean_JY", "mean_JZ", "var_JZ", "var_JX", "cov_ZX", "delta_theta"):
            assert getattr(rot, f) == pytest.approx(getattr(base, f), rel=1e-9, abs=1e-9)

    def test_degenerate_reference_raises(self):
        m = SpinMoments(0.0, 0.0, 0.0, var_JZ=1.0, var_JX=1.0, cov_ZX=0.0)
        with pytest.raises(DegenerateReferenceError):
            squeezing(m, 0.0)

    def test_site_b_equivalent_for_symmetric_state(self):
        table = exact_table("B9p116G", 200.0, 2.3)
        ma = spin_moments(table)
        mb = spin_moments(table, site=SITE_B)
        for f in ("mean_JY", "var_JZ", "var_JX", "cov_ZX"):
            assert getattr(mb, f) == pytest.approx(getattr(ma, f), rel=1e-12)

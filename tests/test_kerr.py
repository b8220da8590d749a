import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kerr_oracle import fock_site_moment
from twinwell import kerr
from twinwell.config import InitialState, PhysicalCouplings, preset_couplings
from twinwell.errors import TruncationError
from twinwell.kerr import fock_moment_table, moment_table, site_moment
from twinwell.operators import BASIS_INDEX, BASIS_KEYS, FULL_KEYS, key_dagger

# the oracle checks tabulate every monomial of order <= 4, not only the basis
FULL_INDEX = {k: i for i, k in enumerate(FULL_KEYS)}
RATIOS = preset_couplings("B9p116G", 1.0)  # g11 = 1, ratio-scaled couplings
A1 = (0, 0, 0, 0, 1, 0, 0, 0)  # a1
A2 = (0, 0, 0, 0, 0, 1, 0, 0)  # a2


def two_mode_first_moment(alpha, couplings, i: int, tau: float) -> complex:
    """<a_i(t)> for the split coherent state |α/√2>|α/√2>, as the paper
    quotes it.

    `alpha` is the pre-split amplitude (|alpha|² = mean total atom number).
    """
    if i not in (1, 2):
        raise ValueError(f"mode index must be 1 or 2, got {i}")
    gi1 = couplings.g11 if i == 1 else couplings.g12
    gi2 = couplings.g12 if i == 1 else couplings.g22
    alpha = complex(alpha)
    half = 0.5 * (alpha.real * alpha.real + alpha.imag * alpha.imag)
    return (
        (alpha / math.sqrt(2.0))
        * cmath.exp(half * (cmath.exp(-1j * gi1 * tau) - 1.0))
        * cmath.exp(half * (cmath.exp(-1j * gi2 * tau) - 1.0))
    )


def part_site_moment(p1, p2, q1, q2, alpha1, alpha2, g11, g12, g22, taus):
    """The closed form for one well part on an array of times, written out
    in the order site_moment evaluates it: prefactor times the exponential
    of the sum λ1 (e^{-i u1 t} - 1) + λ2 (e^{-i u2 t} - 1) + i φ t."""
    alpha1, alpha2 = complex(alpha1), complex(alpha2)
    lam1 = alpha1.real * alpha1.real + alpha1.imag * alpha1.imag
    lam2 = alpha2.real * alpha2.real + alpha2.imag * alpha2.imag
    taus = np.asarray(taus, dtype=float)
    # the products are numpy's, as in site_moment: Python's complex product
    # may round apart from numpy's vectorised one
    pref = np.array([alpha1.conjugate() ** p1]) * alpha1**q1
    pref = pref * alpha2.conjugate() ** p2 * alpha2**q2
    u1 = (q1 - p1) * g11 + (q2 - p2) * g12
    u2 = (q1 - p1) * g12 + (q2 - p2) * g22
    phi = (
        0.5 * g11 * (p1 * (p1 - 1) - q1 * (q1 - 1))
        + 0.5 * g22 * (p2 * (p2 - 1) - q2 * (q2 - 1))
        + g12 * (p1 * p2 - q1 * q2)
    )
    return pref * np.exp(
        lam1 * (np.exp(-1j * (u1 * taus)) - 1.0)
        + lam2 * (np.exp(-1j * (u2 * taus)) - 1.0)
        + 1j * (phi * taus)
    )


def max_rel_error(table, oracle):
    return float(np.max(np.abs(table - oracle) / (np.abs(oracle) + 1e-12)))


class TestSingleMode:
    # <a(t)> for one Kerr mode prepared in |alpha>, the other mode empty
    def test_free_evolution(self):
        assert site_moment(0, 0, 1, 0, 1.3 + 0.2j, 0.0, 0.0, 0.0, 0.0, 5.0) == 1.3 + 0.2j

    def test_revival(self):
        alpha = 4.0  # |alpha|^2 = 16
        g = 0.37
        got = site_moment(0, 0, 1, 0, alpha, 0.0, g, 0.0, 0.0, 2.0 * math.pi / g)
        assert abs(got - alpha) < 1e-12

    def test_against_fock_oracle(self):
        alpha = 2.0  # |alpha|^2 = 4 in one mode, other mode empty
        g, t = 1.0, 0.1
        closed = site_moment(0, 0, 1, 0, alpha, 0.0, g, 0.0, 0.0, t)
        oracle = fock_site_moment(0, 0, 1, 0, alpha, 0.0, g, 0.0, 0.0, t, cutoff=60)
        assert abs(closed - oracle) < 1e-8


class TestTwoModeFirstMoment:
    def test_zero_couplings(self):
        c = PhysicalCouplings(g11=1e-300, g12=0.0, g22=0.0)  # effectively free
        alpha = 3.0 + 1.0j
        got = two_mode_first_moment(alpha, c, 1, 1.0)
        assert abs(got - alpha / math.sqrt(2)) < 1e-12

    def test_revival_commensurate(self):
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
        general = moment_table(RATIOS, init, [tau], FULL_KEYS)[0, 0]
        oracle = fock_moment_table(RATIOS, init, [tau], cutoff=50, keys=FULL_KEYS)[0, 0]
        for i, key in ((1, A1), (2, A2)):
            quoted = two_mode_first_moment(alpha, RATIOS, i, tau)
            assert abs(quoted - general[FULL_INDEX[key]]) < 1e-12
            assert abs(quoted - oracle[FULL_INDEX[key]]) < 1e-8

    def test_bad_mode_index(self):
        with pytest.raises(ValueError):
            two_mode_first_moment(1.0, RATIOS, 3, 0.1)


class TestKerrMoment:
    def test_number_operator_conserved(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        n1 = BASIS_INDEX[(1, 0, 0, 0, 1, 0, 0, 0)]  # a1† a1
        table = moment_table(RATIOS, init, (0.0, 0.3, 2.0, 17.0))
        for v in table[:, 0, n1]:
            assert v == pytest.approx(4.0, rel=1e-12)

    def test_coherent_overlap_at_zero_time(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        m = BASIS_INDEX[(0, 1, 0, 0, 1, 0, 0, 0)]  # a2† a1
        assert moment_table(RATIOS, init, [0.0])[0, 0, m] == pytest.approx(4.0, rel=1e-14)

    def test_all_low_order_monomials_match_oracle(self):
        init = InitialState(N_A=16.0, N_B=16.0)  # |alpha|^2 = 8 per mode
        rng = np.random.default_rng(42)
        taus = rng.uniform(0.0, 0.2, 3)
        table = moment_table(RATIOS, init, taus, FULL_KEYS)
        oracle = fock_moment_table(RATIOS, init, taus, cutoff=50, keys=FULL_KEYS)
        assert max_rel_error(table, oracle) < 1e-8

    def test_oracle_equivalence_random_couplings(self):
        # random (tau, coupling) draws, every monomial of order <= 4 against
        # the oracle
        init = InitialState(N_A=12.0, N_B=12.0)
        rng = np.random.default_rng(100)
        for _ in range(20):
            coup = PhysicalCouplings(
                g11=float(rng.uniform(0.2, 2.0)),
                g12=float(rng.uniform(0.0, 2.0)),
                g22=float(rng.uniform(0.0, 2.0)),
            )
            tau = [float(rng.uniform(0.0, 0.3))]
            table = moment_table(coup, init, tau, FULL_KEYS)
            oracle = fock_moment_table(coup, init, tau, cutoff=45, keys=FULL_KEYS)
            assert max_rel_error(table, oracle) < 1e-8

    def test_conjugation_symmetry(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        rng = np.random.default_rng(3)
        table = moment_table(RATIOS, init, rng.uniform(0.0, 1.0, 8), FULL_KEYS)
        for key, i in FULL_INDEX.items():
            assert np.array_equal(table[:, 0, i], table[:, 0, FULL_INDEX[key_dagger(key)]].conj())

    def test_number_conserving_monomials_are_static(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        v0, v1 = moment_table(RATIOS, init, (0.0, 0.77), FULL_KEYS)[:, 0]
        for key, i in FULL_INDEX.items():
            if key[:4] == key[4:]:
                assert abs(v0[i] - v1[i]) < 1e-10 * (abs(v0[i]) + 1.0), key

    def test_cross_site_factorization(self):
        init = InitialState(N_A=8.0, N_B=18.0)
        tau = 0.13
        g = (RATIOS.g11, RATIOS.g12, RATIOS.g22)
        va = site_moment(1, 0, 0, 1, init.alpha_a, init.alpha_a, *g, tau)  # a1† a2
        vb = site_moment(0, 1, 1, 0, init.alpha_b, init.alpha_b, *g, tau)  # b2† b1
        cross = BASIS_INDEX[(1, 0, 0, 1, 0, 1, 1, 0)]  # a1† b2† a2 b1
        assert moment_table(RATIOS, init, [tau])[0, 0, cross] == pytest.approx(va * vb, rel=1e-12)

    def test_table_matches_per_monomial_moments(self):
        # the vectorised table against per-key, per-tau evaluation, both
        # wells, bit for bit: each tau is a one-element grid, so every
        # product takes numpy's array arithmetic, as in the table
        init = InitialState(N_A=8.0, N_B=18.0, phase=0.4)
        taus = (0.0, 0.13, 2.5)
        g = (RATIOS.g11, RATIOS.g12, RATIOS.g22)
        table = moment_table(RATIOS, init, taus, FULL_KEYS)
        assert table.shape == (3, 1, len(FULL_KEYS))
        for key, i in FULL_INDEX.items():
            a_part, b_part = key[0:2] + key[4:6], key[2:4] + key[6:8]
            for t, tau in enumerate(taus):
                a_val, b_val = (
                    site_moment(*part, alpha, alpha, *g, [tau]) if any(part) else np.ones(1, complex)
                    for part, alpha in ((a_part, init.alpha_a), (b_part, init.alpha_b))
                )
                assert table[t, 0, i] == (a_val * b_val)[0], (key, tau)


class TestBatchedParts:
    # site_moment over an array of well parts, against one call per part
    ALPHAS = (2.1 * cmath.exp(0.4j), 3.3 * cmath.exp(-1.1j))  # alpha1 != alpha2, phase != 0
    G = (RATIOS.g11, RATIOS.g12, RATIOS.g22)
    PARTS = np.array([(0, 0, 1, 0), (1, 0, 0, 1), (2, 1, 0, 1), (0, 0, 0, 0), (1, 2, 2, 0), (3, 0, 1, 0)])

    def test_parts_array_matches_per_part_calls(self):
        taus = np.linspace(0.0, 3.0, 7)
        got = site_moment(*self.PARTS.T, *self.ALPHAS, *self.G, taus)
        assert got.shape == (7, len(self.PARTS))
        for j, part in enumerate(self.PARTS.tolist()):
            want = site_moment(*part, *self.ALPHAS, *self.G, taus)
            assert got[:, j].tobytes() == want.tobytes(), part
            assert np.array_equal(got[:, j], part_site_moment(*part, *self.ALPHAS, *self.G, taus)), part
        # a scalar time is a one-element grid
        at_one = site_moment(*self.PARTS.T, *self.ALPHAS, *self.G, taus[3])
        assert at_one.tobytes() == got[3].tobytes()

    def test_result_shape(self):
        # (*tau.shape, *parts.shape); scalar parts keep the shape of tau
        parts = self.PARTS.T.reshape(4, 2, 3)
        assert site_moment(*parts, *self.ALPHAS, *self.G, np.zeros((4, 5))).shape == (4, 5, 2, 3)
        assert site_moment(*parts, *self.ALPHAS, *self.G, 0.3).shape == (2, 3)
        assert isinstance(site_moment(1, 0, 0, 1, *self.ALPHAS, *self.G, 0.3), np.complex128)
        assert site_moment(1, 0, 0, 1, *self.ALPHAS, *self.G, [0.3]).shape == (1,)
        assert site_moment(1, 0, 0, 1, *self.ALPHAS, *self.G, np.zeros((2, 3))).shape == (2, 3)

    @pytest.mark.parametrize("n_b, calls", [(8.0, 1), (18.0, 2)])
    def test_one_call_per_distinct_amplitude(self, monkeypatch, n_b, calls):
        # moment_table looks site_moment up on the module when called, so
        # a wrapper installed there (as a tracer does) sees every evaluation
        seen = []

        def counting(*args):
            seen.append(args)
            return site_moment(*args)

        monkeypatch.setattr(kerr, "site_moment", counting)
        init = InitialState(N_A=8.0, N_B=n_b, phase=0.4)
        table = moment_table(RATIOS, init, (0.0, 0.13))
        assert len(seen) == calls
        monkeypatch.undo()
        assert table.tobytes() == moment_table(RATIOS, init, (0.0, 0.13)).tobytes()


class TestKeyLists:
    # the basis and the full list of monomials of order <= 4 come from the
    # same well-part tables, so the basis columns keep their bytes
    BASIS_IN_FULL = [FULL_INDEX[key] for key in BASIS_KEYS]

    @pytest.mark.parametrize("n_b, phase", [(8.0, 0.0), (18.0, 0.4)])
    def test_basis_table_is_full_table_at_basis_columns(self, n_b, phase):
        init = InitialState(N_A=8.0, N_B=n_b, phase=phase)
        taus = np.linspace(0.0, 3.0, 7)
        basis, full = (moment_table(RATIOS, init, taus, keys) for keys in (BASIS_KEYS, FULL_KEYS))
        assert basis.shape == (7, 1, len(BASIS_KEYS))
        assert basis.tobytes() == full[..., self.BASIS_IN_FULL].tobytes()
        basis, full = (
            fock_moment_table(RATIOS, init, taus[:3], cutoff=40, keys=keys)
            for keys in (BASIS_KEYS, FULL_KEYS)
        )
        assert basis.tobytes() == full[..., self.BASIS_IN_FULL].tobytes()

    def test_any_sequence_of_keys(self):
        # a list tabulates as the tuple of the same keys
        init = InitialState(N_A=8.0, N_B=18.0)
        keys = [key for key in BASIS_KEYS if sum(key) == 2]
        got = moment_table(RATIOS, init, [0.0, 0.7], keys)
        want = moment_table(RATIOS, init, [0.0, 0.7], tuple(keys))
        assert got.shape == (2, 1, 16)
        assert got.tobytes() == want.tobytes()

    def test_well_part_counts(self):
        assert kerr._part_index(BASIS_KEYS)[0].shape == (4, 35)
        assert kerr._part_index(FULL_KEYS)[0].shape == (4, 69)

    def test_part_index_built_on_first_use(self):
        # importing the package builds no part index: it costs start-up
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        probe = (
            "import twinwell.sweeps; from twinwell import kerr; "
            "print(kerr._part_index.cache_info().currsize)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


class TestFockOracle:
    def test_first_moment_at_zero_time(self):
        init = InitialState(N_A=8.0, N_B=8.0)
        got = fock_moment_table(RATIOS, init, [0.0], cutoff=50, keys=FULL_KEYS)
        got = got[0, 0, FULL_INDEX[A1]]
        assert abs(got - init.alpha_a) < 1e-10

    def test_product_of_conserved_numbers(self):
        init = InitialState(N_A=8.0, N_B=8.0)  # per-mode mean 4
        m = BASIS_INDEX[(1, 1, 0, 0, 1, 1, 0, 0)]  # a1† a1 a2† a2 normal ordered
        for got in fock_moment_table(RATIOS, init, (0.0, 0.4), cutoff=50)[:, 0, m]:
            assert got == pytest.approx(16.0, rel=1e-10)

    def test_revival(self):
        c = PhysicalCouplings(g11=1.0, g12=2.0, g22=3.0)
        init = InitialState(N_A=8.0, N_B=8.0)
        got = fock_moment_table(c, init, [2.0 * math.pi], cutoff=60, keys=FULL_KEYS)
        got = got[0, 0, FULL_INDEX[A1]]
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

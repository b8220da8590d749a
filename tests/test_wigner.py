import dataclasses
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from twinwell.config import InitialState, LossRates, PhysicalCouplings, SimConfig, preset_couplings
from twinwell import wigner
from twinwell.criteria import evaluate_criteria
from twinwell.errors import ConfigError, DivergenceError
from twinwell.kerr import moment_table
from twinwell.wigner import (
    BASIS_INDEX,
    BASIS_KEYS,
    CAHILL,
    NBASIS,
    WignerMomentSource,
    _chunk_rng,
    _linear_loss_cols,
    drift,
    monomial_columns,
    n_noise_columns,
    run_ensemble,
    sample_initial,
    step,
    _noise_term,
)

COUP = preset_couplings("B9p116G", 200.0)
INIT = InitialState(N_A=200.0)
LOSSLESS = LossRates()
N1 = BASIS_INDEX[(1, 0, 0, 0, 1, 0, 0, 0)]  # a1† a1


def diffusion(z, losses, linear_loss_mode="printed"):
    """Noise matrix B with shape (..., 4, 4 + n_linear_columns), built
    entry by entry: the reference for `_noise_term`."""
    cols = _linear_loss_cols(linear_loss_mode)
    b = np.zeros(z.shape[:-1] + (4, 4 + len(cols)), dtype=complex)
    s12 = math.sqrt(losses.gamma12)
    s22 = math.sqrt(losses.gamma22)
    s1 = math.sqrt(losses.gamma1)
    a1, b1_, a2, b2_ = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    b[..., 0, 0] = s12 * a2
    b[..., 1, 1] = s12 * b2_
    b[..., 2, 0] = s12 * a1
    b[..., 2, 2] = s22 * a2
    b[..., 3, 1] = s12 * b1_
    b[..., 3, 3] = s22 * b2_
    for j, col in enumerate(cols):
        b[..., col, 4 + j] = s1
    return b


def drift_reference(z, couplings, losses, linear_loss_mode="symmetric"):
    """Drift a = -i a_drift - a_loss written out mode by mode on the
    (..., 4) columns: the reference for the vectorised `drift`."""
    a1, b1, a2, b2 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    na1, nb1, na2, nb2 = (x.real * x.real + x.imag * x.imag for x in (a1, b1, a2, b2))
    g11, g12, g22 = couplings.g11, couplings.g12, couplings.g22
    k1, k2 = couplings.kappa1, couplings.kappa2
    out = np.empty_like(z)
    out[..., 0] = -1j * (k1 * b1 + a1 * (g11 * na1 + g12 * na2))
    out[..., 1] = -1j * (k1 * a1 + b1 * (g11 * nb1 + g12 * nb2))
    out[..., 2] = -1j * (k2 * b2 + a2 * (g12 * na1 + g22 * na2))
    out[..., 3] = -1j * (k2 * a2 + b2 * (g12 * nb1 + g22 * nb2))
    if losses.enabled:
        g1, gm12, gm22 = losses.gamma1, losses.gamma12, losses.gamma22
        out[..., 0] -= a1 * (gm12 * na2)
        out[..., 1] -= b1 * (gm12 * nb2)
        out[..., 2] -= a2 * (gm12 * na1 + 2.0 * gm22 * na2)
        out[..., 3] -= b2 * (gm12 * nb1 + 2.0 * gm22 * nb2)
        for col in _linear_loss_cols(linear_loss_mode):
            out[..., col] -= g1 * z[..., col]
    return out


def run_ensemble_serial(couplings, losses, initial, taus, params, chunk_offset=0):
    """`run_ensemble` of v0.2.4, which drew each step's noise from every
    chunk's stream in turn on the stepping thread: the reference for the
    blocks drawn ahead.  Returns the per-chunk sums."""
    n_traj, csize = params.n_traj, params.chunk_size
    n_chunks = n_traj // csize
    rngs = [_chunk_rng(params.seed, chunk_offset + c) for c in range(n_chunks)]
    slices = [slice(c * csize, (c + 1) * csize) for c in range(n_chunks)]
    z = np.empty((n_traj, 4), dtype=complex, order="F")
    for c in range(n_chunks):
        z[slices[c]] = sample_initial(initial, rngs[c], csize)
    raw = np.empty((n_traj, n_noise_columns(params.linear_loss_mode), 2))
    noise = raw.view(complex)[..., 0] if losses.enabled else None
    sums = np.empty((len(taus), n_chunks, NBASIS), dtype=complex)
    pos, steps_done = 0.0, 0
    for i, target in enumerate(taus):
        span = target - pos
        if span > 0.0:
            nsub = max(1, math.ceil(span / params.dtau - 1e-12))
            h = span / nsub
            for _ in range(nsub):
                if noise is not None:
                    for c in range(n_chunks):
                        rngs[c].standard_normal(out=raw[slices[c]])
                    raw *= math.sqrt(0.5 * h)
                z = step(z, couplings, losses, h, noise, params.linear_loss_mode)
                steps_done += 1
            pos = target
        finite = np.isfinite(z).all(axis=1)
        if not finite.all():
            bad = chunk_offset * csize + int(np.argmin(finite))
            raise DivergenceError(target, bad, steps_done)
        for c in range(n_chunks):
            sums[i, c] = monomial_columns(z[slices[c]]).sum(axis=0)
    return sums


# unequal couplings and tunneling rates, so a swapped species or well shows
ASYM = PhysicalCouplings(g11=1.0, g12=0.8, g22=0.95, kappa1=0.7, kappa2=0.3)
LOSS_CASES = [
    (LOSSLESS, "symmetric"),
    (LossRates(gamma12=0.2), "symmetric"),
    (LossRates(gamma22=0.3), "symmetric"),
    (LossRates(gamma1=0.1), "symmetric"),
    (LossRates(gamma1=0.1), "printed"),
    (LossRates(gamma1=0.1), "operators"),
    (LossRates(gamma1=0.1, gamma12=0.2, gamma22=0.3), "printed"),
]


def one_chunk_table(z):
    """(NBASIS,) normal-ordered moments of one ensemble, as one chunk."""
    sums = monomial_columns(z).sum(axis=0)
    return WignerMomentSource(sums[None, None], z.shape[0]).table[0, 0]


class TestSampling:
    def test_statistics(self):
        rng = _chunk_rng(123, 0)
        z = sample_initial(INIT, rng, 200_000)
        n = z.shape[0]
        for i in range(4):
            se = math.sqrt(0.5 / n)  # complex width 1/2 -> per-part var 1/4
            assert abs(z[:, i].mean() - INIT.alpha_a) < 5 * se
            # literal estimator fluctuates with the mean (SE ~ 2|alpha0|/sqrt(n))
            width = (np.abs(z[:, i]) ** 2).mean() - abs(INIT.alpha_a) ** 2
            assert width == pytest.approx(0.5, abs=5 * 2 * abs(INIT.alpha_a) / math.sqrt(n))
            # mean-subtracted estimator pins the half-quantum tightly
            centered = (np.abs(z[:, i] - z[:, i].mean()) ** 2).mean()
            assert centered == pytest.approx(0.5, abs=0.01)
        # independence across modes
        for i in range(4):
            for j in range(i + 1, 4):
                cov = (z[:, i] * z[:, j]).mean() - z[:, i].mean() * z[:, j].mean()
                assert abs(cov) < 6 * 0.5 / math.sqrt(n) + 0.01

    def test_asymmetric_wells(self):
        rng = _chunk_rng(5, 1)
        init = InitialState(N_A=200.0, N_B=8.0)
        z = sample_initial(init, rng, 50_000)
        assert (np.abs(z[:, 1]) ** 2).mean() == pytest.approx(4.5, abs=0.05)


class TestDrift:
    def test_single_occupied_mode(self):
        z = np.array([[1.3 + 0.4j, 0.0j, 0.0j, 0.0j]])
        a = drift(z, COUP, LOSSLESS)
        n = abs(z[0, 0]) ** 2
        assert a[0, 0] == pytest.approx(-1j * COUP.g11 * n * z[0, 0], rel=1e-14)
        assert np.all(a[0, 1:] == 0.0)

    def test_number_conserved_without_losses(self):
        rng = np.random.default_rng(3)
        coup = preset_couplings("B9p116G", 200.0, kappa=0.8)
        z = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
        a = drift(z, coup, LOSSLESS)
        ndot = 2.0 * np.real(np.conj(z) * a).sum(axis=1)
        assert np.max(np.abs(ndot)) < 1e-12

    def test_intra_species_loss_row(self):
        # d|alpha2|^2/dtau = -4 gamma22 |alpha2|^4 from the loss drift alone
        losses = LossRates(gamma22=0.01)
        z = np.array([[0.0j, 0.0j, 2.0 + 1.0j, 0.0j]])
        a = drift(z, COUP, losses) - drift(z, COUP, LOSSLESS)
        n2 = abs(z[0, 2]) ** 2
        got = 2.0 * np.real(np.conj(z[0, 2]) * a[0, 2])
        assert got == pytest.approx(-4.0 * 0.01 * n2**2, rel=1e-12)

    def test_linear_loss_mode_placement(self):
        losses = LossRates(gamma1=0.25)
        z = np.ones((1, 4), dtype=complex)
        base = drift(z, COUP, LOSSLESS)
        sym = drift(z, COUP, losses, "symmetric") - base
        assert np.allclose(sym[0], -0.25)
        printed = drift(z, COUP, losses, "printed") - base
        assert np.allclose(printed[0], [-0.25, -0.25, 0.0, 0.0])
        ops = drift(z, COUP, losses, "operators") - base
        assert np.allclose(ops[0], [0.0, -0.25, -0.25, 0.0])


class TestVectorisedAgainstReference:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("losses,mode", LOSS_CASES)
    def test_drift_and_noise_term(self, losses, mode, order):
        rng = np.random.default_rng(21)
        ncols = n_noise_columns(mode)
        z = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        z = np.asarray(z, order=order)
        dz = rng.normal(size=(9, ncols)) + 1j * rng.normal(size=(9, ncols))
        got = drift(z, ASYM, losses, mode)
        assert got.shape == z.shape
        assert np.allclose(got, drift_reference(z, ASYM, losses, mode), rtol=0.0, atol=1e-13)
        want = np.einsum("nij,nj->ni", diffusion(z, losses, mode), dz)
        got = _noise_term(z, losses, dz, mode)
        assert got.shape == z.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)

    def test_step_independent_of_layout(self):
        rng = np.random.default_rng(22)
        losses = LossRates(gamma1=0.1, gamma12=0.2, gamma22=0.3)
        z = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        dz = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        c = step(z, ASYM, losses, 1e-3, dz, linear_loss_mode="printed")
        f = step(np.asfortranarray(z), ASYM, losses, 1e-3, dz, linear_loss_mode="printed")
        assert np.array_equal(c, f)


class TestDiffusion:
    def test_zero_losses_zero_matrix(self):
        z = np.ones((3, 4), dtype=complex)
        b = diffusion(z, LOSSLESS)
        assert b.shape == (3, 4, 6)
        assert np.all(b == 0.0)

    def test_linear_loss_columns_printed(self):
        losses = LossRates(gamma1=0.04)
        z = np.ones((1, 4), dtype=complex) * (1 + 2j)
        b = diffusion(z, losses, "printed")[0]
        assert np.all(b[:, :4] == 0.0)  # two-body columns empty
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[1, 1] = math.sqrt(0.04)
        assert np.allclose(b[:, 4:], expected)

    def test_bbh_diagonal(self):
        losses = LossRates(gamma1=0.1, gamma12=0.2, gamma22=0.3)
        rng = np.random.default_rng(8)
        z = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        b = diffusion(z, losses, "printed")
        bbh = np.einsum("nij,nkj->nik", b, b.conj())
        want = 0.2 * np.abs(z[:, 0]) ** 2 + 0.3 * np.abs(z[:, 2]) ** 2
        assert np.allclose(bbh[:, 2, 2].real, want)

    def test_noise_term_matches_matrix_product(self):
        rng = np.random.default_rng(12)
        losses = LossRates(gamma1=0.1, gamma12=0.2, gamma22=0.3)
        for mode in ("symmetric", "printed", "operators"):
            ncols = n_noise_columns(mode)
            z = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
            dz = rng.normal(size=(7, ncols)) + 1j * rng.normal(size=(7, ncols))
            b = diffusion(z, losses, mode)
            want = np.einsum("nij,nj->ni", b, dz)
            got = _noise_term(z, losses, dz, mode)
            assert np.allclose(got, want, atol=1e-13)


class TestStep:
    def test_norm_conserved_lossless_midpoint(self):
        coup = preset_couplings("B9p116G", 200.0, kappa=1.0)
        rng = _chunk_rng(7, 0)
        z = sample_initial(INIT, rng, 64)
        n0 = (np.abs(z) ** 2).sum(axis=1)
        h = 1e-4
        for _ in range(2000):  # full default-window sweep
            z = step(z, coup, LOSSLESS, h)
        drift_n = np.abs((np.abs(z) ** 2).sum(axis=1) - n0).max()
        assert drift_n < 1e-6 * INIT.N_A

    def test_per_mode_numbers_conserved_without_tunneling(self):
        rng = _chunk_rng(7, 1)
        z = sample_initial(INIT, rng, 32)
        n0 = np.abs(z) ** 2
        h = 1e-4
        for _ in range(2000):
            z = step(z, COUP, LOSSLESS, h)
        assert np.abs(np.abs(z) ** 2 - n0).max() < 1e-6 * INIT.N_A

    def test_species_numbers_conserved_with_tunneling(self):
        # tunneling moves atoms between the wells of one species only, so
        # |a1|^2 + |b1|^2 and |a2|^2 + |b2|^2 hold per trajectory
        coup = dataclasses.replace(COUP, kappa1=1.0, kappa2=0.4)
        z = sample_initial(InitialState(N_A=200.0, N_B=120.0), _chunk_rng(7, 2), 64)
        n0 = np.abs(z) ** 2
        h = 1e-4
        for _ in range(2000):
            z = step(z, coup, LOSSLESS, h)
        n = np.abs(z) ** 2
        assert np.abs(n[:, :2] - n0[:, :2]).max() > 1.0  # the wells exchange atoms
        for species in (slice(0, 2), slice(2, 4)):
            change = n[:, species].sum(axis=1) - n0[:, species].sum(axis=1)
            assert np.abs(change).max() < 1e-6 * INIT.N_A


class TestEnsemble:
    PARAMS = SimConfig(dtau=1e-3, n_traj=200, seed=99, chunk_size=50)
    TAUS = (0.0, 0.3, 0.6)

    def test_seed_determinism(self):
        r1 = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS)
        r2 = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS)
        assert r1.sums.shape == (len(self.TAUS), 4, NBASIS)
        assert np.array_equal(r1.sums, r2.sums)

    def test_half_ensembles_merge_to_full(self):
        full = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS)
        lo = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS, n_traj=100)
        hi = run_ensemble(
            COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS, n_traj=100, chunk_offset=2
        )
        merged = np.concatenate([lo.sums, hi.sums], axis=1)
        assert np.array_equal(merged, full.sums)
        table = WignerMomentSource(merged, self.PARAMS.chunk_size).table
        assert np.array_equal(table, full.moment_table())

    def test_noisy_run_deterministic_too(self):
        losses = LossRates(gamma1=0.01, gamma12=1e-4)
        r1 = run_ensemble(COUP, losses, INIT, self.TAUS, self.PARAMS)
        r2 = run_ensemble(COUP, losses, INIT, self.TAUS, self.PARAMS)
        assert np.array_equal(r1.moment_table(), r2.moment_table())

    def test_noise_drawn_as_complex_pairs(self, monkeypatch):
        # each step's increments are the chunk stream's next normals, in
        # (trajectory, column, re/im) order, scaled by sqrt(h/2)
        seen = []
        real_step = wigner.step

        def spy(state, couplings, losses, dtau, noise=None, *args):
            seen.append(noise.copy())
            return real_step(state, couplings, losses, dtau, noise, *args)

        monkeypatch.setattr(wigner, "step", spy)
        params = SimConfig(dtau=1e-3, n_traj=200, seed=99, chunk_size=100, linear_loss_mode="printed")
        run_ensemble(COUP, LossRates(gamma12=1e-4), INIT, (0.0, 2e-3), params)
        assert len(seen) == 2
        scale = math.sqrt(0.5 * 1e-3)
        for c in range(2):
            rng = _chunk_rng(99, c)
            rng.standard_normal((100, 4, 2))  # the initial sample
            for noise in seen:
                raw = rng.standard_normal((100, 6, 2))
                want = scale * (raw[..., 0] + 1j * raw[..., 1])
                got = np.ascontiguousarray(noise[c * 100 : (c + 1) * 100])
                assert got.tobytes() == want.tobytes()

    def test_divergence_reported(self):
        bad = PhysicalCouplings(g11=10.0, g12=0.0, g22=10.0)
        params = SimConfig(dtau=10.0, n_traj=4, seed=1, chunk_size=2)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_ensemble(bad, LOSSLESS, INIT, (0.0, 50.0), params)
        assert err.value.trajectory >= 0
        assert err.value.tau == 50.0

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(COUP, LOSSLESS, INIT, (0.5, 0.1), self.PARAMS)


@pytest.fixture(params=["threaded", "one_cpu"])
def noise_path(request):
    """Run the loss noise with the process on all its CPUs or, so that the
    draws and the stepping take turns on it, pinned to one."""
    if request.param == "one_cpu":
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity call on this platform")
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        request.addfinalizer(lambda: os.sched_setaffinity(0, cpus))
    return request.param


class TestNoiseDrawnAhead:
    # step counts per interval 4, 7, 1 (unequal h) and 1, 3, 7 (11 in all):
    # neither grid fits whole blocks of NOISE_BLOCK steps everywhere
    GRID = (0.0, 0.0035, 0.01, 0.0101)
    GRID_ODD = (0.001, 0.0035, 0.01)
    CASES = [
        (LossRates(gamma12=1e-3), "symmetric", GRID, 3, 0),
        (LossRates(gamma22=1e-3), "symmetric", GRID, 3, 0),
        (LossRates(gamma1=0.01), "printed", GRID, 3, 0),
        (LossRates(gamma1=0.01, gamma12=1e-3, gamma22=1e-3), "operators", GRID, 3, 0),
        (LossRates(gamma1=0.01, gamma12=1e-3, gamma22=1e-3), "printed", GRID_ODD, 1, 0),
        (LossRates(gamma12=1e-3), "printed", GRID_ODD, 3, 2),
    ]

    @staticmethod
    def params(n_chunks, mode="symmetric"):
        return SimConfig(
            dtau=1e-3, n_traj=20 * n_chunks, seed=31, chunk_size=20, linear_loss_mode=mode
        )

    @pytest.mark.parametrize("losses, mode, taus, n_chunks, offset", CASES)
    def test_same_bytes_as_serial_draws(self, noise_path, losses, mode, taus, n_chunks, offset):
        params = self.params(n_chunks, mode)
        before = threading.active_count()
        run = run_ensemble(COUP, losses, INIT, taus, params, chunk_offset=offset)
        assert threading.active_count() == before  # the helper is joined
        want = run_ensemble_serial(COUP, losses, INIT, taus, params, chunk_offset=offset)
        assert run.sums.tobytes() == want.tobytes()

    def test_same_bytes_under_rapid_thread_switches(self, noise_path):
        losses = LossRates(gamma1=0.01, gamma12=1e-3, gamma22=1e-3)
        params = self.params(3, "printed")
        taus = tuple(0.002 * k for k in range(12))
        want = run_ensemble_serial(COUP, losses, INIT, taus, params)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = run_ensemble(COUP, losses, INIT, taus, params)
        finally:
            sys.setswitchinterval(old)
        assert run.sums.tobytes() == want.tobytes()

    def test_draws_exactly_the_run_steps(self, noise_path, monkeypatch):
        drawn = []

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, **kwargs):
                out = self.gen.standard_normal(*args, **kwargs)
                drawn.append(out.size)
                return out

        real = wigner._chunk_rng
        monkeypatch.setattr(wigner, "_chunk_rng", lambda seed, c: Counting(real(seed, c)))
        params = self.params(3, "printed")
        run_ensemble(COUP, LossRates(gamma12=1e-3), INIT, self.GRID_ODD, params)
        steps = 11
        assert sum(drawn) == params.n_traj * 8 + steps * params.n_traj * n_noise_columns("printed") * 2

    def test_lossless_run_starts_no_thread(self, monkeypatch):
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        run_ensemble(COUP, LOSSLESS, INIT, self.GRID, self.params(3))
        assert started == []
        run_ensemble(COUP, LossRates(gamma12=1e-3), INIT, self.GRID, self.params(3))
        assert len(started) == 1 and not started[0].is_alive()

    def test_failed_draw_raised_not_hung(self, noise_path, monkeypatch):
        # a draw that fails on the helper thread surfaces on the stepping
        # thread instead of leaving it waiting for the block
        class Failing:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, out=None, **kwargs):
                if out is not None:
                    raise MemoryError("draw failed")
                return self.gen.standard_normal(*args, **kwargs)

        real = wigner._chunk_rng
        monkeypatch.setattr(wigner, "_chunk_rng", lambda seed, c: Failing(real(seed, c)))
        before = threading.active_count()
        with pytest.raises(MemoryError, match="draw failed"):
            run_ensemble(COUP, LossRates(gamma12=1e-3), INIT, self.GRID, self.params(3))
        assert threading.active_count() == before

    def test_divergence_mid_block_joins_helper(self, noise_path):
        # diverges by tau 30, after 3 steps: the helper is still a block
        # ahead of the stepping when the error leaves run_ensemble
        bad = PhysicalCouplings(g11=10.0, g12=0.0, g22=10.0)
        losses = LossRates(gamma12=1e-3)
        params = SimConfig(dtau=10.0, n_traj=4, seed=1, chunk_size=2)
        taus = (0.0, 30.0, 50.0, 100.0)
        before = threading.active_count()
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as want:
                run_ensemble_serial(bad, losses, INIT, taus, params)
            with pytest.raises(DivergenceError) as got:
                run_ensemble(bad, losses, INIT, taus, params)
        assert threading.active_count() == before
        assert (got.value.tau, got.value.trajectory, got.value.step) == (
            want.value.tau,
            want.value.trajectory,
            want.value.step,
        )
        assert got.value.step % wigner.NOISE_BLOCK and got.value.tau < taus[-1]

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures pulls in logging, which costs every run's
        # start-up; only a lossy run's noise draws may import it
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        probe = (
            "import sys, twinwell.sweeps; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestMomentConversion:
    def test_cahill_matrix_inverts_against_weyl_expansion(self):
        import itertools

        inv = np.zeros((NBASIS, NBASIS))
        for i, key in enumerate(BASIS_KEYS):
            p, q = key[:4], key[4:]
            ranges = [range(min(p[j], q[j]) + 1) for j in range(4)]
            for kk in itertools.product(*ranges):
                coeff = 1.0
                for j in range(4):
                    if kk[j]:
                        coeff *= (
                            math.comb(p[j], kk[j])
                            * math.comb(q[j], kk[j])
                            * math.factorial(kk[j])
                            * (+0.5) ** kk[j]
                        )
                tgt = tuple(p[j] - kk[j] for j in range(4)) + tuple(
                    q[j] - kk[j] for j in range(4)
                )
                inv[i, BASIS_INDEX[tgt]] += coeff
        assert np.allclose(inv @ CAHILL, np.eye(NBASIS), atol=1e-12)

    def test_monomial_columns_explicit(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        cols = monomial_columns(z)
        # a2†^2 b1 a1  ->  conj(z[a2])^2 z[b1] z[a1]; z-order (a1, b1, a2, b2)
        key = (0, 2, 0, 0, 1, 0, 1, 0)
        want = np.conj(z[:, 2]) ** 2 * z[:, 0] * z[:, 1]
        assert np.allclose(cols[:, BASIS_INDEX[key]], want)

    def test_vacuum_ensemble(self):
        params = SimConfig(n_traj=20_000, seed=17, chunk_size=5000)
        vac = InitialState(N_A=1e-12, N_B=1e-12)
        rng = _chunk_rng(17, 0)
        z = sample_initial(vac, rng, 20_000)
        n1 = one_chunk_table(z)[N1]
        se = 0.5 / math.sqrt(z.shape[0])
        assert abs(n1) < 5 * se + 1e-6

    def test_coherent_ensemble_poisson_moments(self):
        init = InitialState(N_A=200.0)  # per-mode mean 100
        rng = _chunk_rng(23, 0)
        n = 200_000
        z = sample_initial(init, rng, n)
        table = one_chunk_table(z)
        n1 = table[N1].real
        n1n1 = table[BASIS_INDEX[(2, 0, 0, 0, 2, 0, 0, 0)]].real
        assert n1 == pytest.approx(100.0, abs=5 * 10.0 / math.sqrt(n) + 0.01)
        assert n1n1 == pytest.approx(10_000.0, rel=0.002)

    def test_converted_moments_match_exact_dynamics(self, monkeypatch):
        # sums of |monomial|^2 per output time, from the recorded columns
        sumsq = []
        record = wigner.monomial_columns

        def spy(z):
            cols = record(z)
            sumsq.append((cols.real * cols.real + cols.imag * cols.imag).sum(axis=0))
            return cols

        monkeypatch.setattr(wigner, "monomial_columns", spy)
        taus = (0.0, 1.0, 2.0)
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=31, chunk_size=500)
        run = run_ensemble(COUP, LOSSLESS, INIT, taus, params)
        n_chunks = params.n_traj // params.chunk_size
        table = run.moment_table()
        exact = moment_table(COUP, INIT, taus)
        n = params.n_traj
        for i in range(len(taus)):
            sq = np.sum(sumsq[i * n_chunks : (i + 1) * n_chunks], axis=0)
            mean = run.sums[i].sum(axis=0) / n
            # per-monomial standard error of the mean (|.|-sense), a crude bound
            stderr = np.sqrt(np.maximum(sq / n - np.abs(mean) ** 2, 0.0) / (n - 1))
            for key in (
                (1, 0, 0, 0, 1, 0, 0, 0),  # a1† a1
                (0, 1, 0, 0, 1, 0, 0, 0),  # a2† a1
                (1, 1, 0, 0, 1, 1, 0, 0),  # a1† a2† a1 a2
                (0, 1, 1, 0, 1, 0, 0, 1),  # a2† b1† a1 b2
            ):
                got = table[i, 0, BASIS_INDEX[key]]
                want = exact[i, 0, BASIS_INDEX[key]]
                se = float((CAHILL @ stderr)[BASIS_INDEX[key]])
                tol = 5 * max(abs(se), 1e-3 * abs(want) + 1e-3)
                assert abs(got - want) < tol, (key, taus[i], got, want, tol)


class TestPhysics:
    def test_linear_loss_decay_rate(self):
        losses = LossRates(gamma1=0.05)
        taus = (0.0, 1.0, 2.0)
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=41, chunk_size=500)
        run = run_ensemble(COUP, losses, INIT, taus, params)
        n_of_tau = run.moment_table()[:, 0, N1].real
        for tau, n in zip(taus, n_of_tau):
            assert n == pytest.approx(100.0 * math.exp(-2 * 0.05 * tau), rel=0.02)

    def test_interspecies_loss_depletes_both_modes(self):
        losses = LossRates(gamma12=1e-3)
        params = SimConfig(dtau=1e-3, n_traj=1000, seed=43, chunk_size=500)
        run = run_ensemble(COUP, losses, INIT, (0.0, 2.0), params)
        t0, t1 = run.moment_table()[:, 0].real
        for key in ((1, 0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 1, 0, 0)):  # a1† a1, a2† a2
            assert t1[BASIS_INDEX[key]] < t0[BASIS_INDEX[key]] - 5.0

    def test_step_halving_converges(self):
        taus = (0.0, 1.0)
        base = SimConfig(dtau=2e-3, n_traj=2000, seed=47, chunk_size=500)
        half = SimConfig(dtau=1e-3, n_traj=2000, seed=47, chunk_size=500)
        ra = run_ensemble(COUP, LOSSLESS, INIT, taus, base)
        rb = run_ensemble(COUP, LOSSLESS, INIT, taus, half)
        ea = evaluate_criteria(ra.moment_table()[1:])
        eb = evaluate_criteria(rb.moment_table()[1:], theta=ea.theta_opt)
        arr = ea.E_product[0]
        se = arr[1:].std(ddof=1) / math.sqrt(arr.size - 1)
        # identical initial ensembles, no noise: difference is pure
        # integrator error and must sit far below the Monte-Carlo error
        diff = abs(arr[0] - eb.E_product[0, 0])
        assert diff < 0.3 * se

    def test_wigner_matches_exact_criteria(self):
        taus = tuple(np.linspace(0.0, 3.0, 4))
        params = SimConfig(dtau=1e-3, n_traj=4000, seed=53, chunk_size=500)
        run = run_ensemble(COUP, LOSSLESS, INIT, taus, params)
        rw = evaluate_criteria(run.moment_table())
        re_ = evaluate_criteria(moment_table(COUP, INIT, taus), theta=rw.theta_opt)
        for field in ("E_product", "S_minus", "S_plus", "E_EPR_product", "duan_sum"):
            arr = getattr(rw, field)
            se = arr[:, 1:].std(ddof=1, axis=1) / math.sqrt(arr.shape[1] - 1)
            dev = np.abs(arr[:, 0] - getattr(re_, field)[:, 0])
            assert np.all(dev < 5 * se + 1e-9), (field, dev, se)

    def test_zero_time_baselines_statistical(self):
        # sampled squeezing at tau = 0 sits at unity within sampling error
        # when evaluated at a fixed angle (the optimized angle carries a
        # selection bias on the flat landscape)
        from twinwell.spins import spin_moments, squeezing

        params = SimConfig(dtau=1e-3, n_traj=10_000, seed=71, chunk_size=500)
        run = run_ensemble(COUP, LOSSLESS, INIT, (0.0,), params)
        table = run.moment_table()
        m = spin_moments(table)
        s = squeezing(m, 0.0)[0]
        se = s[1:].std(ddof=1) / math.sqrt(s.size - 1)
        assert abs(s[0] - 1.0) < 5 * se
        r = evaluate_criteria(table, theta=0.0)
        for field in ("S_minus", "S_plus", "E_product"):
            arr = getattr(r, field)[0]
            se = arr[1:].std(ddof=1) / math.sqrt(arr.size - 1)
            assert abs(arr[0] - 1.0) < 5 * se, field

    def test_symmetric_sites_have_equal_mean_spins(self):
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=73, chunk_size=500)
        run = run_ensemble(COUP, LOSSLESS, INIT, (0.0, 1.5), params)
        from twinwell.criteria import joint_moments

        j = joint_moments(run.moment_table(), theta=0.1)
        # identical wells: the two transverse means agree within noise
        assert j.mean_JY_C[1, 0] == pytest.approx(j.mean_JY_D[1, 0], rel=0.02)

    def test_tunneling_entangles_without_splitter(self):
        coup = preset_couplings("B9p116G", 200.0, kappa=1.0)
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=59, chunk_size=500)
        run = run_ensemble(coup, LOSSLESS, INIT, (0.0, 2.0), params)
        r = evaluate_criteria(run.moment_table(), beam_splitter=False)
        arr = r.E_product[1]
        se = arr[1:].std(ddof=1) / math.sqrt(arr.size - 1)
        assert arr[0] < 1.0 - 3 * se

    def test_splitter_helps_most_when_tunneling_is_weak(self):
        # one ensemble per tunneling rate, criteria evaluated both ways
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=61, chunk_size=500)
        taus = tuple(np.linspace(0.0, 4.0, 5))

        def minima(kappa):
            coup = preset_couplings("B9p116G", 200.0, kappa=kappa)
            table = run_ensemble(coup, LOSSLESS, INIT, taus, params).moment_table()
            return {
                bs: evaluate_criteria(table, beam_splitter=bs).E_product[:, 0].min()
                for bs in (True, False)
            }

        weak = minima(0.01)
        strong = minima(1.0)
        # weak tunneling: barely any entanglement without the splitter,
        # a lot with it; strong tunneling entangles on its own
        assert weak[False] > 0.9
        assert weak[True] < weak[False] - 0.2
        assert strong[False] < 0.9
        gain_weak = weak[False] - weak[True]
        gain_strong = strong[False] - strong[True]
        assert gain_weak > gain_strong

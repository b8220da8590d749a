import functools
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from twinwell.config import InitialState, LossRates, PhysicalCouplings, SimConfig, preset_couplings
from twinwell import wigner
from twinwell.criteria import evaluate_criteria
from twinwell.errors import ConfigError, DivergenceError
from twinwell.kerr import moment_table
from twinwell.operators import FULL_KEYS
from twinwell.wigner import (
    BASIS_INDEX,
    BASIS_KEYS,
    NBASIS,
    _chunk_rng,
    _linear_loss_cols,
    drift,
    moment_source,
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


def drift_scaled_reference(z, couplings, losses, linear_loss_mode, scale):
    """scale · a written out mode by mode in the order `drift` rounds it:
    the Kerr and tunneling sum rotated by -i and then scaled, less each
    loss term at its rate times scale.  The byte reference for
    `drift(..., scale=scale)`."""
    a1, b1, a2, b2 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    na1, nb1, na2, nb2 = (x.real * x.real + x.imag * x.imag for x in (a1, b1, a2, b2))
    g11, g12, g22 = couplings.g11, couplings.g12, couplings.g22
    k1, k2 = couplings.kappa1, couplings.kappa2
    out = np.empty_like(z)
    out[..., 0] = -1j * (a1 * (g11 * na1 + g12 * na2) + k1 * b1) * scale
    out[..., 1] = -1j * (b1 * (g11 * nb1 + g12 * nb2) + k1 * a1) * scale
    out[..., 2] = -1j * (a2 * (g12 * na1 + g22 * na2) + k2 * b2) * scale
    out[..., 3] = -1j * (b2 * (g12 * nb1 + g22 * nb2) + k2 * a2) * scale
    if losses.enabled:
        r1, r12 = scale * losses.gamma1, scale * losses.gamma12
        r22 = 2.0 * scale * losses.gamma22
        out[..., 0] -= a1 * (r12 * na2)
        out[..., 1] -= b1 * (r12 * nb2)
        out[..., 2] -= a2 * (r12 * na1 + r22 * na2)
        out[..., 3] -= b2 * (r12 * nb1 + r22 * nb2)
        for col in _linear_loss_cols(linear_loss_mode):
            out[..., col] -= r1 * z[..., col]
    return out


def drift_v026(z, couplings, losses, linear_loss_mode="symmetric"):
    """`drift` of v0.2.6, which built the coupling arrays on every call
    and added the tunneling term after the factor -i: the byte reference
    for `drift`."""
    v = np.ascontiguousarray(z.T).reshape(2, 2, -1)
    sq = v.view(float) * v.view(float)
    n = sq[..., ::2] + sq[..., 1::2]
    g = np.array([[couplings.g11, couplings.g12], [couplings.g12, couplings.g22]])
    kappa = -1j * np.array([couplings.kappa1, couplings.kappa2])[:, None, None]
    out = v * (g[:, 0, None, None] * n[0] + g[:, 1, None, None] * n[1])
    out *= -1j
    out += kappa * v[:, ::-1]
    if losses.enabled:
        loss = losses.gamma12 * n[::-1]
        if losses.gamma22:
            loss[1] += 2.0 * losses.gamma22 * n[1]
        out -= v * loss
        if losses.gamma1:
            flat, zt = out.reshape(4, -1), z.T
            for col in _linear_loss_cols(linear_loss_mode):
                flat[col] -= losses.gamma1 * zt[col]
    return out.reshape(4, -1).T


def step_v026(state, couplings, losses, dtau, noise=None, linear_loss_mode="symmetric"):
    """`step` of v0.2.6 on `drift_v026`: the semi-implicit midpoint with 3
    fixed-point iterations (3 drift evaluations per step), the reference
    integrator that `step`'s accuracy and statistics are judged against."""
    mid = state
    for _ in range(3):
        dz = drift_v026(mid, couplings, losses, linear_loss_mode)
        dz *= dtau
        if noise is not None and losses.enabled:
            dz += _noise_term(mid, losses, noise, linear_loss_mode)
        dz *= 0.5
        dz += state
        mid = dz
    mid *= 2.0
    mid -= state
    return mid


def step_two_evaluation(state, couplings, losses, dtau, noise=None, linear_loss_mode="symmetric"):
    """The explicit midpoint rule written out on `drift_v026`, each
    increment dz(x) = a(x) dτ + B(x) dZ formed out of place: the byte
    reference for a lossless `step`, which a lossy one meets to rounding
    (it scales the loss rates instead of the lossy drift)."""

    def dz(x):
        inc = drift_v026(x, couplings, losses, linear_loss_mode) * dtau
        if noise is not None and losses.enabled:
            inc = inc + _noise_term(x, losses, noise, linear_loss_mode)
        return inc

    mid = state + 0.5 * dz(state)
    return state + dz(mid)


def package_env():
    """The environment of a fresh Python process that imports this tree's
    package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


FULL_INDEX = {k: i for i, k in enumerate(FULL_KEYS)}
BASIS_IN_FULL = [FULL_INDEX[key] for key in BASIS_KEYS]


def monomial_columns_per_column(z):
    """`monomial_columns` of v0.2.6 over every monomial of order <= 4
    (`FULL_KEYS`), one product per column, each column its parent times
    the first variable of its key: the reference the outer products of
    `monomial_columns` agree with to a few ulp."""
    var8 = np.conj(z[:, list(wigner.MODE_TO_ZCOL)])
    var8 = np.concatenate([var8, z[:, list(wigner.MODE_TO_ZCOL)]], axis=1)
    out = np.empty((z.shape[0], len(FULL_KEYS)), dtype=complex, order="F")
    out[:, 0] = 1.0
    for col, key in enumerate(FULL_KEYS[1:], start=1):
        var = next(pos for pos, e in enumerate(key) if e)
        parent = list(key)
        parent[var] -= 1
        np.multiply(out[:, FULL_INDEX[tuple(parent)]], var8[:, var], out=out[:, col])
    return out


def monomial_columns_written_out(z):
    """(n, NBASIS) column-major table, each basis column written out as
    (z_n z_n') conj(z_m z_m'), z_n conj(z_m) or 1, the factors of each
    part multiplied in mode order: the byte reference for
    `monomial_columns`.  The annihilation part comes first: a fused
    multiply-add can round the imaginary part of a b and b a apart."""

    def product(part):
        factors = [z[:, wigner.MODE_TO_ZCOL[m]] for m in range(4) for _ in range(part[m])]
        return functools.reduce(np.multiply, factors)

    out = np.empty((z.shape[0], NBASIS), dtype=complex, order="F")
    out[:, 0] = 1.0
    for col, key in enumerate(BASIS_KEYS[1:], start=1):
        out[:, col] = product(key[4:]) * np.conj(product(key[:4]))
    return out


@functools.lru_cache(maxsize=4)
def ordering_matrix(half=-0.5, keys=BASIS_KEYS):
    """Dense per-mode s-ordering expansion over `keys`,

        a†^p a^q -> sum_k k! C(p,k) C(q,k) half^k {a†^(p-k) a^(q-k)},

    the Cahill map from symmetric to normal order at half = -1/2 and its
    inverse at half = +1/2: the oracle for `moment_source`.  Every term
    must land in `keys` (a KeyError if one does not)."""
    index = {k: i for i, k in enumerate(keys)}
    m = np.zeros((len(keys), len(keys)))
    for i, key in enumerate(keys):
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
                        * half ** kk[j]
                    )
            tgt = tuple(p[j] - kk[j] for j in range(4)) + tuple(
                q[j] - kk[j] for j in range(4)
            )
            m[i, index[tgt]] += coeff
    m.flags.writeable = False
    return m


def weyl_table(sums, chunk_size):
    """The symmetric-ordered table `moment_source` starts from: the merged
    ensemble, then each chunk."""
    merged = sums.sum(axis=1, keepdims=True) / (sums.shape[1] * chunk_size)
    return np.concatenate([merged, sums / chunk_size], axis=1)


def cahill_reference(weyl):
    """Normal-ordered moments of a symmetric-ordered table, one row of the
    dense map at a time and without BLAS: each row adds its off-diagonal
    terms from zero in ascending column order, then its diagonal."""
    m = ordering_matrix()
    out = np.empty_like(weyl)
    for part, dst in ((weyl.real, out.real), (weyl.imag, out.imag)):
        for i in range(NBASIS):
            acc = np.zeros(part.shape[:-1])
            cols = np.flatnonzero(m[i])
            for col in cols[cols != i]:
                acc = acc + m[i, col] * part[..., col]
            dst[..., i] = acc + part[..., i]
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
    return moment_source(sums[None, None], z.shape[0])[0, 0]


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


def fifty_steps(losses, mode, kappa):
    """`step` and `step_two_evaluation` after 50 steps of 1e-3 from the
    same 37 states, on the same noise when there are losses."""
    coup = ASYM._replace(kappa1=kappa, kappa2=kappa / 2)
    rng = np.random.default_rng(42)
    z = np.asfortranarray(rng.normal(size=(37, 4)) + 1j * rng.normal(size=(37, 4)))
    want = z
    ncols = n_noise_columns(mode)
    for _ in range(50):
        noise = None
        if losses.enabled:
            noise = 0.02 * (rng.normal(size=(37, ncols)) + 1j * rng.normal(size=(37, ncols)))
        z = step(z, coup, losses, 1e-3, noise, mode)
        want = step_two_evaluation(want, coup, losses, 1e-3, noise, mode)
    return z, want


class TestSameBytesAsV026:
    """`drift` at scale 1 keeps the bits of its v0.2.6 formulation, and a
    lossless `step` those of the two-evaluation rule written out on it."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    @pytest.mark.parametrize("losses,mode", LOSS_CASES)
    def test_drift(self, losses, mode, kappa, order):
        coup = ASYM._replace(kappa1=kappa, kappa2=kappa / 2)
        rng = np.random.default_rng(41)
        z = rng.normal(size=(37, 4)) + 1j * rng.normal(size=(37, 4))
        z = np.asarray(z, order=order)
        got = drift(z, coup, losses, mode)
        assert got.tobytes() == drift_v026(z, coup, losses, mode).tobytes()

    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    @pytest.mark.parametrize("losses,mode", [(LOSSLESS, "symmetric")])
    def test_fifty_steps(self, losses, mode, kappa):
        z, want = fifty_steps(losses, mode, kappa)
        assert z.tobytes() == want.tobytes()


class TestDriftScale:
    """`drift(..., scale=s)` scales the Kerr and tunneling sum after its
    rotation and the loss rates before their terms, the bytes of
    `drift_scaled_reference`, on every case of
    `TestSameBytesAsV026.test_drift`; without losses that is the
    unscaled drift times s."""

    @pytest.mark.parametrize("scale", [0.5e-3, 1e-3])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    @pytest.mark.parametrize("losses,mode", LOSS_CASES)
    def test_same_bytes_as_scaling_after(self, losses, mode, kappa, order, scale):
        coup = ASYM._replace(kappa1=kappa, kappa2=kappa / 2)
        rng = np.random.default_rng(41)
        z = rng.normal(size=(37, 4)) + 1j * rng.normal(size=(37, 4))
        z = np.asarray(z, order=order)
        got = drift(z, coup, losses, mode, scale=scale)
        assert got.shape == z.shape and got.flags.f_contiguous
        want = drift_scaled_reference(z, coup, losses, mode, scale)
        assert got.tobytes() == want.tobytes()
        if not losses.enabled:
            assert got.tobytes() == (drift(z, coup, losses, mode) * scale).tobytes()


class TestStepCallsTracedLayers:
    """`step` reaches `drift` and `_noise_term` through the module
    attributes, which is where a tracer wraps them by name."""

    TAUS = (0.0, 0.002, 0.005)  # 2 + 3 steps of 1e-3
    STEPS = 5

    def counted_run(self, monkeypatch, couplings, losses):
        calls = {"drift": 0, "_noise_term": 0}

        def counting(name):
            real = getattr(wigner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(wigner, name, wrapper)

        counting("drift")
        counting("_noise_term")
        params = SimConfig(dtau=1e-3, n_traj=40, seed=7, chunk_size=20)
        run_ensemble(couplings, losses, INIT, self.TAUS, params)
        return calls

    def test_lossless_tunneling(self, monkeypatch):
        calls = self.counted_run(monkeypatch, ASYM, LOSSLESS)
        assert calls == {"drift": 2 * self.STEPS, "_noise_term": 0}

    def test_lossy(self, monkeypatch):
        losses = LossRates(gamma1=0.01, gamma12=1e-3, gamma22=1e-3)
        calls = self.counted_run(monkeypatch, COUP, losses)
        assert calls == {"drift": 2 * self.STEPS, "_noise_term": 2 * self.STEPS}


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
        coup = COUP._replace(kappa1=1.0, kappa2=0.4)
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

    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    @pytest.mark.parametrize("mode", ["symmetric", "printed", "operators"])
    def test_lossy_steps_agree_with_two_evaluation_rule(self, mode, kappa):
        # only the rounding of the scaled loss rates tells them apart
        losses = LossRates(gamma1=0.1, gamma12=0.2, gamma22=0.3)
        z, want = fifty_steps(losses, mode, kappa)
        assert (np.abs(z - want) / np.abs(want)).max() <= 1e-13

    def test_accuracy_at_fixed_cost(self):
        # lossless, so the error is the integrator's alone: the largest
        # amplitude error at T = 1 against the same ensemble at a fine step
        coup = preset_couplings("B9p116G", 200.0, kappa=1.0)
        z0 = np.asfortranarray(sample_initial(INIT, _chunk_rng(5, 0), 500))

        def final(stepper, n_steps):
            z = z0
            for _ in range(n_steps):
                z = stepper(z, coup, LOSSLESS, 1.0 / n_steps)
            return z

        ref = final(step, 8000)
        new_1500, new_1000, old_1000 = (
            np.abs(final(stepper, n) - ref).max()
            for stepper, n in ((step, 1500), (step, 1000), (step_v026, 1000))
        )
        # 3000 drift evaluations each: 2 per step at h = 2/3e-3, 3 at 1e-3
        assert new_1500 < old_1000
        # the same step size
        assert new_1000 < 1.6 * old_1000


class TestEnsemble:
    PARAMS = SimConfig(dtau=1e-3, n_traj=200, seed=99, chunk_size=50)
    TAUS = (0.0, 0.3, 0.6)

    def test_seed_determinism(self):
        r1 = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS)
        r2 = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS)
        assert r1.shape == (len(self.TAUS), 4, NBASIS)
        assert np.array_equal(r1, r2)

    def test_half_ensembles_merge_to_full(self):
        full = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, self.PARAMS)
        half = self.PARAMS._replace(n_traj=100)
        lo = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, half)
        hi = run_ensemble(COUP, LOSSLESS, INIT, self.TAUS, half, chunk_offset=2)
        merged = np.concatenate([lo, hi], axis=1)
        assert np.array_equal(merged, full)
        table = moment_source(merged, self.PARAMS.chunk_size)
        assert np.array_equal(table, moment_source(full, self.PARAMS.chunk_size))

    def test_noisy_run_deterministic_too(self):
        losses = LossRates(gamma1=0.01, gamma12=1e-4)
        r1 = run_ensemble(COUP, losses, INIT, self.TAUS, self.PARAMS)
        r2 = run_ensemble(COUP, losses, INIT, self.TAUS, self.PARAMS)
        tables = [moment_source(r, self.PARAMS.chunk_size) for r in (r1, r2)]
        assert np.array_equal(*tables)

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

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
        reason="counts the page faults of glibc's allocator on Linux",
    )
    def test_steps_fault_in_no_fresh_pages(self):
        # 300 lossless steps of 20 000 trajectories, recording only at the
        # end, in a fresh process: each step's temporaries (1.3 MB arrays)
        # must come from the heap, not be mapped and faulted in afresh
        # (about 450 faults per step if they are), under glibc's default
        # settings
        env = package_env()
        for name in ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
            env.pop(name, None)
        probe = (
            "import resource\n"
            "from twinwell.config import InitialState, LossRates, SimConfig, preset_couplings\n"
            "from twinwell.wigner import run_ensemble\n"
            "params = SimConfig(dtau=1e-3, n_traj=20_000, seed=1, chunk_size=500)\n"
            "coup = preset_couplings('B9p116G', 200.0, 1.0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_ensemble(coup, LossRates(), InitialState(N_A=200.0), (0.3,), params)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) / 300 < 50


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
        assert run.tobytes() == want.tobytes()

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
        assert run.tobytes() == want.tobytes()

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

    @staticmethod
    def slow_helper(monkeypatch, seconds, fail_on_stepping_thread=False):
        """Make every noise draw of the helper thread sleep `seconds` first,
        so the stepping thread has to take queued draws itself; returns
        the list of (drawn on the helper, chunk) of each draw begun."""
        draws = []

        class Slow:
            def __init__(self, gen, chunk):
                self.gen, self.chunk = gen, chunk

            def standard_normal(self, *args, out=None, **kwargs):
                if out is None:
                    return self.gen.standard_normal(*args, **kwargs)
                helper = threading.current_thread().name.startswith("twinwell-noise")
                draws.append((helper, self.chunk))
                if helper:
                    time.sleep(seconds)
                elif fail_on_stepping_thread:
                    raise MemoryError("draw failed")
                return self.gen.standard_normal(*args, out=out, **kwargs)

        real = wigner._chunk_rng
        monkeypatch.setattr(wigner, "_chunk_rng", lambda seed, c: Slow(real(seed, c), c))
        return draws

    def test_stepping_thread_takes_draws_the_helper_lags_on(self, noise_path, monkeypatch):
        losses = LossRates(gamma1=0.01, gamma12=1e-3, gamma22=1e-3)
        params = self.params(3, "printed")
        taus = tuple(0.002 * k for k in range(40))
        want = run_ensemble_serial(COUP, losses, INIT, taus, params)
        draws = self.slow_helper(monkeypatch, 0.002)

        class YieldingLock:
            # gives the other thread its turn as each chunk lock is let go,
            # so a count advanced after the release would be read stale
            def __init__(self):
                self.lock = threading.Lock()

            def __enter__(self):
                self.lock.acquire()

            def __exit__(self, *exc):
                self.lock.release()
                time.sleep(0.0005)

        monkeypatch.setattr(wigner, "threading", types.SimpleNamespace(Lock=YieldingLock))
        before = threading.active_count()
        run = run_ensemble(COUP, losses, INIT, taus, params)
        assert threading.active_count() == before
        assert run.tobytes() == want.tobytes()
        blocks = -(-78 // wigner.NOISE_BLOCK)  # 78 steps
        assert sorted(c for _, c in draws) == sorted(list(range(3)) * blocks)
        assert {helper for helper, _ in draws} == {True, False}  # both threads drew

    @pytest.mark.parametrize("end", ["diverged", "failed"])
    def test_early_end_drops_queued_draws(self, noise_path, monkeypatch, end):
        # 10 steps, 3 blocks of 2 chunks, all 6 draws queued from the start;
        # the run ends in block 0 (diverged after 3 steps, or on the
        # stepping thread's first draw) while the helper sleeps in a draw,
        # and the draws still queued then are never made
        bad = PhysicalCouplings(g11=10.0, g12=0.0, g22=10.0)
        params = SimConfig(dtau=10.0, n_traj=4, seed=1, chunk_size=2)
        taus = (0.0, 30.0, 50.0, 100.0)
        draws = self.slow_helper(monkeypatch, 0.1, fail_on_stepping_thread=end == "failed")
        before = threading.active_count()
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError if end == "diverged" else MemoryError):
                run_ensemble(bad, LossRates(gamma12=1e-3), INIT, taus, params)
        assert threading.active_count() == before
        assert 0 < len(draws) < 2 * -(-10 // wigner.NOISE_BLOCK)

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures pulls in logging, which costs every run's
        # start-up; only a lossy run's noise draws may import it.  numpy.ma
        # (which np.unique on an int array imports) costs start-up too
        env = package_env()
        probe = (
            "import sys, twinwell.sweeps; "
            "print(sorted({'concurrent.futures', 'logging', 'numpy.ma'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestMomentConversion:
    def test_cahill_matrix_inverts_against_weyl_expansion(self):
        assert np.allclose(
            ordering_matrix(+0.5) @ ordering_matrix(), np.eye(NBASIS), atol=1e-12
        )

    def test_cahill_terms_structure(self):
        # 78 off-diagonal terms in 62 rows, at most 3 per row, each
        # pointing to a lower-order column, and together the dense map
        rows, ranks = wigner._CAHILL_ROWS, wigner._CAHILL_TERMS
        assert len(rows) == 62 and len(ranks) <= 3
        assert sum(len(pos) for pos, _, _ in ranks) == 78
        dense = np.eye(NBASIS)
        last = np.full(len(rows), -1)
        for pos, cols, coeffs in ranks:
            assert len(set(pos)) == len(pos)
            assert (cols > last[pos]).all()  # ascending within a row
            last[pos] = cols
            dense[rows[pos], cols] = coeffs[:, 0]
        assert (last >= 0).all()  # every listed row carries a term
        assert (last < rows).all()  # strictly lower-triangular
        assert np.array_equal(dense, ordering_matrix())

    def test_cahill_map_closes_on_the_basis(self):
        # the map keeps p - q per mode: the full map's basis rows have
        # every term in a basis column, and restricted to the basis they
        # are the basis map (whose inverse the test above checks)
        full = ordering_matrix(keys=FULL_KEYS)[BASIS_IN_FULL]
        outside = np.setdiff1d(np.arange(len(FULL_KEYS)), BASIS_IN_FULL)
        assert not full[:, outside].any()
        assert np.array_equal(full[:, BASIS_IN_FULL], ordering_matrix())

    @pytest.mark.parametrize("n_tau, n_chunks", [(1, 2), (7, 11)])
    def test_conversion_same_bytes_as_reference_loop(self, n_tau, n_chunks):
        rng = np.random.default_rng(n_tau)
        for scale in (1e-2, 1.0, 1e9):
            shape = (n_tau, n_chunks, NBASIS)
            sums = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            want = cahill_reference(weyl_table(sums, 20))
            assert moment_source(sums, 20).tobytes() == want.tobytes()

    def test_conversion_matches_dense_product(self):
        # a BLAS product's bits depend on the build: compare to rounding
        rng = np.random.default_rng(3)
        shape = (5, 4, NBASIS)
        sums = 50.0 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        weyl = weyl_table(sums, 20)
        want = weyl @ ordering_matrix().T
        got = moment_source(sums, 20)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_monomial_columns_explicit(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        cols = monomial_columns(z)
        # a2†^2 b1 a1  ->  conj(z[a2])^2 z[b1] z[a1]; z-order (a1, b1, a2, b2)
        key = (0, 2, 0, 0, 1, 0, 1, 0)
        want = np.conj(z[:, 2]) ** 2 * z[:, 0] * z[:, 1]
        assert np.allclose(cols[:, BASIS_INDEX[key]], want)

    def test_outer_product_blocks_are_the_basis(self):
        # the constant, then conj(z^p) z^q for every pair of single
        # amplitudes, then for every pair of pair products, p outer and q
        # inner: that layout is the basis order
        mode_of = {col: m for m, col in enumerate(wigner.MODE_TO_ZCOL)}

        def parts(factors):
            out = []
            for cols in factors:
                part = [0] * 4
                for col in cols:
                    part[mode_of[col]] += 1
                out.append(tuple(part))
            return out

        keys = [(0,) * 8]
        for block in (parts(wigner._SINGLES[:, None]), parts(wigner._PAIRS.T)):
            assert len(set(block)) == len(block)
            keys += [p + q for p in block for q in block]
        assert tuple(keys) == BASIS_KEYS

    def test_outer_products_same_bytes_as_written_out(self):
        # the columns, and the sums `run_ensemble` records, are those of
        # conj(z_m z_m') (z_n z_n') written out column by column, whether
        # or not the number of trajectories is a multiple of 8
        rng = np.random.default_rng(5)
        for n in (301, 500):
            z = np.asfortranarray(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))
            cols, want = monomial_columns(z), monomial_columns_written_out(z)
            assert cols.shape == (n, NBASIS) and cols.flags.f_contiguous
            assert cols.tobytes(order="F") == want.tobytes(order="F")
            assert cols.sum(axis=0).tobytes() == want.sum(axis=0).tobytes()

    def test_outer_products_match_the_chain_build(self):
        # the v0.2.6 chain build multiplies the quartic monomials' factors
        # in another order: the same values to a few ulp of each
        # monomial's modulus.  It makes the constant and the bilinears
        # z_n conj(z_m) by the same products, so those keep their bytes
        rng = np.random.default_rng(6)
        z = np.asfortranarray(rng.normal(size=(4000, 4)) + 1j * rng.normal(size=(4000, 4)))
        cols = monomial_columns(z)
        chain = monomial_columns_per_column(z)[:, BASIS_IN_FULL]
        assert (np.abs(cols - chain) <= 8 * np.finfo(float).eps * np.abs(chain)).all()
        assert cols[:, :17].tobytes(order="F") == chain[:, :17].tobytes(order="F")

    @pytest.mark.parametrize("n_chunks", [2, 11])
    def test_per_tau_same_bytes_as_whole_table(self, n_chunks):
        rng = np.random.default_rng(n_chunks)
        shape = (13, n_chunks, NBASIS)
        sums = 50.0 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        per_tau = np.concatenate([moment_source(s[None], 20) for s in sums])
        assert moment_source(sums, 20).tobytes() == per_tau.tobytes()

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
        table = moment_source(run, params.chunk_size)
        exact = moment_table(COUP, INIT, taus)
        n = params.n_traj
        for i in range(len(taus)):
            sq = np.sum(sumsq[i * n_chunks : (i + 1) * n_chunks], axis=0)
            mean = run[i].sum(axis=0) / n
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
                se = float((ordering_matrix() @ stderr)[BASIS_INDEX[key]])
                tol = 5 * max(abs(se), 1e-3 * abs(want) + 1e-3)
                assert abs(got - want) < tol, (key, taus[i], got, want, tol)


class TestPhysics:
    def test_linear_loss_decay_rate(self):
        losses = LossRates(gamma1=0.05)
        taus = (0.0, 1.0, 2.0)
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=41, chunk_size=500)
        run = run_ensemble(COUP, losses, INIT, taus, params)
        n_of_tau = moment_source(run, params.chunk_size)[:, 0, N1].real
        for tau, n in zip(taus, n_of_tau):
            assert n == pytest.approx(100.0 * math.exp(-2 * 0.05 * tau), rel=0.02)

    def test_interspecies_loss_depletes_both_modes(self):
        losses = LossRates(gamma12=1e-3)
        params = SimConfig(dtau=1e-3, n_traj=1000, seed=43, chunk_size=500)
        run = run_ensemble(COUP, losses, INIT, (0.0, 2.0), params)
        t0, t1 = moment_source(run, params.chunk_size)[:, 0].real
        for key in ((1, 0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 1, 0, 0)):  # a1† a1, a2† a2
            assert t1[BASIS_INDEX[key]] < t0[BASIS_INDEX[key]] - 5.0

    def test_step_halving_converges(self):
        taus = (0.0, 1.0)
        base = SimConfig(dtau=2e-3, n_traj=2000, seed=47, chunk_size=500)
        half = SimConfig(dtau=1e-3, n_traj=2000, seed=47, chunk_size=500)
        ra = run_ensemble(COUP, LOSSLESS, INIT, taus, base)
        rb = run_ensemble(COUP, LOSSLESS, INIT, taus, half)
        ea = evaluate_criteria(moment_source(ra, base.chunk_size)[1:])
        eb = evaluate_criteria(moment_source(rb, half.chunk_size)[1:], theta=ea.theta_opt)
        arr = ea.E_product[0]
        se = arr[1:].std(ddof=1) / math.sqrt(arr.size - 1)
        # identical initial ensembles, no noise: difference is pure
        # integrator error and must sit far below the Monte-Carlo error
        diff = abs(arr[0] - eb.E_product[0, 0])
        assert diff < 0.3 * se

    def test_lossy_criteria_agree_with_three_iteration_step(self, monkeypatch):
        # common random numbers: both integrators step the same initial
        # ensemble with the same noise, so their criteria differ by
        # integrator error alone, far below the sampling error
        losses = LossRates(gamma1=0.01, gamma12=0.01, gamma22=0.01)
        params = SimConfig(dtau=1e-3, n_traj=1000, seed=67, chunk_size=125)
        taus = (0.0, 1.0, 2.0)
        new = evaluate_criteria(
            moment_source(run_ensemble(COUP, losses, INIT, taus, params), params.chunk_size)
        )
        monkeypatch.setattr(wigner, "step", step_v026)
        old = evaluate_criteria(
            moment_source(run_ensemble(COUP, losses, INIT, taus, params), params.chunk_size),
            theta=new.theta_opt,
        )
        for field in ("E_product", "S_minus", "S_plus", "E_EPR_product", "duan_sum"):
            arr = getattr(new, field)[1:]
            se = arr[:, 1:].std(ddof=1, axis=1) / math.sqrt(arr.shape[1] - 1)
            dev = np.abs(arr[:, 0] - getattr(old, field)[1:, 0])
            assert np.all(dev < 0.01 * se), (field, dev / se)

    def test_wigner_matches_exact_criteria(self):
        taus = tuple(np.linspace(0.0, 3.0, 4))
        params = SimConfig(dtau=1e-3, n_traj=4000, seed=53, chunk_size=500)
        run = run_ensemble(COUP, LOSSLESS, INIT, taus, params)
        rw = evaluate_criteria(moment_source(run, params.chunk_size))
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
        table = moment_source(run, params.chunk_size)
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

        j = joint_moments(moment_source(run, params.chunk_size), theta=0.1)
        # identical wells: the two transverse means agree within noise
        assert j.mean_JY_C[1, 0] == pytest.approx(j.mean_JY_D[1, 0], rel=0.02)

    def test_tunneling_entangles_without_splitter(self):
        coup = preset_couplings("B9p116G", 200.0, kappa=1.0)
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=59, chunk_size=500)
        run = run_ensemble(coup, LOSSLESS, INIT, (0.0, 2.0), params)
        r = evaluate_criteria(moment_source(run, params.chunk_size), beam_splitter=False)
        arr = r.E_product[1]
        se = arr[1:].std(ddof=1) / math.sqrt(arr.size - 1)
        assert arr[0] < 1.0 - 3 * se

    def test_splitter_helps_most_when_tunneling_is_weak(self):
        # one ensemble per tunneling rate, criteria evaluated both ways
        params = SimConfig(dtau=1e-3, n_traj=2000, seed=61, chunk_size=500)
        taus = tuple(np.linspace(0.0, 4.0, 5))

        def minima(kappa):
            coup = preset_couplings("B9p116G", 200.0, kappa=kappa)
            sums = run_ensemble(coup, LOSSLESS, INIT, taus, params)
            table = moment_source(sums, params.chunk_size)
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

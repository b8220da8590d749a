"""Truncated-Wigner stochastic engine for the four-mode system.

Phase-space amplitudes z = (α1, β1, α2, β2) are sampled from the initial
coherent-state Wigner distribution (half-quantum width 1/2 per mode) and
integrated through

    dz = a dτ + B dZ,      a = -i a_drift - a_loss,

with the drift and diffusion of the dimensionless master equation.  The
complex Wiener increments satisfy <dZ* dZ> = dτ, <dZ dZ> = 0.  Raw path
averages estimate symmetric-ordered moments; `CAHILL` converts them to
normal order per mode via the s-ordering expansion

    a†^p a^q = sum_k k! C(p,k) C(q,k) (-1/2)^k {a†^(p-k) a^(q-k)}_sym.

Trajectories are organized in fixed-size chunks.  Chunk c draws from its
own Philox stream keyed by (seed, chunk_offset + c), so results are
bit-reproducible and independent of scheduling.  A run keeps one sum of
monomials per chunk and output time; the chunk sums of half-ensembles
concatenate into exactly those of the full ensemble.

Memory layout: the state is an (n_traj, 4) array stored column-major, so
each mode's trajectories are contiguous and `z.T.reshape(2, 2, n_traj)`
is a view indexed (species, well, trajectory), species 1 = (α1, β1) and
species 2 = (α2, β2).  `drift` and `_noise_term` act on that view as a
whole: tunneling swaps the well axis, the Kerr and two-body loss rates
combine the species axis.  The per-chunk monomial tables are
column-major too, so every product and per-column sum is contiguous.
The noise increments stay in the Philox stream's order (trajectory,
column, re/im) and are read as complex.

Loss noise is drawn ahead in blocks of NOISE_BLOCK steps (`_noise_ahead`):
one `standard_normal` call per chunk and block, which consumes each
chunk's stream in the same order as one call per step, so the bytes are
those of drawing step by step.  The one worker of a thread pool draws
the next block while the main thread steps; numpy releases the GIL
while Philox fills, so the two overlap.  The worker calls only
Generator methods, never a module-level function of this package: a
tracer that wraps those functions keeps one span stack, which only the
main thread may touch.  It does nothing else either (the scaling stays
with the stepping), because each time it takes the GIL back it holds up
the main thread.

Linear-loss placement is configurable (`linear_loss_mode`):

  "symmetric"  loss at rate γ1 on all four modes (default),
  "printed"    γ1 on (α1, β1), the drift/diffusion layout as printed in
               the source derivation (4x6 diffusion matrix),
  "operators"  γ1 on (α2, β1), the literal loss-operator pair.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import InitialState, LossRates, PhysicalCouplings, SimConfig
from .errors import ConfigError, DivergenceError
from .operators import BASIS_INDEX, BASIS_KEYS, NBASIS

# z-vector columns are (a1, b1, a2, b2); monomial mode order is (a1, a2, b1, b2)
MODE_TO_ZCOL = (0, 2, 1, 3)


def _build_plan():
    """(column, parent column, variable column in the 8-var table) per
    non-constant basis monomial: each is its parent times one variable."""
    plan = []
    for i, k in enumerate(BASIS_KEYS[1:], start=1):
        j = next(pos for pos, e in enumerate(k) if e)
        parent = list(k)
        parent[j] -= 1
        plan.append((i, BASIS_INDEX[tuple(parent)], j))
    return tuple(plan)


_BUILD_PLAN = _build_plan()


def _cahill_matrix() -> np.ndarray:
    """M with normal_moments = M @ symmetric_moments (per-mode expansion)."""
    m = np.zeros((NBASIS, NBASIS))
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
                        * (-0.5) ** kk[j]
                    )
            tgt = tuple(p[j] - kk[j] for j in range(4)) + tuple(
                q[j] - kk[j] for j in range(4)
            )
            m[i, BASIS_INDEX[tgt]] += coeff
    return m


CAHILL = _cahill_matrix()


def monomial_columns(z: np.ndarray) -> np.ndarray:
    """(n, NBASIS) table of conj(z)^p z^q monomial values for each trajectory.

    Built column by column in column-major order, so every product and
    the per-column sums run over contiguous memory.
    """
    n = z.shape[0]
    out = np.empty((n, NBASIS), dtype=complex, order="F")
    var8 = np.empty((n, 8), dtype=complex, order="F")
    for m, col in enumerate(MODE_TO_ZCOL):
        var8[:, m] = np.conj(z[:, col])
        var8[:, 4 + m] = z[:, col]
    out[:, 0] = 1.0
    for col, parent, var in _BUILD_PLAN:
        np.multiply(out[:, parent], var8[:, var], out=out[:, col])
    return out


class WignerMomentSource:
    """Normal-ordered moment table of a run.

    `sums` (n_tau, n_chunks, NBASIS) holds each chunk's sums of the
    symmetric-ordered monomials, `chunk_size` trajectories per chunk.
    `table[i]` holds, at output time i, the merged-ensemble moments in
    row 0 and each chunk's moments (in `sums` order, for standard
    errors) in the rows after it: shape (n_tau, 1 + n_chunks, NBASIS).
    """

    def __init__(self, sums: np.ndarray, chunk_size: int):
        n_tau, n_chunks, _ = sums.shape
        n_ens = 1 + n_chunks
        self.table = np.empty((n_tau, n_ens, NBASIS), dtype=complex)
        for out, s in zip(self.table, sums):
            weyl = np.vstack([s.sum(axis=0) / (n_chunks * chunk_size), s / chunk_size])
            # CAHILL is real: convert the real and imaginary parts in one product
            normal = np.vstack([weyl.real, weyl.imag]) @ CAHILL.T
            out.real = normal[:n_ens]
            out.imag = normal[n_ens:]


# ---------------------------------------------------------------------------
# dynamics


def _linear_loss_cols(mode: str):
    if mode == "symmetric":
        return (0, 1, 2, 3)
    if mode == "printed":
        return (0, 1)
    if mode == "operators":
        return (2, 1)
    raise ConfigError([f"wigner.linear_loss_mode: unknown mode {mode!r}"])


def n_noise_columns(mode: str) -> int:
    return 4 + len(_linear_loss_cols(mode))


def _modes(z: np.ndarray) -> np.ndarray:
    """(species, well, traj) array of an (n, 4) state, `z.T.reshape(2, 2, n)`,
    contiguous: a view of a column-major state, a copy of any other."""
    return np.ascontiguousarray(z.T).reshape(2, 2, -1)


def drift(
    z: np.ndarray,
    couplings: PhysicalCouplings,
    losses: LossRates,
    linear_loss_mode: str = "symmetric",
) -> np.ndarray:
    """Deterministic part a = -i a_drift - a_loss of the phase-space flow,
    for an (n, 4) state; the result is a column-major (n, 4) array."""
    v = _modes(z)
    # |v|^2 from the interleaved (re, im) pairs: one contiguous product
    sq = v.view(float) * v.view(float)
    n = sq[..., ::2] + sq[..., 1::2]
    g = np.array([[couplings.g11, couplings.g12], [couplings.g12, couplings.g22]])
    kappa = -1j * np.array([couplings.kappa1, couplings.kappa2])[:, None, None]
    # mode (s, w) turns at the rate sum_s' g[s, s'] n[s', w] and tunnels
    # to the other well of its species at kappa[s]
    out = v * (g[:, 0, None, None] * n[0] + g[:, 1, None, None] * n[1])
    out *= -1j
    out += kappa * v[:, ::-1]
    if losses.enabled:
        # inter-species loss couples the two species in one well; the
        # intra-species channel acts on species 2 only
        loss = losses.gamma12 * n[::-1]
        if losses.gamma22:
            loss[1] += 2.0 * losses.gamma22 * n[1]
        out -= v * loss
        if losses.gamma1:
            flat, zt = out.reshape(4, -1), z.T
            for col in _linear_loss_cols(linear_loss_mode):
                flat[col] -= losses.gamma1 * zt[col]
    return out.reshape(4, -1).T


def _noise_term(
    z: np.ndarray, losses: LossRates, dz_noise: np.ndarray, linear_loss_mode: str
) -> np.ndarray:
    """B(z) @ dZ for the noise matrix B of the loss channels.

    Columns 1-4 of B are the two-body loss channels (inter-species at
    wells A, B; intra-species at wells A, B); the remaining columns
    carry the linear loss, one per lossy mode.  In "printed" mode B is
    the 4x6 layout of the source derivation, row for row.
    """
    v = _modes(z)
    dw = dz_noise.T
    if losses.gamma12:
        # well w's channel couples the two species there through dZ[w]
        out = math.sqrt(losses.gamma12) * v[::-1] * dw[:2]
    else:
        out = np.zeros_like(v)
    if losses.gamma22:
        out[1] += math.sqrt(losses.gamma22) * v[1] * dw[2:4]
    flat = out.reshape(4, -1)
    if losses.gamma1:
        s1 = math.sqrt(losses.gamma1)
        for j, col in enumerate(_linear_loss_cols(linear_loss_mode)):
            flat[col] += s1 * dw[4 + j]
    return flat.T


MIDPOINT_ITERATIONS = 3


def step(
    state: np.ndarray,
    couplings: PhysicalCouplings,
    losses: LossRates,
    dtau: float,
    noise: np.ndarray | None = None,
    linear_loss_mode: str = "symmetric",
) -> np.ndarray:
    """One integrator step of dz = a dτ + B dZ.

    `noise` carries the complex Wiener increments (independent real and
    imaginary parts of variance dτ/2 each); None is allowed for lossless
    dynamics.  The midpoint step treats the flow semi-implicitly with a
    fixed number of fixed-point iterations; B is analytic in z and
    <dZ dZ> = 0, so the Itô and Stratonovich readings of the equation
    coincide.
    """
    mid = state
    for _ in range(MIDPOINT_ITERATIONS):
        # mid = state + dz(mid) / 2, built in place on the fresh drift array
        dz = drift(mid, couplings, losses, linear_loss_mode)
        dz *= dtau
        if noise is not None and losses.enabled:
            dz += _noise_term(mid, losses, noise, linear_loss_mode)
        dz *= 0.5
        dz += state
        mid = dz
    mid *= 2.0
    mid -= state
    return mid


def sample_initial(initial: InitialState, rng: np.random.Generator, n: int) -> np.ndarray:
    """n samples of the initial Wigner distribution, z-order (α1, β1, α2, β2).

    Each mode is mean + half a unit complex Gaussian: the added noise has
    total variance 1/2 (the vacuum half-quantum of symmetric ordering).
    """
    eta = rng.standard_normal((n, 4, 2))
    z = 0.5 * (eta[..., 0] + 1j * eta[..., 1])
    z[:, 0] += initial.alpha_a
    z[:, 1] += initial.alpha_b
    z[:, 2] += initial.alpha_a
    z[:, 3] += initial.alpha_b
    return z


@dataclass
class WignerRun:
    """Output of `run_ensemble`: per-chunk monomial sums at every requested
    time, shape (n_tau, n_chunks, NBASIS), chunks in stream order."""

    taus: tuple
    sums: np.ndarray
    chunk_size: int

    def moment_table(self) -> np.ndarray:
        """(n_tau, 1 + n_chunks, NBASIS) normal-ordered moments."""
        return WignerMomentSource(self.sums, self.chunk_size).table


def _chunk_rng(seed: int, chunk_id: int) -> np.random.Generator:
    key = np.array([seed, chunk_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# steps of loss noise each chunk draws per Philox call
NOISE_BLOCK = 4


def _noise_ahead(rngs, csize: int, ncols: int, hs):
    """Generator of the complex noise increments of each step in `hs`.

    Block b holds steps [b K, b K + K), K = NOISE_BLOCK; each chunk draws
    its part with one `standard_normal` call into slot b % 2 of a ring of
    chunk-major blocks.  A one-worker thread pool draws block b + 1 while
    the stepping uses block b, and a failed draw is raised here.  As the
    stepping reaches a step, its normals are scaled by sqrt(h/2) into one
    buffer laid out (trajectory, column, re/im) and read as complex.
    Closing the generator shuts the pool down, waiting for a draw still
    running.
    """
    # imported here: concurrent.futures pulls in logging, which runs
    # without losses never need
    from concurrent.futures import ThreadPoolExecutor

    n_chunks, n_steps, k_max = len(rngs), len(hs), NOISE_BLOCK
    n_blocks = -(-n_steps // k_max)
    ring = np.empty((2, n_chunks, k_max, csize, ncols, 2))
    raw = np.empty((n_chunks, csize, ncols, 2))
    noise = raw.reshape(n_chunks * csize, ncols, 2).view(complex)[..., 0]

    def fill(b: int) -> None:
        k_n = min(k_max, n_steps - b * k_max)
        for rng, out in zip(rngs, ring[b % 2]):
            rng.standard_normal(out=out[:k_n])

    with ThreadPoolExecutor(1, thread_name_prefix="twinwell-noise") as pool:
        pending = pool.submit(fill, 0)
        for b in range(n_blocks):
            pending.result()
            if b + 1 < n_blocks:
                pending = pool.submit(fill, b + 1)
            first = b * k_max
            for k in range(min(k_max, n_steps - first)):
                np.multiply(ring[b % 2, :, k], math.sqrt(0.5 * hs[first + k]), out=raw)
                yield noise


def run_ensemble(
    couplings: PhysicalCouplings,
    losses: LossRates,
    initial: InitialState,
    taus,
    params: SimConfig,
    n_traj: int | None = None,
    chunk_offset: int = 0,
) -> WignerRun:
    """Integrate an ensemble and sum its monomials per chunk at every
    requested tau.

    Deterministic: chunk c consumes only the stream keyed (seed,
    chunk_offset + c), in a fixed draw order, so identical parameters
    give bit-identical sums, and the sums of half-ensembles run with
    disjoint `chunk_offset`s, concatenated along the chunk axis, are
    exactly those of the full ensemble.
    """
    taus = tuple(float(t) for t in taus)
    if not taus or taus[0] < 0 or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError(["sweep.tau_grid: must be non-empty, >= 0, strictly increasing"])
    n_traj = params.n_traj if n_traj is None else int(n_traj)
    csize = params.chunk_size
    if n_traj < 2 or n_traj % csize:
        raise ConfigError(
            [f"wigner.n_traj: need a multiple of chunk_size={csize}, >= 2; got {n_traj}"]
        )
    n_chunks = n_traj // csize
    rngs = [_chunk_rng(params.seed, chunk_offset + c) for c in range(n_chunks)]
    slices = [slice(c * csize, (c + 1) * csize) for c in range(n_chunks)]

    z = np.empty((n_traj, 4), dtype=complex, order="F")
    for c in range(n_chunks):
        z[slices[c]] = sample_initial(initial, rngs[c], csize)

    # the step plan: every step's size, and the steps done by each tau
    hs, ends, pos = [], [], 0.0
    for target in taus:
        span = target - pos
        if span > 0.0:
            nsub = max(1, math.ceil(span / params.dtau - 1e-12))
            hs += [span / nsub] * nsub
            pos = target
        ends.append(len(hs))

    sums = np.empty((len(taus), n_chunks, NBASIS), dtype=complex)

    def record(i_tau: int) -> None:
        # A fresh table per chunk, not one reused buffer: freeing this
        # multi-MB block raises glibc's heap-trim threshold, so the
        # stepping's temporaries stay mapped instead of being returned to
        # the OS and faulted in again after every step.
        for c in range(n_chunks):
            sums[i_tau, c] = monomial_columns(z[slices[c]]).sum(axis=0)

    def check_finite(tau: float, steps_done: int) -> None:
        finite = np.isfinite(z).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DivergenceError(tau, chunk_offset * csize + bad, steps_done)

    if losses.enabled:
        noise = contextlib.closing(
            _noise_ahead(rngs, csize, n_noise_columns(params.linear_loss_mode), hs)
        )
    else:
        noise = contextlib.nullcontext(itertools.repeat(None))
    with noise as step_noise:
        done = 0
        for i, target in enumerate(taus):
            for h, dz_noise in zip(hs[done : ends[i]], step_noise):
                z = step(z, couplings, losses, h, dz_noise, params.linear_loss_mode)
            done = ends[i]
            check_finite(target, done)
            record(i)
    return WignerRun(taus, sums, csize)

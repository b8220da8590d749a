"""Truncated-Wigner stochastic engine for the four-mode system.

Phase-space amplitudes z = (α1, β1, α2, β2) are sampled from the initial
coherent-state Wigner distribution (half-quantum width 1/2 per mode) and
integrated through

    dz = a dτ + B dZ,      a = -i a_drift - a_loss,

with the drift and diffusion of the dimensionless master equation, by
the explicit two-evaluation midpoint rule (`step`).  The complex Wiener
increments satisfy <dZ* dZ> = dτ, <dZ dZ> = 0.  Raw path
averages estimate symmetric-ordered moments; `moment_source` converts
them to normal order per mode via the s-ordering expansion

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
combine the species axis.  `drift` returns the drift times a scale, the
step or half of it: one pass rotates the Kerr and tunneling sum by -i
and scales it, and the loss terms come with their rates pre-scaled, so
`step` makes no scaling pass of its own.  The
per-chunk monomial tables are column-major too, so every product and
per-column sum is contiguous; they hold just the 117 basis columns,
three blocks of outer products: the constant 1, conj(z1) z1 over the 4
single amplitudes and conj(z2) z2 over the 10 pair products z_n z_n'
(`monomial_columns`).  The expansion keeps p - q per mode, so it maps
the number-conserving basis to itself: `moment_source` applies it as
its 78 off-diagonal terms (`_CAHILL_TERMS`), in at most 3 gather-
multiply-add passes over the whole table and with no BLAS call, so each
moment's bytes do not depend on the rows beside it or on a BLAS build.
The noise increments stay in the Philox stream's order (trajectory,
column, re/im) and are read as complex.

Loss noise is drawn ahead in blocks of NOISE_BLOCK steps (`_noise_ahead`):
one `standard_normal` call per chunk and block, which consumes each
chunk's stream in the same order as one call per step, so the bytes are
those of drawing step by step.  Each draw is a task in one queue, taken
by the one worker of a thread pool and also by the stepping thread
whenever that reaches a block not yet drawn, so the draws are balanced
across two CPUs; numpy releases the GIL while Philox fills, so the draws
and the stepping overlap.  A per-chunk lock keeps each chunk's blocks in
stream order whichever thread draws them.  The worker calls only
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

import collections
import contextlib
import functools
import itertools
import math
import threading

import numpy as np

from .config import InitialState, LossRates, PhysicalCouplings, SimConfig
from .errors import ConfigError, DivergenceError
from .operators import BASIS_INDEX, BASIS_KEYS, NBASIS, _contractions

# z-vector columns are (a1, b1, a2, b2); monomial mode order is (a1, a2, b1, b2)
MODE_TO_ZCOL = (0, 2, 1, 3)


def _factor_columns(order: int) -> np.ndarray:
    """z columns of the factors of each annihilation part q with |q| =
    `order`, one row per part, in basis order.

    The basis keys (p, q) with |p| = |q| = `order` run over p, and over q
    within each p, through this same list of parts, so their block of the
    basis is the outer product of conj(z^p) and z^q."""
    keys = [k for k in BASIS_KEYS if sum(k[4:]) == order]
    return np.array(
        [
            [MODE_TO_ZCOL[m] for m in range(4) for _ in range(k[4 + m])]
            for k in keys
            if k[:4] == keys[0][:4]
        ]
    )


# the 4 single amplitudes z1, and the two factors of the 10 pair products z2
_SINGLES, _PAIRS = _factor_columns(1)[:, 0], _factor_columns(2).T


def _cahill_terms():
    """Off-diagonal terms of the per-mode s-ordering map, grouped by rank.

    Row i of the map (normal moment i from the symmetric ones) is the
    symmetric moment i plus at most 3 terms, each a coefficient times a
    lower-order symmetric moment.  Returns the rows that carry terms and,
    for each rank r, (positions in those rows, columns, coefficients) of
    every row's r-th term in ascending column order: 78 terms in 62
    rows.
    """
    rows, ranked = [], ([], [], [])
    for i, key in enumerate(BASIS_KEYS):
        # the normal-ordering Wick factor of each contraction kk, times
        # (-1/2)^|kk|, is the coefficient of the moment key - (kk, kk)
        row = {
            BASIS_INDEX[tuple(a - b for a, b in zip(key, kk))]: math.prod(factors)
            * (-0.5) ** sum(kk[:4])
            for kk, factors in _contractions(key[4:], key[:4])
            if kk is not None
        }
        if row:
            for rank, col in enumerate(sorted(row)):
                ranked[rank].append((len(rows), col, row[col]))
            rows.append(i)
    return np.array(rows), tuple(
        (np.array(pos), np.array(cols), np.array(coeffs)[:, None])
        for pos, cols, coeffs in (zip(*terms) for terms in ranked)
    )


_CAHILL_ROWS, _CAHILL_TERMS = _cahill_terms()


def monomial_columns(z: np.ndarray) -> np.ndarray:
    """(n, NBASIS) table of conj(z)^p z^q monomial values for each trajectory.

    In basis order the table is three blocks: the constant 1, then
    conj(z1) z1 over the 4 single amplitudes z1, then conj(z2) z2 over the
    10 pair products z2 = z_n z_n'.  Each block is one creation part after
    another, so each part is one broadcast product written straight into
    the column-major table, and every product and the per-column sums run
    over contiguous memory.
    """
    z1 = z[:, _SINGLES]
    z2 = z[:, _PAIRS[0]] * z[:, _PAIRS[1]]
    out = np.empty((z.shape[0], NBASIS), dtype=complex, order="F")
    out[:, 0] = 1.0
    col = 1
    for zk in (z1, z2):
        k = zk.shape[1]
        conj = np.conj(zk)
        for part in range(k):
            # z^q conj(z^p), in this order: a fused multiply-add can round
            # the imaginary parts of a b and b a apart
            np.multiply(zk, conj[:, part, None], out=out[:, col : col + k])
            col += k
    return out


def moment_source(sums: np.ndarray, chunk_size: int) -> np.ndarray:
    """Normal-ordered moment table of a run.

    `sums` (n_tau, n_chunks, NBASIS) holds each chunk's sums of the
    symmetric-ordered monomials, `chunk_size` trajectories per chunk.
    Row i of the table holds, at output time i, the merged-ensemble
    moments in row 0 and each chunk's moments (in `sums` order, for
    standard errors) in the rows after it: shape (n_tau, 1 + n_chunks,
    NBASIS).
    """
    n_tau, n_chunks, _ = sums.shape
    table = np.empty((n_tau, 1 + n_chunks, NBASIS), dtype=complex)
    sums.sum(axis=1, out=table[:, 0])
    table[:, 0] /= n_chunks * chunk_size
    np.divide(sums, chunk_size, out=table[:, 1:])
    # the map is real: act on the real and imaginary parts as floats.  Each
    # row adds its terms from zero in ascending column order, then its own
    # symmetric moment, reading only the symmetric moments
    weyl = table.view(float).reshape(-1, NBASIS, 2)
    normal = np.zeros((weyl.shape[0], len(_CAHILL_ROWS), 2))
    for pos, cols, coeffs in _CAHILL_TERMS:
        normal[:, pos] += coeffs * weyl[:, cols]
    normal += weyl[:, _CAHILL_ROWS]
    weyl[:, _CAHILL_ROWS] = normal
    return table


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


@functools.lru_cache(maxsize=8)
def _rate_arrays(couplings: PhysicalCouplings) -> tuple[np.ndarray, np.ndarray]:
    """Read-only columns g[:, 0], g[:, 1] of the coupling matrix, each
    shaped (species, 1, 1) to act on the (species, well, traj) view."""
    g = np.array([[couplings.g11, couplings.g12], [couplings.g12, couplings.g22]])
    arrays = g[:, 0, None, None], g[:, 1, None, None]
    for a in arrays:
        a.flags.writeable = False
    return arrays


def drift(
    z: np.ndarray,
    couplings: PhysicalCouplings,
    losses: LossRates,
    linear_loss_mode: str = "symmetric",
    scale: float = 1.0,
) -> np.ndarray:
    """scale · a, for a = -i a_drift - a_loss the deterministic part of the
    phase-space flow of an (n, 4) state; the result is a column-major
    (n, 4) array.

    One pass over the Kerr and tunneling sum X rotates and scales it:
    X · (-i scale) has the parts fl(X_im scale) and -fl(X_re scale).  The
    loss terms are then subtracted at their rates times scale.
    """
    v = _modes(z)
    # |v|^2 from the interleaved (re, im) pairs: one contiguous product
    sq = v.view(float) * v.view(float)
    n = sq[..., ::2] + sq[..., 1::2]
    g0, g1 = _rate_arrays(couplings)
    # mode (s, w) turns at the rate sum_s' g[s, s'] n[s', w] and tunnels
    # to the other well of its species at kappa_s; a float times the
    # complex view needs no buffered cast of a broadcast rate array
    out = v * (g0 * n[0] + g1 * n[1])
    if couplings.tunneling:
        out[0] += couplings.kappa1 * v[0, ::-1]
        out[1] += couplings.kappa2 * v[1, ::-1]
    # complex(-0.0, -1.0) is -1j itself, so at scale 1 every bit, signed
    # zeros too, is that of the plain rotation
    out *= complex(-0.0, -scale)
    if losses.enabled:
        # inter-species loss couples the two species in one well; the
        # intra-species channel acts on species 2 only
        loss = (scale * losses.gamma12) * n[::-1]
        if losses.gamma22:
            loss[1] += (2.0 * scale * losses.gamma22) * n[1]
        out -= v * loss
        if losses.gamma1:
            flat, zt = out.reshape(4, -1), z.T
            for col in _linear_loss_cols(linear_loss_mode):
                flat[col] -= (scale * losses.gamma1) * zt[col]
    return out.reshape(4, -1).T


def _noise_term(
    z: np.ndarray, losses: LossRates, dz_noise: np.ndarray, linear_loss_mode: str
) -> np.ndarray:
    """B(z) dZ for the noise matrix B of the loss channels.

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
    dynamics.  The explicit midpoint rule evaluates the increment
    dz(x) = a(x) dτ + B(x) dZ twice with the same dZ:

        mid = z + dz(z) / 2,      z' = z + dz(mid),

    second order in dτ for the drift.  B is analytic in z and
    <dZ dZ> = 0, so the Itô and Stratonovich readings of the equation
    coincide.  Each result is built in place on its fresh drift array,
    which `drift` returns already scaled, by dτ / 2 and by dτ.
    """
    noisy = noise is not None and losses.enabled
    mid = drift(state, couplings, losses, linear_loss_mode, 0.5 * dtau)
    if noisy:
        half = _noise_term(state, losses, noise, linear_loss_mode)
        half *= 0.5
        mid += half
    mid += state
    out = drift(mid, couplings, losses, linear_loss_mode, dtau)
    if noisy:
        out += _noise_term(mid, losses, noise, linear_loss_mode)
    out += state
    return out


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


def _chunk_rng(seed: int, chunk_id: int) -> np.random.Generator:
    key = np.array([seed, chunk_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# steps of loss noise each chunk draws per Philox call, and the blocks of
# them a run holds at once
NOISE_BLOCK = 4
NOISE_SLOTS = 3


def _noise_ahead(rngs, csize: int, ncols: int, hs):
    """Generator of the complex noise increments of each step in `hs`.

    Block b holds steps [b K, b K + K), K = NOISE_BLOCK; each chunk draws
    its part with one `standard_normal` call into slot b % NOISE_SLOTS of
    a ring of chunk-major blocks.  A draw is a task, "draw chunk c's next
    block", in one FIFO queue, which holds the tasks of the blocks up to
    NOISE_SLOTS - 1 ahead of the one being stepped, so no slot is drawn
    into while it is read.  Each job of a one-worker thread pool takes
    one task; the stepping thread, when it reaches a block some chunk has
    not drawn yet, takes tasks itself, and waits on the oldest job only
    when the queue is empty.  A task reads chunk c's count of drawn
    blocks, picks the slot, draws and advances the count all under c's
    lock, so each chunk's stream is read in block order whichever thread
    draws; the stepping reads the counts only to see whether its block
    is drawn.  A failed draw is raised here.  As the stepping reaches a
    step, its normals are scaled by sqrt(h/2) into one buffer laid out
    (trajectory, column, re/im) and read as complex.  Closing the
    generator drops the queued tasks and shuts the pool down, waiting
    for a draw still running.
    """
    # imported here: concurrent.futures pulls in logging, which runs
    # without losses never need
    from concurrent.futures import ThreadPoolExecutor

    n_chunks, n_steps, k_max = len(rngs), len(hs), NOISE_BLOCK
    n_blocks = -(-n_steps // k_max)
    ring = np.empty((NOISE_SLOTS, n_chunks, k_max, csize, ncols, 2))
    raw = np.empty((n_chunks, csize, ncols, 2))
    noise = raw.reshape(n_chunks * csize, ncols, 2).view(complex)[..., 0]
    tasks, jobs = collections.deque(), collections.deque()
    locks = [threading.Lock() for _ in rngs]
    drawn = [0] * n_chunks

    def take() -> bool:
        """Draw the next queued block, if any task is left."""
        try:
            c = tasks.popleft()
        except IndexError:
            return False
        with locks[c]:
            b = drawn[c]
            k_n = min(k_max, n_steps - b * k_max)
            rngs[c].standard_normal(out=ring[b % NOISE_SLOTS, c, :k_n])
            drawn[c] = b + 1
        return True

    with ThreadPoolExecutor(1, thread_name_prefix="twinwell-noise") as pool:

        def queue(b: int) -> None:
            if b < n_blocks:
                tasks.extend(range(n_chunks))
                jobs.extend(pool.submit(take) for _ in rngs)

        try:
            for b in range(NOISE_SLOTS - 1):
                queue(b)
            for b in range(n_blocks):
                queue(b + NOISE_SLOTS - 1)  # into the slot block b - 1 left
                while jobs and jobs[0].done():  # raises a failed draw early
                    jobs.popleft().result()
                while min(drawn) <= b:
                    if not take():
                        jobs.popleft().result()
                first = b * k_max
                for k in range(min(k_max, n_steps - first)):
                    np.multiply(
                        ring[b % NOISE_SLOTS, :, k], math.sqrt(0.5 * hs[first + k]), out=raw
                    )
                    yield noise
        finally:
            tasks.clear()


# the largest block whose release raises glibc's mmap threshold: 32 MiB
# chunks on 64-bit, less a page for the chunk header
_MMAP_THRESHOLD_MAX = (32 << 20) - 4096


def run_ensemble(
    couplings: PhysicalCouplings,
    losses: LossRates,
    initial: InitialState,
    taus,
    params: SimConfig,
    chunk_offset: int = 0,
) -> np.ndarray:
    """Integrate an ensemble and sum its monomials per chunk at every
    requested tau: an (n_tau, n_chunks, NBASIS) array, chunks in stream
    order (`moment_source` turns it into a moment table).

    Deterministic: chunk c consumes only the stream keyed (seed,
    chunk_offset + c), in a fixed draw order, so identical parameters
    give bit-identical sums, and the sums of half-ensembles run with
    disjoint `chunk_offset`s, concatenated along the chunk axis, are
    exactly those of the full ensemble.
    """
    taus = tuple(float(t) for t in taus)
    if not taus or taus[0] < 0 or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError(["sweep.tau_grid: must be non-empty, >= 0, strictly increasing"])
    n_traj, csize = params.n_traj, params.chunk_size
    if n_traj < 2 or n_traj % csize:
        raise ConfigError(
            [f"wigner.n_traj: need a multiple of chunk_size={csize}, >= 2; got {n_traj}"]
        )
    n_chunks = n_traj // csize
    rngs = [_chunk_rng(params.seed, chunk_offset + c) for c in range(n_chunks)]
    slices = [slice(c * csize, (c + 1) * csize) for c in range(n_chunks)]

    z = np.empty((n_traj, 4), dtype=complex, order="F")
    # Freed at once, untouched: freeing a block past glibc's mmap threshold
    # (128 KiB at first) raises that threshold to the block's size and the
    # heap-trim threshold to twice it, so the stepping's temporaries, a few
    # z-sized arrays per step, stay on the heap instead of being mapped and
    # faulted in afresh on every step.  At 2 z sizes a lossy run still
    # faults on every step, at 4 it does not; 8 leaves room.
    np.empty(min(8 * z.nbytes, _MMAP_THRESHOLD_MAX), dtype=np.uint8)
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
    return sums

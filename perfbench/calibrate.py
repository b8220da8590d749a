"""A fixed calibration loop that gauges the machine's speed of the moment.

The benchmark runs on shared machines whose speed drifts by 30 to 40 %
within minutes, as other tenants' load comes and goes.  A sweep or a
set-up timed alone carries that drift into every figure.  So each timed
figure is divided by the time of this loop, measured in the same
process right beside it, and multiplied by NOMINAL_S: it is reported in
calibrated seconds, the seconds it would take on a machine where the
loop takes NOMINAL_S.

The loop does the two kinds of work twinwell does: products of sparse
polynomials held in dicts, in the interpreter (as the exact engine's
operator algebra does), and arithmetic on small complex numpy arrays (as
the Wigner engine does).  It is the benchmark's own code and does not
change with the program, so parent and child commits are measured in
the same unit.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the seconds the loop takes on a 2-vCPU Xeon VM at 2.1 GHz with
# Python 3.11 and numpy 2.4; any fixed value would do.
NOMINAL_S = 0.3

_POLY = {
    (i, j, k, m): 1.0 / (1 + i + j + k + m)
    for i in range(3)
    for j in range(3)
    for k in range(3)
    for m in range(3)
}


def _interpreted(reps: int = 80) -> float:
    acc = 0.0
    for _ in range(reps):
        out = {}
        for ka, va in _POLY.items():
            for kb, vb in _POLY.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
                out[key] = out.get(key, 0.0) + va * vb
        acc += sum(out.values())
    return acc


def _arrays(reps: int = 1300) -> float:
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
    acc = 0.0
    for _ in range(reps):
        y = x * np.exp(-0.01j * (x.real**2 + x.imag**2))
        x = 0.5 * (x + y) + 0.01 * rng.standard_normal((500, 4))
        acc += float(np.abs(x).sum())
    return acc


def loop_s() -> float:
    """Seconds one pass of the calibration loop takes now."""
    t0 = time.perf_counter()
    _interpreted()
    _arrays()
    return time.perf_counter() - t0

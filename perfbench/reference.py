"""A fixed reference kernel that measures the host's current speed.

The shared host this benchmark runs on changes speed in phases of seconds
to minutes, and wall time and CPU time move together, so the program's
own timings follow the host.  ``measure`` runs the same fixed work every
time, in two parts that the infbsde solvers are made of: numpy calls on
arrays of a few dozen rows (random draws, ``einsum``, ``tanh``,
``searchsorted``, masked assignment), whose cost is interpreter and
dispatch overhead, as in the Euler and training loops; and elementwise
functions on 2,048 values with 32 x 256 matrix products and a
pure-Python loop, as in the driver, the interpolation and the nets.  No
infbsde code is in it.  A time measured next to it converts to
*reference seconds*:

    t_ref = t_wall * REFERENCE_S[threads] / measure(threads)

that is, the time the call would have taken if the host had run as fast
as it did when ``REFERENCE_S`` was recorded.  A change to infbsde moves
``t_wall`` and leaves the kernel alone, so it shows in full; a slow phase
of the host moves both and cancels.

The small-array part alone slowed down in slow phases about as much as
the Euler and small-batch workloads did and more than the large-batch
one; the second part alone, less than all of them.  Together they
followed every workload within a few per cent.  The kernel runs on as
many threads as the workload, because a two-threaded call also depends
on how fast the second core is.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

UNITS = 1500
# typical measure(threads), from medians over 40 calls on the machine the
# benchmark was written on (2 cores of an Intel Xeon shared host).  They
# only fix the unit; changing them rescales every time metric.
REFERENCE_S = {1: 0.082, 2: 0.2407}

_A = np.linspace(0.1, 1.0, 48).reshape(24, 2)
_J = np.broadcast_to(np.eye(2), (24, 2, 2)).copy()
_X = np.linspace(-2.0, 2.0, 2048)
_W = np.linspace(-0.1, 0.1, 32 * 32).reshape(32, 32)
_H = np.linspace(-1.0, 1.0, 32 * 256).reshape(32, 256)


def _work(units: int) -> float:
    gen = np.random.default_rng(1)
    for _ in range(units):
        dw = gen.standard_normal((24, 2)) * 0.1
        z = np.tanh(_A) + np.einsum("mi,mij->mj", dw, _J)
        np.searchsorted(_A[:, 0], 0.5)
        mask = z[:, 0] > 0.2
        if mask.any():
            z[mask] = 0.0
    total = 0.0
    for i in range(units // 3):
        y = np.tanh(_X) * np.exp(-0.5 * _X * _X) + np.arctan(_X)
        h = np.tanh(_W @ _H + y[i % 32])
        total += float(y[i % 2048]) + float(h[0, i % 256])
        for j in range(20):
            total += j * 1e-3
    return total


def measure(threads: int = 1) -> float:
    """Wall seconds of the fixed kernel run on each of ``threads`` threads
    at once."""
    start = time.perf_counter()
    if threads == 1:
        _work(UNITS)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for result in [pool.submit(_work, UNITS)
                           for _ in range(threads)]:
                result.result()
    return time.perf_counter() - start


def reference_seconds(wall_s: float, ref_s: float, threads: int) -> float:
    """``wall_s`` measured next to a kernel run of ``ref_s`` seconds, in
    reference seconds."""
    return wall_s * REFERENCE_S[threads] / ref_s

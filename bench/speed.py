"""Machine-speed reference: a fixed kernel timed next to the measured work.

The host this benchmark was built on is a few virtual cores of a shared
machine, and its speed moves by up to 2x over seconds to minutes as other
tenants load it; CPU time moves with wall time, so the slowdown is not
waiting.  Every timing the benchmark reports is therefore scaled to a fixed
reference speed: it is multiplied by ``REF_MS / t_ref``, where ``t_ref`` is
the time of :func:`kernel` measured next to it and ``REF_MS`` is a constant.
A change to the program leaves the kernel alone, so the scaled time moves
with the program and not with the host.

The kernel mixes what paircomp's hot paths do: a pure-Python loop over ints
and a dict, and many numpy calls on 4 x 4 arrays (the per-call overhead that
dominates tiny fits).  It imports nothing from paircomp.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Time the kernel takes at the reference speed, in ms.  A constant of the
#: benchmark: changing it rescales every reported timing.
REF_MS = 6.0

_A = np.arange(16.0).reshape(4, 4) / 17.0 + np.eye(4)


def kernel() -> float:
    total, table = 0, {}
    for i in range(25000):
        total += i * i % 7
        table[i & 255] = total
    v = np.ones(4)
    for _ in range(250):
        x = np.exp(-_A @ v)
        v = np.linalg.solve(_A, x + 1.0)
        v = v / v.sum()
    return total + float(v[0])


def kernel_ms() -> float:
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3


def factor(samples: int = 5) -> float:
    """REF_MS over the median of ``samples`` kernel times, after one untimed
    call.  Multiply a time measured just before by this."""
    kernel()
    return REF_MS / statistics.median(kernel_ms() for _ in range(samples))


def local_factors(ref_ms: list[float], count: int, half_window: int = 3) -> list[float]:
    """Scale factor of each of ``count`` ops, where ``ref_ms[k]`` was measured
    just before op k and ``ref_ms[count]`` after the last: REF_MS over the
    median of the kernel times in a window around the op."""
    return [
        REF_MS / statistics.median(ref_ms[max(0, k - half_window + 1):k + half_window + 1])
        for k in range(count)
    ]

"""Machine-speed calibration for the bounded timings on a shared machine.

Other tenants of a small shared machine slow every computation here by
20-60% for stretches of seconds to minutes, so raw times of the same code
spread by more than any useful bound from one run to the next.  A fixed
kernel on the stdlib and numpy only, never on nahmpole, is timed before and
after every job and every set-up.  Their *reference time* is the wall time
scaled by ``REF_S`` over the mean of those two kernel times.  A change to
nahmpole cannot move the kernel, so it moves reference times exactly as it
moves wall times, while the machine's slow stretches cancel out.
"""

from __future__ import annotations

import decimal
import time
from fractions import Fraction

import numpy as np

#: Kernel wall time on an idle 2-core Xeon at the baseline; it only sets
#: the unit, so that reference seconds read close to quiet wall seconds.
REF_S = 0.02


def kernel():
    """Fixed work of the three kinds the workloads do: big-rational
    arithmetic, decimal floating point and small numpy arrays."""
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i * i + 1, 2 * i + 3) * Fraction(3 * i + 1, 7)
    ctx = decimal.Context(prec=41)
    dec = decimal.Decimal(1)
    for i in range(1, 5000):
        dec = ctx.add(ctx.multiply(dec, ctx.divide(i, 7)), ctx.divide(1, 3))
    vec = np.arange(21.0)
    cube = np.ones((3, 3, 3))
    for _ in range(1200):
        vec = vec * 0.999 + np.einsum("ijk,k->ij", cube, vec[:3]).sum() * 1e-9
    return acc, dec, vec


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Wall ``seconds`` measured between kernel times ``before`` and
    ``after``, in reference seconds."""
    return seconds * REF_S * 2 / (before + after)


def reference_total(seconds, kernel) -> float:
    """Sum of consecutive wall times, item ``i`` measured between kernel
    times ``i`` and ``i + 1``, in reference seconds."""
    return sum(to_reference(s, before, after)
               for s, before, after in zip(seconds, kernel, kernel[1:]))

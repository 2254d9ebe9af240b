"""Machine-speed probe for normalizing timings.

On a shared host one busy Python thread runs up to 60% faster or slower
than usual, for a fraction of a second or for minutes, and the change hits
all interpreted code alike.  ``Kernel`` is a fixed pure-Python workload --
row reduction on lists of ints and products of small polynomial objects,
the two kinds of work the package does -- and ``Kernel.best`` times it,
best of a few, with the garbage collector paused.  ``SpeedProbe.tick`` is
called between timed calls, off the clock, and samples the kernel at most
every ``EVERY_S`` seconds.  ``factor(t0, t1)`` is ``REFERENCE_S`` over the
median kernel time of the ``NEAREST`` samples closest to the middle of
[t0, t1]: a call's wall time multiplied by it is the call's time at the
speed at which the kernel takes ``REFERENCE_S``.  The probe never calls the
package, so a faster package still reports faster times.

This module imports only ``gf`` and small stdlib modules, so a fresh
set-up interpreter can load it and sample the kernel before it times the
package's imports (``random`` is loaded only by ``kernel_data``).
"""

from __future__ import annotations

import bisect
import gc
import time

import gf

# about the kernel's time on a 2.1 GHz Xeon vCPU under CPython 3.11, so
# normalized times read close to wall times on that machine at its usual speed
REFERENCE_S = 1.2e-3
EVERY_S = 0.02
REPEATS = 2
NEAREST = 3

_P = 101


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(x % 13 for x in c)

    def coeff(self, i):
        return self.c[i] if i < len(self.c) else 0

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return _Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return _Poly(out)


def kernel_data():
    """The kernel's fixed inputs as plain ints: a 14 x 14 matrix over GF(101)
    and six coefficient lists of quadratics over GF(13)."""
    import random

    rng = random.Random("speed-probe")
    matrix = gf.rand_matrix(rng, _P, 14, 14)
    return matrix, [[rng.randrange(13) for _ in range(3)] for _ in range(6)]


class Kernel:
    def __init__(self, matrix, coeffs):
        self.matrix = matrix
        self.factors = [_Poly(c) for c in coeffs]

    def run(self):
        gf.rank(self.matrix, _P)
        acc = _Poly([1])
        for _ in range(10):
            for f in self.factors:
                acc = _Poly((acc * f + f).c[:6])

    def best(self, repeats):
        """Seconds of the fastest of `repeats` runs."""
        gc.disable()
        try:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                self.run()
                best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        return best


class SpeedProbe:
    def __init__(self):
        self.kernel = Kernel(*kernel_data())
        self.at: list[float] = []
        self.cost: list[float] = []
        self._last = float("-inf")

    def tick(self):
        """Take a sample if the last one is at least EVERY_S old."""
        if time.perf_counter() - self._last < EVERY_S:
            return
        self.at.append(time.perf_counter())
        self.cost.append(self.kernel.best(REPEATS))
        self._last = time.perf_counter()

    def factor(self, t0, t1):
        j = bisect.bisect(self.at, (t0 + t1) / 2)
        lo = max(0, min(j - NEAREST // 2, len(self.at) - NEAREST))
        return REFERENCE_S / sorted(self.cost[lo : lo + NEAREST])[NEAREST // 2]

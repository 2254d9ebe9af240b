"""Scaling sweep: fitted exponents of the two costliest layers.

Each point times one call (best of a few) on an input of a fixed kind, and
the exponent is the least-squares slope of log time against log size.
"""

from __future__ import annotations

import math
import random
import time

import gf

ORBIT_PRIMES = (5, 7, 11, 13, 31)
PENCIL_SIZES = (4, 6, 8, 10)
PENCIL_PRIME = 101


def slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def best_time(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def orbit_exponent(gfc, rng):
    """mobius_orbit_minimize on a 3x3x2 tensor whose divisors are one linear
    and one irreducible quadratic, for each p."""
    times = []
    for p in ORBIT_PRIMES:
        form = {"finite": [gf.rand_irreducible(rng, p, 1), gf.rand_irreducible(rng, p, 2)]}
        b1, b2, m, n = gf.pencil_blocks(form, p)
        fld = gfc.PrimeField(p)
        cs, _ = gfc.spatial.theorem1_form(gfc.SpatialMatrix(fld, [b1, b2], m, n))
        gfc.spatial.pgl2_reps(fld)
        times.append(best_time(lambda: gfc.spatial.mobius_orbit_minimize(cs), 1 if p > 13 else 3))
    return slope(ORBIT_PRIMES, times)


def pencil_exponents(gfc, rng):
    """kronecker_form on generic n x (n+1) and n x n pencils over GF(101)."""
    fld = gfc.PrimeField(PENCIL_PRIME)
    out = {}
    for label, extra in (("singular", 1), ("regular", 0)):
        times = []
        for n in PENCIL_SIZES:
            a1, a2 = (gfc.Matrix(fld, gf.rand_matrix(rng, PENCIL_PRIME, n, n + extra), n + extra)
                      for _ in range(2))
            times.append(best_time(lambda: gfc.pencil.kronecker_form(a1, a2), 3))
        out[label] = slope(PENCIL_SIZES, times)
    return out


def run(gfc, seed):
    rng = random.Random(f"sweep:{seed}")
    pen = pencil_exponents(gfc, rng)
    return {
        "spatial.mobius_orbit_minimize.p_exponent": orbit_exponent(gfc, rng),
        "pencil.kronecker_form.n_exponent_singular": pen["singular"],
        "pencil.kronecker_form.n_exponent_regular": pen["regular"],
    }

"""Seeded inputs for the three workloads.

Every builder takes a random.Random and returns one round: a list of
operation dicts, in the order they are run.  An operation carries its
inputs as plain ints plus what the checks need to know about it (the base
tensor it was scrambled from, the form that was planted, the outcome that
the construction forces).  The package sees only the inputs.
"""

from __future__ import annotations

import json

import gf

# Latency quantiles are read from one round of mixed operations.  Each
# plan below puts its median and its 90th percentile inside a group of
# operations of like cost, never on the border between two unlike groups,
# where a few milliseconds of drift would move the quantile from one group
# to the other.

# -- label-census --------------------------------------------------------------

CENSUS_SHAPES = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (4, 5), (5, 3), (2, 3), (3, 4), (6, 5)]
# one divisor pattern -- a linear and an irreducible quadratic -- in six
# shapes, padded out by right and left blocks, so the orbit scan does the
# same work on every base: 2 * (p^3 - p) slice-mix substitutions
_LIN_QUAD = [("a", 1, 1), ("b", 2, 1)]
CENSUS_PLANTED = [
    ((3, 3), {"finite": _LIN_QUAD}),
    ((4, 5), {"right": [2], "finite": _LIN_QUAD}),
    ((5, 4), {"left": [2], "finite": _LIN_QUAD}),
    ((5, 6), {"right": [3], "finite": _LIN_QUAD}),
    ((6, 5), {"left": [3], "finite": _LIN_QUAD}),
    ((6, 6), {"right": [2], "left": [2], "finite": _LIN_QUAD}),
]
# (p, shapes or planted patterns, bases per entry, presentations per base):
# uniformly random tensors at p = 3 and 5 (the cheapest third of a round),
# planted orbits at p = 7 (holds the median) and p = 13 (the costliest
# quarter, holds the 90th percentile)
CENSUS_PLAN = [
    (3, CENSUS_SHAPES, 1, 2),
    (5, CENSUS_SHAPES, 1, 2),
    (7, CENSUS_PLANTED, 5, 2),
    (13, CENSUS_PLANTED, 3, 2),
]


def scramble_tensor(rng, p, slices):
    m, n, q = len(slices[0]), len(slices[0][0]), len(slices)
    r = gf.rand_invertible(rng, p, m)
    s = gf.rand_invertible(rng, p, n)
    t = gf.rand_invertible(rng, p, q)
    return gf.apply_triple(slices, r, s, t, p)


def plant_form(rng, p, spec):
    """A random form of the given pattern: minimal indices and nilpotent
    sizes as listed, finite divisors as (tag, degree, exponent) drawn as
    powers of random irreducibles, equal tags sharing one irreducible."""
    bases = {}
    finite = []
    for tag, deg, exp in spec.get("finite", ()):
        if tag not in bases:
            bases[tag] = gf.rand_irreducible(rng, p, deg)
        finite.append(gf.poly_pow(bases[tag], exp, p))
    return {
        "right": list(spec.get("right", ())),
        "left": list(spec.get("left", ())),
        "inf": list(spec.get("inf", ())),
        "finite": finite,
    }


def _census_base(rng, p, entry):
    if isinstance(entry[1], dict):
        (m, n), spec = entry
        b1, b2, m2, n2 = gf.pencil_blocks(plant_form(rng, p, spec), p)
        if (m2, n2) != (m, n):
            raise ValueError(f"pattern {spec} fills {m2}x{n2}, not {m}x{n}")
        return scramble_tensor(rng, p, [b1, b2]), m, n
    m, n = entry
    return [gf.rand_matrix(rng, p, m, n) for _ in range(2)], m, n


def label_census(rng):
    ops = []
    base_id = 0
    for p, entries, nbases, npres in CENSUS_PLAN:
        for entry in entries:
            for _ in range(nbases):
                base, m, n = _census_base(rng, p, entry)
                refuse = gf.refuses_label(base, p)
                for _ in range(npres):
                    ops.append({
                        "kind": f"p{p}",
                        "p": p, "m": m, "n": n,
                        "slices": scramble_tensor(rng, p, base),
                        "base": base_id,
                        "refuse": refuse,
                    })
                base_id += 1
    rng.shuffle(ops)
    return ops


# -- pencil-sweep --------------------------------------------------------------

BOTH = (5, 101)
# planted structures: right and left minimal indices, nilpotent sizes and
# finite divisor patterns, as plant_form reads them
PLANTED = [
    {"right": [2, 3], "left": [2], "inf": [1], "finite": [("a", 1, 1), ("a", 1, 1), ("a", 1, 2)]},
    {"right": [3], "left": [2, 3], "inf": [2], "finite": [("b", 2, 1), ("c", 1, 1), ("c", 1, 1)]},
    {"right": [2, 2], "inf": [1, 1], "finite": [("a", 1, 2), ("b", 2, 1)]},
    {"left": [2, 4], "inf": [3], "finite": [("a", 1, 1), ("a", 1, 1), ("c", 1, 1)]},
]
# (kind, size or planted pattern, primes, copies per prime); "rect" makes
# an n x (n+1) and an (n+1) x n pencil per copy, "wide" only the first.
# Costs at this commit: the first group is under 60 ms an operation, 16 x 16
# squares about 100 ms (they hold the median), the next group 100-400 ms,
# pattern 3 at p = 101 about 440 ms (it holds the 90th percentile) and a
# 12 x 13 pencil 1.4-2 s.
PENCIL_PLAN = [
    *(("square", n, BOTH, 1) for n in (4, 6, 8, 10, 12, 14)),
    *(("rect", n, BOTH, 1) for n in (3, 4, 5, 6)),
    ("planted", 0, BOTH, 2),
    ("planted", 2, BOTH, 2),
    ("square", 16, BOTH, 16),
    ("rect", 7, BOTH, 1),
    ("rect", 8, BOTH, 1),
    ("planted", 1, BOTH, 3),
    ("planted", 3, (5,), 3),
    ("planted", 3, (101,), 14),
    ("wide", 12, BOTH, 1),
]


def _pencil_op(kind, p, a1, a2, planted=None):
    return {"kind": kind, "p": p, "a1": a1, "a2": a2, "planted": planted}


def _random_pencil(rng, kind, p, m, n):
    return _pencil_op(kind, p, gf.rand_matrix(rng, p, m, n), gf.rand_matrix(rng, p, m, n))


def _planted_pencil(rng, p, j):
    form = plant_form(rng, p, PLANTED[j])
    b1, b2, m, n = gf.pencil_blocks(form, p)
    r = gf.rand_invertible(rng, p, m)
    s = gf.rand_invertible(rng, p, n)
    return _pencil_op(f"planted{j}", p, gf.apply_pair(r, s, b1, p), gf.apply_pair(r, s, b2, p),
                      planted=form)


def pencil_sweep(rng):
    ops = []
    for kind, arg, primes, copies in PENCIL_PLAN:
        for p in primes:
            for _ in range(copies):
                if kind == "planted":
                    ops.append(_planted_pencil(rng, p, arg))
                elif kind == "square":
                    ops.append(_random_pencil(rng, f"square{arg}", p, arg, arg))
                else:
                    ops.append(_random_pencil(rng, f"{kind}{arg}", p, arg, arg + 1))
                    if kind == "rect":
                        ops.append(_random_pencil(rng, f"rect{arg}", p, arg + 1, arg))
    rng.shuffle(ops)
    return ops


# -- equiv-cli -----------------------------------------------------------------

CLI_PRIMES = (2, 3, 5)
# regular corners (m', n', q') and paddings (extra rows, columns, slices; at
# most 3 slices in all).  Every corner meets every padding EQUIV_COPIES
# times per prime and kind, so a round has the same mix of shapes for every
# seed and only the entries are random.
CORNERS = [(2, 2, 2), (3, 3, 2), (2, 3, 2), (3, 2, 2), (4, 3, 2), (3, 4, 2), (2, 2, 1), (3, 3, 1)]
PADS = [(0, 0, 0), (1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 1)]
EQUIV_COPIES = 2
OTHER_VERBS = 24
CANON_SHAPES = [(2, 2), (3, 3), (2, 3), (4, 3), (4, 4)]
# dims -> catalog kinds a regular tensor of those dims can land on
CLASSIFY_DIMS = {
    (1, 1, 1): ("C1x1x1",),
    (2, 2, 1): ("C2x2x1",),
    (2, 1, 2): ("C2x1x2",),
    (1, 2, 2): ("C1x2x2",),
    (2, 2, 2): ("A", "B"),
    (3, 2, 2): ("C3x2x2_s2", "C3x2x2_s3"),
    (4, 2, 2): ("C4x2x2",),
}


def doc(p, slices, m, n):
    return {"p": p, "dims": [m, n, len(slices)], "slices": slices}


def rand_regular(rng, p, m, n, q):
    while True:
        t = [gf.rand_matrix(rng, p, m, n) for _ in range(q)]
        if gf.unfolding_ranks(t, m, n, p) == (m, n, q):
            return t


def _frame(dims, pad):
    return dims[0] + pad[0], dims[1] + pad[1], min(3, dims[2] + pad[2])


def _embed(rng, p, corner, frame):
    return scramble_tensor(rng, p, gf.pad(corner, *frame))


def _cli(kind, argv, tensors, expect):
    return {"kind": kind, "argv": argv, "tensors": tensors, "expect": expect}


def _equiv_op(kind, p, a, b, frame, expect):
    m, n, _ = frame
    argv = ["equiv", json.dumps(doc(p, a, m, n)), json.dumps(doc(p, b, m, n)), "--witness"]
    return _cli(kind, argv, [a, b], expect)


def _refusal(p, corner):
    return len(corner) == 2 and gf.refuses_label(corner, p)


def _equiv_equal(rng, p, dims, pad):
    corner = rand_regular(rng, p, *dims)
    frame = _frame(dims, pad)
    base = gf.pad(corner, *frame)
    if _refusal(p, corner):
        expect = {"exit": 2, "error": "FieldTooSmallError"}
    else:
        expect = {"exit": 0, "equivalent": True}
    return _equiv_op("equiv-eq", p, scramble_tensor(rng, p, base), scramble_tensor(rng, p, base),
                     frame, expect)


def _equiv_same_dims(rng, p, dims, pad):
    for _ in range(1000):
        c1 = rand_regular(rng, p, *dims)
        c2 = rand_regular(rng, p, *dims)
        if gf.certificate(c1, dims[0], dims[1], p) != gf.certificate(c2, dims[0], dims[1], p):
            break
    else:
        raise ValueError(f"no certified inequivalent pair of {dims} corners over GF({p})")
    frame = _frame(dims, pad)
    if _refusal(p, c1) or _refusal(p, c2):
        expect = {"exit": 2, "error": "FieldTooSmallError"}
    else:
        expect = {"exit": 0, "equivalent": False}
    return _equiv_op("equiv-neq", p, _embed(rng, p, c1, frame), _embed(rng, p, c2, frame),
                     frame, expect)


def _equiv_other_dims(rng, p, d1, d2, pad):
    frame = tuple(max(x, y) for x, y in zip(_frame(d1, pad), d2))
    c1 = rand_regular(rng, p, *d1)
    c2 = rand_regular(rng, p, *d2)
    return _equiv_op("equiv-dims", p, _embed(rng, p, c1, frame), _embed(rng, p, c2, frame),
                     frame, {"exit": 0, "equivalent": False})


def _canonicalize(rng, p, shape):
    m, n = shape
    t = [gf.rand_matrix(rng, p, m, n) for _ in range(2)]
    expect = {"exit": 2, "error": "FieldTooSmallError"} if _refusal(p, t) else {"exit": 0}
    return _cli("canonicalize", ["canonicalize", json.dumps(doc(p, t, m, n)), "--witness"],
                [t], expect)


def _canonicalize_refused(rng):
    # GF(2) has three points on the projective line; eigenvalues at all of
    # them (nilpotent, x and x + 1 blocks) leave no slice mix to move to
    p = 2
    b1, b2, m, n = gf.pencil_blocks({"inf": [1], "finite": [[0, 1], [1, 1]]}, p)
    t = scramble_tensor(rng, p, [b1, b2])
    return _cli("canonicalize", ["canonicalize", json.dumps(doc(p, t, m, n)), "--witness"],
                [t], {"exit": 2, "error": "FieldTooSmallError"})


def _classify(rng, p, dims, regular=True):
    m, n, q = dims
    corner = rand_regular(rng, p, m, n, q)
    if regular:
        t = scramble_tensor(rng, p, corner)
        expect = {"exit": 0, "kinds": list(CLASSIFY_DIMS[dims])}
    else:
        m += 1  # a zero row: the stack ranks fall short of the dims
        t = scramble_tensor(rng, p, gf.pad(corner, m, n, q))
        expect = {"exit": 2, "error": "NotRegularError", "ranks": [m - 1, n, q]}
    return _cli("classify", ["classify", json.dumps(doc(p, t, m, n)), "--witness"],
                [t], expect)


def _regular_part(rng, p, dims, pad):
    frame = _frame(dims, pad)
    t = _embed(rng, p, rand_regular(rng, p, *dims), frame)
    return _cli("regular-part", ["regular-part", json.dumps(doc(p, t, frame[0], frame[1])),
                                 "--witness"], [t], {"exit": 0, "dims": list(dims)})


def equiv_cli(rng):
    ops = []
    for p in CLI_PRIMES:
        for k, d in enumerate(CORNERS):
            for pad in PADS * EQUIV_COPIES:
                ops.append(_equiv_equal(rng, p, d, pad))
                ops.append(_equiv_other_dims(rng, p, d, CORNERS[(k + 1) % len(CORNERS)], pad))
                if d[2] == 2:
                    ops.append(_equiv_same_dims(rng, p, d, pad))
    classify_dims = sorted(CLASSIFY_DIMS)
    for i in range(OTHER_VERBS):
        p = CLI_PRIMES[i % len(CLI_PRIMES)]
        ops.append(_canonicalize(rng, p if p != 2 else 3, CANON_SHAPES[i % len(CANON_SHAPES)]))
        ops.append(_classify(rng, p, classify_dims[i % len(classify_dims)]))
        ops.append(_regular_part(rng, p, CORNERS[i % len(CORNERS)], PADS[i % len(PADS)]))
    for _ in range(OTHER_VERBS // 4):
        ops.append(_canonicalize_refused(rng))
    for i in range(OTHER_VERBS // 3):
        ops.append(_classify(rng, CLI_PRIMES[i % len(CLI_PRIMES)],
                             classify_dims[i % len(classify_dims)], regular=False))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "label-census": label_census,
    "pencil-sweep": pencil_sweep,
    "equiv-cli": equiv_cli,
}

import itertools
import random
import time
import tracemalloc

import pytest

from conftest import rand_invertible, rand_monic, rand_tensor, rand_witness, run_python_O
from gfcanon import (
    CanonicalSum,
    Matrix,
    Mobius2x2,
    Poly,
    PrimeField,
    SpatialMatrix,
    TransformWitness,
    apply_transform,
    canonical_label,
    classify_regular,
    equivalent,
    is_regular,
    lemma2_equivalent,
    mobius_orbit_minimize,
    mobius_transform,
    pgl2_reps,
    regular_part,
    spatial,
    theorem1_form,
    theorem2_catalog,
    two_step_realize,
)
from gfcanon.errors import (
    DimensionMismatchError,
    FieldTooLargeForSearchError,
    FieldTooSmallError,
    InadmissibleTransformError,
    NotRegularError,
    UnsupportedShapeError,
    WrongSliceCountError,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
FIELDS = (F2, F3, F5)


def _pencil_tensor(fld, a1_rows, a2_rows):
    n = len(a1_rows[0]) if a1_rows else 0
    return SpatialMatrix(fld, [a1_rows, a2_rows], len(a1_rows), n)


def _d_tensor(fld, u, v):
    """|| I_2 | companion(x^2 - u x - v) || with two slices."""
    return _pencil_tensor(
        fld, [[1, 0], [0, 1]], [[0, v % fld.p], [1, u % fld.p]]
    )


# -- the group action ------------------------------------------------------------


def test_apply_transform_agrees_with_two_step():
    rng = random.Random(1)
    for _ in range(120):
        fld = FIELDS[rng.randrange(3)]
        m, n, q = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_tensor(rng, fld, m, n, q)
        w = rand_witness(rng, fld, m, n, q)
        assert apply_transform(a, w) == two_step_realize(a, w)


def _literal_apply(a, w):
    """The contraction sum a[i][j][k] r[i][i'] s[j][j'] t[k][k'], written out
    term by term: the referee of apply_transform's factored route."""
    p = a.fld.p
    m, n, q = a.dims
    r, s, t = w.r.rows, w.s.rows, w.t.rows
    out = []
    for k2 in range(q):
        rows = []
        for i2 in range(m):
            row = []
            for j2 in range(n):
                acc = 0
                for k in range(q):
                    for i in range(m):
                        for j in range(n):
                            acc += a.slices[k].rows[i][j] * r[i][i2] * s[j][j2] * t[k][k2]
                row.append(acc % p)
            rows.append(row)
        out.append(Matrix(a.fld, rows, n))
    return SpatialMatrix(a.fld, out, m, n)


def test_apply_transform_matches_literal_sum():
    rng = random.Random(5)
    seen = set()
    for case in range(150):
        fld = (F2, F3, F5, PrimeField(101))[case % 4]
        q = 1 + case % 3
        m, n = rng.randrange(0, 5), rng.randrange(0, 5)
        a = rand_tensor(rng, fld, m, n, q)
        w = rand_witness(rng, fld, m, n, q)
        got = apply_transform(a, w)
        assert got == _literal_apply(a, w), (a.to_dict(), w.to_dict())
        assert got.dims == (m, n, q)
        seen.add((q, m == 0, n == 0))
    assert {(q, m0, n0) for q in (1, 2, 3) for m0 in (False, True) for n0 in (False, True)} <= seen
    empty = SpatialMatrix.zero(F3, 2, 3, 0)
    assert apply_transform(empty, rand_witness(rng, F3, 2, 3, 0)) == empty


def test_action_composition_and_inverse():
    rng = random.Random(2)
    for _ in range(100):
        fld = FIELDS[rng.randrange(3)]
        m, n, q = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_tensor(rng, fld, m, n, q)
        w1 = rand_witness(rng, fld, m, n, q)
        w2 = rand_witness(rng, fld, m, n, q)
        assert apply_transform(apply_transform(a, w1), w2) == apply_transform(
            a, w1.compose(w2)
        )
        assert apply_transform(apply_transform(a, w1), w1.inverse()) == a
        ident = TransformWitness.identity(fld, m, n, q)
        assert apply_transform(a, ident) == a


def test_apply_transform_checks_dims():
    a = rand_tensor(random.Random(3), F3, 2, 2, 2)
    w = rand_witness(random.Random(3), F3, 2, 2, 3)
    with pytest.raises(DimensionMismatchError):
        apply_transform(a, w)


def test_tensor_dict_round_trip():
    rng = random.Random(4)
    a = rand_tensor(rng, F5, 3, 2, 2)
    assert SpatialMatrix.from_dict(a.to_dict()) == a
    w = rand_witness(rng, F5, 3, 2, 2)
    assert TransformWitness.from_dict(w.to_dict()) == w


# -- regular part ------------------------------------------------------------------


def test_regular_part_of_regular_input_is_itself():
    a = _d_tensor(F5, 0, 1)
    assert is_regular(a)
    corner, w = regular_part(a)
    assert corner == a


def test_regular_part_witness_and_regularity():
    rng = random.Random(5)
    for _ in range(200):
        fld = FIELDS[rng.randrange(3)]
        m, n, q = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_tensor(rng, fld, m, n, q)
        corner, w = regular_part(a)
        assert is_regular(corner)
        m2, n2, q2 = corner.dims
        assert m2 <= m and n2 <= n and q2 <= q
        # the witness maps a onto corner padded with zeros
        moved = apply_transform(a, w)
        for i in range(m):
            for j in range(n):
                for k in range(q):
                    want = corner.at(i, j, k) if i < m2 and j < n2 and k < q2 else 0
                    assert moved.at(i, j, k) == want


def test_regular_part_invariant_dims():
    rng = random.Random(6)
    for _ in range(80):
        fld = FIELDS[rng.randrange(3)]
        a = rand_tensor(rng, fld, 3, 2, 2)
        w = rand_witness(rng, fld, 3, 2, 2)
        c1, _ = regular_part(a)
        c2, _ = regular_part(apply_transform(a, w))
        assert c1.dims == c2.dims


# -- two-slice canonical form -----------------------------------------------------


def test_theorem1_regular_example():
    cs, w = theorem1_form(_d_tensor(F5, 0, 1))
    assert cs.right == () and cs.left == ()
    assert [list(f.coeffs) for f in cs.finite] == [[4, 1], [1, 1]]  # x-1, x+1
    assert apply_transform(_d_tensor(F5, 0, 1), w) == cs.tensor()


def test_theorem1_clears_degenerate_direction():
    # || J_2(0) | I_2 || has a pole block; a slice mix must remove it
    a = _pencil_tensor(F5, [[0, 0], [1, 0]], [[1, 0], [0, 1]])
    cs, w = theorem1_form(a)
    assert [list(f.coeffs) for f in cs.finite] == [[0, 0, 1]]  # x^2
    assert apply_transform(a, w) == cs.tensor()


def test_theorem1_requires_two_slices():
    with pytest.raises(WrongSliceCountError):
        theorem1_form(rand_tensor(random.Random(0), F3, 2, 2, 3))


def test_theorem1_honest_failure_on_gf2():
    # over GF(2) the three available mix directions can all be blocked:
    # pole block plus finite blocks x and x+1
    a = _pencil_tensor(
        F2,
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 1], [0, 0, 1]],
    )
    with pytest.raises(FieldTooSmallError) as exc:
        theorem1_form(a)
    blocks = exc.value.blocks
    assert blocks is not None
    assert blocks.inf == (1,)
    assert [list(f.coeffs) for f in blocks.finite] == [[0, 1], [1, 1]]


def test_theorem1_within_guaranteed_envelope():
    # min(m, n) <= p can always be cleared; exercised across the envelope
    rng = random.Random(7)
    for fld, n_max in ((F2, 2), (F3, 3), (F5, 4)):
        for _ in range(60):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, min(n_max, fld.p) + 1)
            a = rand_tensor(rng, fld, m, n, 2)
            cs, w = theorem1_form(a)
            assert apply_transform(a, w) == cs.tensor()
            assert cs.dims == a.dims


def test_pgl2_representative_count():
    for fld in FIELDS:
        reps = pgl2_reps(fld)
        assert len(reps) == fld.p**3 - fld.p


def test_pgl2_reps_match_quartic_enumeration():
    for p in (2, 3, 5, 7, 11, 13):
        want = []
        for quad in itertools.product(range(p), repeat=4):
            a, b, c, d = quad
            if (a * d - b * c) % p and next(x for x in quad if x) == 1:
                want.append(quad)
        assert list(pgl2_reps(PrimeField(p))) == want


def test_minimize_picks_least_key():
    chi = Poly(F5, [2, 0, 1])  # x^2 - 3
    cs = CanonicalSum(F5, (), (), (chi,))
    best, mob = mobius_orbit_minimize(cs)
    assert [list(f.coeffs) for f in best.finite] == [[3, 0, 1]]  # x^2 - 2
    again, mob2 = mobius_orbit_minimize(best)
    assert again == best
    assert mob2.as_ints() == (1, 0, 0, 1)


def _full_scan(cs):
    """Referee: every mix of pgl2_reps, replacing only on a strictly smaller key."""
    best, best_t = cs, Mobius2x2.from_ints(cs.fld, 1, 0, 0, 1)
    best_key = best.sort_key()
    for quad in pgl2_reps(cs.fld):
        t = Mobius2x2.from_ints(cs.fld, *quad)
        try:
            imgs = tuple(mobius_transform(f, t) for f in cs.finite)
        except InadmissibleTransformError:
            continue
        cand = CanonicalSum(cs.fld, cs.right, cs.left, imgs)
        if cand.sort_key() < best_key:
            best, best_t, best_key = cand, t, cand.sort_key()
    return best, best_t


def _rand_prime_power(rng, fld, base_degrees=(1, 1, 2, 3)):
    """(x - r)**e with e in {1, 2, p}, or an irreducible of degree 2 or 3
    (no roots), squared half the time."""
    p = fld.p
    while True:
        base = rand_monic(rng, fld, rng.choice(base_degrees))
        if base.degree == 1:
            return base ** rng.choice((1, 2, p))
        if all(base.evaluate(r) for r in range(p)):
            return base ** rng.choice((1, 2))


def _divisor_tuples(rng, fld, count):
    p = fld.p
    for i in range(count):
        kind = i % 6
        if kind == 0:  # single divisor
            yield (_rand_prime_power(rng, fld),)
        elif kind == 1:  # a repeated divisor
            f = _rand_prime_power(rng, fld)
            yield (f, f, _rand_prime_power(rng, fld))
        elif kind == 2:  # no anchor: every least-degree divisor is irreducible of degree >= 2
            yield tuple(_rand_prime_power(rng, fld, (2, 3)) for _ in range(rng.randrange(1, 4)))
        elif kind == 3:  # two anchors of the least degree
            r1, r2 = rng.sample(range(p), 2)
            e = rng.choice((1, 2))
            yield (
                Poly(fld, (-r1, 1)) ** e,
                Poly(fld, (-r2, 1)) ** e,
                _rand_prime_power(rng, fld),
            )
        elif kind == 4:  # labels carry prime powers only; the scan must not assume it
            r1, r2 = rng.sample(range(p), 2)
            yield (Poly(fld, (-r1, 1)) * Poly(fld, (-r2, 1)), _rand_prime_power(rng, fld))
        else:
            yield tuple(_rand_prime_power(rng, fld) for _ in range(rng.randrange(1, 5)))


def test_orbit_minimize_matches_full_scan():
    rng = random.Random(13)
    seen = dict.fromkeys(
        ("single", "repeated", "no_anchor", "two_anchors", "x_minus_r_to_p", "root_not_anchor"), 0
    )
    # 372 tuples; the referee's p^3 scan bounds the count at the larger primes
    for p, count in ((2, 96), (3, 96), (5, 84), (7, 48), (11, 24), (13, 24)):
        fld = PrimeField(p)
        for finite in _divisor_tuples(rng, fld, count):
            cs = CanonicalSum(fld, (), (), finite)
            least = [f for f in finite if f.degree == min(g.degree for g in finite)]
            roots = {r for f in least for r in range(p) if f.evaluate(r) == 0}
            anchors = {r for f in least for r in roots if f == Poly(fld, (-r, 1)) ** f.degree}
            assert spatial._anchors(cs.finite) == anchors, finite
            seen["single"] += len(finite) == 1
            seen["repeated"] += len(set(finite)) < len(finite)
            seen["no_anchor"] += not anchors
            seen["two_anchors"] += len(anchors) >= 2
            seen["x_minus_r_to_p"] += any(
                f == Poly(fld, (-r, 1)) ** p for f in finite for r in range(p)
            )
            seen["root_not_anchor"] += roots != anchors
            got, t = mobius_orbit_minimize(cs)
            want, t_want = _full_scan(cs)
            assert got == want, finite
            assert t.as_ints() == t_want.as_ints(), finite
    assert min(seen.values()) >= 10, seen


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_anchor_scan_is_lazy(monkeypatch):
    # p^3 - p = 29,760 candidates at p = 31, none of them kept
    fld = PrimeField(31)
    chi = next(Poly(fld, (c, 0, 1)) for c in range(31) if all((r * r + c) % 31 for r in range(31)))
    cs = CanonicalSum(fld, (), (), (chi,))
    monkeypatch.setattr(spatial, "pgl2_reps", lambda fld: pytest.fail("scan listed every mix"))
    assert not spatial._anchors(cs.finite)
    assert _peak_bytes(lambda: mobius_orbit_minimize(cs)) < 2**19


def test_base_mixes_cover_the_candidates_lazily():
    # each base (a, b, c0, d0) stands for the p - 1 mixes (a, b, l c0, l d0)
    p, anchors = 211, {0, 5, 200}
    pairs = [(0, 1)] + [(1, b) for b in range(p)]
    old = sorted((a, b, -d * r % p, d) for r in anchors for d in range(1, p)
                 for a, b in pairs if (b * r + a) % p)
    assert len(old) == len(anchors) * p * (p - 1)
    index = {quad: i for i, quad in enumerate(old)}
    hits = bytearray(len(old))

    def consume():
        last = (0, 0)
        for a, b, c0, d0 in spatial._base_mixes(anchors, p):
            assert (a, b) >= last  # pgl2_reps order of (a, b)
            last = (a, b)
            for lam in range(1, p):
                hits[index[(a, b, lam * c0 % p, lam * d0 % p)]] += 1

    assert _peak_bytes(consume) < 2**19
    assert set(hits) == {1}
    for p in (2, 3, 5, 7, 11, 13):
        got = sorted((a, b, lam * c0 % p, lam * d0 % p)
                     for a, b, c0, d0 in spatial._base_mixes(set(), p) for lam in range(1, p))
        assert got == list(pgl2_reps(PrimeField(p)))


class _CountedRow(list):
    """A power-table row that counts the entries read from it."""

    reads = 0

    def __getitem__(self, i):
        _CountedRow.reads += 1
        return super().__getitem__(i)


def test_least_group_sets_the_zero_key_aside(monkeypatch):
    # an anchored base's group holds the anchor divisor's all-zero key, whose
    # least scalings are all of GF(p)*; the other keys alone decide the group
    rng = random.Random(20)

    def check(keys, p, pw):
        lams, low = spatial._least_group(sorted(keys), range(1, p), pw, p)
        scaled = {lam: sorted(tuple(k * pow(lam, i + 1, p) % p for i, k in enumerate(key))
                              for key in keys) for lam in range(1, p)}
        want = min(scaled.values())
        assert low == want, keys
        assert sorted(lams) == [lam for lam in range(1, p) if scaled[lam] == want], keys

    p = 1009
    pw = [_CountedRow(pow(lam, i, p) for lam in range(p)) for i in range(1, 3)]
    # sorting the scalings of both keys would read 2 (p - 1) l entries more;
    # (0, 7) needs one pass over GF(p)* for its entry 1
    for key, bound in (((5,), 2), ((3, 7), 4), ((0, 7), p + 3)):
        monkeypatch.setattr(_CountedRow, "reads", 0)
        check([(0,) * len(key), key], p, pw)
        assert _CountedRow.reads <= bound, key
    for p, l in ((1009, 1), (1009, 2), (7, 3), (5, 2)):
        pw = [[pow(lam, i, p) for lam in range(p)] for i in range(1, l + 1)]
        for extra in range(4):
            zeros = [(0,) * l] * rng.randrange(1, 3)
            check(zeros + [tuple(rng.randrange(p) for _ in range(l)) for _ in range(extra)], p, pw)


def _irreducible(fld, degree):
    return next(f for f in (Poly(fld, cs + (1,)) for cs in itertools.product(range(fld.p), repeat=degree))
                if all(f.evaluate(r) for r in range(fld.p)))


def test_orbit_scan_makes_one_substitution_per_divisor_and_base(monkeypatch):
    # the identity's images, then at most one per divisor and base: p + 1
    # bases for one anchor, p (p + 1) with none (the full scan made 20,202
    # and 29,831); none for the anchor divisor, which each anchored base
    # takes to x**l (204 calls at p = 101 when it was substituted)
    calls = []
    image = spatial.mobius_image
    monkeypatch.setattr(spatial, "mobius_image", lambda *args: calls.append(1) or image(*args))
    for p, degrees, bound in ((101, (1, 2), 101 + 2), (31, (2, 3), 2 * 31 * 32 + 2)):
        fld = PrimeField(p)
        finite = tuple(Poly(fld, (3, 1)) if d == 1 else _irreducible(fld, d) for d in degrees)
        calls.clear()
        mobius_orbit_minimize(CanonicalSum(fld, (), (), finite))
        assert 0 < len(calls) <= bound, (p, len(calls))


def test_orbit_minimize_matches_full_scan_at_p17():
    rng = random.Random(19)
    fld = PrimeField(17)
    no_anchor = 0
    for finite in _divisor_tuples(rng, fld, 24):
        cs = CanonicalSum(fld, (), (), finite)
        no_anchor += not spatial._anchors(cs.finite)
        got, t = mobius_orbit_minimize(cs)
        want, t_want = _full_scan(cs)
        assert got == want, finite
        assert t.as_ints() == t_want.as_ints(), finite
    assert no_anchor >= 6, no_anchor


def test_orbit_minimize_is_invariant_beyond_the_referee():
    # at primes where the full scan is too slow to referee: a tuple and
    # its image under an admissible mix share one least label, and that
    # label is its own least, reached by the identity
    rng = random.Random(20)
    for i in range(40):
        fld = PrimeField((19, 23, 29)[i % 3])
        p = fld.p
        if i % 2:
            finite = tuple(_rand_prime_power(rng, fld, (2, 3)) for _ in range(rng.randrange(1, 4)))
        else:
            finite = (Poly(fld, (rng.randrange(p), 1)),) + tuple(
                _rand_prime_power(rng, fld) for _ in range(rng.randrange(3)))
        cs = CanonicalSum(fld, (), (), finite)
        assert bool(spatial._anchors(cs.finite)) == (i % 2 == 0)
        while True:
            quad = tuple(rng.randrange(p) for _ in range(4))
            a, b, c, d = quad
            if (a * d - b * c) % p and all(spatial.mobius_image(f.coeffs, *quad, p) for f in finite):
                break
        t = Mobius2x2.from_ints(fld, *quad)
        moved = CanonicalSum(fld, (), (), tuple(mobius_transform(f, t) for f in finite))
        least, _ = mobius_orbit_minimize(cs)
        assert mobius_orbit_minimize(moved)[0] == least, finite
        again, t_again = mobius_orbit_minimize(least)
        assert again == least and t_again.as_ints() == (1, 0, 0, 1), finite


def test_canonical_label_large_field_with_linear_divisor():
    fld = PrimeField(101)
    rng = random.Random(14)
    base = CanonicalSum(fld, (), (), (Poly(fld, (-37, 1)), Poly(fld, (2, 0, 1))))  # x^2 + 2 has no root
    a = apply_transform(base.tensor(), rand_witness(rng, fld, 3, 3, 2))
    start = time.perf_counter()
    label, w = canonical_label(a)
    assert time.perf_counter() - start < 5
    assert apply_transform(a, w) == label.tensor()
    assert [list(f.coeffs) for f in label.finite][0] == [0, 1]  # the anchor lands on x


def test_label_witness_checked_under_python_O(tmp_path):
    # x and x - 1 are already least, so canonical_label returns the
    # theorem-1 witness as it is: only that stage's check can catch it
    out = run_python_O(tmp_path, """
        from gfcanon import PrimeField, SpatialMatrix, WitnessError, spatial
        from gfcanon.pencil import PairWitness

        kronecker_form = spatial.kronecker_form

        def corrupted(a1, a2):
            form, w = kronecker_form(a1, a2)
            return form, PairWitness(w.r.scale(2), w.s)

        spatial.kronecker_form = corrupted
        a = SpatialMatrix(PrimeField(5), [[[1, 0], [0, 1]], [[0, 0], [0, 1]]], 2, 2)
        try:
            spatial.canonical_label(a)
        except WitnessError as exc:
            print(__debug__, exc)
    """)
    assert out == "False theorem-1 witness failed to verify"


def test_regular_part_witness_checked_under_python_O(tmp_path):
    out = run_python_O(tmp_path, """
        from gfcanon import PrimeField, SpatialMatrix, WitnessError, spatial

        witness = spatial.TransformWitness
        spatial.TransformWitness = lambda r, s, t: witness(r.scale(2), s, t)
        a = SpatialMatrix(PrimeField(5), [[[1, 0], [0, 0]], [[0, 1], [0, 0]]], 2, 2)
        try:
            spatial.regular_part(a)
        except WitnessError as exc:
            print(__debug__, exc)
    """)
    assert out == "False regular_part witness failed to verify"


def _count_checks(monkeypatch) -> list:
    # counts the package's own witness checks; the tests' apply_transform
    # is the unpatched function
    calls = []
    apply = spatial.apply_transform
    monkeypatch.setattr(spatial, "apply_transform", lambda a, w: calls.append(1) or apply(a, w))
    return calls


def test_canonical_label_checks_its_witness_once(monkeypatch):
    # one apply_transform per label, on both the identity-mix return and
    # the composed-witness return
    calls = _count_checks(monkeypatch)
    rng = random.Random(15)
    mixed = 0
    for _ in range(40):
        fld = (F3, F5)[rng.randrange(2)]
        a = rand_tensor(rng, fld, 3, 3, 2)
        try:
            label, w = canonical_label(a)
        except FieldTooSmallError:
            continue
        assert len(calls) == 1
        mixed += spatial._theorem1(a)[0] != label
        calls.clear()
    assert mixed >= 5


def test_classify_checks_only_the_returned_witness(monkeypatch):
    rng = random.Random(16)
    monkeypatch.setattr(spatial, "_REP_LABELS", {})  # cold labels are checked only through w
    calls = _count_checks(monkeypatch)
    for u, v in ((1, 0), (0, 2), (1, 1)):
        a = apply_transform(_d_tensor(F5, u, v), rand_witness(rng, F5, 2, 2, 2))
        cls, w = classify_regular(a)
        assert len(calls) == 1
        assert apply_transform(a, w) == cls.representative()
        calls.clear()


def test_classify_labels_the_catalog_once_per_p(monkeypatch):
    rng = random.Random(18)
    tensors = [apply_transform(_d_tensor(F5, u, v), rand_witness(rng, F5, 2, 2, 2))
               for u, v in ((1, 0), (0, 2), (1, 1))]
    monkeypatch.setattr(spatial, "_REP_LABELS", {})
    cold = [classify_regular(a) for a in tensors]
    # only the 2 x 2 x 2 representatives tried before each match were labelled
    assert sorted(cls.param for cls in spatial._REP_LABELS) == [0, 1, 2]
    calls = []
    label = spatial._canonical_label
    monkeypatch.setattr(spatial, "_canonical_label", lambda a: calls.append(1) or label(a))
    for a, want in zip(tensors, cold):
        assert classify_regular(a) == want
        assert len(calls) == 1
        calls.clear()


def test_equivalent_checks_each_witness_it_rests_on_once(monkeypatch):
    # True: only the returned witness; False on corner dims: the two
    # regular-part witnesses; False on labels: those and the two label witnesses
    rng = random.Random(17)
    a = rand_tensor(rng, F5, 3, 3, 2)
    b = apply_transform(a, rand_witness(rng, F5, 3, 3, 2))
    three_roots = CanonicalSum(F5, (), (), tuple(Poly(F5, (-r, 1)) for r in range(3)))
    c = apply_transform(three_roots.tensor(), rand_witness(rng, F5, 3, 3, 2))
    padded = SpatialMatrix(
        F5, [[[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]], 3, 3
    )
    assert is_regular(a) and is_regular(c) and canonical_label(a)[0] != canonical_label(c)[0]
    calls = _count_checks(monkeypatch)
    for x, y, answer, checks in ((a, b, True, 1), (a, padded, False, 2), (a, c, False, 4)):
        ok, w = equivalent(x, y)
        assert ok is answer and len(calls) == checks, (answer, len(calls))
        assert w is None or apply_transform(x, w) == y
        calls.clear()


def test_only_returned_witnesses_are_ranked(monkeypatch):
    # intermediate witness factors are invertible by construction; only the
    # returned witness's three factors are ranked
    calls = []
    invertible = spatial.is_invertible
    monkeypatch.setattr(spatial, "is_invertible", lambda m: calls.append(1) or invertible(m))
    rng = random.Random(17)
    mixed = 0
    for _ in range(5):
        a = rand_tensor(rng, F5, 3, 3, 2)
        b = apply_transform(a, rand_witness(rng, F5, 3, 3, 2))
        calls.clear()
        ok, w = equivalent(a, b)
        assert ok and len(calls) == 3
        calls.clear()
        label, w = canonical_label(a)
        assert len(calls) == 3
        mixed += spatial._theorem1(a)[0] != label
    assert mixed >= 3


def test_equivalent_checks_regular_part_witnesses_under_python_O(tmp_path):
    # the corner dims differ, so the answer rests on the regular-part witnesses alone
    out = run_python_O(tmp_path, """
        from gfcanon import PrimeField, SpatialMatrix, WitnessError, spatial

        witness = spatial.TransformWitness
        spatial.TransformWitness = lambda r, s, t: witness(r.scale(2), s, t)
        fld = PrimeField(5)
        a = SpatialMatrix(fld, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 2, 2)
        b = SpatialMatrix(fld, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]], 2, 2)
        try:
            spatial.equivalent(a, b)
        except WitnessError as exc:
            print(__debug__, exc)
    """)
    assert out == "False regular_part witness failed to verify"


def test_classification_witness_checked_under_python_O(tmp_path):
    # the q = 1 path builds its witness from inverse(slice) alone
    out = run_python_O(tmp_path, """
        from gfcanon import PrimeField, SpatialMatrix, WitnessError, spatial

        inverse = spatial.inverse
        spatial.inverse = lambda m: inverse(m).scale(2)
        a = SpatialMatrix(PrimeField(5), [[[1, 2], [3, 4]]], 2, 2)
        try:
            spatial.classify_regular(a)
        except WitnessError as exc:
            print(__debug__, exc)
    """)
    assert out == "False classification witness failed to verify"


def test_canonical_label_invariant_and_witnessed():
    rng = random.Random(8)
    for fld, n_max in ((F2, 2), (F3, 3), (F5, 4)):
        for _ in range(40):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, min(n_max, fld.p) + 1)
            a = rand_tensor(rng, fld, m, n, 2)
            cs, w = canonical_label(a)
            assert apply_transform(a, w) == cs.tensor()
            wmove = rand_witness(rng, fld, m, n, 2)
            b = apply_transform(a, wmove)
            cs2, w2 = canonical_label(b)
            assert cs2 == cs
            assert apply_transform(b, w2) == cs.tensor()


def test_canonical_label_distinguishes_known_classes():
    # same dims, different block structure
    a = _d_tensor(F5, 0, 1)  # split spectrum: {x, x-1}
    b = _d_tensor(F5, 0, 2)  # irreducible x^2 - 2
    c = _d_tensor(F5, 0, 0)  # repeated root: x^2
    d = _pencil_tensor(F5, [[1, 0], [0, 0]], [[0, 1], [0, 0]])  # singular pencil
    keys = {canonical_label(x)[0].sort_key() for x in (a, b, c, d)}
    assert len(keys) == 4


def test_canonical_label_merges_equivalent_presentations():
    # || diag(1,0) | diag(0,1) || is a disguise of the split-spectrum class
    a = _d_tensor(F5, 0, 1)
    b = _pencil_tensor(F5, [[1, 0], [0, 0]], [[0, 0], [0, 1]])
    assert canonical_label(a)[0] == canonical_label(b)[0]


# -- classification of regular tensors ---------------------------------------------


def test_catalog_contents():
    gf2 = [(c.kind, c.param) for c in theorem2_catalog(F2)]
    assert gf2 == [
        ("C1x1x1", None),
        ("C2x2x1", None),
        ("C2x1x2", None),
        ("C1x2x2", None),
        ("A", 0),
        ("B", 0),
        ("B", 1),
        ("C3x2x2_s2", None),
        ("C3x2x2_s3", None),
        ("C4x2x2", None),
    ]
    for fld in (F3, F5):
        got = [(c.kind, c.param) for c in theorem2_catalog(fld)]
        assert got == [
            ("C1x1x1", None),
            ("C2x2x1", None),
            ("C2x1x2", None),
            ("C1x2x2", None),
            ("A", 0),
            ("A", 1),
            ("A", 2),
            ("C3x2x2_s2", None),
            ("C3x2x2_s3", None),
            ("C4x2x2", None),
        ]


def _dedup_catalog(fld):
    """Referee: the A(v) for every v (and B(v) over GF(2)) deduplicated by
    canonical label, keeping the least parameter."""
    seen, out = set(), []
    pencils = [("A", v) for v in range(fld.p)] + ([("B", 0), ("B", 1)] if fld.p == 2 else [])
    for kind, v in pencils:
        label = canonical_label(spatial.RegularClass22(kind, fld, v).representative())[0]
        if label not in seen:
            seen.add(label)
            out.append((kind, v))
    return out


def test_catalog_matches_the_label_dedup_referee():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        fld = PrimeField(p)
        got = [(c.kind, c.param) for c in theorem2_catalog(fld) if c.kind in ("A", "B")]
        assert got == _dedup_catalog(fld), p


def test_catalog_makes_no_label_call(monkeypatch):
    calls = []
    label = spatial._canonical_label
    monkeypatch.setattr(spatial, "_canonical_label", lambda a: calls.append(1) or label(a))
    for p in (2, 3, 101, 1009, 2**31 - 1):
        assert len(theorem2_catalog(PrimeField(p))) == 10
    assert calls == []


def test_classify_split_tensor_at_large_p(monkeypatch):
    # x^2 - 4 at p = 1009: the input, A(0) and A(1) are labelled, never the
    # irreducible A(11), whose no-anchor scan is over the budget
    fld = PrimeField(1009)
    a = apply_transform(_d_tensor(fld, 0, 4), rand_witness(random.Random(21), fld, 2, 2, 2))
    calls = []
    label = spatial._canonical_label
    monkeypatch.setattr(spatial, "_canonical_label", lambda a: calls.append(1) or label(a))
    monkeypatch.setattr(spatial, "_REP_LABELS", {})
    cls, w = classify_regular(a)
    assert (cls.kind, cls.param) == ("A", 1) and len(calls) <= 3
    assert apply_transform(a, w) == cls.representative()


def test_catalog_representatives_are_regular_and_self_classify():
    for fld in FIELDS:
        for cls in theorem2_catalog(fld):
            rep = cls.representative()
            assert is_regular(rep)
            got, w = classify_regular(rep)
            assert got == cls
            assert apply_transform(rep, w) == rep


def test_classify_worked_examples():
    cls, w = classify_regular(_d_tensor(F5, 1, 0))
    assert (cls.kind, cls.param) == ("A", 1)
    cls, w = classify_regular(_d_tensor(F2, 1, 1))
    assert (cls.kind, cls.param) == ("B", 1)
    one = SpatialMatrix(F3, [[[2]]], 1, 1)
    cls, w = classify_regular(one)
    assert cls.kind == "C1x1x1"
    assert apply_transform(one, w) == cls.representative()


def test_classify_gf5_parameter_orbits():
    # v and 1/v label the same class, so GF(5) groups {0}, {1,4}, {2,3}
    want = {0: 0, 1: 1, 2: 2, 3: 2, 4: 1}
    for v, expect in want.items():
        cls, _ = classify_regular(_d_tensor(F5, 0, v))
        assert (cls.kind, cls.param) == ("A", expect)


def test_classify_invariant_and_witnessed():
    rng = random.Random(9)
    for fld in FIELDS:
        for cls in theorem2_catalog(fld):
            rep = cls.representative()
            m, n, q = rep.dims
            for _ in range(6):
                w = rand_witness(rng, fld, m, n, q)
                moved = apply_transform(rep, w)
                got, wit = classify_regular(moved)
                assert got == cls
                assert apply_transform(moved, wit) == cls.representative()


def test_classify_rejects_bad_inputs():
    with pytest.raises(NotRegularError) as exc:
        classify_regular(
            SpatialMatrix(F2, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], 2, 2)
        )
    assert len(exc.value.ranks) == 3
    with pytest.raises(UnsupportedShapeError):
        classify_regular(rand_tensor(random.Random(1), F3, 2, 3, 2))  # n = 3
    with pytest.raises(UnsupportedShapeError):
        classify_regular(SpatialMatrix(F3, [], 0, 0))  # empty


# -- full equivalence decision ------------------------------------------------------


def test_equivalent_reflexive_with_identity_witness():
    rng = random.Random(10)
    for _ in range(40):
        fld = FIELDS[rng.randrange(3)]
        a = rand_tensor(rng, fld, rng.randrange(1, 4), rng.randrange(1, 3), 2)
        ok, w = equivalent(a, a)
        assert ok
        assert apply_transform(a, w) == a
        assert w == TransformWitness.identity(fld, *a.dims)


def test_equivalent_matches_transform_pairs():
    rng = random.Random(11)
    for _ in range(60):
        fld = FIELDS[rng.randrange(3)]
        m, n, q = rng.randrange(1, 4), rng.randrange(1, 3), rng.randrange(1, 3)
        a = rand_tensor(rng, fld, m, n, q)
        b = apply_transform(a, rand_witness(rng, fld, m, n, q))
        ok, w = equivalent(a, b)
        assert ok
        assert apply_transform(a, w) == b
        ok_back, w_back = equivalent(b, a)
        assert ok_back and apply_transform(b, w_back) == a


def test_equivalent_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        equivalent(
            rand_tensor(random.Random(0), F3, 2, 2, 2),
            rand_tensor(random.Random(0), F3, 2, 2, 1),
        )


def test_equivalent_degenerate_slice_counts():
    rng = random.Random(12)
    # q = 1 pairs decide by rank; q' can also drop to 0
    zero = SpatialMatrix.zero(F3, 2, 2, 1)
    ok, w = equivalent(zero, SpatialMatrix.zero(F3, 2, 2, 1))
    assert ok and apply_transform(zero, w) == zero
    a = SpatialMatrix(F3, [[[1, 0], [0, 0]]], 2, 2)
    b = SpatialMatrix(F3, [[[0, 0], [0, 2]]], 2, 2)
    ok, w = equivalent(a, b)
    assert ok and apply_transform(a, w) == b
    c = SpatialMatrix(F3, [[[1, 0], [0, 1]]], 2, 2)
    ok, w = equivalent(a, c)
    assert not ok and w is None


def test_equivalent_distinguishes_catalog_members():
    for fld in (F2, F5):
        entries = [c for c in theorem2_catalog(fld) if c.representative().dims == (2, 2, 2)]
        for i in range(len(entries)):
            for j in range(len(entries)):
                ok, _ = equivalent(
                    entries[i].representative(), entries[j].representative()
                )
                assert ok == (i == j)


# -- the parameter-space shortcut ---------------------------------------------------


def test_lemma2_matches_equivalent_exhaustively():
    for fld in (F2, F3):
        p = fld.p
        for u in range(p):
            for v in range(p):
                for u2 in range(p):
                    for v2 in range(p):
                        got = lemma2_equivalent(fld, u, v, u2, v2)
                        ok, _ = equivalent(_d_tensor(fld, u, v), _d_tensor(fld, u2, v2))
                        assert (got is not None) == ok
                        if got is not None:
                            a, b, c, d = got
                            assert (a * d - b * c) % p != 0


def test_lemma2_search_bound():
    with pytest.raises(FieldTooLargeForSearchError):
        lemma2_equivalent(PrimeField(17), 0, 1, 0, 2)
    assert lemma2_equivalent(PrimeField(13), 0, 1, 0, 1, search_bound=13) is not None

import random

import pytest

from conftest import rand_invertible, rand_matrix, rand_monic
from gfcanon import (
    Matrix,
    Poly,
    PrimeField,
    char_poly,
    companion,
    inverse,
    is_invertible,
    kernel_basis,
    poly_at_matrix,
    rank,
    rref,
    solve_right,
)
from gfcanon.errors import DimensionMismatchError, NotMonicError, SingularMatrixError
from gfcanon import linalg
from gfcanon.linalg import SpanTracker, complete_basis_cols

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
FIELDS = (F2, F3, F5)


def test_matrix_basics():
    m = Matrix(F5, [[1, 2], [3, 4]], 2)
    assert m.shape == (2, 2)
    assert m.at(1, 0) == 3
    assert m.transpose().transpose() == m
    assert (m + m) == m.scale(2)
    assert (m - m).is_zero()
    assert m @ Matrix.identity(F5, 2) == m
    empty = Matrix(F5, [], 3)
    assert empty.shape == (0, 3)
    with pytest.raises(DimensionMismatchError):
        Matrix(F5, [[1, 2], [3]], 2)
    with pytest.raises(DimensionMismatchError):
        m @ Matrix.identity(F5, 3)


def test_stacking_and_block_diag():
    a = Matrix(F3, [[1, 2]], 2)
    b = Matrix(F3, [[0, 1]], 2)
    assert Matrix.vstack([a, b]).rows == ((1, 2), (0, 1))
    assert Matrix.hstack([a, b]).rows == ((1, 2, 0, 1),)
    d = Matrix.block_diag(F3, [Matrix(F3, [[2]], 1), Matrix.identity(F3, 2)])
    assert d.rows == ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    assert Matrix.block_diag(F3, []).shape == (0, 0)


def test_rref_properties():
    rng = random.Random(2)
    for _ in range(200):
        fld = FIELDS[rng.randrange(3)]
        m, n = rng.randrange(0, 5), rng.randrange(0, 5)
        a = rand_matrix(rng, fld, m, n)
        r, e, rk = rref(a)
        assert e @ a == r
        assert is_invertible(e)
        assert 0 <= rk <= min(m, n)
        # pivot structure: strictly increasing pivot columns, unit pivots,
        # pivot columns otherwise zero
        last = -1
        for i in range(rk):
            row = r.row(i)
            piv = next(j for j in range(n) if row[j])
            assert piv > last
            last = piv
            assert row[piv] == 1
            assert all(r.at(k, piv) == 0 for k in range(m) if k != i)
        for i in range(rk, m):
            assert all(x == 0 for x in r.row(i))


def test_rref_without_record_matches():
    rng = random.Random(3)
    shapes = [(0, 4), (3, 0), (0, 0)]
    shapes += [(rng.randrange(0, 9), rng.randrange(0, 9)) for _ in range(300)]
    for m, n in shapes:
        fld = FIELDS[rng.randrange(3)]
        k = rng.randrange(0, min(m, n) + 1)
        if rng.randrange(2):
            a = rand_matrix(rng, fld, m, k) @ rand_matrix(rng, fld, k, n)  # rank <= k
        else:  # sparse rows, so row operations stop short of the last column
            entry = lambda: rng.randrange(fld.p) if rng.random() < 0.3 else 0
            a = Matrix(fld, [[entry() for _ in range(n)] for _ in range(m)], n)
        r, e, rk = rref(a)
        r2, e2, rk2 = rref(a, record=False)
        assert e2 is None and rk2 == rk and r2 == r and r2.shape == (m, n)
        assert e @ a == r and rref(r, record=False)[0] == r
        assert r2 == Matrix(fld, r2.rows, n)  # already reduced, well-formed rows


def test_public_constructor_validates():
    m = Matrix(F5, [[7, -1], [10, 12]], 2)
    assert m.rows == ((2, 4), (0, 2))
    with pytest.raises(DimensionMismatchError):
        Matrix(F5, [[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        Matrix(F5, [[1, 2]], 3)
    # degenerate shapes survive the internal constructors
    for a in (Matrix(F5, [], 3), Matrix.zero(F5, 2, 0)):
        assert a.transpose().shape == a.shape[::-1]
        assert (a @ Matrix.zero(F5, a.n, 2)).shape == (a.m, 2)
        assert Matrix.hstack([a, a]).shape == (a.m, 2 * a.n)
        assert Matrix.vstack([a, a]).shape == (2 * a.m, a.n)
        assert a.submatrix(0, a.m, 0, a.n) == a


def test_rank_equals_transpose_rank():
    rng = random.Random(8)
    for _ in range(200):
        fld = FIELDS[rng.randrange(3)]
        a = rand_matrix(rng, fld, rng.randrange(0, 6), rng.randrange(0, 6))
        assert rank(a) == rank(a.transpose())


def test_inverse_and_errors():
    rng = random.Random(13)
    for _ in range(80):
        fld = FIELDS[rng.randrange(3)]
        d = rng.randrange(0, 5)
        a = rand_invertible(rng, fld, d)
        assert a @ inverse(a) == Matrix.identity(fld, d)
        assert inverse(a) @ a == Matrix.identity(fld, d)
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.zero(F3, 2, 2))
    with pytest.raises(DimensionMismatchError):
        inverse(Matrix.zero(F3, 2, 3))


def test_kernel_basis_spans_kernel():
    rng = random.Random(21)
    for _ in range(150):
        fld = FIELDS[rng.randrange(3)]
        a = rand_matrix(rng, fld, rng.randrange(0, 5), rng.randrange(0, 5))
        k = kernel_basis(a)
        assert k.m == a.n
        assert k.n == a.n - rank(a)
        assert (a @ k).is_zero()
        assert rank(k) == k.n


def test_solve_right():
    rng = random.Random(34)
    for _ in range(150):
        fld = FIELDS[rng.randrange(3)]
        m, n, w = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 4)
        a = rand_matrix(rng, fld, m, n)
        x0 = rand_matrix(rng, fld, n, w)
        b = a @ x0
        x = solve_right(a, b)
        assert x is not None and a @ x == b
    # clearly unsolvable: zero matrix, nonzero target
    assert solve_right(Matrix.zero(F3, 2, 2), Matrix(F3, [[1, 0], [0, 0]], 2)) is None
    # row 2 of a is twice row 1 but row 2 of b is not: the reduction of
    # [a | b] puts its last pivot in the b column
    a = Matrix(F5, [[1, 2, 0], [2, 4, 0], [0, 0, 1]], 3)
    assert solve_right(a, Matrix(F5, [[1], [3], [4]], 1)) is None
    assert solve_right(a, Matrix(F5, [[1], [2], [4]], 1)).rows == ((1,), (0,), (4,))


def test_companion_char_poly_exhaustive_small():
    for p, deg_max in ((2, 6), (3, 4), (5, 3)):
        fld = PrimeField(p)
        for deg in range(1, deg_max + 1):
            for code in range(p**deg):
                coeffs = []
                c = code
                for _ in range(deg):
                    coeffs.append(c % p)
                    c //= p
                chi = Poly(fld, coeffs + [1])
                assert char_poly(companion(chi)) == chi


def test_companion_edge_cases():
    assert companion(Poly.one(F5)).shape == (0, 0)
    assert char_poly(Matrix.zero(F5, 0, 0)) == Poly.one(F5)
    with pytest.raises(NotMonicError):
        companion(Poly(F5, [1, 2]))


def test_char_poly_similarity_invariant():
    rng = random.Random(55)
    for _ in range(100):
        fld = FIELDS[rng.randrange(3)]
        d = rng.randrange(1, 5)
        a = rand_matrix(rng, fld, d, d)
        s = rand_invertible(rng, fld, d)
        assert char_poly(inverse(s) @ a @ s) == char_poly(a)
        assert char_poly(a).is_monic and char_poly(a).degree == d


def test_char_poly_multiplies_over_block_diag():
    rng = random.Random(56)
    for _ in range(60):
        fld = FIELDS[rng.randrange(3)]
        da, db = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_matrix(rng, fld, da, da)
        b = rand_matrix(rng, fld, db, db)
        d = Matrix.block_diag(fld, [a, b])
        assert char_poly(d) == char_poly(a) * char_poly(b)


def test_cayley_hamilton():
    rng = random.Random(57)
    for _ in range(80):
        fld = FIELDS[rng.randrange(3)]
        d = rng.randrange(1, 5)
        a = rand_matrix(rng, fld, d, d)
        assert poly_at_matrix(char_poly(a), a).is_zero()


def _horner_at_matrix(f, mat):
    """Matrix polynomial by plain Horner: deg f + 1 products."""
    acc = Matrix.zero(mat.field, mat.n, mat.n)
    ident = Matrix.identity(mat.field, mat.n)
    for c in reversed(f.coeffs):
        acc = acc @ mat
        if c:
            acc = acc + ident.scale(c)
    return acc


def test_poly_at_matrix_matches_horner():
    # every degree 0..20 (the zero polynomial too) across sizes 0..7, so
    # one, two and several baby/giant chunks all occur
    rng = random.Random(58)
    fields = FIELDS + (PrimeField(101),)
    for deg in range(-1, 21):
        for _ in range(6):
            fld = fields[rng.randrange(4)]
            n = rng.randrange(8)
            a = rand_matrix(rng, fld, n, n)
            f = Poly(fld, [rng.randrange(fld.p) for _ in range(deg)] + [1] * (deg >= 0))
            assert f.degree == deg
            assert poly_at_matrix(f, a) == _horner_at_matrix(f, a)


def _char_poly_by_polys(mat):
    """The Hessenberg recurrence as it was written with Poly objects."""
    field, p, n = mat.field, mat.field.p, mat.n
    h = [list(r) for r in mat.rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = field.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if h[i][j]:
                f = (h[i][j] * inv) % p
                h[i] = [(x - f * y) % p for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + f * row[i]) % p
    polys = [Poly.one(field)]
    for i in range(1, n + 1):
        cur = Poly(field, (-h[i - 1][i - 1], 1)) * polys[i - 1]
        prod = 1
        for k in range(i - 1, 0, -1):
            prod = (prod * h[k][k - 1]) % p
            coef = (h[k - 1][i - 1] * prod) % p
            if coef:
                cur = cur - polys[k - 1].scale(coef)
        polys.append(cur)
    return polys[n]


def test_char_poly_matches_poly_recurrence():
    # dense and sparse matrices up to 12 x 12; zero subdiagonal entries
    # end the inner sum early
    rng = random.Random(59)
    fields = FIELDS + (PrimeField(7), PrimeField(101))
    for case in range(240):
        fld = fields[case % 5]
        n = rng.randrange(13)
        density = (1.0, 0.3, 0.1)[case % 3]
        a = Matrix(fld, [[rng.randrange(fld.p) if rng.random() < density else 0
                          for _ in range(n)] for _ in range(n)], n)
        assert char_poly(a) == _char_poly_by_polys(a)


def test_span_tracker_matches_rank():
    rng = random.Random(70)
    for _ in range(100):
        fld = FIELDS[rng.randrange(3)]
        n = rng.randrange(1, 6)
        tracker = SpanTracker(fld, n)
        vectors = []
        for _ in range(rng.randrange(1, 8)):
            v = tuple(rng.randrange(fld.p) for _ in range(n))
            vectors.append(v)
            tracker.add(v)
            stacked = Matrix(fld, [list(u) for u in vectors], n)
            assert tracker.dim == rank(stacked)
            assert tracker.contains(v)


def test_complete_basis_cols():
    rng = random.Random(71)
    for _ in range(80):
        fld = FIELDS[rng.randrange(3)]
        d = rng.randrange(1, 5)
        k = rng.randrange(0, d + 1)
        full = rand_invertible(rng, fld, d)
        cols = [tuple(full.at(i, j) for i in range(d)) for j in range(k)]
        completed = complete_basis_cols(fld, cols, d)
        assert is_invertible(completed)
        for j in range(k):
            assert tuple(completed.at(i, j) for i in range(d)) == cols[j]
    with pytest.raises(SingularMatrixError):
        complete_basis_cols(F3, [(1, 0), (2, 0)], 2)


# -- packed rows against the list path ------------------------------------------------

# (p, k) pairs whose slot bound sits just below and just above 2^8, 2^16,
# 2^32 and 2^64, with the slot width each side takes (None: the list path)
RREF_EDGES = [  # bound p + k (p - 1)^2, k = min(m, n)
    (5, 15, 8), (5, 16, 16), (101, 6, 16), (101, 7, 32),
    (65521, 1, 32), (65521, 2, 64), (2**31 - 1, 4, 64), (2**31 - 1, 5, None),
]
MATMUL_EDGES = [  # bound k (p - 1)^2 + 1, k the inner dimension
    (5, 15, 8), (5, 16, 16), (101, 6, 16), (101, 7, 32),
    (65521, 1, 32), (65521, 2, 64), (2**31 - 1, 4, 64), (2**31 - 1, 5, None),
]


def _list_and_packed(monkeypatch, fn):
    """fn() with the list path forced, then with the packed path wherever a
    slot fits."""
    monkeypatch.setattr(linalg, "PACKED_RREF_MIN", 10**9)
    monkeypatch.setattr(linalg, "PACKED_MATMUL_MIN", 10**9)
    listed = fn()
    monkeypatch.setattr(linalg, "PACKED_RREF_MIN", 0)
    monkeypatch.setattr(linalg, "PACKED_MATMUL_MIN", 0)
    return listed, fn()


def _referee_matrices(rng, fld, m, n):
    p = fld.p
    yield rand_matrix(rng, fld, m, n)
    k = min(m, n)
    yield rand_matrix(rng, fld, m, k // 2) @ rand_matrix(rng, fld, k // 2, n)  # rank <= k/2
    yield Matrix(fld, [[p - 1] * n for _ in range(m)], n)
    if k:
        # rows e_i + (p - 1) e_last, then rows of ones: each elimination adds
        # (p - 1)^2 to the last slot of every later row
        rows = [[int(j == i) for j in range(n - 1)] + [p - 1] for i in range(k - 1)]
        rows += [[1] * (k - 1) + [0] * (n - k) + [p - 1] for _ in range(m - k + 1)]
        yield Matrix(fld, rows, n)


def _rref_both_paths(monkeypatch, a):
    listed, packed = _list_and_packed(
        monkeypatch, lambda: (rref(a), rref(a, record=False), rank(a))
    )
    assert packed == listed
    r, e, rk = packed[0]
    assert e @ a == r and packed[1] == (r, None, rk) and packed[2] == rk


def test_packed_slot_widths_at_the_edges():
    for p, k, w in RREF_EDGES:
        for m, n in ((k, k + 1), (k + 1, k)):
            slot = linalg._rref_slot(Matrix.zero(PrimeField(p), m, n))
            assert (slot or (None,))[0] == w
    for p, k, w in MATMUL_EDGES:
        assert (linalg._slot(k * (p - 1) ** 2 + 1) or (None,))[0] == w


def test_packed_rref_matches_list_path(monkeypatch):
    rng = random.Random(80)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (3, 6), (6, 3), (8, 8), (9, 12), (12, 9), (16, 17)]
    for p in (2, 3, 5, 101, 65521, 2**31 - 1):
        fld = PrimeField(p)
        for m, n in shapes:
            for a in _referee_matrices(rng, fld, m, n):
                _rref_both_paths(monkeypatch, a)
    for p, k, _ in RREF_EDGES:
        fld = PrimeField(p)
        for m, n in ((k, k + 2), (k + 3, k), (k, k)):
            for a in _referee_matrices(rng, fld, m, n):
                _rref_both_paths(monkeypatch, a)


def test_packed_matmul_matches_list_path(monkeypatch):
    rng = random.Random(81)
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1), (2, 8, 1), (4, 4, 8), (8, 8, 8), (16, 16, 16)]
    cases = [(p, m, k, n) for p in (2, 3, 5, 101, 65521, 2**31 - 1) for m, k, n in shapes]
    cases += [(p, m, k, n) for p, k, _ in MATMUL_EDGES for m, n in ((3, 9), (9, 3))]
    for p, m, k, n in cases:
        fld = PrimeField(p)
        for a in _referee_matrices(rng, fld, m, k):
            for b in _referee_matrices(rng, fld, k, n):
                listed, packed = _list_and_packed(monkeypatch, lambda: a @ b)
                assert packed == listed and packed.shape == (m, n)

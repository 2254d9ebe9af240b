"""Exact dense linear algebra over GF(p).

Matrices are immutable (tuple-of-tuples of ints in [0, p)) with explicit
shape, so degenerate m x 0 / 0 x n shapes round-trip through every
operation; those show up routinely as empty block sums and empty kernels.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from math import isqrt
from operator import mul

from .errors import (
    DimensionMismatchError,
    InadmissibleTransformError,
    NotMonicError,
    SingularMatrixError,
)
from .field import PrimeField
from .poly import Mobius2x2, Poly, add_coeffs


class Matrix:
    __slots__ = ("field", "m", "n", "rows")

    def __init__(self, field: PrimeField, rows, n: int | None = None):
        p = field.p
        rs = tuple(tuple(int(x) % p for x in row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise DimensionMismatchError("ragged rows")
            if n is not None and n != width:
                raise DimensionMismatchError("explicit width disagrees with rows")
            n = width
        elif n is None:
            n = 0
        self.field = field
        self.m = len(rs)
        self.n = n
        self.rows = rs

    @staticmethod
    def _trusted(field: PrimeField, rows: tuple, n: int) -> "Matrix":
        """Internal constructor: rows must already be a tuple of width-n
        tuples of ints in [0, p), so nothing is reduced or checked."""
        mat = object.__new__(Matrix)
        mat.field = field
        mat.m = len(rows)
        mat.n = n
        mat.rows = rows
        return mat

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: PrimeField, m: int, n: int) -> "Matrix":
        return Matrix._trusted(field, ((0,) * n,) * m, n)

    @staticmethod
    def identity(field: PrimeField, n: int) -> "Matrix":
        rows = tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))
        return Matrix._trusted(field, rows, n)

    @staticmethod
    def from_cols(field: PrimeField, cols, m: int | None = None) -> "Matrix":
        cols = [list(c) for c in cols]
        if cols:
            m = len(cols[0])
        elif m is None:
            m = 0
        return Matrix(field, [[c[i] for c in cols] for i in range(m)], len(cols))

    # -- shape / access ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def at(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        rows = tuple(r[c0:c1] for r in self.rows[r0:r1])
        return Matrix._trusted(self.field, rows, len(range(self.n)[c0:c1]))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    # -- arithmetic ---------------------------------------------------------

    def _same_field(self, other: "Matrix"):
        self.field.require_same(other.field)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"add {self.shape} vs {other.shape}")
        return Matrix(
            self.field,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.n,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"sub {self.shape} vs {other.shape}")
        return Matrix(
            self.field,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.n,
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in r] for r in self.rows], self.n)

    def scale(self, c) -> "Matrix":
        c = int(c) % self.field.p
        return Matrix(self.field, [[c * x for x in r] for r in self.rows], self.n)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.n != other.m:
            raise DimensionMismatchError(f"matmul {self.shape} vs {other.shape}")
        p = self.field.p
        # the selection predicate, as in rref: a product slot holds k (p - 1)^2
        if other.n >= PACKED_MATMUL_MIN and (slot := _slot(self.n * (p - 1) ** 2 + 1)):
            return Matrix._trusted(self.field, _matmul_packed(self, other, slot), other.n)
        ot = tuple(zip(*other.rows)) if other.rows else ((),) * other.n
        rows = tuple(
            tuple(sum(map(mul, ra, oc)) % p for oc in ot) for ra in self.rows
        )
        return Matrix._trusted(self.field, rows, other.n)

    def transpose(self) -> "Matrix":
        rows = tuple(zip(*self.rows)) if self.rows else ((),) * self.n
        return Matrix._trusted(self.field, rows, self.m)

    # -- stacking ------------------------------------------------------------

    @staticmethod
    def hstack(blocks: list["Matrix"]) -> "Matrix":
        if not blocks:
            raise DimensionMismatchError("hstack needs at least one block")
        m = blocks[0].m
        field = blocks[0].field
        for b in blocks:
            field.require_same(b.field)
            if b.m != m:
                raise DimensionMismatchError("hstack row counts differ")
        n = sum(b.n for b in blocks)
        rows = tuple(sum((b.rows[i] for b in blocks), ()) for i in range(m))
        return Matrix._trusted(field, rows, n)

    @staticmethod
    def vstack(blocks: list["Matrix"]) -> "Matrix":
        if not blocks:
            raise DimensionMismatchError("vstack needs at least one block")
        n = blocks[0].n
        field = blocks[0].field
        for b in blocks:
            field.require_same(b.field)
            if b.n != n:
                raise DimensionMismatchError("vstack column counts differ")
        rows = sum((b.rows for b in blocks), ())
        return Matrix._trusted(field, rows, n)

    @staticmethod
    def block_diag(field: PrimeField, blocks: list["Matrix"]) -> "Matrix":
        n = sum(b.n for b in blocks)
        rows = []
        ci = 0
        for b in blocks:
            field.require_same(b.field)
            left, right = (0,) * ci, (0,) * (n - ci - b.n)
            rows.extend(left + r + right for r in b.rows)
            ci += b.n
        return Matrix._trusted(field, tuple(rows), n)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.p, self.m, self.n, self.rows))

    def __repr__(self):
        return f"Matrix(GF({self.field.p}), {self.m}x{self.n}, {list(map(list, self.rows))})"


# -- packed rows -------------------------------------------------------------
#
# Above a size where it pays, rref and @ hold each row as one int with every
# entry in a fixed w-bit slot, so a row operation is one big-int multiply-add.
# Slots are reduced mod p only when read, and rows only ever gain nonnegative
# multiples of other rows, so no slot borrows or (with w sized from the bound
# below) carries into the next one.

# (w, array code) of each slot width, narrowest first; the layout needs
# little-endian items, elsewhere only the list path runs
_CODES = {array(c).itemsize: c for c in "QLIHB"}
_SLOTS = tuple((8 * s, _CODES[s]) for s in (1, 2, 4, 8)) if sys.byteorder == "little" else ()
# measured crossovers: the packed path is used from these sizes up
PACKED_RREF_MIN = 8  # min(m, n)
PACKED_MATMUL_MIN = 8  # n, the width of the product


def _slot(bound: int) -> tuple[int, str] | None:
    """(w, array code) of the narrowest slot holding every int in [0, bound),
    or None above 64 bits."""
    for w, code in _SLOTS:
        if bound <= 1 << w:
            return w, code
    return None


def _rref_slot(mat: Matrix) -> tuple[int, str] | None:
    # a slot starts below p, and each of at most min(m, n) eliminations adds
    # at most (p - 1)^2 to it (a pivot row is reduced before it is used)
    p = mat.field.p
    return _slot(p + min(mat.m, mat.n) * (p - 1) ** 2)


def _pack(row, code: str) -> int:
    return int.from_bytes(array(code, row).tobytes(), "little")


def _unpack(v: int, width: int, slot: tuple[int, str]):
    """The `width` slots of v, not reduced."""
    w, code = slot
    return memoryview(v.to_bytes(width * w // 8, "little")).cast(code)


def _eliminate(mat: Matrix, record: bool, slot: tuple[int, str]) -> tuple[list[int], int]:
    """The list path of rref on packed rows: the same pivots, swaps,
    normalizations and eliminations, on rows [mat | E] (only mat without
    the record).  Returns the rows, not reduced, and the rank."""
    field, p, m, n = mat.field, mat.field.p, mat.m, mat.n
    w, code = slot
    mask = (1 << w) - 1
    width = n + m if record else n
    a = [_pack(r, code) for r in mat.rows]
    if record:
        a = [v | 1 << (n + i) * w for i, v in enumerate(a)]
    rank = 0
    for col in range(n):
        sh = col * w
        for piv in range(rank, m):
            if (a[piv] >> sh & mask) % p:
                break
        else:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        vals = _unpack(a[rank], width, slot)
        inv = field.inv(vals[col])
        row = _pack([x * inv % p for x in vals], code)
        a[rank] = row
        for i, v in enumerate(a):
            f = (v >> sh & mask) % p
            if f and i != rank:
                a[i] = v + (p - f) * row
        rank += 1
        if rank == m:
            break
    return a, rank


def _rref_packed(mat: Matrix, record: bool, slot: tuple[int, str]):
    """rref(mat, record) on packed rows."""
    p, m, n = mat.field.p, mat.m, mat.n
    a, rk = _eliminate(mat, record, slot)
    rows = [tuple([x % p for x in _unpack(v, n + m if record else n, slot)]) for v in a]
    r = Matrix._trusted(mat.field, tuple(row[:n] for row in rows) if record else tuple(rows), n)
    if not record:
        return r, None, rk
    return r, Matrix._trusted(mat.field, tuple(row[n:] for row in rows), m), rk


def _matmul_packed(a: Matrix, b: Matrix, slot: tuple[int, str]) -> tuple:
    """Rows of a @ b: each row one sum of products of packed rows of b."""
    p, n = a.field.p, b.n
    packed = [_pack(r, slot[1]) for r in b.rows]
    return tuple(
        tuple([x % p for x in _unpack(sum(map(mul, ra, packed)), n, slot)]) for ra in a.rows
    )


def rref(mat: Matrix, record: bool = True) -> tuple[Matrix, Matrix | None, int]:
    """Reduced row echelon form.

    Returns (R, E, rank) with E invertible and E @ mat == R; R has unit
    pivots with zeros above and below, pivot columns strictly increasing,
    zero rows last.  E is the row-op record (starts as identity); with
    record=False it is not built and None comes back in its place.
    From min(m, n) = PACKED_RREF_MIN up, with slots of at most 64 bits, it
    runs on packed rows with bit-identical results; the list path below
    serves the rest and referees the packed one in the tests.
    """
    if mat.m >= PACKED_RREF_MIN and mat.n >= PACKED_RREF_MIN and (slot := _rref_slot(mat)):
        return _rref_packed(mat, record, slot)
    p = mat.field.p
    field = mat.field
    a = [list(r) for r in mat.rows]
    e = [[1 if i == j else 0 for j in range(mat.m)] for i in range(mat.m)] if record else None
    rank = 0
    for col in range(mat.n):
        piv = None
        for i in range(rank, mat.m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        # rows from `rank` down are zero left of col, so a row operation
        # changes only the span from col to the pivot row's last nonzero
        a[rank], a[piv] = a[piv], a[rank]
        row = a[rank]
        end = mat.n
        while not row[end - 1]:
            end -= 1
        inv = field.inv(row[col])
        if inv != 1:
            row[col:end] = [(x * inv) % p for x in row[col:end]]
        tail = row[col:end]
        if record:
            e[rank], e[piv] = e[piv], e[rank]
            if inv != 1:
                e[rank] = [(x * inv) % p for x in e[rank]]
        for i, ai in enumerate(a):
            f = ai[col]
            if f and i != rank:
                ai[col:end] = [(x - f * y) % p for x, y in zip(ai[col:end], tail)]
                if record:
                    e[i] = [(x - f * y) % p for x, y in zip(e[i], e[rank])]
        rank += 1
        if rank == mat.m:
            break
    r = Matrix._trusted(field, tuple(map(tuple, a)), mat.n)
    if not record:
        return r, None, rank
    return r, Matrix._trusted(field, tuple(map(tuple, e)), mat.m), rank


def rank(mat: Matrix) -> int:
    if mat.m >= PACKED_RREF_MIN and mat.n >= PACKED_RREF_MIN and (slot := _rref_slot(mat)):
        return _eliminate(mat, False, slot)[1]  # no unpacking
    return rref(mat, record=False)[2]


def inverse(mat: Matrix) -> Matrix:
    if mat.m != mat.n:
        raise DimensionMismatchError("only square matrices invert")
    r, e, rk = rref(mat)
    if rk != mat.n:
        raise SingularMatrixError(f"rank {rk} < {mat.n}")
    return e


def is_invertible(mat: Matrix) -> bool:
    return mat.m == mat.n and rank(mat) == mat.n


def kernel_basis(mat: Matrix) -> Matrix:
    """Columns form a basis of the right kernel (n x k, k may be 0)."""
    r, _, rk = rref(mat, record=False)
    pivots = []
    j = 0
    for i in range(rk):
        while r.rows[i][j] == 0:
            j += 1
        pivots.append(j)
        j += 1
    pivot_set = set(pivots)
    free = [j for j in range(mat.n) if j not in pivot_set]
    cols = []
    for f in free:
        v = [0] * mat.n
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -r.rows[i][f] % mat.field.p
        cols.append(tuple(v))
    return Matrix._trusted(mat.field, tuple(cols), mat.n).transpose()


def solve_right(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution X of a @ X == b (free variables zeroed), or None.

    One reduction of [a | b]: a pivot in a column of b means no solution;
    otherwise row i of the b part is the value of the i-th pivot variable.
    """
    a._same_field(b)
    if a.m != b.m:
        raise DimensionMismatchError("solve_right row counts differ")
    r, _, rk = rref(Matrix.hstack([a, b]), record=False)
    x = [(0,) * b.n] * a.n
    j = 0
    for row in r.rows[:rk]:
        while row[j] == 0:
            j += 1
        if j >= a.n:
            return None
        x[j] = row[a.n :]
        j += 1
    return Matrix._trusted(a.field, tuple(x), b.n)


def char_poly(mat: Matrix) -> Poly:
    """Characteristic polynomial det(x*I - M), monic, exact.

    Reduces to upper Hessenberg form by similarity, then expands the
    leading principal characteristic polynomials by recurrence.
    """
    if mat.m != mat.n:
        raise DimensionMismatchError("characteristic polynomial needs a square matrix")
    field = mat.field
    p = field.p
    n = mat.n
    h = [list(r) for r in mat.rows]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
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
    # p_i(x) = (x - h_ii) p_{i-1} - sum_k h_ki (prod subdiag) p_{k-1},
    # on coefficient lists
    polys = [[1]]
    for i in range(1, n + 1):
        prev = polys[i - 1]
        cur = add_coeffs([0] + prev, prev, p, -h[i - 1][i - 1])
        prod = 1
        for k in range(i - 1, 0, -1):
            prod = (prod * h[k][k - 1]) % p
            if not prod:
                break
            coef = (h[k - 1][i - 1] * prod) % p
            if coef:
                cur = add_coeffs(cur, polys[k - 1], p, -coef)
        polys.append(cur)
    return Poly(field, polys[n])


def companion(chi: Poly) -> Matrix:
    """Companion matrix with ones on the subdiagonal and the negated low
    coefficients in the last column; char_poly(companion(chi)) == chi."""
    if not chi.is_monic():
        raise NotMonicError("companion matrix needs a monic polynomial")
    l = chi.degree
    field = chi.field
    out = [[0] * l for _ in range(l)]
    for i in range(l - 1):
        out[i + 1][i] = 1
    for i in range(l):
        out[i][l - 1] = -chi.coeff(i) % field.p
    return Matrix._trusted(field, tuple(map(tuple, out)), l)


def poly_evaluator(mat: Matrix, degree: int):
    """Evaluator of polynomials of degree <= `degree` at the square mat.

    Paterson-Stockmeyer: with s = ceil(sqrt(degree + 1)) the baby steps
    I, M, ..., M^(s-1) are built once, and the giant step G = M^s only when
    degree >= s.  f = sum_k C_k(M) G^k, where each C_k collects s
    coefficients, is then evaluated by Horner's rule in G, each C_k(M) a
    combination of the baby steps on int rows.  Building costs s - 1
    products, and each f costs ceil((deg f + 1) / s) - 1 more.  The returned
    function takes ascending int coefficients and returns a Matrix.
    """
    if mat.m != mat.n:
        raise DimensionMismatchError("polynomial evaluation needs a square matrix")
    field = mat.field
    p = field.p
    n = mat.n
    s = isqrt(max(degree, 0)) + 1
    babies = [Matrix.identity(field, n), mat][:s]
    while len(babies) < s:
        babies.append(babies[-1] @ mat)
    # cells[r * n + c] lists entry (r, c) of every baby step
    cells = list(zip(*(tuple(chain.from_iterable(b.rows)) for b in babies)))
    giant_cols = tuple(zip(*(babies[-1] @ mat).rows)) if degree >= s else None

    def evaluate(coeffs) -> Matrix:
        acc = None
        for k in range(((len(coeffs) - 1) // s) * s, -1, -s):
            chunk = coeffs[k : k + s]
            part = [sum(map(mul, chunk, cell)) for cell in cells]
            if acc is not None:
                it = iter(part)
                part = [sum(map(mul, row, gc)) + next(it) for row in acc for gc in giant_cols]
            acc = tuple(tuple(x % p for x in part[r * n : (r + 1) * n]) for r in range(n))
        if acc is None:
            return Matrix.zero(field, n, n)
        return Matrix._trusted(field, acc, n)

    return evaluate


def poly_at_matrix(f: Poly, mat: Matrix) -> Matrix:
    """Evaluate f at a square matrix (see poly_evaluator)."""
    mat.field.require_same(f.field)
    return poly_evaluator(mat, f.degree)(f.coeffs)


class SpanTracker:
    """Incremental row space with O(n^2) membership tests.

    Stored rows keep distinct pivots and are mutually reduced, so a single
    left-to-right elimination pass decides membership.
    """

    def __init__(self, field: PrimeField, n: int):
        self.field = field
        self.n = n
        self.rows: dict[int, list[int]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residue(self, vec) -> list[int]:
        p = self.field.p
        v = [int(x) % p for x in vec]
        for piv in sorted(self.rows):
            c = v[piv]
            if c:
                row = self.rows[piv]
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self._residue(vec))

    def add(self, vec) -> bool:
        """Insert vec's direction; False if it was already in the span."""
        v = self._residue(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = self.field.inv(v[piv])
        if inv != 1:
            v = [(x * inv) % self.field.p for x in v]
        for q, row in self.rows.items():
            c = row[piv]
            if c:
                self.rows[q] = [(a - c * b) % self.field.p for a, b in zip(row, v)]
        self.rows[piv] = v
        return True


def complete_basis_cols(field: PrimeField, cols: list, dim: int) -> Matrix:
    """A dim x dim invertible matrix whose leading columns are the given
    independent vectors, padded greedily with unit vectors."""
    p = field.p
    tracker = SpanTracker(field, dim)
    basis = []
    for c in cols:
        c = [int(x) % p for x in c]
        if not tracker.add(c):
            raise SingularMatrixError("completion given dependent columns")
        basis.append(c)
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        if tracker.add(e):
            basis.append(e)
    assert len(basis) == dim
    return Matrix._trusted(field, tuple(zip(*basis)), dim)


def mobius_charpoly_check(chi: Poly, t: Mobius2x2) -> Poly:
    """Independent route to the slice-mix image of chi.

    Builds the companion pair (I, Phi), mixes the slices with t, renormalizes
    the first slice, and reads off the characteristic polynomial of the
    second.  Must agree with the direct substitution for every admissible t.
    """
    chi.field.require_same(t.field)
    phi = companion(chi)
    field = chi.field
    ident = Matrix.identity(field, chi.degree)
    a, b, c, d = t.as_ints()
    first = ident.scale(a) + phi.scale(b)
    try:
        first_inv = inverse(first)
    except SingularMatrixError:
        raise InadmissibleTransformError(
            "slice mix sends this block off to a singular first slice"
        ) from None
    second = ident.scale(c) + phi.scale(d)
    return char_poly(second @ first_inv)

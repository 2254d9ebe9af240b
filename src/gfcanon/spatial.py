"""m x n x q spatial matrices over GF(p) and their equivalence machinery.

The group GL_m x GL_n x GL_q acts by

    b[i'][j'][k'] = sum_{i,j,k} a[i][j][k] * r[i][i'] * s[j][j'] * t[k][k']

and a TransformWitness stores the acting triple (R, S, T).  For two-slice
tensors the orbit is decided exactly: reduce the slice pencil to its block
form, clear the degenerate blocks with a slice mix (possible over any field
large enough, and detected honestly when it is not), then minimize the
finite divisor tuple over the full fractional-linear orbit.  The result is
a CanonicalSum label: equal labels if and only if equivalent tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import mul

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FieldTooLargeForSearchError,
    FieldTooSmallError,
    NotRegularError,
    ParseError,
    SingularMatrixError,
    UnsupportedShapeError,
    WitnessError,
    WrongSliceCountError,
    require_ints,
)
from .field import PrimeField
from .linalg import Matrix, inverse, is_invertible, rank, rref
from .pencil import KroneckerForm, frobenius_form, kronecker_form, parse_divisors, parse_indices
from .poly import Mobius2x2, Poly, mobius_image, mobius_transform


class SpatialMatrix:
    """Immutable m x n x q array over GF(p), stored as q slices of m x n."""

    __slots__ = ("fld", "m", "n", "q", "slices")

    def __init__(self, fld: PrimeField, slices, m: int | None = None, n: int | None = None):
        sl = tuple(
            s if isinstance(s, Matrix) else Matrix(fld, s, n) for s in slices
        )
        for s in sl:
            fld.require_same(s.field)
        if sl:
            m, n = sl[0].shape
            if any(s.shape != (m, n) for s in sl):
                raise DimensionMismatchError("slices must share one shape")
        else:
            m = m or 0
            n = n or 0
        self.fld = fld
        self.m = m
        self.n = n
        self.q = len(sl)
        self.slices = sl

    @staticmethod
    def zero(fld: PrimeField, m: int, n: int, q: int) -> "SpatialMatrix":
        return SpatialMatrix(fld, [Matrix.zero(fld, m, n) for _ in range(q)], m, n)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.q)

    def at(self, i: int, j: int, k: int) -> int:
        return self.slices[k].at(i, j)

    def to_dict(self) -> dict:
        return {
            "p": self.fld.p,
            "dims": [self.m, self.n, self.q],
            "slices": [[list(row) for row in s.rows] for s in self.slices],
        }

    @staticmethod
    def from_dict(d: dict) -> "SpatialMatrix":
        try:
            fld = PrimeField(d["p"])
            m, n, q = require_ints(d["dims"], "dims")
            if min(m, n, q) < 0:
                raise ParseError(f"dims must be non-negative, got {[m, n, q]}")
            raw = d["slices"]
            if len(raw) != q:
                raise ParseError(f"expected {q} slices, got {len(raw)}")
            slices = []
            for s in raw:
                if len(s) != m or any(len(row) != n for row in s):
                    raise ParseError("slice shape disagrees with dims")
                require_ints(chain.from_iterable(s), "entries")
                slices.append(Matrix(fld, s, n))
            return SpatialMatrix(fld, slices, m, n)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed spatial matrix: {exc}") from exc

    def __eq__(self, other):
        if not isinstance(other, SpatialMatrix):
            return NotImplemented
        return (
            self.fld.p == other.fld.p
            and self.dims == other.dims
            and self.slices == other.slices
        )

    def __hash__(self):
        return hash((self.fld.p, self.dims, self.slices))

    def __repr__(self):
        return f"SpatialMatrix(GF({self.fld.p}), {self.m}x{self.n}x{self.q})"


@dataclass(frozen=True)
class TransformWitness:
    """An element (R, S, T) of GL_m x GL_n x GL_q."""

    r: Matrix
    s: Matrix
    t: Matrix

    def __post_init__(self):
        self.r.field.require_same(self.s.field)
        self.r.field.require_same(self.t.field)
        for mat in (self.r, self.s, self.t):
            if not is_invertible(mat):
                raise SingularMatrixError("witness factors must be invertible")

    @staticmethod
    def identity(fld: PrimeField, m: int, n: int, q: int) -> "TransformWitness":
        return TransformWitness(
            Matrix.identity(fld, m), Matrix.identity(fld, n), Matrix.identity(fld, q)
        )

    def compose(self, other: "TransformWitness") -> "TransformWitness":
        """Witness of 'apply self, then other'."""
        return TransformWitness(
            self.r @ other.r, self.s @ other.s, self.t @ other.t
        )

    def inverse(self) -> "TransformWitness":
        return TransformWitness(inverse(self.r), inverse(self.s), inverse(self.t))

    def to_dict(self) -> dict:
        return {
            "p": self.r.field.p,
            "R": [list(row) for row in self.r.rows],
            "S": [list(row) for row in self.s.rows],
            "T": [list(row) for row in self.t.rows],
        }

    @staticmethod
    def from_dict(d: dict) -> "TransformWitness":
        try:
            fld = PrimeField(d["p"])
            factors = [d[key] for key in "RST"]
            for rows in factors:
                require_ints(chain.from_iterable(rows), "witness entries")
            return TransformWitness(*(Matrix(fld, rows) for rows in factors))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed witness: {exc}") from exc


def apply_transform(a: SpatialMatrix, w: TransformWitness) -> SpatialMatrix:
    """The contraction sum a[i][j][k] r[i][i'] s[j][j'] t[k][k'], by factors:
    mix the slices by T, then R^T M S on int rows.  O(q^2 mn + q(m^2 n + mn^2))
    where the literal sum costs O(q^2 m^2 n^2)."""
    a.fld.require_same(w.r.field)
    if (w.r.m, w.s.m, w.t.m) != a.dims:
        raise DimensionMismatchError(
            f"witness sized {(w.r.m, w.s.m, w.t.m)} against tensor {a.dims}"
        )
    p = a.fld.p
    m, n, q = a.dims
    s_cols = w.s.transpose().rows
    r_cols = w.r.transpose().rows
    # cells[i][j] lists entry (i, j) of every slice
    cells = [list(zip(*(sl.rows[i] for sl in a.slices))) for i in range(m)]
    out = []
    for t_col in w.t.transpose().rows:
        # slice k' is R^T M S with M = sum_k t[k][k'] a_k
        mixed = [[sum(map(mul, t_col, cell)) for cell in row] for row in cells]
        ms_cols = tuple(zip(*([sum(map(mul, row, c)) % p for c in s_cols] for row in mixed)))
        rows = tuple(tuple(sum(map(mul, r_col, c)) % p for c in ms_cols) for r_col in r_cols)
        out.append(Matrix._trusted(a.fld, rows, n))
    return SpatialMatrix(a.fld, out, m, n)


# (R, S, T) of an intermediate witness: invertible by construction, so not ranked
Factors = tuple[Matrix, Matrix, Matrix]


def _verify(a: SpatialMatrix, w: TransformWitness, target: SpatialMatrix, stage: str):
    """Raise WitnessError unless w carries a onto target (python -O keeps this)."""
    if apply_transform(a, w) != target:
        raise WitnessError(f"{stage} witness failed to verify")


def two_step_realize(a: SpatialMatrix, w: TransformWitness) -> SpatialMatrix:
    """Same action, computed as matrix products then a slice mix.

    Kept separate from apply_transform on purpose: the two routes
    cross-check each other.
    """
    a.fld.require_same(w.r.field)
    if (w.r.m, w.s.m, w.t.m) != a.dims:
        raise DimensionMismatchError("witness does not fit tensor")
    rt = w.r.transpose()
    mid = [rt @ s @ w.s for s in a.slices]
    out = []
    for k2 in range(a.q):
        acc = Matrix.zero(a.fld, a.m, a.n)
        for k in range(a.q):
            c = w.t.at(k, k2)
            if c:
                acc = acc + mid[k].scale(c)
        out.append(acc)
    return SpatialMatrix(a.fld, out, a.m, a.n)


# -- canonical two-slice label --------------------------------------------------


@dataclass(frozen=True)
class CanonicalSum:
    """Block label of an m x n x 2 tensor: right and left minimal indices
    plus the finite divisor tuple (never any degenerate block)."""

    fld: PrimeField
    right: tuple[int, ...]
    left: tuple[int, ...]
    finite: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "right", tuple(sorted(self.right)))
        object.__setattr__(self, "left", tuple(sorted(self.left)))
        object.__setattr__(
            self, "finite", tuple(sorted(self.finite, key=lambda f: f.sort_key()))
        )

    def sort_key(self):
        return (
            self.right,
            self.left,
            tuple(f.sort_key() for f in self.finite),
        )

    def kronecker(self) -> KroneckerForm:
        return KroneckerForm(self.fld, self.right, self.left, (), self.finite)

    def tensor(self) -> SpatialMatrix:
        b1, b2 = self.kronecker().matrices()
        return SpatialMatrix(self.fld, [b1, b2], b1.m, b1.n)

    @property
    def dims(self) -> tuple[int, int, int]:
        m, n = self.kronecker().shape
        return (m, n, 2)

    def to_dict(self) -> dict:
        return {
            "p": self.fld.p,
            "right": list(self.right),
            "left": list(self.left),
            "finite": [list(f.coeffs) for f in self.finite],
        }

    @staticmethod
    def from_dict(d: dict) -> "CanonicalSum":
        try:
            fld = PrimeField(d["p"])
            return CanonicalSum(
                fld,
                parse_indices(d.get("right", ()), "right indices"),
                parse_indices(d.get("left", ()), "left indices"),
                parse_divisors(fld, d.get("finite", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed canonical sum: {exc}") from exc


def _t_matrix(t: Mobius2x2) -> Matrix:
    a, b, c, d = t.as_ints()
    return Matrix(t.field, [[a, c], [b, d]], 2)


def theorem1_form(a: SpatialMatrix) -> tuple[CanonicalSum, TransformWitness]:
    """Two-slice block form with no degenerate part, plus its witness.

    Reduces the slice pencil; if degenerate blocks appear, hunts for a slice
    mix that clears them: the swap handles divisor tuples with no power of
    x, otherwise a shear [[1,0],[b,1]] with chi(-1/b) != 0 for every finite
    divisor chi.  Those mixes cover every direction of the projective line,
    so when none works no invertible mix exists at all and FieldTooSmallError
    reports the blocking form.
    """
    cs, factors = _theorem1(a)
    w = TransformWitness(*factors)
    _verify(a, w, cs.tensor(), "theorem-1")
    return cs, w


def _theorem1(a: SpatialMatrix) -> tuple[CanonicalSum, Factors]:
    """theorem1_form without the final witness check: the form and the
    witness factors, for callers that check the witness they return."""
    if a.q != 2:
        raise WrongSliceCountError(f"needs exactly 2 slices, got {a.q}")
    fld = a.fld
    form0, pw0 = kronecker_form(a.slices[0], a.slices[1])
    if not form0.inf:
        return CanonicalSum(fld, form0.right, form0.left, form0.finite), (
            pw0.r, pw0.s, Matrix.identity(fld, 2))

    if all(f.coeff(0) != 0 for f in form0.finite):
        # no divisor vanishes at 0, so swapping the slices keeps everything finite
        mix = Mobius2x2.from_ints(fld, 0, 1, 1, 0)
    else:
        mix = None
        for b in range(1, fld.p):
            pt = fld.neg(fld.inv(b))
            if all(f.evaluate(pt) != 0 for f in form0.finite):
                mix = Mobius2x2.from_ints(fld, 1, b, 0, 1)
                break
        if mix is None:
            raise FieldTooSmallError(
                f"no invertible slice mix over GF({fld.p}) clears the degenerate blocks",
                blocks=form0,
            )

    c1, c2 = form0.matrices()
    ai, bi, ci, di = mix.as_ints()
    m1 = c1.scale(ai) + c2.scale(bi)
    m2 = c1.scale(ci) + c2.scale(di)
    form1, pw1 = kronecker_form(m1, m2)
    assert not form1.inf, "chosen mix must clear every degenerate block"
    assert form1.right == form0.right and form1.left == form0.left
    cs = CanonicalSum(fld, form1.right, form1.left, form1.finite)
    # reduce, mix the slices, reduce again: one witness from the products
    return cs, (pw0.r @ pw1.r, pw0.s @ pw1.s, _t_matrix(mix))


def pgl2_reps(fld: PrimeField) -> tuple[tuple[int, int, int, int], ...]:
    """The p^3 - p invertible slice mixes up to scalar, first nonzero
    coordinate normalized to 1, in lexicographic order."""
    p = fld.p
    return tuple(chain(
        ((0, 1, c, d) for c in range(1, p) for d in range(p)),
        ((1, b, c, d) for b in range(p) for c in range(p) for d in range(p) if (d - b * c) % p),
    ))


# candidate mixes one orbit scan may try; the largest scan any test or
# benchmark workload runs is the full one at p = 101, 1,030,200 mixes
ORBIT_SCAN_BUDGET = 10**7


def _anchors(finite: tuple[Poly, ...]) -> set[int]:
    """The roots r of the least-degree divisors equal to (x - r)**l.

    With q the largest power of p dividing l, (x - r)**l = (x**q - r)**(l/q),
    whose x**(l - q) coefficient is -(l/q) r: one coefficient gives r, and
    one power confirms it."""
    fld, l = finite[0].field, finite[0].degree  # finite is sorted by degree
    p = fld.p
    q = 1
    while l % (q * p) == 0:
        q *= p
    out = set()
    for f in finite:
        if f.degree == l:
            r = -f.coeff(l - q) * fld.inv(l // q) % p
            if Poly(fld, (-r, 1)) ** l == f:
                out.add(r)
    return out


def _base_mixes(anchors: set[int], p: int):
    """One base mix (a, b, c0, d0) per line {(a, b, l c0, l d0) : l != 0} of
    the candidate mixes, lazily, in pgl2_reps order of (a, b).

    With anchors, the line of (a, b, -r, 1) holds the p - 1 mixes sending the
    anchor r to 0 (when b*r + a != 0; see _anchors).  Without, the lines of
    (a, b, 0, 1) and (a, b, 1, d) hold every invertible mix."""
    lines = [(0, 1)] + [(1, d) for d in range(p)]
    for a, b in chain([(0, 1)], ((1, b) for b in range(p))):
        if anchors:
            yield from ((a, b, -r % p, 1) for r in sorted(anchors) if (b * r + a) % p)
        else:
            yield from ((a, b, c0, d0) for c0, d0 in lines if (a * d0 - b * c0) % p)


def _image_keys(group, quad, p: int, known=None) -> list[tuple[int, ...]] | None:
    """Sorted Poly.sort_key tails of the images of one degree group (ascending
    coefficients) under quad; None if quad is inadmissible for one of them.
    A divisor with the coefficients `known` is taken to x**l, key all zeros."""
    keys = []
    for coeffs in group:
        if coeffs == known:
            keys.append((0,) * (len(coeffs) - 1))
            continue
        eta = mobius_image(coeffs, *quad, p)
        if eta is None:
            return None
        keys.append(tuple(-x % p for x in reversed(eta[:-1])))
    return sorted(keys)


def _least_scaling(key, lams, pw, p: int):
    """The scalings l in lams whose scaled key (entry i times l**(i + 1),
    pw[i][l]) is least, filtered entry by entry, and that key."""
    for i, k in enumerate(key):
        if k and len(lams) > 1:
            if i == 0 and len(lams) == p - 1:
                lams = [pow(k, -1, p)]  # k*l runs over all of GF(p)*: least is 1
            else:
                vals = [k * pw[i][lam] % p for lam in lams]
                low = min(vals)
                lams = [lam for lam, v in zip(lams, vals) if v == low]
    return lams, tuple(k * pw[i][lams[0]] % p for i, k in enumerate(key))


def _least_group(keys, lams, pw, p: int):
    """The scalings in lams whose scaled, sorted group keys are least, and
    those keys.  An all-zero key (the anchor divisor's) stays zero under every
    scaling and sorts first, so it is set aside; of the rest, the least first
    key comes from some divisor's own least scalings, so only their union is
    sorted in full."""
    zero = [key for key in keys if not any(key)]
    keys = [key for key in keys if any(key)]
    if not keys:
        return lams, zero
    least = [_least_scaling(key, lams, pw, p) for key in keys]
    low = min(key for _, key in least)
    if len(keys) == 1:
        return least[0][0], zero + [low]
    lams = sorted({lam for ls, key in least if key == low for lam in ls})
    scaled = [sorted(tuple(k * pw[i][lam] % p for i, k in enumerate(key)) for key in keys)
              for lam in lams]
    low = min(scaled)
    return [lam for lam, s in zip(lams, scaled) if s == low], zero + low


def mobius_orbit_minimize(cs: CanonicalSum) -> tuple[CanonicalSum, Mobius2x2]:
    """Least label in the slice-mix orbit of cs and the mix reaching it: the
    identity when cs is least, else the first such mix in pgl2_reps order.

    Mixes keep divisor degrees; inadmissible ones (driving one down) are
    skipped.  With anchors (see _anchors) the least label starts with
    x**l, reached only by mixes sending an anchor to 0 (the translation
    x -> x - r is one): k p (p - 1) candidates for k anchors, all p^3 - p
    with none.  They are scanned a line at a time (see _base_mixes): scaling
    (c, d) by l scales every image root by l, so key entry i by l**(i + 1),
    and admissibility depends on (a, b) alone.  So one substitution per
    divisor and line serves all p - 1 mixes on it, and none for the anchor
    divisor, whose image is x**l: O(k p) substitutions with anchors, O(p^2)
    without.  A line is dropped as soon as the degree groups seen so far sort
    above the best label's.  Minimizing is idempotent because the
    admissible-mix relation between labels is symmetric and transitive.
    """
    fld, p = cs.fld, cs.fld.p
    if not cs.finite:
        return cs, Mobius2x2.from_ints(fld, 1, 0, 0, 1)
    groups = [[f.coeffs for f in g] for _, g in groupby(cs.finite, key=lambda f: f.degree)]
    best = [_image_keys(g, (1, 0, 0, 1), p) for g in groups]
    best_quad = None
    anchors = _anchors(cs.finite)
    count = len(anchors) * p * (p - 1) if anchors else p**3 - p
    if count > ORBIT_SCAN_BUDGET:
        raise BudgetExceededError(
            f"orbit minimization would scan {count} slice mixes, over the budget of {ORBIT_SCAN_BUDGET}"
        )
    pw = [[pow(lam, i, p) for lam in range(p)] for i in range(1, cs.finite[-1].degree + 1)]
    # the base (a, b, -r, 1) takes the anchor divisor (x - r)**l to x**l
    l = cs.finite[0].degree
    anchor_coeffs = {r: (Poly(fld, (-r, 1)) ** l).coeffs for r in anchors}
    blocked = None
    for a, b, c0, d0 in _base_mixes(anchors, p):
        if (a, b) == blocked:
            continue
        lams, cand = range(1, p), []
        known = anchor_coeffs.get(-c0 % p)
        for g in groups:
            keys = _image_keys(g, (a, b, c0, d0), p, known)
            if keys is None:
                blocked = (a, b)
                break
            lams, low = _least_group(keys, lams, pw, p)
            cand.append(low)
            if cand > best[: len(cand)]:
                break
        else:
            quad = min((a, b, lam * c0 % p, lam * d0 % p) for lam in lams)
            if cand < best or (cand == best and best_quad and quad < best_quad):
                best, best_quad = cand, quad
    if best_quad is None:
        return cs, Mobius2x2.from_ints(fld, 1, 0, 0, 1)
    t = Mobius2x2.from_ints(fld, *best_quad)
    return CanonicalSum(fld, cs.right, cs.left, tuple(mobius_transform(f, t) for f in cs.finite)), t


def _mix_restore(
    cs: CanonicalSum, t: Mobius2x2, target: CanonicalSum
) -> tuple[Matrix, Matrix]:
    """R and S of the witness taking cs.tensor() through the mix t onto
    target.tensor() (its T is the identity).

    The mix respects the block split, so each block is restored to its own
    canonical shape independently, then the finite blocks are permuted into
    the target order.
    """
    fld = cs.fld
    ai, bi, ci, di = t.as_ints()
    r_blocks: list[Matrix] = []
    s_blocks: list[Matrix] = []
    new_finite: list[Poly] = []
    for blk in cs.kronecker().blocks():
        b1, b2 = blk.pair()
        m1 = b1.scale(ai) + b2.scale(bi)
        m2 = b1.scale(ci) + b2.scale(di)
        if blk.kind in ("right", "left"):
            sub_form, sub_w = kronecker_form(m1, m2)
            expect = KroneckerForm(
                fld,
                (blk.index,) if blk.kind == "right" else (),
                (blk.index,) if blk.kind == "left" else (),
                (),
                (),
            )
            assert sub_form == expect, "mix must preserve a singular block"
            r_blocks.append(sub_w.r)
            s_blocks.append(sub_w.s)
        else:
            lead_inv = inverse(m1)  # admissible mix: a*I + b*Phi invertible
            mixed = lead_inv @ m2
            divisors, pbasis = frobenius_form(mixed)
            eta = mobius_transform(blk.divisor, t)
            assert divisors == [eta], "prime power must stay a single block"
            x = inverse(pbasis) @ lead_inv
            r_blocks.append(x.transpose())
            s_blocks.append(pbasis)
            new_finite.append(eta)
    r_fix = Matrix.block_diag(fld, r_blocks)
    s_fix = Matrix.block_diag(fld, s_blocks)

    # put the finite blocks into canonical order by reindexing the columns
    order = sorted(range(len(new_finite)), key=lambda i: new_finite[i].sort_key())
    assert tuple(new_finite[i] for i in order) == target.finite
    assert cs.right == target.right and cs.left == target.left
    row_base = sum(r - 1 for r in cs.right) + sum(cs.left)
    col_base = sum(cs.right) + sum(s - 1 for s in cs.left)
    starts = [0]
    for f in new_finite:
        starts.append(starts[-1] + f.degree)
    src = [starts[i] + k for i in order for k in range(new_finite[i].degree)]
    r_src = list(range(row_base)) + [row_base + k for k in src]
    s_src = list(range(col_base)) + [col_base + k for k in src]
    return (
        Matrix._trusted(fld, tuple(tuple(row[k] for k in r_src) for row in r_fix.rows), r_fix.n),
        Matrix._trusted(fld, tuple(tuple(row[k] for k in s_src) for row in s_fix.rows), s_fix.n),
    )


def canonical_label(a: SpatialMatrix) -> tuple[CanonicalSum, TransformWitness]:
    """Complete invariant for two-slice tensors, with a realizing witness.

    Two m x n x 2 tensors are equivalent exactly when their labels are
    equal, and apply_transform(a, witness) reproduces label.tensor().
    """
    cs, factors, stage = _canonical_label(a)
    w = TransformWitness(*factors)
    _verify(a, w, cs.tensor(), stage)
    return cs, w


def _canonical_label(a: SpatialMatrix) -> tuple[CanonicalSum, Factors, str]:
    """canonical_label without the witness check: the label, its witness
    factors and the name of the stage that built them."""
    cs0, (r0, s0, t0) = _theorem1(a)
    csm, t = mobius_orbit_minimize(cs0)
    if t.as_ints() == (1, 0, 0, 1):
        assert csm == cs0
        return cs0, (r0, s0, t0), "theorem-1"
    # the theorem-1 witness, then the slice mix t, then the block fix-up
    fix_r, fix_s = _mix_restore(cs0, t, csm)
    return csm, (r0 @ fix_r, s0 @ fix_s, t0 @ _t_matrix(t)), "canonicalization"


# -- regular part ----------------------------------------------------------------


def _unfold(a: SpatialMatrix, axis: int) -> Matrix:
    """Stack unfolding on int rows: one row per row (axis 0), column (1) or
    slice (2) of a, its entries running over the other two indices in order,
    the slice index last."""
    m, n, q = a.dims
    if axis == 2:
        rows = tuple(tuple(chain.from_iterable(s.rows)) for s in a.slices)
        return Matrix._trusted(a.fld, rows, m * n)
    sl = [s.rows if axis == 0 else s.transpose().rows for s in a.slices]
    count, width = (m, n) if axis == 0 else (n, m)
    rows = tuple(
        tuple(chain.from_iterable(zip(*(s[i] for s in sl)))) for i in range(count)
    )
    return Matrix._trusted(a.fld, rows, width * q)


def _family_ranks(a: SpatialMatrix) -> tuple[int, int, int]:
    """(row-stack, column-stack, slice-stack) ranks: the three numbers that
    must equal (m, n, q) for a regular tensor."""
    return tuple(rank(_unfold(a, axis)) for axis in range(3))


def is_regular(a: SpatialMatrix) -> bool:
    return _family_ranks(a) == a.dims


def regular_part(a: SpatialMatrix) -> tuple[SpatialMatrix, TransformWitness]:
    """Cut a tensor down to its regular corner.

    Three successive stack reductions (slice axis, then columns, then rows)
    move all content into a leading m' x n' x q' corner that is regular;
    the returned witness maps the input onto the zero-padded corner.
    """
    corner, factors, padded = _regular_part(a)
    w = TransformWitness(*factors)
    _verify(a, w, padded, "regular_part")
    m, n, q = a.dims
    m2, n2, q2 = corner.dims
    for k in range(q2, q):
        assert padded.slices[k].is_zero()
    for k in range(q2):
        assert padded.slices[k].submatrix(m2, m, 0, n).is_zero()
        assert padded.slices[k].submatrix(0, m2, n2, n).is_zero()
    assert is_regular(corner), "reduced corner must be regular"
    return corner, w


def _regular_part(a: SpatialMatrix) -> tuple[SpatialMatrix, Factors, SpatialMatrix]:
    """regular_part without the witness check: the corner, the witness
    factors (rref row-operation records) and the zero-padded corner that
    the witness reaches."""
    fld = a.fld
    m, n, q = a.dims
    mixed, e_t, q2 = rref(_unfold(a, 2))
    # rref's reduced matrix is E_T times the unfolding: its rows are the mixed slices
    slices = [tuple(r[i * n : (i + 1) * n] for i in range(m)) for r in mixed.rows]
    cur = SpatialMatrix(fld, [Matrix._trusted(fld, rows, n) for rows in slices], m, n)
    _, e_s, n2 = rref(_unfold(cur, 1))
    s_mat = e_s.transpose()
    cur = SpatialMatrix(fld, [c @ s_mat for c in cur.slices], m, n)
    _, e_r, m2 = rref(_unfold(cur, 0))
    padded = SpatialMatrix(fld, [e_r @ c for c in cur.slices], m, n)
    corner = SpatialMatrix(
        fld, [c.submatrix(0, m2, 0, n2) for c in padded.slices[:q2]], m2, n2
    )
    return corner, (e_r.transpose(), s_mat, e_t.transpose()), padded


def _pad(mat: Matrix, d: int) -> Matrix:
    """A corner factor extended by the identity on the padding, to d x d."""
    return Matrix.block_diag(mat.field, [mat, Matrix.identity(mat.field, d - mat.m)])


# -- classification of small regular tensors ------------------------------------


@dataclass(frozen=True)
class RegularClass22:
    """A class of the regular catalog for n <= 2, q <= 2.

    kind is one of C1x1x1, C2x2x1, C2x1x2, C1x2x2, A, B, C3x2x2_s2,
    C3x2x2_s3, C4x2x2; families A and B carry the parameter v.
    """

    kind: str
    fld: PrimeField
    param: int | None = None

    def representative(self) -> SpatialMatrix:
        f = self.fld
        if self.kind == "C1x1x1":
            return SpatialMatrix(f, [[[1]]])
        if self.kind == "C2x2x1":
            return SpatialMatrix(f, [Matrix.identity(f, 2)])
        if self.kind == "C2x1x2":
            return SpatialMatrix(f, [[[1], [0]], [[0], [1]]])
        if self.kind == "C1x2x2":
            return SpatialMatrix(f, [[[1, 0]], [[0, 1]]])
        if self.kind == "A":
            return SpatialMatrix(
                f, [Matrix.identity(f, 2), Matrix(f, [[0, self.param], [1, 0]])]
            )
        if self.kind == "B":
            return SpatialMatrix(
                f, [Matrix.identity(f, 2), Matrix(f, [[0, self.param], [1, 1]])]
            )
        if self.kind == "C3x2x2_s2":
            return SpatialMatrix(
                f,
                [[[1, 0], [0, 1], [0, 0]], [[0, 0], [0, 0], [0, 1]]],
            )
        if self.kind == "C3x2x2_s3":
            return SpatialMatrix(
                f,
                [[[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]]],
            )
        if self.kind == "C4x2x2":
            return SpatialMatrix(
                f,
                [
                    [[1, 0], [0, 1], [0, 0], [0, 0]],
                    [[0, 0], [0, 0], [1, 0], [0, 1]],
                ],
            )
        raise ValueError(f"unknown class kind {self.kind!r}")

    def to_dict(self) -> dict:
        d = {"label": self.kind, "p": self.fld.p}
        if self.param is not None:
            d["v"] = self.param
        return d


def theorem2_catalog(fld: PrimeField) -> list[RegularClass22]:
    """All classes of regular m x n x q tensors with n <= 2, q <= 2.

    A regular 2 x 2 x 2 class is fixed by the root pattern of its divisor,
    since slice mixes act on the roots by PGL_2, which is 3-transitive on
    P^1(GF(p)) and transitive on P^1(GF(p^2)) minus P^1(GF(p)): a double
    root, two roots in GF(p), or two conjugate roots.  For odd p, x^2 - v
    has them at v = 0, 1 and the least non-residue n0 (Euler's criterion),
    so the A family holds them all; over GF(2), x^2 - 1 = (x + 1)^2 and the
    B family's x^2 - x and x^2 - x - 1 take the last two.  Nothing is
    labelled here.
    """
    p = fld.p
    if p == 2:
        pencils = [("A", 0), ("B", 0), ("B", 1)]
    else:
        n0 = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
        pencils = [("A", 0), ("A", 1), ("A", n0)]
    return (
        [RegularClass22(kind, fld) for kind in ("C1x1x1", "C2x2x1", "C2x1x2", "C1x2x2")]
        + [RegularClass22(kind, fld, v) for kind, v in pencils]
        + [RegularClass22(kind, fld) for kind in ("C3x2x2_s2", "C3x2x2_s3", "C4x2x2")]
    )


# the canonical label and inverted witness factors (R^-1, S^-1, T^-1) of
# each catalog representative labelled so far
_REP_LABELS: dict[RegularClass22, tuple[CanonicalSum, Factors]] = {}


def classify_regular(a: SpatialMatrix) -> tuple[RegularClass22, TransformWitness]:
    """Match a regular tensor (n <= 2, q <= 2) against the catalog.

    Returns the class and a witness carrying the input onto the class
    representative.
    """
    fld = a.fld
    m, n, q = a.dims
    if m == 0 or n == 0 or q == 0:
        raise UnsupportedShapeError("empty tensors have no catalog class")
    if n > 2 or q > 2:
        raise UnsupportedShapeError(f"catalog covers n <= 2 and q <= 2, got {a.dims}")
    ranks = _family_ranks(a)
    if ranks != a.dims:
        raise NotRegularError(f"tensor is not regular: stack ranks {ranks}", ranks)

    if (m, n, q) == (1, 1, 1):
        cls = RegularClass22("C1x1x1", fld)
        w = TransformWitness(
            Matrix(fld, [[fld.inv(a.at(0, 0, 0))]]),
            Matrix.identity(fld, 1),
            Matrix.identity(fld, 1),
        )
        _verify(a, w, cls.representative(), "classification")
        return cls, w
    if q == 1:
        # regularity forces m == n == 2 with an invertible slice
        assert (m, n) == (2, 2)
        cls = RegularClass22("C2x2x1", fld)
        w = TransformWitness(
            Matrix.identity(fld, 2), inverse(a.slices[0]), Matrix.identity(fld, 1)
        )
        _verify(a, w, cls.representative(), "classification")
        return cls, w

    label, fa, _ = _canonical_label(a)
    for cls in theorem2_catalog(fld):
        rep = cls.representative()
        if rep.dims != a.dims:
            continue
        if cls not in _REP_LABELS:
            rep_label, f_rep, _ = _canonical_label(rep)
            _REP_LABELS[cls] = rep_label, tuple(inverse(x) for x in f_rep)
        rep_label, inverses = _REP_LABELS[cls]
        if rep_label == label:
            # a -> label tensor <- rep, checked once as one witness
            w = TransformWitness(*(x @ y for x, y in zip(fa, inverses)))
            _verify(a, w, rep, "classification")
            return cls, w
    raise AssertionError("catalog must cover every regular tensor of these shapes")


# -- full equivalence decision ---------------------------------------------------


def equivalent(
    a: SpatialMatrix, b: SpatialMatrix
) -> tuple[bool, TransformWitness | None]:
    """Decide equivalence of two tensors of one shape, with witness.

    Reduces both to regular corners; unequal corner shapes end it.  A
    two-slice corner is compared by canonical label; smaller slice counts
    reduce to the identity corner directly.  On success the returned witness
    w satisfies apply_transform(a, w) == b, verified before returning; its
    parts are not checked on their own.  A "not equivalent" answer checks
    the two regular-part witnesses, and the two label witnesses when the
    labels decide it.
    """
    a.fld.require_same(b.fld)
    if a.dims != b.dims:
        raise DimensionMismatchError(f"tensors sized {a.dims} vs {b.dims}")
    fld = a.fld
    ca, fa, pa = _regular_part(a)
    cb, fb, pb = _regular_part(b)
    if ca.dims != cb.dims:
        _verify(a, TransformWitness(*fa), pa, "regular_part")
        _verify(b, TransformWitness(*fb), pb, "regular_part")
        return False, None
    q2 = ca.dims[2]
    if q2 > 2:
        raise UnsupportedShapeError(
            f"equivalence beyond two regular slices is unsupported (q' = {q2})"
        )

    # (R, S, T) factors carrying each corner onto a common normal form
    if q2 == 0:
        ka = kb = (Matrix.identity(fld, 0),) * 3
    elif q2 == 1:
        # regular single-slice corner: square with invertible slice
        ka, kb = (
            (Matrix.identity(fld, c.m), inverse(c.slices[0]), Matrix.identity(fld, 1))
            for c in (ca, cb)
        )
    else:
        la, ka, stage_a = _canonical_label(ca)
        lb, kb, stage_b = _canonical_label(cb)
        if la != lb:
            _verify(a, TransformWitness(*fa), pa, "regular_part")
            _verify(b, TransformWitness(*fb), pb, "regular_part")
            _verify(ca, TransformWitness(*ka), la.tensor(), stage_a)
            _verify(cb, TransformWitness(*kb), lb.tensor(), stage_b)
            return False, None

    # a -> padded corner -> normal form <- padded corner <- b, as products
    w = TransformWitness(
        *(
            xa @ _pad(ya, d) @ inverse(xb @ _pad(yb, d))
            for xa, ya, xb, yb, d in zip(fa, ka, fb, kb, a.dims)
        )
    )
    _verify(a, w, b, "equivalence")
    return True, w


def lemma2_equivalent(
    fld: PrimeField, u: int, v: int, u2: int, v2: int, search_bound: int = 13
) -> tuple[int, int, int, int] | None:
    """Are the companion-pair tensors with parameters (u, v) and (u2, v2)
    equivalent?  Searches the projective parameter quadruples directly and
    returns the first (a, b, c, d) realizing the move, else None.

    This is the explicit-formula route: it never touches the pencil
    machinery, so it can cross-check the canonical-label route.
    """
    if fld.p > search_bound:
        raise FieldTooLargeForSearchError(
            f"parameter search is exhaustive; GF({fld.p}) exceeds bound {search_bound}"
        )
    p = fld.p
    u, v, u2, v2 = u % p, v % p, u2 % p, v2 % p
    for a, b, c, d in pgl2_reps(fld):
        den = (a * a + u * a * b - v * b * b) % p
        if den == 0:
            continue
        inv_den = fld.inv(den)
        uu = ((2 * a * c + u * a * d + u * c * b - 2 * v * b * d) * inv_den) % p
        vv = ((-(c * c) - u * c * d + v * d * d) * inv_den) % p
        if uu == u2 and vv == v2:
            return (a, b, c, d)
    return None

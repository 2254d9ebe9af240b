"""Canonical forms of matrix pencils (A1, A2) over GF(p).

kronecker_form reduces a pencil to the direct sum of

  * right-singular blocks (F_r, G_r), (r-1) x r,
  * left-singular blocks (F_s^T, G_s^T), s x (s-1),
  * nilpotent blocks (J_l(0), I_l) for the degenerate directions, and
  * companion blocks (I_l, Phi_chi) for the monic prime-power divisors chi,

listed in exactly that order with sizes ascending and divisors in the
canonical polynomial order.  frobenius_form is the single-matrix analogue:
the primary rational canonical form under similarity.

Every transform is returned as an explicit invertible witness and the
reduction re-checks itself against the synthesized block matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul

from .errors import (
    DimensionMismatchError,
    ParseError,
    SingularMatrixError,
    WitnessError,
    require_ints,
)
from .field import PrimeField
from .linalg import (
    Matrix,
    SpanTracker,
    char_poly,
    companion,
    complete_basis_cols,
    inverse,
    is_invertible,
    kernel_basis,
    poly_evaluator,
    rank,
    rref,
    solve_right,
)
from .poly import Poly, factor_prime_powers


# -- block definitions --------------------------------------------------------


@dataclass(frozen=True)
class PencilBlock:
    """One canonical direct summand.

    kind "right"/"left"/"inf" carry an integer parameter (the minimal index
    r or s, or the nilpotency size l); kind "finite" carries a monic
    prime-power divisor instead.
    """

    kind: str
    fld: PrimeField
    index: int = 0
    divisor: Poly | None = None

    def pair(self) -> tuple[Matrix, Matrix]:
        f = self.fld
        if self.kind == "right":
            r = self.index
            b1 = tuple(tuple(1 if j == i else 0 for j in range(r)) for i in range(r - 1))
            b2 = tuple(tuple(1 if j == i + 1 else 0 for j in range(r)) for i in range(r - 1))
            return Matrix._trusted(f, b1, r), Matrix._trusted(f, b2, r)
        if self.kind == "left":
            s = self.index
            b1 = tuple(tuple(1 if j == i else 0 for j in range(s - 1)) for i in range(s))
            b2 = tuple(tuple(1 if j == i - 1 else 0 for j in range(s - 1)) for i in range(s))
            return Matrix._trusted(f, b1, s - 1), Matrix._trusted(f, b2, s - 1)
        if self.kind == "inf":
            l = self.index
            j = tuple(tuple(1 if i == k + 1 else 0 for k in range(l)) for i in range(l))
            return Matrix._trusted(f, j, l), Matrix.identity(f, l)
        if self.kind == "finite":
            return Matrix.identity(f, self.divisor.degree), companion(self.divisor)
        raise ValueError(f"unknown block kind {self.kind!r}")

    @property
    def shape(self) -> tuple[int, int]:
        if self.kind == "right":
            return (self.index - 1, self.index)
        if self.kind == "left":
            return (self.index, self.index - 1)
        if self.kind == "inf":
            return (self.index, self.index)
        return (self.divisor.degree, self.divisor.degree)


@dataclass(frozen=True)
class KroneckerForm:
    fld: PrimeField
    right: tuple[int, ...]
    left: tuple[int, ...]
    inf: tuple[int, ...]
    finite: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "right", tuple(sorted(self.right)))
        object.__setattr__(self, "left", tuple(sorted(self.left)))
        object.__setattr__(self, "inf", tuple(sorted(self.inf)))
        object.__setattr__(
            self, "finite", tuple(sorted(self.finite, key=lambda q: q.sort_key()))
        )

    def blocks(self) -> list[PencilBlock]:
        out = [PencilBlock("right", self.fld, r) for r in self.right]
        out += [PencilBlock("left", self.fld, s) for s in self.left]
        out += [PencilBlock("inf", self.fld, l) for l in self.inf]
        out += [PencilBlock("finite", self.fld, divisor=q) for q in self.finite]
        return out

    def matrices(self) -> tuple[Matrix, Matrix]:
        pairs = [b.pair() for b in self.blocks()]
        b1 = Matrix.block_diag(self.fld, [p[0] for p in pairs])
        b2 = Matrix.block_diag(self.fld, [p[1] for p in pairs])
        return b1, b2

    @property
    def shape(self) -> tuple[int, int]:
        m = sum(r - 1 for r in self.right) + sum(self.left) + sum(self.inf)
        n = sum(self.right) + sum(s - 1 for s in self.left) + sum(self.inf)
        d = sum(q.degree for q in self.finite)
        return (m + d, n + d)

    def to_dict(self) -> dict:
        return {
            "p": self.fld.p,
            "right": list(self.right),
            "left": list(self.left),
            "inf": list(self.inf),
            "finite": [list(q.coeffs) for q in self.finite],
        }

    @staticmethod
    def from_dict(d: dict) -> "KroneckerForm":
        try:
            fld = PrimeField(d["p"])
            return KroneckerForm(
                fld,
                parse_indices(d.get("right", ()), "right indices"),
                parse_indices(d.get("left", ()), "left indices"),
                parse_indices(d.get("inf", ()), "inf sizes"),
                parse_divisors(fld, d.get("finite", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed Kronecker form: {exc}") from exc


def parse_indices(values, what: str) -> tuple[int, ...]:
    """Block indices of a parsed form or label document: plain ints, each at
    least 1 (a right or left index counts the block's columns or rows plus
    one, an inf size its rows)."""
    out = tuple(require_ints(values, what))
    if any(k < 1 for k in out):
        raise ParseError(f"{what} must be at least 1, got {list(out)}")
    return out


def parse_divisors(fld: PrimeField, values) -> tuple[Poly, ...]:
    """Finite divisors of a parsed form or label document: monic, of degree
    at least 1."""
    out = tuple(Poly(fld, require_ints(cs, "coefficients")) for cs in values)
    for f in out:
        if f.degree < 1 or not f.is_monic():
            raise ParseError(f"divisors must be monic and non-constant, got {list(f.coeffs)}")
    return out


@dataclass(frozen=True)
class PairWitness:
    """Invertible (R, S) acting on a pencil by A_k -> R^T @ A_k @ S."""

    r: Matrix
    s: Matrix

    def __post_init__(self):
        if not is_invertible(self.r) or not is_invertible(self.s):
            raise SingularMatrixError("pencil witness factors must be invertible")
        self.r.field.require_same(self.s.field)

    def apply(self, a1: Matrix, a2: Matrix) -> tuple[Matrix, Matrix]:
        rt = self.r.transpose()
        return rt @ a1 @ self.s, rt @ a2 @ self.s

    def compose(self, other: "PairWitness") -> "PairWitness":
        return PairWitness(self.r @ other.r, self.s @ other.s)

    def inverse(self) -> "PairWitness":
        return PairWitness(inverse(self.r), inverse(self.s))


# -- frobenius (similarity) form ----------------------------------------------


def frobenius_form(mat: Matrix) -> tuple[list[Poly], Matrix]:
    """Elementary divisors and a change of basis into companion blocks.

    Returns (divisors, P) with P invertible, mat @ P == P @ D where D is the
    direct sum of companion(divisors[i]); divisors are monic prime powers in
    canonical order and their product is the characteristic polynomial.
    """
    if mat.m != mat.n:
        raise DimensionMismatchError("similarity form needs a square matrix")
    fld = mat.field
    n = mat.n
    if n == 0:
        return [], Matrix.identity(fld, 0)

    p = fld.p
    if n == 1:
        # [a] is the companion block of x - a
        return [Poly(fld, (-mat.rows[0][0], 1))], Matrix.identity(fld, 1)
    factors = factor_prime_powers(char_poly(mat))
    evaluate = poly_evaluator(mat, max(pf.base.degree for pf in factors))

    def krylov(v, k):
        """v, Mv, ..., M^(k-1) v, by int mat-vecs."""
        out = [v]
        for _ in range(k - 1):
            out.append([sum(map(mul, r, out[-1])) % p for r in mat.rows])
        return out

    heads: list[tuple[Poly, list]] = []  # (divisor, krylov vectors)
    for pf in factors:
        pi, mult = pf.base, pf.exp
        d = pi.degree
        b = evaluate(pi.coeffs)
        if mult == 1:
            # ker pi(M) is the whole primary component, of dimension d, so
            # the loop below would keep the chain of its first basis vector
            heads.append((pi, krylov(kernel_basis(b).col(0), d)))
            continue
        # kernel filtration of the primary component; kernels[0] is ker I = 0
        power = b
        kernels = [(), kernel_basis(b).transpose().rows]
        while len(kernels[-1]) < mult * d:
            power = power @ b
            kernels.append(kernel_basis(power).transpose().rows)
        top = len(kernels) - 1
        active: list[tuple[int, list[int]]] = []  # (level introduced, vector)
        for j in range(top, 0, -1):
            tracker = SpanTracker(fld, n)
            for c in kernels[j - 1]:
                tracker.add(c)
            base_dim = tracker.dim
            for _, w in active:
                assert not tracker.contains(w), "mapped-down chain heads collide"
                for v in krylov(w, d):
                    tracker.add(v)
                assert tracker.dim == base_dim + d
                base_dim = tracker.dim
            for cand in kernels[j]:
                if tracker.contains(cand):
                    continue
                vs = krylov(cand, j * d)
                for v in vs[:d]:
                    tracker.add(v)
                assert tracker.dim == base_dim + d
                base_dim = tracker.dim
                active.append((j, cand))
                heads.append((pi**j, vs))
            # push every chain one level down for the next pass
            active = [(lv, [sum(map(mul, r, w)) % p for r in b.rows]) for lv, w in active]

    heads.sort(key=lambda h: h[0].sort_key())
    divisors = [h[0] for h in heads]
    cols = [v for h in heads for v in h[1]]
    basis = Matrix._trusted(fld, tuple(zip(*cols)), len(cols))
    d = Matrix.block_diag(fld, [companion(q) for q in divisors])
    if not is_invertible(basis):
        raise AssertionError("chain basis failed to span")
    assert mat @ basis == basis @ d
    return divisors, basis


# -- kronecker form ------------------------------------------------------------


def _minimal_right_solution(b1: Matrix, b2: Matrix, d: int) -> list[list[int]]:
    """Coefficients u_0..u_d of u(x) with (B1 + x B2) u(x) = 0, where d is
    the least right minimal index of the pencil (see _right_widths).

    Solves the block-Toeplitz system of degree d; at the minimal d every
    kernel vector has u_0 != 0, u_d != 0 and independent coefficients.
    """
    fld = b1.field
    n = b1.n
    zero = (0,) * n
    rows = []
    for j in range(d + 2):
        for r1, r2 in zip(b1.rows, b2.rows):
            blocks = [zero] * (d + 1)
            if j <= d:
                blocks[j] = r1
            if j:
                blocks[j - 1] = r2
            rows.append(tuple(chain.from_iterable(blocks)))
    ker = kernel_basis(Matrix._trusted(fld, tuple(rows), n * (d + 1)))
    if not ker.n:
        raise AssertionError(f"no right solution of degree {d}, the predicted minimal index")
    v = ker.col(0)
    us = [list(v[j * n : (j + 1) * n]) for j in range(d + 1)]
    assert any(us[0]) and any(us[d])
    tracker = SpanTracker(fld, n)
    for u in us:
        assert tracker.add(u), "minimal solution has dependent coefficients"
    return us


def _right_reduction(b1: Matrix, b2: Matrix, eps: int, us: list[list[int]]):
    """Local (P, Q) splitting off one right-singular block of index eps, and
    the remainder (D1, D2) that P (B) Q leaves below and right of the block."""
    fld = b1.field
    p = fld.p
    m, n = b1.shape
    q_cols = [[(-x if j % 2 else x) % p for x in us[eps - j]] for j in range(eps + 1)]
    q0 = complete_basis_cols(fld, q_cols, n)
    w_cols = [[sum(map(mul, r, c)) % p for r in b1.rows] for c in q_cols[:eps]]
    w = complete_basis_cols(fld, w_cols, m)
    p0 = inverse(w)
    c1 = p0 @ b1 @ q0
    c2 = p0 @ b2 @ q0
    blk = PencilBlock("right", fld, eps + 1)
    f1, f2 = blk.pair()
    assert c1.submatrix(0, eps, 0, eps + 1) == f1
    assert c2.submatrix(0, eps, 0, eps + 1) == f2
    assert c1.submatrix(eps, m, 0, eps + 1).is_zero()
    assert c2.submatrix(eps, m, 0, eps + 1).is_zero()

    # kill the coupling blocks: F Z + Y D1 = -C1, G Z + Y D2 = -C2 with
    # F = [I 0] and G = [0 I], so equation (i, j) reads Z[i + shift][j] +
    # Y[i] . D_k[:, j] = -C_k[i][j], with shift 0 for F and 1 for G
    nc = n - eps - 1
    mr = m - eps
    d1 = c1.submatrix(eps, m, eps + 1, n)
    d2 = c2.submatrix(eps, m, eps + 1, n)
    nz = (eps + 1) * nc
    ny = eps * mr
    sys_rows = []
    rhs = []
    for shift, cmat, dmat in ((0, c1, d1), (1, c2, d2)):
        d_cols = dmat.transpose().rows
        for i in range(eps):
            c_row = cmat.rows[i]
            for j in range(nc):
                row = [0] * (nz + ny)
                row[(i + shift) * nc + j] = 1
                row[nz + i * mr : nz + (i + 1) * mr] = d_cols[j]
                sys_rows.append(tuple(row))
                rhs.append((-c_row[eps + 1 + j] % p,))
    sol = solve_right(
        Matrix._trusted(fld, tuple(sys_rows), nz + ny), Matrix._trusted(fld, tuple(rhs), 1)
    )
    assert sol is not None, "coupling solve must succeed at the minimal index"
    flat = sol.col(0)
    z = Matrix._trusted(fld, tuple(flat[k * nc : (k + 1) * nc] for k in range(eps + 1)), nc)
    y = Matrix._trusted(fld, tuple(flat[nz + i * mr : nz + (i + 1) * mr] for i in range(eps)), mr)
    # [[I, Y], [0, I]] @ p0 and q0 @ [[I, Z], [0, I]], as block updates
    p_low = p0.submatrix(eps, m, 0, m)
    q_left = q0.submatrix(0, n, 0, eps + 1)
    p_loc = Matrix.vstack([p0.submatrix(0, eps, 0, m) + y @ p_low, p_low])
    q_loc = Matrix.hstack([q_left, q_left @ z + q0.submatrix(0, n, eps + 1, n)])
    return p_loc, q_loc, d1, d2


def _wong_step(e_in: Matrix, e_im: Matrix, cur: Matrix) -> Matrix:
    """Basis of {v : e_in v in e_im V}, V the column span of cur.

    That space is the projection of the kernel of [e_in | e_im B_V] onto
    its first coordinates; the basis columns are the rows of its reduced
    row echelon form, so the result depends only on the space.
    """
    ker = kernel_basis(Matrix.hstack([e_in, e_im @ cur]))
    reduced, _, rk = rref(ker.submatrix(0, e_in.n, 0, ker.n).transpose(), record=False)
    return reduced.submatrix(0, rk, 0, e_in.n).transpose()


def _chain_limit(e_in: Matrix, e_im: Matrix, start: Matrix) -> Matrix:
    """Stable limit of V -> {v : e_in v in e_im V}, seeded with start."""
    cur = start
    while True:
        nxt = _wong_step(e_in, e_im, cur)
        if nxt.n == cur.n:
            return nxt
        cur = nxt


def _right_widths(a1: Matrix, a2: Matrix) -> tuple[list[int], Matrix, Matrix | None]:
    """Widths r_j (minimal index + 1) of the right-singular blocks, ascending,
    with ker A1 and V* (None when A1 is one-to-one but not onto).

    With V* the limit of V -> {v : A2 v in A1 V} from the whole space and
    W_i the iterates of W -> {v : A1 v in A2 W} from 0 (Wong sequences),
    dim(W_i & V*) = sum_j min(i, r_j): each right block contributes its
    last min(i, r_j) coordinates, while nilpotent blocks lie outside V*
    and left and finite blocks outside every W_i.  So the first
    differences count the widths >= i, and the iteration stops once they
    reach 0, or once W_i & V* fills V*.  Costs O(n) Wong steps of O(n^3)
    each; V* is the whole space without steps when A1 is onto.
    """
    fld = a1.field
    m, n = a1.shape
    ker = _wong_step(a1, a2, Matrix.zero(fld, n, 0))
    if n - ker.n == m:  # A1 onto: each step from the whole space returns it
        v_star = Matrix.identity(fld, n)
    elif not ker.n:
        return [], ker, None
    else:
        v_star = _chain_limit(a2, a1, Matrix.identity(fld, n))
    at_least = []  # at_least[i - 1] = #{j : r_j >= i}
    w, prev = ker, 0
    while True:
        dim = w.n if v_star.n == n else w.n + v_star.n - rank(Matrix.hstack([w, v_star]))
        if dim == prev:
            break
        at_least.append(dim - prev)
        prev = dim
        if dim == v_star.n:
            break
        w = _wong_step(a1, a2, w)
    at_least.append(0)
    widths = []
    for i in range(len(at_least) - 1):
        widths += [i + 1] * (at_least[i] - at_least[i + 1])
    return widths, ker, v_star


def _regular_reduction(
    e1: Matrix, e2: Matrix, ker: Matrix | None = None, v_fin: Matrix | None = None
):
    """Split a regular pencil into nilpotent and companion parts.

    Returns (P, Q, inf_sizes, finite_divisors) with P (A) Q in canonical
    block form.  ker E1 and the finite chain's limit are computed unless
    given (see _right_widths); with ker E1 = 0 that limit is the whole space.
    """
    fld = e1.field
    r = e1.n
    if r == 0:
        i0 = Matrix.identity(fld, 0)
        return i0, i0, [], []
    if ker is None:
        ker = _wong_step(e1, e2, Matrix.zero(fld, r, 0))
    v_inf = _chain_limit(e1, e2, ker) if ker.n else ker
    if v_fin is None:
        v_fin = _chain_limit(e2, e1, Matrix.identity(fld, r)) if ker.n else Matrix.identity(fld, r)
    assert v_inf.n + v_fin.n == r, "degenerate/companion split must fill the space"
    q_reg = Matrix.hstack([v_inf, v_fin])
    e_mix = Matrix.hstack([e2 @ v_inf, e1 @ v_fin])
    p_reg = inverse(e_mix)
    t1 = p_reg @ e1 @ q_reg
    t2 = p_reg @ e2 @ q_reg
    l = v_inf.n
    n_til = t1.submatrix(0, l, 0, l)
    m_fin = t2.submatrix(l, r, l, r)
    assert t1 == Matrix.block_diag(fld, [n_til, Matrix.identity(fld, r - l)])
    assert t2 == Matrix.block_diag(fld, [Matrix.identity(fld, l), m_fin])

    div_inf, p_n = frobenius_form(n_til)
    for q in div_inf:
        assert q.coeffs[:-1] == (0,) * q.degree, "degenerate part must be nilpotent"
    div_fin, p_m = frobenius_form(m_fin)
    p2 = Matrix.block_diag(fld, [inverse(p_n), inverse(p_m)])
    q2 = Matrix.block_diag(fld, [p_n, p_m])
    return p2 @ p_reg, q_reg @ q2, [q.degree for q in div_inf], div_fin


def kronecker_form(a1: Matrix, a2: Matrix) -> tuple[KroneckerForm, PairWitness]:
    """Canonical form of the pencil (a1, a2) plus the realizing witness.

    The witness satisfies R^T @ a_k @ S == B_k where (B1, B2) are the
    canonical block matrices; this is re-verified before returning.
    """
    a1.field.require_same(a2.field)
    if a1.shape != a2.shape:
        raise DimensionMismatchError(f"pencil slices {a1.shape} vs {a2.shape}")
    fld = a1.field
    m, n = a1.shape
    p_tot = q_tot = None  # P and Q; None while both are the identity
    b1, b2 = a1, a2  # the remainder: rows row0: and columns col0: of P (A) Q
    row0 = col0 = 0
    right: list[int] = []
    left: list[int] = []

    def split(p_loc: Matrix, q_loc: Matrix):
        # P (A) Q is block diagonal down to the remainder, so a split acts
        # only on the trailing rows of P and the trailing columns of Q
        nonlocal p_tot, q_tot
        if p_tot is None:
            p_tot, q_tot = p_loc, q_loc
            return
        p_tot = Matrix.vstack([p_tot.submatrix(0, row0, 0, m), p_loc @ p_tot.submatrix(row0, m, 0, m)])
        q_tot = Matrix.hstack([q_tot.submatrix(0, n, 0, col0), q_tot.submatrix(0, n, col0, n) @ q_loc])

    # blocks come off smallest first, so the remainder's least minimal
    # index is always the next predicted width minus one
    widths, ker, v_star = _right_widths(a1, a2)
    for r in widths:
        us = _minimal_right_solution(b1, b2, r - 1)
        p_loc, q_loc, b1, b2 = _right_reduction(b1, b2, r - 1, us)
        split(p_loc, q_loc)
        right.append(r)
        row0 += r - 1
        col0 += r
    # left blocks are the right blocks of the transposed remainder; each
    # right block has one column more than rows, each left block one row more
    n_left = m - n + len(right)
    lefts = []
    if n_left:
        lefts = _right_widths(b1.transpose(), b2.transpose())[0]
        if len(lefts) != n_left:
            raise AssertionError("row surplus must equal the number of left-singular blocks")
    for s in lefts:
        t1, t2 = b1.transpose(), b2.transpose()
        us = _minimal_right_solution(t1, t2, s - 1)
        pt, qt, d1, d2 = _right_reduction(t1, t2, s - 1, us)
        split(qt.transpose(), pt.transpose())
        b1, b2 = d1.transpose(), d2.transpose()
        left.append(s)
        row0 += s
        col0 += s - 1

    assert b1.m == b1.n
    # a square pencil with no right blocks is the regular remainder itself
    known = (ker, v_star) if m == n and not right else ()
    p_loc, q_loc, inf_sizes, finite = _regular_reduction(b1, b2, *known)
    split(p_loc, q_loc)

    assert right == sorted(right) and left == sorted(left)
    form = KroneckerForm(fld, tuple(right), tuple(left), tuple(inf_sizes), tuple(finite))
    if (p_tot @ a1 @ q_tot, p_tot @ a2 @ q_tot) != form.matrices():
        raise WitnessError("kronecker_form witness failed to verify")
    witness = PairWitness(p_tot.transpose(), q_tot)
    return form, witness

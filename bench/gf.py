"""Plain-integer GF(p) arithmetic for building inputs and checking outputs.

Nothing here imports gfcanon: the checks that use these helpers must not
share code with the package they referee.  Matrices are lists of rows of
ints in [0, p); a tensor is a list of q slices, each an m x n matrix;
polynomials are coefficient lists, lowest power first, monic when they
name a divisor.
"""

from __future__ import annotations


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rand_matrix(rng, p, m, n):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def rank(rows, p):
    a = [list(r) for r in rows]
    if not a:
        return 0
    n = len(a[0])
    rk = 0
    for col in range(n):
        piv = next((i for i in range(rk, len(a)) if a[i][col] % p), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = pow(a[rk][col], p - 2, p)
        a[rk] = [(x * inv) % p for x in a[rk]]
        for i in range(len(a)):
            if i != rk and a[i][col] % p:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rk])]
        rk += 1
        if rk == len(a):
            break
    return rk


def is_invertible(mat, p):
    return len(mat) == (len(mat[0]) if mat else 0) and rank(mat, p) == len(mat)


def rand_invertible(rng, p, n):
    while True:
        mat = rand_matrix(rng, p, n, n)
        if rank(mat, p) == n:
            return mat


def apply_pair(r, s, a, p):
    """R^T @ a @ S, written out as a triple loop."""
    m, n = len(r), len(s)
    out = zeros(m, n)
    for i2 in range(m):
        for j2 in range(n):
            acc = 0
            for i in range(m):
                rii = r[i][i2]
                if rii:
                    row = a[i]
                    for j in range(n):
                        acc += rii * row[j] * s[j][j2]
            out[i2][j2] = acc % p
    return out


def apply_triple(slices, r, s, t, p):
    """b[k'][i'][j'] = sum a[k][i][j] r[i][i'] s[j][j'] t[k][k'], literally."""
    q = len(slices)
    m, n = len(r), len(s)
    mid = [apply_pair(r, s, a, p) for a in slices]
    out = []
    for k2 in range(q):
        acc = zeros(m, n)
        for k in range(q):
            c = t[k][k2]
            if c:
                for i in range(m):
                    for j in range(n):
                        acc[i][j] += c * mid[k][i][j]
        out.append([[x % p for x in row] for row in acc])
    return out


def unfolding_ranks(slices, m, n, p):
    """Ranks of the row, column and slice unfoldings: the dims of the
    regular corner of the tensor."""
    q = len(slices)
    rows = [[slices[k][i][j] for j in range(n) for k in range(q)] for i in range(m)]
    cols = [[slices[k][i][j] for i in range(m) for k in range(q)] for j in range(n)]
    sls = [[slices[k][i][j] for i in range(m) for j in range(n)] for k in range(q)]
    return (rank(rows, p), rank(cols, p), rank(sls, p))


# -- polynomials -------------------------------------------------------------


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_pow(a, e, p):
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a, p)
    return out


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim([(x - y) % p for x, y in zip(a, b)])


def poly_has_root(c, p):
    for x in range(p):
        acc = 0
        for v in reversed(c):
            acc = (acc * x + v) % p
        if acc == 0:
            return True
    return False


def rand_irreducible(rng, p, d):
    """Random monic irreducible of degree 1, 2 or 3 (no root means
    irreducible at these degrees)."""
    if d == 1:
        return [rng.randrange(p), 1]
    if d > 3:
        raise ValueError("irreducibility test covers degree <= 3 only")
    while True:
        c = [rng.randrange(p) for _ in range(d)] + [1]
        if not poly_has_root(c, p):
            return c


# -- pencil blocks ------------------------------------------------------------


def _right(r):
    b1 = [[1 if j == i else 0 for j in range(r)] for i in range(r - 1)]
    b2 = [[1 if j == i + 1 else 0 for j in range(r)] for i in range(r - 1)]
    return b1, b2, r - 1, r


def _left(s):
    b1 = [[1 if j == i else 0 for j in range(s - 1)] for i in range(s)]
    b2 = [[1 if j == i - 1 else 0 for j in range(s - 1)] for i in range(s)]
    return b1, b2, s, s - 1


def _inf(l):
    nil = [[1 if i == k + 1 else 0 for k in range(l)] for i in range(l)]
    return nil, identity(l), l, l


def _finite(coeffs, p):
    l = len(coeffs) - 1
    comp = zeros(l, l)
    for i in range(l - 1):
        comp[i + 1][i] = 1
    for i in range(l):
        comp[i][l - 1] = -coeffs[i] % p
    return identity(l), comp, l, l


def pencil_blocks(form, p):
    """(B1, B2, m, n) of the block sum right, left, inf, finite, in the order
    the form dict lists them (missing keys read as empty)."""
    parts = [_right(r) for r in form.get("right", ())]
    parts += [_left(s) for s in form.get("left", ())]
    parts += [_inf(l) for l in form.get("inf", ())]
    parts += [_finite(c, p) for c in form.get("finite", ())]
    m = sum(x[2] for x in parts)
    n = sum(x[3] for x in parts)
    b1, b2 = zeros(m, n), zeros(m, n)
    r0 = c0 = 0
    for x1, x2, bm, bn in parts:
        for i in range(bm):
            for j in range(bn):
                b1[r0 + i][c0 + j] = x1[i][j]
                b2[r0 + i][c0 + j] = x2[i][j]
        r0 += bm
        c0 += bn
    return b1, b2, m, n


def pad(slices, m, n, q):
    """Zero-pad a tensor to m x n x q."""
    out = []
    for k in range(q):
        s = zeros(m, n)
        if k < len(slices):
            for i, row in enumerate(slices[k]):
                s[i][: len(row)] = row
        out.append(s)
    return out


# -- projective rank profile ------------------------------------------------------


def projective_points(p):
    return [(1, b) for b in range(p)] + [(0, 1)]


def _combine(b1, b2, a, b, p):
    return [[(a * x + b * y) % p for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)]


def normal_rank(b1, b2, p):
    """Rank of B1 + x B2 over GF(p)(x), by fraction-free elimination on
    polynomial entries."""
    rows = [[poly_trim([x, y]) for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)]
    if not rows:
        return 0
    n = len(rows[0])
    rk = 0
    for col in range(n):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        pv = rows[rk][col]
        for i in range(rk + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [
                    poly_sub(poly_mul(pv, x, p), poly_mul(f, y, p), p)
                    for x, y in zip(rows[i], rows[rk])
                ]
        rk += 1
    return rk


def rank_profile(b1, b2, p):
    """Sorted ranks of a*B1 + b*B2 over the p + 1 points of the projective
    line.  Slice mixes permute the points and row/column changes keep each
    rank, so two pencils with different profiles are inequivalent."""
    return sorted(rank(_combine(b1, b2, a, b, p), p) for a, b in projective_points(p))


def slice_basis(slices, p):
    """A basis of the span of the slices (each flattened), as matrices."""
    m = len(slices[0])
    n = len(slices[0][0]) if m else 0
    basis: list = []
    for s in slices:
        flat = [x for row in s for x in row]
        if rank([*(b for b in basis), flat], p) > len(basis):
            basis.append(flat)
    return [[b[i * n : (i + 1) * n] for i in range(m)] for b in basis]


def refuses_label(slices, p):
    """True when no invertible slice mix can move every eigenvalue of the
    two-slice span off one point of the projective line, i.e. every point is
    a rank drop of the pencil.  Then a block form without degenerate blocks
    does not exist over GF(p)."""
    basis = slice_basis(slices, p)
    if len(basis) != 2:
        return False
    b1, b2 = basis
    nr = normal_rank(b1, b2, p)
    return all(rank(_combine(b1, b2, a, b, p), p) < nr for a, b in projective_points(p))


def certificate(slices, m, n, p):
    """Equivalence invariant: unfolding ranks plus the rank profile of the
    slice span (two-slice spans only)."""
    basis = slice_basis(slices, p) if slices else []
    prof = rank_profile(basis[0], basis[1], p) if len(basis) == 2 else None
    return (unfolding_ranks(slices, m, n, p), prof)

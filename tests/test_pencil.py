import hashlib
import json
import random

import pytest

from conftest import rand_invertible, rand_matrix, rand_monic, run_python_O
from gfcanon import (
    KroneckerForm,
    Matrix,
    PairWitness,
    PencilBlock,
    Poly,
    PrimeField,
    char_poly,
    companion,
    factor_prime_powers,
    frobenius_form,
    inverse,
    kernel_basis,
    kronecker_form,
    pencil,
    rank,
)
from gfcanon.errors import DimensionMismatchError
from gfcanon.linalg import SpanTracker

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
FIELDS = (F2, F3, F5)


# -- square-matrix canonical form ------------------------------------------------


def _coeff_lists(divisors):
    return [list(q.coeffs) for q in divisors]


def test_frobenius_worked_examples():
    divisors, _ = frobenius_form(Matrix.zero(F3, 2, 2))
    assert _coeff_lists(divisors) == [[0, 1], [0, 1]]  # x, x

    divisors, _ = frobenius_form(Matrix(F5, [[1, 0], [0, 2]], 2))
    assert _coeff_lists(divisors) == [[4, 1], [3, 1]]  # x-1, x-2

    shift = Matrix(F5, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], 3)
    divisors, _ = frobenius_form(shift)
    assert _coeff_lists(divisors) == [[0, 0, 0, 1]]  # x^3

    # companion((x-1)^2) + companion(x-1): divisors sort by degree first
    m = Matrix.block_diag(
        F5, [companion(Poly(F5, [1, 3, 1])), Matrix(F5, [[1]], 1)]
    )
    divisors, _ = frobenius_form(m)
    assert _coeff_lists(divisors) == [[4, 1], [1, 3, 1]]

    divisors, basis = frobenius_form(Matrix.zero(F5, 0, 0))
    assert divisors == [] and basis.shape == (0, 0)


def test_frobenius_divisors_are_prime_powers_and_rebuild():
    rng = random.Random(41)
    for _ in range(150):
        fld = FIELDS[rng.randrange(3)]
        d = rng.randrange(1, 6)
        m = rand_matrix(rng, fld, d, d)
        divisors, basis = frobenius_form(m)
        synth = Matrix.block_diag(fld, [companion(q) for q in divisors])
        assert m @ basis == basis @ synth
        prod = Poly.one(fld)
        for q in divisors:
            prod = prod * q
        assert prod == char_poly(m)


def test_frobenius_similarity_invariant():
    rng = random.Random(42)
    for _ in range(100):
        fld = FIELDS[rng.randrange(3)]
        d = rng.randrange(1, 5)
        m = rand_matrix(rng, fld, d, d)
        s = rand_invertible(rng, fld, d)
        from gfcanon import inverse

        divisors, _ = frobenius_form(m)
        divisors2, _ = frobenius_form(inverse(s) @ m @ s)
        assert divisors == divisors2


def _old_frobenius(mat):
    """frobenius_form as it was written with Matrix, Poly and Horner: each
    pi(M) by deg pi + 1 products, the filtration from ker I, and every
    Krylov vector a one-column Matrix."""
    fld, n = mat.field, mat.n
    if n == 0:
        return [], Matrix.identity(fld, 0)
    heads = []
    for pf in factor_prime_powers(char_poly(mat)):
        pi, mult = pf.base, pf.exp
        d = pi.degree
        b = Matrix.zero(fld, n, n)
        for c in reversed(pi.coeffs):
            b = b @ mat
            if c:
                b = b + Matrix.identity(fld, n).scale(c)
        powers = [Matrix.identity(fld, n)]
        kernels = [kernel_basis(powers[0])]
        while kernels[-1].n < mult * d:
            powers.append(powers[-1] @ b)
            kernels.append(kernel_basis(powers[-1]))
        active = []
        for j in range(len(kernels) - 1, 0, -1):
            tracker = SpanTracker(fld, n)
            for c in range(kernels[j - 1].n):
                tracker.add(kernels[j - 1].col(c))
            for _, w in active:
                v = list(w)
                for _ in range(d):
                    tracker.add(v)
                    v = list((mat @ Matrix.from_cols(fld, [v], n)).col(0))
            for c in range(kernels[j].n):
                cand = list(kernels[j].col(c))
                if tracker.contains(cand):
                    continue
                v = list(cand)
                for _ in range(d):
                    tracker.add(v)
                    v = list((mat @ Matrix.from_cols(fld, [v], n)).col(0))
                active.append((j, cand))
                krylov = []
                u = Matrix.from_cols(fld, [cand], n)
                for _ in range(j * d):
                    krylov.append(u)
                    u = mat @ u
                heads.append((pi**j, krylov))
            active = [(lv, list((b @ Matrix.from_cols(fld, [w], n)).col(0))) for lv, w in active]
    heads.sort(key=lambda h: h[0].sort_key())
    return [h[0] for h in heads], Matrix.from_cols(fld, [k.col(0) for h in heads for k in h[1]], n)


def _similarity_corpus(rng):
    """(kind, matrix) pairs, n <= 12, p in {2, 3, 5, 7, 101}: random,
    conjugated block sums with repeated blocks (non-cyclic), conjugated
    nilpotent, and sparse."""
    fields = [PrimeField(p) for p in (2, 3, 5, 7, 101)]
    for case in range(440):
        fld = fields[case % 5]
        kind = ("random", "blocks", "nilpotent", "sparse")[case // 5 % 4]
        n = rng.randrange(1, 13)
        if kind == "random":
            m = rand_matrix(rng, fld, n, n)
        elif kind == "sparse":
            m = Matrix(fld, [[rng.randrange(fld.p) if rng.random() < 0.15 else 0
                              for _ in range(n)] for _ in range(n)], n)
        else:
            # a few bases, each used for several blocks of various powers
            bases = [Poly(fld, (0, 1))] if kind == "nilpotent" else [
                pf.base for pf in factor_prime_powers(rand_monic(rng, fld, rng.randrange(1, 4)))]
            blocks, size = [], 0
            while size < n:
                q = rng.choice(bases) ** rng.randrange(1, 4)
                if size + q.degree > n:
                    q = Poly(fld, (0 if kind == "nilpotent" else rng.randrange(fld.p), 1))
                blocks.append(companion(q))
                size += q.degree
            s = rand_invertible(rng, fld, n)
            m = s @ Matrix.block_diag(fld, blocks) @ inverse(s)
        yield kind, m


def test_frobenius_matches_matrix_object_version():
    rng = random.Random(404)
    kinds = {}
    for kind, m in _similarity_corpus(rng):
        divisors, basis = frobenius_form(m)
        old_divisors, old_basis = _old_frobenius(m)
        assert _coeff_lists(divisors) == _coeff_lists(old_divisors), (kind, m)
        assert basis == old_basis, (kind, m)
        kinds[kind] = kinds.get(kind, 0) + 1
        # non-cyclic: some prime carries two or more divisors
        primes = {factor_prime_powers(q)[0].base for q in divisors}
        kinds["non-cyclic"] = kinds.get("non-cyclic", 0) + (len(primes) < len(divisors))
        # the paths frobenius_form takes: 1x1 inputs, then per prime factor
        # of the characteristic polynomial, multiplicity 1 or more
        kinds["1x1"] = kinds.get("1x1", 0) + (m.n == 1)
        for pf in factor_prime_powers(char_poly(m)):
            path = "multiplicity 1" if pf.exp == 1 else "multiplicity > 1"
            kinds[path] = kinds.get(path, 0) + (m.n > 1)
    assert sum(kinds[k] for k in ("random", "blocks", "nilpotent", "sparse")) >= 400
    assert kinds["non-cyclic"] >= 100, kinds
    assert kinds["1x1"] >= 30 and kinds["multiplicity 1"] >= 300, kinds
    assert kinds["multiplicity > 1"] >= 250, kinds


# -- pencil canonical form --------------------------------------------------------


def test_block_shapes():
    right = PencilBlock("right", F3, index=3)
    assert right.shape == (2, 3)
    left = PencilBlock("left", F3, index=2)
    assert left.shape == (2, 1)
    inf = PencilBlock("inf", F3, index=2)
    assert inf.shape == (2, 2)
    fin = PencilBlock("finite", F3, divisor=Poly(F3, [1, 2, 1]))
    assert fin.shape == (2, 2)
    f, g = right.pair()
    assert f.rows == ((1, 0, 0), (0, 1, 0))
    assert g.rows == ((0, 1, 0), (0, 0, 1))
    jf, jg = inf.pair()
    assert jf.rows == ((0, 0), (1, 0))  # nilpotent lower shift
    assert jg == Matrix.identity(F3, 2)


def test_kronecker_zero_pencils():
    form, _ = kronecker_form(Matrix.zero(F3, 1, 1), Matrix.zero(F3, 1, 1))
    assert (form.right, form.left, form.inf, form.finite) == ((1,), (1,), (), ())
    form, _ = kronecker_form(Matrix.zero(F3, 1, 2), Matrix.zero(F3, 1, 2))
    assert (form.right, form.left, form.inf) == ((1, 1), (1,), ())
    form, _ = kronecker_form(Matrix.zero(F3, 2, 1), Matrix.zero(F3, 2, 1))
    assert (form.right, form.left, form.inf) == ((1,), (1, 1), ())


def test_kronecker_regular_examples():
    lam = 3
    form, _ = kronecker_form(
        Matrix.identity(F5, 2), Matrix(F5, [[lam, 0], [1, lam]], 2)
    )
    assert form.right == () and form.left == () and form.inf == ()
    assert _coeff_lists(form.finite) == [[4, 4, 1]]  # (x-3)^2

    form, _ = kronecker_form(Matrix(F5, [[0, 0], [1, 0]], 2), Matrix.identity(F5, 2))
    assert form.inf == (2,) and form.finite == ()

    form, _ = kronecker_form(Matrix.identity(F5, 2), Matrix(F5, [[1, 0], [0, 2]], 2))
    assert _coeff_lists(form.finite) == [[4, 1], [3, 1]]


def test_kronecker_witness_and_shape_bookkeeping():
    rng = random.Random(17)
    for _ in range(250):
        fld = FIELDS[rng.randrange(3)]
        m, n = rng.randrange(0, 5), rng.randrange(0, 5)
        a1 = rand_matrix(rng, fld, m, n)
        a2 = rand_matrix(rng, fld, m, n)
        form, w = kronecker_form(a1, a2)
        assert form.shape == (m, n)
        assert w.apply(a1, a2) == form.matrices()


def test_kronecker_invariant_under_equivalence():
    rng = random.Random(18)
    for _ in range(150):
        fld = FIELDS[rng.randrange(3)]
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        a1 = rand_matrix(rng, fld, m, n)
        a2 = rand_matrix(rng, fld, m, n)
        r = rand_invertible(rng, fld, m)
        s = rand_invertible(rng, fld, n)
        w = PairWitness(r, s)
        form, _ = kronecker_form(a1, a2)
        form2, _ = kronecker_form(*w.apply(a1, a2))
        assert form == form2


def test_kronecker_idempotent_on_canonical_matrices():
    fld = F5
    form = KroneckerForm(
        fld,
        (1, 2),
        (2,),
        (1,),
        (Poly(fld, [4, 1]), Poly(fld, [4, 4, 1])),
    )
    c1, c2 = form.matrices()
    again, w = kronecker_form(c1, c2)
    assert again == form
    assert w.apply(c1, c2) == (c1, c2)


def test_kronecker_rejects_mismatched_pairs():
    with pytest.raises(DimensionMismatchError):
        kronecker_form(Matrix.zero(F3, 2, 2), Matrix.zero(F3, 2, 3))


def test_pair_witness_compose_inverse():
    rng = random.Random(19)
    for _ in range(60):
        fld = FIELDS[rng.randrange(3)]
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        a1 = rand_matrix(rng, fld, m, n)
        a2 = rand_matrix(rng, fld, m, n)
        w1 = PairWitness(rand_invertible(rng, fld, m), rand_invertible(rng, fld, n))
        w2 = PairWitness(rand_invertible(rng, fld, m), rand_invertible(rng, fld, n))
        assert w1.compose(w2).apply(a1, a2) == w2.apply(*w1.apply(a1, a2))
        assert w1.inverse().apply(*w1.apply(a1, a2)) == (a1, a2)


def test_form_round_trips_through_dict():
    form = KroneckerForm(F3, (1,), (), (2,), (Poly(F3, [2, 1]),))
    assert KroneckerForm.from_dict(form.to_dict()) == form


# -- minimal indices: Wong-sequence counts against the Toeplitz search -------------


def _toeplitz_search(b1, b2):
    """The d-by-d search: least d whose degree-d block-Toeplitz system
    (B1 + x B2)(u_0 + ... + u_d x^d) = 0 has a kernel, with that kernel."""
    fld = b1.field
    m, n = b1.shape
    for d in range(n):
        rows = []
        for j in range(d + 2):
            for i in range(m):
                row = [0] * (n * (d + 1))
                if j <= d:
                    row[j * n : (j + 1) * n] = b1.rows[i]
                if j >= 1:
                    row[(j - 1) * n : j * n] = b2.rows[i]
                rows.append(row)
        ker = kernel_basis(Matrix(fld, rows, n * (d + 1)))
        if ker.n:
            return d, ker
    return None


def _searched_right_widths(b1, b2):
    """Right widths found by searching the least d, splitting that block
    off and searching the rest again; also returns the remainder."""
    widths = []
    while b1.n:
        found = _toeplitz_search(b1, b2)
        if found is None:
            break
        d, ker = found
        m, n = b1.shape
        v = ker.col(0)
        us = [list(v[j * n : (j + 1) * n]) for j in range(d + 1)]
        p, q, d1, d2 = pencil._right_reduction(b1, b2, d, us)
        b1 = (p @ b1 @ q).submatrix(d, m, d + 1, n)
        b2 = (p @ b2 @ q).submatrix(d, m, d + 1, n)
        assert (d1, d2) == (b1, b2)
        widths.append(d + 1)
    return widths, b1, b2


def _rand_planted(rng, fld, max_m, max_n):
    """A random Kronecker form that fits max_m x max_n, scrambled."""
    while True:
        right = [rng.randrange(1, 5) for _ in range(rng.randrange(0, 3))]
        left = [rng.randrange(1, 5) for _ in range(rng.randrange(0, 3))]
        inf = [rng.randrange(1, 3) for _ in range(rng.randrange(0, 2))]
        finite = []
        for _ in range(rng.randrange(0, 3)):
            chi = rand_monic(rng, fld, rng.randrange(1, 3))
            finite += [f.base**f.exp for f in factor_prime_powers(chi)]
        form = KroneckerForm(fld, tuple(right), tuple(left), tuple(inf), tuple(finite))
        m, n = form.shape
        if m <= max_m and n <= max_n:
            break
    w = PairWitness(rand_invertible(rng, fld, m), rand_invertible(rng, fld, n))
    return form, w.apply(*form.matrices())


def test_wong_widths_match_toeplitz_search():
    # 80 pencils of each kind, 20 of them at each p
    rng = random.Random(77)
    fields = [PrimeField(p) for p in (2, 3, 5, 7)]
    kinds = ("random", "rank-deficient", "rectangular", "planted")
    for it in range(320):
        fld = fields[it % 4]
        kind = kinds[(it // 4) % 4]
        if kind == "random":
            m, n = rng.randrange(0, 9), rng.randrange(0, 10)
            a1, a2 = rand_matrix(rng, fld, m, n), rand_matrix(rng, fld, m, n)
        elif kind == "rank-deficient":
            m, n = rng.randrange(1, 9), rng.randrange(1, 10)
            k1, k2 = rng.randrange(0, min(m, n)), rng.randrange(0, min(m, n) + 1)
            a1 = rand_matrix(rng, fld, m, k1) @ rand_matrix(rng, fld, k1, n)
            a2 = rand_matrix(rng, fld, m, k2) @ rand_matrix(rng, fld, k2, n)
        elif kind == "rectangular":
            m = rng.randrange(1, 9)
            n = min(9, max(0, m + rng.choice((-3, -2, -1, 1, 2, 3))))
            a1, a2 = rand_matrix(rng, fld, m, n), rand_matrix(rng, fld, m, n)
        else:
            planted, (a1, a2) = _rand_planted(rng, fld, 8, 9)
        m, n = a1.shape
        right, r1, r2 = _searched_right_widths(a1, a2)
        left, _, _ = _searched_right_widths(r1.transpose(), r2.transpose())
        assert pencil._right_widths(a1, a2)[0] == right
        assert pencil._right_widths(a1.transpose(), a2.transpose())[0] == left
        assert len(left) == m - n + len(right)
        form, w = kronecker_form(a1, a2)
        assert (list(form.right), list(form.left)) == (right, left)
        if kind == "planted":
            assert form == planted


def test_planted_large_pencil_recovered_exactly():
    # 25 x 25, far beyond the oracle: two right blocks, two left blocks,
    # two nilpotent blocks and a repeated linear divisor
    fld = PrimeField(7)
    rng = random.Random(2012)
    x_minus_3 = Poly(fld, [-3, 1])
    planted = KroneckerForm(fld, (5, 8), (3, 6), (1, 2), (x_minus_3, x_minus_3))
    assert planted.shape == (25, 25)
    c1, c2 = planted.matrices()
    scramble = PairWitness(rand_invertible(rng, fld, 25), rand_invertible(rng, fld, 25))
    a1, a2 = scramble.apply(c1, c2)
    form, w = kronecker_form(a1, a2)
    assert form == planted
    assert w.apply(a1, a2) == (c1, c2)


@pytest.mark.parametrize("stage, corrupt, pencil_rows", [
    ("_regular_reduction", "p.scale(2), q, *rest", "[[1, 0], [0, 1]], [[1, 0], [0, 2]]"),
    ("_right_reduction", "p.scale(2), q, *rest", "[[1, 0]], [[0, 1]]"),
    # a 1x2 right block, then the 1x1 block (1, 2) of divisor x - 2
    ("_right_reduction", "p, q, rest[0].scale(2), rest[1]",
     "[[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 2]]"),
], ids=["regular", "right", "right-remainder"])
def test_kronecker_witness_checked_under_python_O(tmp_path, stage, corrupt, pencil_rows):
    # the stage returns a wrong row factor or a wrong remainder; the
    # remainder is not re-derived from products, so only the final check,
    # computed from the input, can see either
    out = run_python_O(tmp_path, f"""
        from gfcanon import Matrix, PrimeField, WitnessError, pencil

        stage = pencil.{stage}

        def corrupted(*args):
            p, q, *rest = stage(*args)
            return {corrupt}

        pencil.{stage} = corrupted
        f = PrimeField(5)
        b1, b2 = {pencil_rows}
        try:
            pencil.kronecker_form(Matrix(f, b1), Matrix(f, b2))
        except WitnessError as exc:
            print(__debug__, exc)
    """)
    assert out == "False kronecker_form witness failed to verify"


def _wong_step_cases():
    chi = Poly(F5, [2, 0, 3, 1, 1])
    return {
        "right-6": (KroneckerForm(F5, (6,), (), (), ()).matrices(), 6),
        "left-4": (KroneckerForm(F5, (), (4,), (), ()).matrices(), 5),
        "companion-4": ((Matrix.identity(F5, 4), companion(chi)), 1),
        "nilpotent-1": ((Matrix(F5, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         Matrix(F5, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])), 4),
    }


@pytest.mark.parametrize("case", list(_wong_step_cases()))
def test_wong_steps_skip_what_the_dimensions_give(monkeypatch, case):
    # V* = I when A1 is onto, W_i stops once it fills V*, the finite chain
    # is I when ker E1 = 0, and a regular square pencil reuses ker A1 and V*
    (c1, c2), at_most = _wong_step_cases()[case]
    rng = random.Random(5)
    w = PairWitness(rand_invertible(rng, F5, c1.m), rand_invertible(rng, F5, c1.n))
    a1, a2 = w.apply(c1, c2)
    steps = []
    step = pencil._wong_step

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(pencil, "_wong_step", counted)
    form, v = kronecker_form(a1, a2)
    assert len(steps) <= at_most
    assert form == kronecker_form(c1, c2)[0] and v.apply(a1, a2) == form.matrices()


# -- bit-identity guard --------------------------------------------------------------


def _digest_corpus(rng):
    """(kind, a1, a2) over p in {2, 3, 5, 7, 101}, shapes 0x0 to 9x10: random,
    rank-deficient, planted, square with singular A1 and no singular block,
    and A1 onto; 90 pencils of each kind."""
    fields = [PrimeField(p) for p in (2, 3, 5, 7, 101)]
    kinds = ("random", "rank-deficient", "planted", "square-regular", "onto")
    for it in range(450):
        fld = fields[it % 5]
        kind = kinds[it // 5 % 5]
        m, n = rng.randrange(0, 10), rng.randrange(0, 11)
        if kind == "random":
            a1, a2 = rand_matrix(rng, fld, m, n), rand_matrix(rng, fld, m, n)
        elif kind == "rank-deficient":
            k1, k2 = rng.randrange(0, min(m, n) + 1), rng.randrange(0, min(m, n) + 1)
            a1 = rand_matrix(rng, fld, m, k1) @ rand_matrix(rng, fld, k1, n)
            a2 = rand_matrix(rng, fld, m, k2) @ rand_matrix(rng, fld, k2, n)
        elif kind == "planted":
            _, (a1, a2) = _rand_planted(rng, fld, 9, 10)
        elif kind == "square-regular":
            inf = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3)))
            finite = tuple(f.base**f.exp for f in factor_prime_powers(
                rand_monic(rng, fld, rng.randrange(1, 10 - sum(inf)))))
            form = KroneckerForm(fld, (), (), inf, finite)
            d = form.shape[0]
            w = PairWitness(rand_invertible(rng, fld, d), rand_invertible(rng, fld, d))
            a1, a2 = w.apply(*form.matrices())
        else:
            m = min(m, n)
            while True:
                a1 = rand_matrix(rng, fld, m, n)
                if rank(a1) == m:
                    break
            a2 = rand_matrix(rng, fld, m, n)
        yield kind, a1, a2


KRONECKER_DIGEST = "0a425815b8e74b86eea5132eebc105481a8448e04c01d453df937a43f38413d2"


def _kronecker_digest():
    rng = random.Random(2741)
    h = hashlib.sha256()
    for _, a1, a2 in _digest_corpus(rng):
        form, w = kronecker_form(a1, a2)
        h.update(json.dumps([form.to_dict(), w.r.rows, w.s.rows]).encode())
    return h.hexdigest()


def test_kronecker_forms_and_witnesses_bit_identical():
    # the digest of every form, R and S on the corpus; a deliberate change
    # of a witness updates this value and says so in CHANGES.md
    assert _kronecker_digest() == KRONECKER_DIGEST

import random

import pytest

from conftest import rand_monic
from gfcanon import (
    Mobius2x2,
    Poly,
    PrimeField,
    factor_prime_powers,
    mobius_charpoly_check,
    mobius_transform,
    poly_gcd,
    poly_powmod,
)
from gfcanon.errors import (
    InadmissibleTransformError,
    NotMonicError,
    ZeroInverseError,
    ZeroPolynomialError,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_constructors_normalize():
    f = Poly(F5, [1, 2, 0, 0])
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert Poly.zero(F5).degree == -1
    assert Poly.one(F5) == Poly(F5, [1])
    assert Poly.x(F5) == Poly(F5, [0, 1])
    assert Poly.constant(F5, 7) == Poly(F5, [2])


def test_divmod_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        fld = random.Random(rng.random()).choice([F2, F3, F5])
        a = Poly(fld, [rng.randrange(fld.p) for _ in range(rng.randrange(9))])
        b = Poly(fld, [rng.randrange(fld.p) for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            with pytest.raises(ZeroInverseError):
                divmod(a, b)
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_evaluate_matches_expansion():
    rng = random.Random(5)
    for _ in range(50):
        f = rand_monic(rng, F5, rng.randrange(1, 6))
        x = rng.randrange(5)
        direct = sum(c * pow(x, i, 5) for i, c in enumerate(f.coeffs)) % 5
        assert f.evaluate(x) == direct


def test_gcd_divides_and_is_monic():
    rng = random.Random(23)
    for _ in range(120):
        fld = [F2, F3, F5][rng.randrange(3)]
        g = rand_monic(rng, fld, rng.randrange(1, 4))
        a = g * rand_monic(rng, fld, rng.randrange(0, 4))
        b = g * rand_monic(rng, fld, rng.randrange(0, 4))
        d = poly_gcd(a, b)
        assert d.is_monic
        assert (a % d).is_zero() and (b % d).is_zero()
        # g divides both, so it divides the gcd
        assert (d % g).is_zero()
    assert poly_gcd(Poly.zero(F3), Poly.zero(F3)).is_zero()


def test_powmod_matches_naive():
    rng = random.Random(3)
    for _ in range(40):
        fld = [F3, F5][rng.randrange(2)]
        base = Poly(fld, [rng.randrange(fld.p) for _ in range(3)])
        mod = rand_monic(rng, fld, rng.randrange(1, 5))
        e = rng.randrange(0, 30)
        naive = Poly.one(fld)
        for _ in range(e):
            naive = (naive * base) % mod
        assert poly_powmod(base, e, mod) == naive


def test_sort_key_uses_negated_descending_coefficients():
    # chi = x^l - u1 x^(l-1) - ... - ul sorts by (l, (u1, ..., ul))
    x_minus_1 = Poly(F5, [4, 1])
    x_minus_2 = Poly(F5, [3, 1])
    assert x_minus_1.sort_key() == (1, (1,))
    assert x_minus_2.sort_key() == (1, (2,))
    assert x_minus_1.sort_key() < x_minus_2.sort_key()
    assert Poly.x(F5).sort_key() == (1, (0,))
    quad = Poly(F5, [3, 0, 1])  # x^2 - 2
    assert quad.sort_key() == (2, (0, 2))
    assert x_minus_2.sort_key() < quad.sort_key()
    with pytest.raises(NotMonicError):
        Poly(F5, [1, 2]).sort_key()


# -- factorization -------------------------------------------------------------


def _check_factorization(f):
    factors = factor_prime_powers(f)
    prod = Poly.one(f.field)
    for pp in factors:
        assert pp.base.is_monic and pp.base.degree >= 1 and pp.exp >= 1
        prod = prod * pp.expand()
    assert prod == f
    bases = [pp.base for pp in factors]
    assert len(set(bases)) == len(bases)
    keys = [(pp.base.sort_key(), pp.exp) for pp in factors]
    assert keys == sorted(keys)
    # pairwise coprime prime powers
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            assert poly_gcd(bases[i], bases[j]) == Poly.one(f.field)
    return factors


def test_factor_exhaustive_gf2_up_to_degree_6():
    for code in range(2**6):
        coeffs = [(code >> i) & 1 for i in range(6)] + [1]
        _check_factorization(Poly(F2, coeffs))


def test_factor_exhaustive_gf3_up_to_degree_4():
    for code in range(3**4):
        coeffs = []
        c = code
        for _ in range(4):
            coeffs.append(c % 3)
            c //= 3
        _check_factorization(Poly(F3, coeffs + [1]))


def test_factor_random_larger_fields():
    rng = random.Random(77)
    for p in (5, 7, 13):
        fld = PrimeField(p)
        for _ in range(60):
            _check_factorization(rand_monic(rng, fld, rng.randrange(1, 8)))


def test_factor_handles_pth_powers():
    # derivative vanishes, forcing the p-th root path
    f = (Poly(F2, [1, 1]) ** 4) * (Poly(F2, [1, 1, 1]) ** 2)
    factors = factor_prime_powers(f)
    assert [(pp.base.coeffs, pp.exp) for pp in factors] == [
        ((1, 1), 4),
        ((1, 1, 1), 2),
    ]
    g = Poly(F3, [2, 1]) ** 9
    assert [(pp.base.coeffs, pp.exp) for pp in factor_prime_powers(g)] == [((2, 1), 9)]


def test_factor_is_rng_independent():
    rng = random.Random(99)
    for _ in range(20):
        f = rand_monic(rng, F5, 6)
        a = factor_prime_powers(f, random.Random(1))
        b = factor_prime_powers(f, random.Random(2**30))
        assert a == b


# -- the Poly-object factoring, kept as a referee for the list core -------------


def _old_powmod(base, e, mod):
    result = Poly.one(base.field) % mod
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _old_split(g, d, rng):
    field, p = g.field, g.field.p
    while True:
        r = Poly(field, [rng.randrange(p) for _ in range(g.degree)])
        if r.degree < 1:
            continue
        t = poly_gcd(r, g)
        if 0 < t.degree < g.degree:
            return t
        if p == 2:
            s, acc = Poly.zero(field), r % g
            for _ in range(d):
                s = s + acc
                acc = (acc * acc) % g
        else:
            s = _old_powmod(r, (p**d - 1) // 2, g) - Poly.one(field)
        t = poly_gcd(s, g)
        if 0 < t.degree < g.degree:
            return t


def _old_squarefree(w, rng):
    """Distinct-degree factoring with a fresh modular power per degree."""
    x = Poly.x(w.field)
    out, h, d, rem = [], x % w, 0, w
    while rem.degree >= 1:
        d += 1
        if rem.degree < 2 * d:
            out.append(rem)
            break
        h = _old_powmod(h, w.field.p, rem)
        g = poly_gcd(h - x, rem)
        if g.degree > 0:
            stack = [g]
            while stack:
                f = stack.pop()
                if f.degree == d:
                    out.append(f)
                else:
                    t = _old_split(f, d, rng)
                    stack += [t, f // t]
            rem = rem // g
            h = h % rem
    return out


def _old_factor(f):
    p = f.field.p
    rng = random.Random(0)

    def derivative(g):
        return Poly(g.field, [i * c for i, c in enumerate(g.coeffs)][1:])

    def run(g, mult):
        if g.degree == 0:
            return []
        if derivative(g).is_zero():
            return run(Poly(g.field, g.coeffs[::p]), mult * p)
        w = g // poly_gcd(g, derivative(g))
        found, rest = [], g
        for pi in _old_squarefree(w, rng):
            e = 0
            while True:
                q, r = divmod(rest, pi)
                if not r.is_zero():
                    break
                rest, e = q, e + 1
            found.append((pi.coeffs, e * mult))
        return found + run(rest, mult)

    return sorted(run(f, 1), key=lambda t: (Poly(f.field, t[0]).sort_key(), t[1]))


def _irreducibles(rng, fld, d, count):
    """count distinct monic irreducibles of degree d (found by the referee)."""
    out = set()
    while len(out) < count:
        f = rand_monic(rng, fld, d)
        if _old_factor(f) == [(f.coeffs, 1)]:
            out.add(f)
    return sorted(out, key=Poly.sort_key)


def test_factor_matches_poly_object_factoring():
    rng = random.Random(303)
    F101 = PrimeField(101)
    cases = []
    for fld in (F2, F3):  # p-th powers, also of p-th powers
        for _ in range(40):
            g = rand_monic(rng, fld, rng.randrange(1, 5))
            cases.append(g ** fld.p * rand_monic(rng, fld, rng.randrange(0, 3)) ** (fld.p * rng.randrange(1, 3)))
    for fld in (F2, F3, F5, PrimeField(7), F101):  # repeated factors
        for _ in range(16):
            a, b = rand_monic(rng, fld, rng.randrange(1, 4)), rand_monic(rng, fld, rng.randrange(1, 4))
            cases.append(a ** rng.randrange(2, 4) * b ** rng.randrange(1, 3))
    # products of 2 or 3 distinct irreducibles of one degree: the splitting path
    for fld, d in ((F2, 4), (F2, 5), (F3, 2), (F3, 3), (F5, 2), (F5, 3),
                   (PrimeField(7), 2), (F101, 2), (F101, 3)):
        irr = _irreducibles(rng, fld, d, 3)
        for _ in range(10):
            prod = Poly.one(fld)
            for q in rng.sample(irr, rng.randrange(2, 4)):
                prod = prod * q
            cases.append(prod)
    for _ in range(50):  # degree 16 at p = 101
        cases.append(rand_monic(rng, F101, 16))
    assert len(cases) >= 300
    for f in cases:
        got = [(pf.base.coeffs, pf.exp) for pf in factor_prime_powers(f)]
        assert got == _old_factor(f), f


def test_factor_rejects_bad_inputs():
    with pytest.raises(ZeroPolynomialError):
        factor_prime_powers(Poly.zero(F3))
    with pytest.raises(NotMonicError):
        factor_prime_powers(Poly(F3, [1, 2]))
    assert factor_prime_powers(Poly.one(F3)) == []


# -- Mobius action on finite-block polynomials ---------------------------------


def test_mobius_worked_examples_gf5():
    chi = Poly(F5, [4, 0, 1])  # x^2 - 1
    t = Mobius2x2.from_ints(F5, 1, 0, 0, 2)
    assert mobius_transform(chi, t) == Poly(F5, [1, 0, 1])  # x^2 - 4
    chi2 = Poly(F5, [3, 0, 1])  # x^2 - 2
    swap = Mobius2x2.from_ints(F5, 0, 1, 1, 0)
    assert mobius_transform(chi2, swap) == Poly(F5, [2, 0, 1])  # x^2 - 3
    # a mix holds plain ints in [0, p)
    assert Mobius2x2.from_ints(F5, 6, -1, 0, 2) == Mobius2x2(F5, 1, 4, 0, 2)
    assert all(type(x) is int for x in t.as_ints())


def test_mobius_identity_and_degree():
    rng = random.Random(4)
    for fld in (F2, F3, F5):
        ident = Mobius2x2.from_ints(fld, 1, 0, 0, 1)
        for _ in range(30):
            chi = rand_monic(rng, fld, rng.randrange(1, 5))
            out = mobius_transform(chi, ident)
            assert out == chi
            assert out.degree == chi.degree


def test_mobius_inadmissible_raises():
    # T = [[0, 1], [1, 0]] needs chi(0) != 0; chi = x has chi(0) = 0
    swap = Mobius2x2.from_ints(F5, 0, 1, 1, 0)
    with pytest.raises(InadmissibleTransformError):
        mobius_transform(Poly.x(F5), swap)


def test_mobius_singular_matrix_rejected():
    with pytest.raises(Exception):
        Mobius2x2.from_ints(F5, 1, 2, 2, 4)


def _random_mobius(rng, fld):
    while True:
        a, b, c, d = (rng.randrange(fld.p) for _ in range(4))
        if (a * d - b * c) % fld.p:
            return Mobius2x2.from_ints(fld, a, b, c, d)


def test_mobius_composition_is_t_matrix_product():
    rng = random.Random(31)
    for fld in (F3, F5):
        p = fld.p
        for _ in range(150):
            chi = rand_monic(rng, fld, rng.randrange(1, 5))
            t1 = _random_mobius(rng, fld)
            t2 = _random_mobius(rng, fld)
            # T-matrices are [[a, c], [b, d]]; applying t1 then t2 multiplies them
            x1 = [int(v) for v in t1.as_ints()]
            x2 = [int(v) for v in t2.as_ints()]
            a = (x1[0] * x2[0] + x1[2] * x2[1]) % p
            c = (x1[0] * x2[2] + x1[2] * x2[3]) % p
            b = (x1[1] * x2[0] + x1[3] * x2[1]) % p
            d = (x1[1] * x2[2] + x1[3] * x2[3]) % p
            t12 = Mobius2x2.from_ints(fld, a, b, c, d)
            try:
                step1 = mobius_transform(chi, t1)
                step2 = mobius_transform(step1, t2)
            except InadmissibleTransformError:
                continue
            assert mobius_transform(chi, t12) == step2


def test_mobius_agrees_with_companion_route():
    """The polynomial substitution and the matrix-quotient characteristic
    polynomial must produce identical results, including on admissibility."""
    rng = random.Random(6)
    for fld in (F2, F3, F5):
        for _ in range(200):
            chi = rand_monic(rng, fld, rng.randrange(1, 5))
            t = _random_mobius(rng, fld)
            try:
                via_poly = mobius_transform(chi, t)
            except InadmissibleTransformError:
                with pytest.raises(InadmissibleTransformError):
                    mobius_charpoly_check(chi, t)
                continue
            assert mobius_charpoly_check(chi, t) == via_poly

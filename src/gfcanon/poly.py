"""Univariate polynomials over GF(p).

Coefficients are stored ascending (coeffs[i] multiplies x**i) as plain ints,
normalized so the last entry is nonzero; the zero polynomial has an empty
tuple and degree -1.  Includes gcd, modular exponentiation, prime-power
factorization (distinct-degree with Berlekamp's Q matrix + Cantor-Zassenhaus
equal-degree splitting), and the fractional-linear substitution on monic
polynomials used by the two-slice mixing step.  The arithmetic itself is one
core of functions on plain coefficient lists, which Poly wraps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .errors import (
    InadmissibleTransformError,
    NotMonicError,
    SingularMatrixError,
    ZeroInverseError,
    ZeroPolynomialError,
)
from .field import PrimeField


# -- coefficient-list core -----------------------------------------------------
#
# Ascending lists of ints in [0, p) whose last entry is nonzero; [] is the
# zero polynomial.  Poly's arithmetic, poly_gcd, poly_powmod, the factoring
# below and linalg.char_poly all run on these, so each operation exists once.


def _trim(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def add_coeffs(a, b, p: int, c: int = 1) -> list[int]:
    """a + c*b."""
    out = list(a) + [0] * (len(b) - len(a))
    out[: len(b)] = [(u + c * y) % p for u, y in zip(out, b)]
    return _trim(out)


def mul_coeffs(a, b, p: int) -> list[int]:
    """a*b; the leading coefficient is a product of nonzeros, so never 0."""
    if not a or not b:
        return []
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + lb] = [u + x * y for u, y in zip(out[i : i + lb], b)]
    return [u % p for u in out]


def pow_coeffs(a, e: int, p: int) -> list[int]:
    result = [1]
    while e:
        if e & 1:
            result = mul_coeffs(result, a, p)
        e >>= 1
        if e:
            a = mul_coeffs(a, a, p)
    return result


def divmod_coeffs(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b."""
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        return [], list(a)
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db] * inv % p
        if c:
            quo[k] = c
            # rem[k + db] becomes 0 and is never read again
            rem[k : k + db] = [(u - c * y) % p for u, y in zip(rem[k : k + db], b)]
    return quo, _trim(rem[:db])


def mod_coeffs(a, b, p: int) -> list[int]:
    return divmod_coeffs(a, b, p)[1]


def gcd_coeffs(a, b, p: int) -> list[int]:
    """Monic gcd; the gcd of two zeros is []."""
    while b:
        a, b = b, mod_coeffs(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [u * inv % p for u in a]


def powmod_coeffs(base, e: int, m, p: int) -> list[int]:
    """base**e mod a nonzero m, by repeated squaring."""
    result = mod_coeffs([1], m, p)
    base = mod_coeffs(base, m, p)
    while e:
        if e & 1:
            result = mod_coeffs(mul_coeffs(result, base, p), m, p)
        e >>= 1
        if e:
            base = mod_coeffs(mul_coeffs(base, base, p), m, p)
    return result


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        cs = [int(c) % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field: PrimeField) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: PrimeField) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def x(field: PrimeField) -> "Poly":
        return Poly(field, (0, 1))

    @staticmethod
    def constant(field: PrimeField, c) -> "Poly":
        return Poly(field, (int(c),))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def _same(self, other: "Poly"):
        self.field.require_same(other.field)

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        return Poly(self.field, add_coeffs(self.coeffs, other.coeffs, self.field.p))

    def __sub__(self, other: "Poly") -> "Poly":
        self._same(other)
        return Poly(self.field, add_coeffs(self.coeffs, other.coeffs, self.field.p, -1))

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._same(other)
        return Poly(self.field, mul_coeffs(self.coeffs, other.coeffs, self.field.p))

    def scale(self, c) -> "Poly":
        c = int(c) % self.field.p
        return Poly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        return Poly(self.field, pow_coeffs(self.coeffs, e, self.field.p))

    def __divmod__(self, other: "Poly"):
        self._same(other)
        if other.is_zero():
            raise ZeroInverseError("polynomial division by zero")
        q, r = divmod_coeffs(self.coeffs, other.coeffs, self.field.p)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def evaluate(self, x0) -> int:
        p = self.field.p
        x0 = int(x0) % p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x0 + c) % p
        return acc

    # -- ordering key ------------------------------------------------------

    def sort_key(self):
        """Key for the canonical ordering of monic polynomials.

        x**l - u1*x**(l-1) - ... - ul maps to (l, (u1, ..., ul)): degree
        first, then the negated non-leading coefficients from high power
        down.  This makes x - c sort by c and x**2 - v sort by v.
        """
        if not self.is_monic():
            raise NotMonicError("sort key is defined for monic polynomials only")
        l = self.degree
        return (l, tuple(-self.coeff(l - j) % self.field.p for j in range(1, l + 1)))

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field.p == other.field.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return f"Poly(GF({self.field.p}), 0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
        return f"Poly(GF({self.field.p}), {' + '.join(terms)})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is 0."""
    a.field.require_same(b.field)
    return Poly(a.field, gcd_coeffs(a.coeffs, b.coeffs, a.field.p))


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    if e < 0:
        raise ValueError("negative exponent")
    if mod.is_zero():
        raise ZeroInverseError("polynomial division by zero")
    return Poly(base.field, powmod_coeffs(base.coeffs, e, mod.coeffs, base.field.p))


# -- factorization -----------------------------------------------------------


@dataclass(frozen=True)
class PrimePowerFactor:
    base: Poly
    exp: int

    def expand(self) -> Poly:
        return self.base**self.exp


def _equal_degree_split(g: list[int], d: int, p: int, rng: random.Random) -> list[int]:
    """A proper monic factor of g, where g is a product of >= 2 distinct
    irreducibles all of degree d (Cantor-Zassenhaus)."""
    l = len(g) - 1
    while True:
        r = _trim([rng.randrange(p) for _ in range(l)])
        if len(r) < 2:
            continue
        t = gcd_coeffs(r, g, p)
        if 1 < len(t) <= l:
            return t
        if p == 2:
            # trace map of r in GF(2^d)
            s, acc = [], mod_coeffs(r, g, p)
            for _ in range(d):
                s = add_coeffs(s, acc, p)
                acc = mod_coeffs(mul_coeffs(acc, acc, p), g, p)
        else:
            s = add_coeffs(powmod_coeffs(r, (p**d - 1) // 2, g, p), [1], p, -1)
        t = gcd_coeffs(s, g, p)
        if 1 < len(t) <= l:
            return t


def _q_matrix(xp: list[int], w: list[int], p: int) -> list[list[int]]:
    """Rows of Berlekamp's Q matrix: column i is x^(p*i) mod w, so h -> Q h
    is h -> h^p mod w (c^p = c in GF(p)).  Costs deg w - 1 products mod w."""
    l = len(w) - 1
    cols = [[1]]
    for _ in range(1, l):
        cols.append(mod_coeffs(mul_coeffs(cols[-1], xp, p), w, p))
    return [[c[i] if i < len(c) else 0 for c in cols] for i in range(l)]


def _factor_squarefree(w: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """Distinct monic irreducible factors of a squarefree monic w.

    Distinct-degree step: h = x^(p^d) mod w, so gcd(h - x, rem) is the
    product of the degree-d factors left in rem.  h starts at x^p mod w
    and then moves by the Q matrix, one O(l^2) product per degree.
    """
    out: list[list[int]] = []
    q_rows = None
    d = 0
    rem = w
    while len(rem) > 1:
        d += 1
        if len(rem) - 1 < 2 * d:
            out.append(rem)
            break
        if d == 1:
            h = xp = powmod_coeffs([0, 1], p, w, p)
        else:
            q_rows = q_rows or _q_matrix(xp, w, p)
            h = _trim([sum(map(mul, row, h)) % p for row in q_rows])
        g = gcd_coeffs(add_coeffs(h, [0, 1], p, -1), rem, p)
        if len(g) > 1:
            # split the degree-d part into its (len(g) - 1) // d irreducibles
            stack = [g]
            while stack:
                f = stack.pop()
                if len(f) - 1 == d:
                    out.append(f)
                else:
                    t = _equal_degree_split(f, d, p, rng)
                    stack.append(t)
                    stack.append(divmod_coeffs(f, t, p)[0])
            rem = divmod_coeffs(rem, g, p)[0]
    return out


def factor_prime_powers(
    f: Poly, rng: random.Random | None = None
) -> list[PrimePowerFactor]:
    """Factor a monic polynomial into prime powers pi**e with distinct pi.

    The result is sorted by (base.sort_key(), exp) and does not depend on
    the rng, which only steers the internal splitting search (default
    random.Random(0)).  The work runs on coefficient lists; the product of
    the factors is checked against f before returning.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if not f.is_monic():
        raise NotMonicError("factorization requires a monic polynomial")
    if rng is None:
        rng = random.Random(0)
    p = f.field.p

    def run(g: list[int], mult: int) -> list[tuple[list[int], int]]:
        if len(g) == 1:
            return []
        dg = _trim([i * c % p for i, c in enumerate(g)][1:])
        if not dg:
            # g = h(x)**p coefficient-wise over GF(p), and c**(1/p) == c
            return run(g[::p], mult * p)
        w = divmod_coeffs(g, gcd_coeffs(g, dg, p), p)[0]
        found = []
        rest = g
        for pi in _factor_squarefree(w, p, rng):
            e = 0
            while True:
                q, r = divmod_coeffs(rest, pi, p)
                if r:
                    break
                rest = q
                e += 1
            found.append((pi, e * mult))
        # what survives trial division has every multiplicity divisible by p
        found.extend(run(rest, mult))
        return found

    found = run(list(f.coeffs), 1)
    prod = [1]
    for pi, e in found:
        prod = mul_coeffs(prod, pow_coeffs(pi, e, p), p)
    if prod != list(f.coeffs):
        raise AssertionError("factorization must reassemble")
    factors = [PrimePowerFactor(Poly(f.field, pi), e) for pi, e in found]
    factors.sort(key=lambda pf: (pf.base.sort_key(), pf.exp))
    return factors


# -- fractional-linear substitution ------------------------------------------


@dataclass(frozen=True)
class Mobius2x2:
    """An invertible two-slice mix written as four scalars, plain ints in
    [0, p) (from_ints reduces them).

    As a matrix acting on the last axis it is [[a, c], [b, d]]: the new
    first slice is a*A1 + b*A2 and the new second is c*A1 + d*A2.
    """

    field: PrimeField
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if (self.a * self.d - self.b * self.c) % self.field.p == 0:
            raise SingularMatrixError("slice mix must be invertible")

    @staticmethod
    def from_ints(field: PrimeField, a: int, b: int, c: int, d: int) -> "Mobius2x2":
        p = field.p
        return Mobius2x2(field, a % p, b % p, c % p, d % p)

    def as_ints(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def mobius_image(chi, a: int, b: int, c: int, d: int, p: int) -> list[int] | None:
    """Image of the monic chi under the slice mix (a, b, c, d), both as ascending
    coefficients: the monic multiple of sum_i c_i * (a*x - c)**i * (d - b*x)**(l-i),
    by Horner's rule in O(l^2) int operations.  That sum's leading coefficient is
    det(a*I + b*Phi_chi); None when it vanishes (the mix is inadmissible)."""
    l = len(chi) - 1
    acc, den_pow = [chi[l]], [1]
    for i in range(l - 1, -1, -1):
        # den_pow <- den_pow * (d - b*x); acc <- acc * (a*x - c) + c_i * den_pow
        den_pow = [(d * hi - b * lo) % p for lo, hi in zip([0] + den_pow, den_pow + [0])]
        ci = chi[i]
        acc = [(a * lo - c * hi + ci * y) % p for lo, hi, y in zip([0] + acc, acc + [0], den_pow)]
    if not acc[-1]:
        return None
    inv = pow(acc[-1], -1, p)
    return [s * inv % p for s in acc]


def mobius_transform(chi: Poly, t: Mobius2x2) -> Poly:
    """Image of a monic chi under the slice mix t (see mobius_image); raises
    InadmissibleTransformError when the mixed first slice is singular."""
    if not chi.is_monic():
        raise NotMonicError("slice-mix substitution requires a monic polynomial")
    chi.field.require_same(t.field)
    eta = mobius_image(chi.coeffs, *t.as_ints(), chi.field.p)
    if eta is None:
        raise InadmissibleTransformError("slice mix sends this block off to a singular first slice")
    return Poly(chi.field, eta)

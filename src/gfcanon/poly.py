"""Univariate polynomials over GF(p).

Coefficients are stored ascending (coeffs[i] multiplies x**i) as plain ints,
normalized so the last entry is nonzero; the zero polynomial has an empty
tuple and degree -1.  Includes gcd, modular exponentiation, prime-power
factorization (distinct-degree + Cantor-Zassenhaus equal-degree splitting),
and the fractional-linear substitution on monic polynomials used by the
two-slice mixing step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    InadmissibleTransformError,
    NotMonicError,
    SingularMatrixError,
    ZeroInverseError,
    ZeroPolynomialError,
)
from .field import FieldElem, PrimeField


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

    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def _same(self, other: "Poly"):
        self.field.require_same(other.field)

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.field, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.field, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._same(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Poly(self.field, out)

    def scale(self, c) -> "Poly":
        c = int(c) % self.field.p
        return Poly(self.field, [a * c for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        self._same(other)
        if other.is_zero():
            raise ZeroInverseError("polynomial division by zero")
        p = self.field.p
        inv_lead = self.field.inv(other.lead())
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = (rem[k + other.degree] * inv_lead) % p
            if c:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = (rem[k + j] - c * b) % p
        return Poly(self.field, quo), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def derivative(self) -> "Poly":
        return Poly(
            self.field, [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def pth_root(self) -> "Poly":
        """Inverse of f -> f**p; valid only when every exponent is a multiple of p."""
        p = self.field.p
        root = []
        for i, c in enumerate(self.coeffs):
            if i % p == 0:
                root.append(c)  # c**(1/p) == c in GF(p)
            elif c != 0:
                raise ValueError("polynomial is not a p-th power")
        return Poly(self.field, root)

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
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    if e < 0:
        raise ValueError("negative exponent")
    result = Poly.one(base.field) % mod
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


# -- factorization -----------------------------------------------------------


@dataclass(frozen=True)
class PrimePowerFactor:
    base: Poly
    exp: int

    def expand(self) -> Poly:
        return self.base**self.exp


def _equal_degree_split(g: Poly, d: int, rng: random.Random) -> Poly:
    """A proper monic factor of g, where g is a product of >= 2 distinct
    irreducibles all of degree d (Cantor-Zassenhaus)."""
    field = g.field
    p = field.p
    while True:
        r = Poly(field, [rng.randrange(p) for _ in range(g.degree)])
        if r.degree < 1:
            continue
        t = poly_gcd(r, g)
        if 0 < t.degree < g.degree:
            return t
        if p == 2:
            # trace map of r in GF(2^d)
            s = Poly.zero(field)
            acc = r % g
            for _ in range(d):
                s = s + acc
                acc = (acc * acc) % g
            t = poly_gcd(s, g)
        else:
            s = poly_powmod(r, (p**d - 1) // 2, g) - Poly.one(field)
            t = poly_gcd(s, g)
        if 0 < t.degree < g.degree:
            return t


def _factor_squarefree(w: Poly, rng: random.Random) -> list[Poly]:
    """Distinct monic irreducible factors of a squarefree monic w."""
    field = w.field
    p = field.p
    out: list[Poly] = []
    x = Poly.x(field)
    h = x % w
    d = 0
    rem = w
    while rem.degree >= 1:
        d += 1
        if rem.degree < 2 * d:
            out.append(rem)
            break
        h = poly_powmod(h, p, rem)
        g = poly_gcd(h - x, rem)
        if g.degree > 0:
            # split the degree-d part into its g.degree // d irreducibles
            stack = [g]
            while stack:
                f = stack.pop()
                if f.degree == d:
                    out.append(f)
                else:
                    t = _equal_degree_split(f, d, rng)
                    stack.append(t)
                    stack.append(f // t)
            rem = rem // g
            h = h % rem
    return out


# seed for the default factoring rng; changing it changes only the internal
# search order, never the (sorted) factorization
DEFAULT_SEED = 0


def factor_prime_powers(
    f: Poly, rng: random.Random | None = None
) -> list[PrimePowerFactor]:
    """Factor a monic polynomial into prime powers pi**e with distinct pi.

    The result is sorted by (base.sort_key(), exp) and does not depend on
    the rng, which only steers the internal splitting search.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if not f.is_monic():
        raise NotMonicError("factorization requires a monic polynomial")
    if rng is None:
        rng = random.Random(DEFAULT_SEED)

    def run(g: Poly, mult: int) -> list[PrimePowerFactor]:
        if g.degree == 0:
            return []
        if g.derivative().is_zero():
            # g = h(x)**p coefficient-wise over GF(p)
            return run(g.pth_root(), mult * g.field.p)
        w = g // poly_gcd(g, g.derivative())
        found: list[PrimePowerFactor] = []
        rest = g
        for pi in _factor_squarefree(w, rng):
            e = 0
            while True:
                q, r = divmod(rest, pi)
                if not r.is_zero():
                    break
                rest = q
                e += 1
            found.append(PrimePowerFactor(pi, e * mult))
        # what survives trial division has every multiplicity divisible by p
        found.extend(run(rest, mult))
        return found

    factors = run(f, 1)
    factors.sort(key=lambda pf: (pf.base.sort_key(), pf.exp))
    prod = Poly.one(f.field)
    for pf in factors:
        prod = prod * pf.expand()
    assert prod == f, "factorization must reassemble"
    return factors


# -- fractional-linear substitution ------------------------------------------


@dataclass(frozen=True)
class Mobius2x2:
    """An invertible two-slice mix written as four scalars.

    As a matrix acting on the last axis it is [[a, c], [b, d]]: the new
    first slice is a*A1 + b*A2 and the new second is c*A1 + d*A2.
    """

    a: FieldElem
    b: FieldElem
    c: FieldElem
    d: FieldElem

    def __post_init__(self):
        f = self.a.field
        for v in (self.b, self.c, self.d):
            f.require_same(v.field)
        if (self.a * self.d - self.b * self.c).value == 0:
            raise SingularMatrixError("slice mix must be invertible")

    @staticmethod
    def from_ints(field: PrimeField, a: int, b: int, c: int, d: int) -> "Mobius2x2":
        return Mobius2x2(field(a), field(b), field(c), field(d))

    @property
    def field(self) -> PrimeField:
        return self.a.field

    def as_ints(self) -> tuple[int, int, int, int]:
        return (self.a.value, self.b.value, self.c.value, self.d.value)


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

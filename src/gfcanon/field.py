"""Prime fields GF(p) and their elements.

A PrimeField does arithmetic on plain ints in [0, p); FieldElem is a thin
wrapper with operator overloading for code that wants typed scalars.  All
heavy machinery (matrices, polynomials) stores raw ints and calls the field's
int-level methods, which keeps inner loops cheap while the public API stays
readable.
"""

from __future__ import annotations

from .errors import NotPrimeError, FieldMismatchError, ZeroInverseError

_MAX_P = 2**31


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fields stay desk-scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field of integers modulo a prime p < 2**31."""

    __slots__ = ("p", "_inv_table")

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < _MAX_P or not is_prime(p):
            raise NotPrimeError(f"modulus must be a prime in [2, 2^31), got {p!r}")
        self.p = p
        # Small fields get a precomputed inverse table; inner loops hit it hard.
        if p <= 4096:
            table = [0] * p
            for a in range(1, p):
                table[a] = pow(a, p - 2, p)
            self._inv_table = tuple(table)
        else:
            self._inv_table = None

    # -- int-level arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroInverseError(f"0 has no inverse in GF({self.p})")
        if self._inv_table is not None:
            return self._inv_table[a]
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a % self.p, e, self.p)

    def elements(self):
        return range(self.p)

    def units(self):
        return range(1, self.p)

    def generator(self) -> int:
        """Smallest multiplicative generator of GF(p)*."""
        p = self.p
        if p == 2:
            return 1
        order = p - 1
        primes = []
        n, d = order, 2
        while d * d <= n:
            if n % d == 0:
                primes.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            primes.append(n)
        for g in range(2, p):
            if all(pow(g, order // q, p) != 1 for q in primes):
                return g
        raise AssertionError("no generator found")  # unreachable for prime p

    # -- element factory -----------------------------------------------------

    def element(self, value) -> "FieldElem":
        if isinstance(value, FieldElem):
            self.require_same(value.field)
            return value
        return FieldElem(int(value) % self.p, self)

    def __call__(self, value) -> "FieldElem":
        return self.element(value)

    def require_same(self, other: "PrimeField"):
        if self.p != other.p:
            raise FieldMismatchError(f"mixed moduli GF({self.p}) and GF({other.p})")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _coerce(value, field: PrimeField) -> int:
    if isinstance(value, FieldElem):
        field.require_same(value.field)
        return value.value
    return int(value) % field.p


class FieldElem:
    """An element of GF(p): a residue in [0, p) plus its field."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.p
        self.field = field

    def __add__(self, other):
        return FieldElem(self.value + _coerce(other, self.field), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElem(self.value - _coerce(other, self.field), self.field)

    def __rsub__(self, other):
        return FieldElem(_coerce(other, self.field) - self.value, self.field)

    def __mul__(self, other):
        return FieldElem(self.value * _coerce(other, self.field), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElem(
            self.value * self.field.inv(_coerce(other, self.field)), self.field
        )

    def __rtruediv__(self, other):
        return FieldElem(
            _coerce(other, self.field) * self.field.inv(self.value), self.field
        )

    def __neg__(self):
        return FieldElem(-self.value, self.field)

    def __pow__(self, e: int):
        return FieldElem(self.field.pow(self.value, e), self.field)

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field.inv(self.value), self.field)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field.p == other.field.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"GF({self.field.p})({self.value})"

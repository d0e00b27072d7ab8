"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Rational scalars are ``fractions.Fraction`` values (always stored in
lowest terms with positive denominator, so equality is bitwise).
Prime-field scalars are ``Fp`` residues.  No floating point is accepted
anywhere.
"""

import functools
import math

from fractions import Fraction

from .errors import CharacteristicTooSmall, FieldMismatch


# Miller-Rabin with these bases is exact below this bound
# (Sorenson and Webster 2015, psi_13 = 3317044064679887385961981).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for n < PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"characteristic {n} exceeds the supported bound {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Residue in GF(p), canonical representative in [0, p)."""

    __slots__ = ("p", "r")

    def __init__(self, p, value):
        self.p = p
        self.r = value % p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return Fp(self.p, other)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise CharacteristicTooSmall(
                    f"denominator {other.denominator} not invertible mod {self.p}")
            return Fp(self.p, other.numerator * pow(other.denominator, -1, self.p))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.p, self.r + o.r)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.p, self.r - o.r)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.p, o.r - self.r)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.p, self.r * o.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.r == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(self.p, self.r * pow(o.r, -1, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return Fp(self.p, -self.r)

    def __bool__(self):
        return self.r != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.r == other.r
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"{self.r}"


class ScalarField:
    """Coefficient field: characteristic 0 means the rationals, a prime p
    means GF(p).

    Prime characteristics must strictly exceed the nilpotency class of
    whatever structure they scalar; that is checked at the point of use
    (algebra/brace validation), not here.  ``zero`` and ``one`` are the
    field's canonical 0 and 1, shared by every caller (scalars are
    immutable).
    """

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic=0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be a prime, got {characteristic}")
        self.characteristic = characteristic
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, value):
        """Coerce an int, Fraction, decimal-free string, or element into
        a canonical scalar of this field.  Floats are rejected."""
        if isinstance(value, float):
            raise TypeError("floating point is not allowed; use Fraction or int")
        p = self.characteristic
        if p == 0:
            if isinstance(value, Fp):
                raise FieldMismatch(f"GF({value.p}) scalar used over Q")
            if isinstance(value, Fraction):
                return value
            if isinstance(value, (int, str)):
                return Fraction(value)
            raise TypeError(f"cannot coerce {value!r} to a rational")
        if isinstance(value, Fp):
            if value.p != p:
                raise FieldMismatch(f"GF({value.p}) scalar used over GF({p})")
            return value
        if isinstance(value, int):
            return Fp(p, value)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            return Fp(p, 0)._coerce(value)
        raise TypeError(f"cannot coerce {value!r} to GF({p})")

    def to_ints(self, values):
        """(ints, den) with values[i] = ints[i] / den, for canonical
        scalars of this field: over GF(p) the residues and den 1, over Q
        den the least common denominator."""
        if self.characteristic:
            return [x.r for x in values], 1
        den = math.lcm(*(x.denominator for x in values))
        if den == 1:
            return [x.numerator for x in values], 1
        return [x.numerator * (den // x.denominator) for x in values], den

    def from_ints(self, ints, den):
        """The canonical scalars ints[i] / den as a tuple; den > 0, and
        over GF(p) not divisible by p."""
        p, zero = self.characteristic, self.zero
        if p == 0:
            return tuple(Fraction(n, den) if n else zero for n in ints)
        if den != 1:
            inv = pow(den, -1, p)
            ints = [n * inv for n in ints]
        return tuple(Fp(p, n) if n else zero for n in ints)

    def inv_int(self, n):
        """1/n in this field; CharacteristicTooSmall if p divides n."""
        if n == 0:
            raise ZeroDivisionError("1/0")
        p = self.characteristic
        if p == 0:
            return Fraction(1, n)
        if n % p == 0:
            raise CharacteristicTooSmall(f"{n} is not invertible mod {p}")
        return Fp(p, pow(n % p, -1, p))

    def inv_factorial(self, k):
        """1/k! in this field; requires characteristic 0 or > k."""
        f = 1
        for i in range(2, k + 1):
            f *= i
        return self.inv_int(f) if k >= 2 else self.one

    def to_str(self, x):
        """Canonical printing of a canonical scalar x: "num/den" in lowest
        terms over Q (bare integer when the denominator is 1), the residue
        over GF(p)."""
        if self.characteristic == 0:
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        return str(x.r)

    def __eq__(self, other):
        return isinstance(other, ScalarField) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("ScalarField", self.characteristic))

    def __repr__(self):
        if self.characteristic == 0:
            return "Q"
        return f"GF({self.characteristic})"


Q = ScalarField(0)


@functools.cache
def GF(p):
    """The prime field of p elements, made once per process; ValueError
    unless p is a prime."""
    if p == 0:
        raise ValueError("characteristic must be a prime, got 0")
    return ScalarField(p)

"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A QuadNumber stores a + b*sqrt(d) with rational a, b and a square-free
positive integer d.  Numbers are kept in a canonical form: a rational value
always has b = 0 and d = 1, so equality is plain componentwise comparison.
Mixed radicals (a + b*sqrt(2) + c*sqrt(3)) are deliberately unsupported;
combining two numbers whose radical parts live in different fields raises
FieldMismatchError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .errors import FieldMismatchError

Rational = int | Fraction

# Work bound of _square_free_split: trial division stops, refusing n, once
# the divisor times the bit length of the cofactor left exceeds it.  A
# division costs more the longer the cofactor, so a long cofactor gets fewer
# divisors.  Every n up to 10**12 (40 bits, divisors up to 10**6) is split;
# its worst case, the prime 999999999989, takes 0.09 s (CPython 3.11, one x86
# core), while a 2,658-bit cofactor such as 10**800 + 1 is refused after
# 0.01 s.  The catalog's largest radicand is 26.
MAX_TRIAL_WORK = 40 * 10**6


def rational(text: str | int | float) -> Fraction:
    """The exact rational a text such as '3', '-1/2' or '2.5e-1' (or a finite
    JSON number) denotes; the one parser of rationals from argv and spec
    files.  Anything else, '1/0' and infinities included, raises ValueError."""
    if not isinstance(text, (str, int, float)):
        raise ValueError(f"expected a rational, got {type(text).__name__}")
    try:
        return Fraction(text)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"not a finite rational: {text!r}") from None


def _square_free_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d square-free."""
    if n <= 0:
        raise ValueError("expected a positive integer")
    s, d = 1, 1
    p = 2
    m = n
    limit = 0  # MAX_TRIAL_WORK // m.bit_length(), refreshed only once p passes it
    while p * p <= m:
        if p > limit:
            limit = MAX_TRIAL_WORK // m.bit_length()
            if p > limit:
                raise ValueError(
                    f"radicand exceeds the trial-division bound: a {m.bit_length()}-bit "
                    f"cofactor has no factor below {p}"
                )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= m
    return s, d


@dataclass(frozen=True)
class QuadNumber:
    """Exact element a + b*sqrt(d) of a real quadratic field."""

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: Rational = 0, b: Rational = 0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        if d < 1:
            raise ValueError("d must be a positive integer")
        if b == 0:
            d = 1
        else:
            s, d = _square_free_split(d)
            if s != 1:
                b *= s
            if d == 1:
                a, b = a + b, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, n: Rational) -> QuadNumber:
        """Exact square root of a nonnegative rational, if it stays quadratic."""
        n = Fraction(n)
        if n < 0:
            raise ValueError("sqrt of a negative rational")
        if n == 0:
            return cls(0)
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = _square_free_split(n.numerator * n.denominator)
        return cls(0, Fraction(s, n.denominator), d)

    @classmethod
    def parse(cls, a: str, b: str = "0", d: int = 1) -> QuadNumber:
        """Build from 'p/q' strings, the JSON interchange encoding."""
        return cls(rational(a), rational(b), d)

    # -- field compatibility -----------------------------------------------

    def _joint_d(self, other: QuadNumber) -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise FieldMismatchError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d

    @staticmethod
    def _coerce(value: QuadNumber | Rational) -> QuadNumber:
        if isinstance(value, QuadNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadNumber(value)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: QuadNumber | Rational) -> QuadNumber:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._joint_d(other)
        return QuadNumber(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> QuadNumber:
        return QuadNumber(-self.a, -self.b, self.d)

    def __sub__(self, other: QuadNumber | Rational) -> QuadNumber:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: QuadNumber | Rational) -> QuadNumber:
        return (-self) + other

    def __mul__(self, other: QuadNumber | Rational) -> QuadNumber:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._joint_d(other)
        return QuadNumber(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadNumber:
        """Multiplicative inverse; norm a^2 - b^2 d never vanishes for d square-free."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        norm = self.a * self.a - self.b * self.b * self.d
        return QuadNumber(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: QuadNumber | Rational) -> QuadNumber:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: QuadNumber | Rational) -> QuadNumber:
        return self._coerce(other) * self.inverse()

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def sign(self) -> int:
        """Exact sign of the real value."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if self.a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if lhs < rhs else -1

    def __float__(self) -> float:
        if self.b:  # the canonical form makes d square-free and > 1
            return float(self.a) + float(self.b) * sqrt(self.d)
        return float(self.a)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadNumber(other)
        if not isinstance(other, QuadNumber):
            return NotImplemented
        return self.a == other.a and self.b == other.b and (
            self.b == 0 or self.d == other.d
        )

    def __hash__(self) -> int:
        # a rational value hashes as its Fraction, as __eq__ equates them
        return hash((self.a, self.b, self.d)) if self.b else hash(self.a)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadNumber({self.a})"
        return f"QuadNumber({self.a} + {self.b}*sqrt({self.d}))"

"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A QuadNumber stores (p + q*sqrt(d))/r in four integers, with r > 0,
gcd(p, q, r) = 1 and a square-free positive d that is 1 exactly when q = 0.
This form is canonical, so equality compares the four integers, and the
arithmetic is integer arithmetic over one common denominator (H. Cohen, *A
Course in Computational Algebraic Number Theory*, GTM 138, 1993): no
Fraction is built and d is never factored.  A radicand is factored only where
a number is built from one that may not be square-free (`QuadNumber(a, b, d)`
and `QuadNumber.sqrt`); the square-free part it leaves builds further numbers
unfactored (`_from_square_free`), as spec loading does.  The rational and
radical parts stay readable as Fractions through .a and .b.  Numbers enter
as ints or Fractions (text through `rational`); any other type, a float
included, raises TypeError, as in the arithmetic.  Mixed radicals (a +
b*sqrt(2) + c*sqrt(3)) are deliberately unsupported; combining two numbers
whose radical parts live in different fields raises FieldMismatchError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, sqrt

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

# Largest decimal exponent rational() expands.  Fraction('1e<k>') builds
# 10**k in time and memory growing with k ('1e10000000' took 12.7 s) before
# any bound downstream applies, so a larger k is refused first.  The value is
# CPython's default int-string limit (sys.int_info.default_max_str_digits):
# past it the expansion has more digits than int() accepts from a string.
MAX_DECIMAL_EXPONENT = 4300

# The text rational() reads: Fraction's grammar on Python 3.10, which later
# versions only extend (3.11 with underscores in digit runs, 3.12 with
# whitespace around '/'), so a text means the same on every version.  As in
# Fraction, \d and \s are Unicode digits and whitespace.
_RATIONAL = re.compile(
    r"""\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*)
        (?:/(?P<den>\d+)|(?:\.(?P<decimal>\d*))?(?:E(?P<exp>[-+]?\d+))?)\s*""",
    re.VERBOSE | re.IGNORECASE,
)
# The plain '[sign]digits[/digits]' text of spec files, a part of that grammar
# split by a shorter pattern.
_PLAIN = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def rational(text: str | int) -> Fraction:
    """The exact rational a text such as '3', '-1/2' or '2.5e-1' (or a JSON
    integer) denotes; the one parser of rationals from argv and spec files.
    It accepts the text Fraction(text) accepts on Python 3.10 and gives the
    same value, on every Python version.  Anything else, '1_000', '1 / 2',
    '1/0', infinities and decimal exponents beyond MAX_DECIMAL_EXPONENT
    included, raises ValueError, as do a JSON float and a JSON boolean: a
    float has lost the decimal text it was written as, and 0.1 would read as
    its binary double."""
    return Fraction(*_ratio(text))


def _ratio(text: str | int) -> tuple[int, int]:
    """Integers (n, m), m > 0 and not always coprime, with n/m = rational(text).

    A text is split into its integers by the groups of _PLAIN or, failing
    that, of _RATIONAL, as Python 3.10's Fraction splits it, after the
    MAX_DECIMAL_EXPONENT guard; no Fraction is built."""
    if isinstance(text, int):
        if isinstance(text, bool):  # a JSON true or false is not a number
            raise ValueError(f"expected a rational, got {text!r}")
        return text, 1
    if not isinstance(text, str):
        raise ValueError(f"expected a rational, got {type(text).__name__}")
    plain = _PLAIN.fullmatch(text)
    if plain:
        m = int(plain[2] or 1)
        if m:
            return int(plain[1]), m
        raise ValueError(f"not a finite rational: {text!r}")
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"not a rational: {text!r}")
    n, m = int(match["num"] or 0), int(match["den"] or 1)
    if not m:
        raise ValueError(f"not a finite rational: {text!r}")
    if match["decimal"]:
        m = 10 ** len(match["decimal"])
        n = n * m + int(match["decimal"])
    if match["exp"]:
        digits = match["exp"].lstrip("+-").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT} in a rational")
        exp = int(match["exp"])
        if exp >= 0:
            n *= 10**exp
        else:
            m *= 10**-exp
    return (-n if match["sign"] == "-" else n), m


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


class QuadNumber:
    """Exact element (p + q*sqrt(d))/r of a real quadratic field."""

    __slots__ = ("p", "q", "r", "d")
    p: int
    q: int
    r: int
    d: int

    # -- constructors ------------------------------------------------------

    def __new__(cls, a: Rational = 0, b: Rational = 0, d: int = 1) -> QuadNumber:
        """a + b*sqrt(d) for ints or Fractions a, b and a positive integer d:
        the square part of d moves into b.  d is factored only when b != 0."""
        _exact(a, b)
        if not isinstance(d, int) or d < 1:
            raise ValueError("d must be a positive integer")
        s, d = _square_free_split(d) if b else (1, d)
        return _from_square_free(a.numerator, a.denominator, b.numerator * s, b.denominator, d)

    @classmethod
    def sqrt(cls, n: Rational) -> QuadNumber:
        """Exact square root of a nonnegative int or Fraction, if it stays quadratic."""
        _exact(n)
        n = Fraction(n)
        if n < 0:
            raise ValueError("sqrt of a negative rational")
        if n == 0:
            return cls(0)
        # sqrt(p/q) = sqrt(p*q)/q, and the split leaves d square-free
        s, d = _square_free_split(n.numerator * n.denominator)
        return _from_square_free(0, 1, s, n.denominator, d)

    # -- the value as Fractions ----------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(d)."""
        return Fraction(self.q, self.r)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"QuadNumber is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"QuadNumber is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _make, (self.p, self.q, self.r, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: QuadNumber | Rational) -> QuadNumber:
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: QuadNumber | Rational) -> QuadNumber:
        return self._plus(other, -1)

    def __rsub__(self, other: QuadNumber | Rational) -> QuadNumber:
        return (-self) + other

    def __neg__(self) -> QuadNumber:
        return _make(-self.p, -self.q, self.r, self.d)

    def _plus(self, other: QuadNumber | Rational, sign: int) -> QuadNumber:
        """self + sign*other."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = _joint_d(self.d, other.d)
        r, s, p, q = self.r, other.r, sign * other.p, sign * other.q
        if r == s:
            return _make(self.p + p, self.q + q, r, d)
        return _make(self.p * s + p * r, self.q * s + q * r, r * s, d)

    def __mul__(self, other: QuadNumber | Rational) -> QuadNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = _joint_d(self.d, other.d)
        p, q, s, t = self.p, self.q, other.p, other.q
        return _make(p * s + q * t * d, p * t + q * s, self.r * other.r, d)

    __rmul__ = __mul__

    def inverse(self) -> QuadNumber:
        """Multiplicative inverse; the norm p^2 - q^2 d never vanishes for d square-free."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p, q = self.p, self.q
        return _make(self.r * p, -self.r * q, p * p - q * q * self.d, self.d)

    def __truediv__(self, other: QuadNumber | Rational) -> QuadNumber:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: QuadNumber | Rational) -> QuadNumber:
        return _coerce(other) * self.inverse()

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_rational(self) -> bool:
        return self.q == 0

    def is_integer(self) -> bool:
        return self.q == 0 and self.r == 1

    def sign(self) -> int:
        """Exact sign of the real value, that of p + q*sqrt(d) as r > 0."""
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        # opposite signs: compare p^2 with q^2 d
        if p * p > q * q * self.d:
            return 1 if p > 0 else -1
        return 1 if q > 0 else -1

    def __float__(self) -> float:
        # quad_float's value, p / r when q = 0, without its radical part:
        # spec loading converts rationals by the thousand
        return quad_float(self.p, self.q, self.r, self.d) if self.q else self.p / self.r

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNumber):
            return (self.p == other.p and self.q == other.q and self.r == other.r
                    and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other.numerator and self.r == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value hashes as its Fraction, as __eq__ equates them
        if self.q:
            return hash((self.p, self.q, self.r, self.d))
        return hash(self.p) if self.r == 1 else hash(Fraction(self.p, self.r))

    def __repr__(self) -> str:
        if self.q == 0:
            return f"QuadNumber({self.a})"
        return f"QuadNumber({self.a} + {self.b}*sqrt({self.d}))"


# __setattr__ refuses assignment, so _make writes the slots through their
# descriptors.
_new = object.__new__
_set_p, _set_q, _set_r, _set_d = (
    getattr(QuadNumber, name).__set__ for name in QuadNumber.__slots__
)


def quad_float(p: int, q: int, r: int, d: int) -> float:
    """The float of (p + q*sqrt(d))/r for integers p, q, r != 0 and d >= 1.

    Integer true division rounds correctly, so p / r and q / r have the bits
    of the rationals p/r and q/r: the float does not depend on the
    denominator the value is written over, reduced or not.  float(x) of a
    QuadNumber has the bits of quad_float of its four integers.  p and q may
    be integer arrays (`spectral._int_array`).  The radical part is
    subtracted negated, which gives the bits of the sum: at q = 0 it is 0.0,
    and x - 0.0 leaves every x alone where x + 0.0 would turn an underflowed
    -0.0 into 0.0."""
    return p / r - (-q / r) * sqrt(d)


def _from_square_free(an: int, ad: int, bn: int, bd: int, d: int) -> QuadNumber:
    """The QuadNumber an/ad + (bn/bd)*sqrt(d), for denominators ad, bd > 0 and a
    square-free d >= 1 (any d when bn = 0), which is not factored: b joins a
    when d = 1."""
    if bn == 0:
        d = 1
    elif d == 1:
        an, ad, bn = an * bd + bn * ad, ad * bd, 0
    r = lcm(ad, bd)
    return _make(int(an * (r // ad)), int(bn * (r // bd)), r, d)


def _make(p: int, q: int, r: int, d: int) -> QuadNumber:
    """The QuadNumber (p + q*sqrt(d))/r, for r != 0 and d square-free (any d if q = 0).

    Divides out gcd(p, q, r) and the sign of r; d is never factored here."""
    g = gcd(p, q, r)
    if r < 0:
        g = -g
    if g != 1:
        p, q, r = p // g, q // g, r // g
    x = _new(QuadNumber)
    _set_p(x, p)
    _set_q(x, q)
    _set_r(x, r)
    _set_d(x, d if q else 1)
    return x


def _exact(*values: Rational) -> None:
    """Raise TypeError unless every value is an int or a Fraction."""
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")


def _coerce(value: QuadNumber | Rational) -> QuadNumber:
    if isinstance(value, QuadNumber):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1, 1)
    if isinstance(value, Fraction):
        return _make(int(value.numerator), 0, int(value.denominator), 1)
    return NotImplemented  # type: ignore[return-value]


def _joint_d(dx: int, dy: int) -> int:
    """The field of two numbers of fields dx and dy: a rational (d = 1) joins any field."""
    if dx == dy or dy == 1:
        return dx
    if dx == 1:
        return dy
    raise FieldMismatchError(f"cannot combine sqrt({dx}) with sqrt({dy})")

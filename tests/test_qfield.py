import copy
import math
import operator
import pickle
import re
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIELDS, quad_numbers, rationals
from ingham import qfield
from ingham.errors import FieldMismatchError
from ingham.qfield import QuadNumber, rational

IRRATIONAL = FIELDS[1:]


def test_rational_normalizes_to_d1():
    x = QuadNumber(3, 0, 3)
    assert x.d == 1 and x.is_rational()
    y = QuadNumber(1, 2, 1)  # 1 + 2*sqrt(1) = 3
    assert y == QuadNumber(3)


def test_square_factor_extraction():
    assert QuadNumber(0, 1, 12) == QuadNumber(0, 2, 3)
    assert QuadNumber.sqrt(50) == QuadNumber(0, 5, 2)
    assert QuadNumber.sqrt(Fraction(1, 2)) == QuadNumber(0, Fraction(1, 2), 2)
    assert QuadNumber.sqrt(9) == QuadNumber(3)


@pytest.mark.parametrize("d", [2.5, 8.0, "3", 0, -2])
def test_radicand_that_is_not_a_positive_int_is_refused(d):
    """A float or text radicand gets the ValueError of d < 1, whether or not
    b is zero, not a float field or an AttributeError from the split."""
    for b in (0, 1):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            QuadNumber(0, b, d)


# Exact numbers enter as ints or Fractions; text goes through rational(), and
# Fraction()'s own grammar and its binary reading of floats are not a second way in.
@pytest.mark.parametrize("build", [
    lambda: QuadNumber(0.1),
    lambda: QuadNumber("1_000"),
    lambda: QuadNumber(0, Decimal("0.5"), 2),
    lambda: QuadNumber.sqrt(0.5),
], ids=["float", "text", "decimal_b", "float_sqrt"])
def test_a_number_that_is_not_an_int_or_fraction_is_refused(build):
    with pytest.raises(TypeError, match="expected an int or a Fraction"):
        build()


def test_sqrt_factors_its_radicand_once(monkeypatch):
    calls = []
    split = qfield._square_free_split
    monkeypatch.setattr(qfield, "_square_free_split", lambda n: calls.append(n) or split(n))
    roots = [QuadNumber.sqrt(12), QuadNumber.sqrt(Fraction(9, 4)), QuadNumber.sqrt(Fraction(3, 8))]
    assert calls == [12, 36, 24]
    monkeypatch.undo()
    assert roots == [QuadNumber(0, 2, 3), QuadNumber(Fraction(3, 2)), QuadNumber(0, Fraction(1, 4), 6)]


def test_trial_division_bounds_work_not_size():
    # radicands above 10**12 whose factors lie inside the bound are split
    assert QuadNumber.sqrt(Fraction(1000001, 10**6)) == QuadNumber(0, Fraction(1, 1000), 1000001)
    assert QuadNumber(0, 1, 2**60 * 3) == QuadNumber(0, 2**30, 3)
    # a cofactor with no factor inside the bound is refused, long or short
    for n in (10**800 + 1, 1000003 * 1000033):
        with pytest.raises(ValueError, match="trial-division bound"):
            QuadNumber.sqrt(n)


def test_arithmetic_exact():
    s3 = QuadNumber.sqrt(3)
    x = QuadNumber(-1, 1, 3)  # -1 + sqrt3
    y = QuadNumber(4, -2, 3)  # 4 - 2 sqrt3
    assert x + y == QuadNumber(3, -1, 3)
    assert x * y == QuadNumber(-4 - 6, 4 + 2, 3)  # (-1+s)(4-2s) = -10 + 6s
    assert x * y == QuadNumber(-10, 6, 3)
    assert (s3 * s3) == QuadNumber(3)
    assert x - x == QuadNumber(0)


def test_inverse_and_division():
    x = QuadNumber(1, 1, 2)  # 1 + sqrt2
    inv = x.inverse()
    assert x * inv == QuadNumber(1)
    assert (QuadNumber(2) / x) * x == QuadNumber(2)
    with pytest.raises(ZeroDivisionError):
        QuadNumber(0).inverse()


def test_mixed_radicals_rejected():
    with pytest.raises(FieldMismatchError):
        QuadNumber(0, 1, 2) + QuadNumber(0, 1, 3)
    # rational operands combine with anything
    assert QuadNumber(2) + QuadNumber(0, 1, 3) == QuadNumber(2, 1, 3)


def test_sign_exact():
    # sqrt(2) - 1.41421356... vs rationals straddling it
    assert (QuadNumber.sqrt(2) - Fraction(141421356, 100000000)).sign() == 1
    assert (QuadNumber.sqrt(2) - Fraction(141421357, 100000000)).sign() == -1
    assert QuadNumber(0).sign() == 0
    assert QuadNumber(-1, 1, 3).sign() == 1  # sqrt3 > 1
    assert QuadNumber(2, -1, 3).sign() == 1  # 2 > sqrt3
    assert QuadNumber(1, -1, 3).sign() == -1  # 1 < sqrt3


def test_integer_predicates():
    assert QuadNumber(5).is_integer()
    assert not QuadNumber(Fraction(1, 2)).is_integer()
    assert not QuadNumber(1, 1, 3).is_integer()


def test_float_conversion():
    assert float(QuadNumber(1, 2, 3)) == pytest.approx(1 + 2 * 3**0.5, abs=1e-15)
    # a negative rational that underflows keeps the sign of -1 / 10**400
    assert math.copysign(1.0, float(QuadNumber(Fraction(-1, 10**400)))) == -1.0
    assert math.copysign(1.0, qfield.quad_float(-1, 0, 10**400, 1)) == -1.0


def test_random_field_axioms():
    import random

    rng = random.Random(7)
    for _ in range(300):
        d = rng.choice([2, 3])
        mk = lambda: QuadNumber(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            d,
        )
        x, y, z = mk(), mk(), mk()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x - y) + y == x
        if not y.is_zero():
            assert (x / y) * y == x
        got = float(x) * float(y)
        assert abs(float(x * y) - got) <= 1e-9 * (1 + abs(got))


@st.composite
def same_field(draw, n):
    d = draw(st.sampled_from(FIELDS))
    return draw(st.lists(quad_numbers(d), min_size=n, max_size=n))


@given(same_field(3))
def test_field_axioms_within_one_field(xyz):
    x, y, z = xyz
    zero, one = QuadNumber(0), QuadNumber(1)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert x + (-x) == zero and x - y == x + (-y)
    if not x.is_zero():
        assert x * x.inverse() == one and (y / x) * x == y


@given(st.data())
def test_radicals_of_different_fields_do_not_mix(data):
    d1, d2 = data.draw(st.lists(st.sampled_from(IRRATIONAL), min_size=2, max_size=2, unique=True))
    nonzero = rationals().filter(bool)
    x = QuadNumber(data.draw(rationals()), data.draw(nonzero), d1)
    y = QuadNumber(data.draw(rationals()), data.draw(nonzero), d2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatchError):
            op(x, y)
    assert x + y.a == QuadNumber(x.a + y.a, x.b, d1)
    assert x != QuadNumber(x.a, x.b, d2)


@st.composite
def near_cancelling(draw):
    """a close to -b*sqrt(d): the opposite-sign case sign() decides by squares."""
    d = draw(st.sampled_from(IRRATIONAL))
    b = draw(rationals())
    a = Fraction(-float(b) * math.sqrt(d)).limit_denominator(draw(st.integers(1, 10**6)))
    return QuadNumber(a, b, d)


@given(st.one_of(st.builds(QuadNumber, rationals(), rationals(), st.sampled_from(FIELDS)),
                 near_cancelling()))
def test_sign_matches_decimal(x):
    # A nonzero a + b*sqrt(d) here has |a^2 - b^2 d| >= 1/(12e6)^2 and
    # |a - b*sqrt(d)| <= 530, so |x| > 1e-17; 50 digits decide its sign.
    with localcontext() as ctx:
        ctx.prec = 50
        dec = lambda f: Decimal(f.numerator) / Decimal(f.denominator)
        value = dec(x.a) + dec(x.b) * Decimal(x.d).sqrt()
    assert x.sign() == (value > 0) - (value < 0)


@given(st.sampled_from(FIELDS), rationals(), st.one_of(st.just(Fraction(0)), rationals()),
       st.integers(1, 5))
def test_equal_values_hash_equal(d, a, b, k):
    x = QuadNumber(a, b, d)
    same = [QuadNumber(a, b / k, d * k * k), x + 0, QuadNumber(0) + x]
    if x.is_rational():
        same.append(x.a)
        if x.is_integer():
            same.append(int(x.a))
    for y in same:
        assert y == x and hash(y) == hash(x) and len({x, y}) == 1


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), ("2.5e-1", Fraction(1, 4)),
    (7, Fraction(7)),
])
def test_rational_parses_text_and_json_numbers(text, value):
    assert rational(text) == value


# a JSON float is refused: it has lost the decimal text it was written as
@pytest.mark.parametrize("text", ["1/0", "", "x", "inf", "nan", float("inf"), None, [1],
                                  True, False, 0.5])
def test_rational_refuses_anything_else(text):
    with pytest.raises(ValueError):
        rational(text)


@pytest.mark.parametrize("text, value", [
    ("2.5e-1", Fraction(1, 4)), ("1e300", Fraction(10**300)), ("1/3", Fraction(1, 3)),
    ("1e4300", Fraction(10**4300)), ("1E-0004300", Fraction(1, 10**4300)),
])
def test_rational_expands_exponents_up_to_the_limit(text, value):
    assert rational(text) == value


@pytest.mark.parametrize("text", ["1e10000000", "1e4301", "-2.5E-4301", "1e" + "9" * 10**5])
def test_rational_refuses_huge_exponents_before_expanding(text):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="decimal exponent"):
        rational(text)
    assert time.perf_counter() - t0 < 0.1


# -- the integer form (p + q*sqrt(d))/r against Fraction formulas -------------
#
# The reference keeps a value as Fractions (a, b) of a + b*sqrt(d), with the
# formulas QuadNumber used before it stored integers.


def _ref_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x, d):
    norm = x[0] * x[0] - x[1] * x[1] * d
    return (x[0] / norm, -x[1] / norm)


REF_OPS = {
    "add": (operator.add, lambda x, y, d: (x[0] + y[0], x[1] + y[1])),
    "sub": (operator.sub, lambda x, y, d: (x[0] - y[0], x[1] - y[1])),
    "mul": (operator.mul, _ref_mul),
    "div": (operator.truediv, lambda x, y, d: _ref_mul(x, _ref_inverse(y, d), d)),
}


def _ref_sign(x, d):
    a, b = x
    if b == 0 or a == 0 or (a > 0) == (b > 0):
        return (a > 0) - (a < 0) or (b > 0) - (b < 0)
    return (a > 0) - (a < 0) if a * a > b * b * d else (b > 0) - (b < 0)


def _ref(a, b, d):
    """a + b*sqrt(d), with b folded into a when d = 1."""
    return (a + b, Fraction(0)) if d == 1 else (a, b)


def _assert_matches(got, ref, d):
    a, b = ref
    d = d if b else 1
    assert (got.a, got.b, got.d) == (a, b, d)
    assert math.gcd(got.p, got.q, got.r) == 1 and got.r > 0
    assert got.q != 0 or got.d == 1
    assert Fraction(got.p, got.r) == a and Fraction(got.q, got.r) == b
    assert float(got).hex() == (float(a) + float(b) * math.sqrt(d)).hex()
    assert got.sign() == _ref_sign((a, b), d)


wide_rationals = st.one_of(
    rationals(), st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
)


# radicand d -> (s, e) with d = s*s*e and e square-free: the test fields and
# two radicands that are not square-free, whose square part moves into b
RADICANDS = {**{d: (1, d) for d in FIELDS}, 4: (2, 1), 12: (2, 3)}


@given(st.sampled_from(sorted(RADICANDS)), wide_rationals, wide_rationals, wide_rationals,
       wide_rationals, st.sampled_from(sorted(REF_OPS)), st.booleans())
def test_integer_form_matches_fraction_formulas(d, a1, b1, a2, b2, name, rational_operand):
    x = QuadNumber(a1, b1, d)
    y = QuadNumber(a2, 0 if rational_operand else b2, d)
    s, d = RADICANDS[d]
    rx, ry = _ref(a1, s * b1, d), _ref(a2, 0 if rational_operand else s * b2, d)
    _assert_matches(x, rx, d)
    _assert_matches(-x, (-rx[0], -rx[1]), d)
    op, ref = REF_OPS[name]
    if name == "div" and y.is_zero():
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    # a rational right operand also enters as a plain Fraction
    for operand in (y, a2) if rational_operand else (y,):
        _assert_matches(op(x, operand), ref(rx, ry, d), d)
    if not x.is_zero():
        _assert_matches(x.inverse(), _ref_inverse(rx, d), d)


@given(st.sampled_from(FIELDS), wide_rationals, wide_rationals)
def test_integer_form_copies_pickles_and_refuses_assignment(d, a, b):
    x = QuadNumber(a, b, d)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
        assert (y.p, y.q, y.r, y.d) == (x.p, x.q, x.r, x.d)
    for name in ("p", "q", "r", "d", "a", "b"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == QuadNumber(a, b, d)


# -- rational against Fraction ------------------------------------------------


def _numerals():
    """Digit runs, ASCII or not (Arabic-Indic three, fullwidth five), some
    joined by underscores, well or badly."""
    digits = st.one_of(st.from_regex(r"[0-9]{1,4}", fullmatch=True),
                       st.text(alphabet="0123456789\u0663\uff15", min_size=1, max_size=4))
    return st.one_of(digits, st.lists(digits, min_size=2, max_size=3).map("_".join),
                     st.sampled_from(["1__0", "_1", "1_", "007", "0"]))


def _rational_texts():
    """Integers, ratios, decimals and exponents with signs and whitespace,
    well formed or not; exponents stay far below MAX_DECIMAL_EXPONENT."""
    sign = st.sampled_from(["", "-", "+", "--", "+-"])
    space = st.sampled_from(["", "", "", " ", "\t", "\xa0"])
    exponent = st.tuples(st.sampled_from("eE"), sign, st.integers(0, 40).map(str)).map("".join)
    ratio = st.tuples(sign, _numerals(), space, st.just("/"), space, sign, _numerals())
    decimal = st.tuples(sign, st.one_of(st.just(""), _numerals()), st.just("."),
                        st.one_of(st.just(""), _numerals()), st.one_of(st.just(""), exponent))
    scientific = st.tuples(sign, _numerals(), exponent)
    body = st.one_of(
        st.from_regex(r"[-+]?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
        st.tuples(sign, _numerals()).map("".join),
        ratio.map("".join), decimal.map("".join), scientific.map("".join),
        st.sampled_from(["3/-2", "1/0", "-0", "-0/5", "0/0", "", "/", "1/", ".", "e5", "x"]),
        st.text(alphabet="0123456789+-/._eE \u0663", max_size=5),
    )
    return st.tuples(space, body, space).map("".join)


# Fraction's text grammar on Python 3.10 (Lib/fractions.py, _RATIONAL_FORMAT),
# verbatim.  Later versions accept more, underscores (3.11) and whitespace
# around '/' (3.12), and read the texts of this grammar the same.
_FRACTION_310 = re.compile(r"""
    \A\s*                      # optional whitespace at the start, then
    (?P<sign>[-+]?)            # an optional sign, then
    (?=\d|\.\d)                # lookahead for digit or .digit
    (?P<num>\d*)               # numerator (possibly empty)
    (?:                        # followed by
       (?:/(?P<denom>\d+))?    # an optional denominator
    |                          # or
       (?:\.(?P<decimal>\d*))? # an optional fractional part
       (?:E(?P<exp>[-+]?\d+))? # and optional exponent
    )
    \s*\Z                      # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)


def _fraction_or_refused(text):
    """Fraction(text) for a text of Python 3.10's grammar, else None."""
    if not _FRACTION_310.match(text):
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return None


@given(_rational_texts())
def test_rational_is_fraction_of_text(text):
    want = _fraction_or_refused(text)
    if want is None:
        with pytest.raises(ValueError):
            rational(text)
    else:
        got = rational(text)
        assert got == want and type(got) is Fraction


@pytest.mark.parametrize("text, value", [
    (" 1/2 ", Fraction(1, 2)), ("\xa0-3/6\t", Fraction(-1, 2)), ("\u0663/\uff15", Fraction(3, 5)),
    (".5", Fraction(1, 2)), ("5.", Fraction(5)), ("-0", Fraction(0)), ("007/010", Fraction(7, 10)),
    ("1.5E+2", Fraction(150)), ("+2e-1", Fraction(1, 5)),
    ("1_000", None), ("1 / 2", None), ("1/ 2", None), ("1 /2", None), ("1/2_0", None),
    ("1e1_0", None), ("1.0_0", None), ("3/-2", None), ("1/2e3", None), ("1.5/2", None),
])
def test_rational_reads_one_grammar_on_every_version(text, value):
    """Texts that Fraction reads on some Python versions but not on 3.10
    (underscores, whitespace around '/') are refused on all of them."""
    assert _fraction_or_refused(text) == value
    if value is None:
        with pytest.raises(ValueError):
            rational(text)
    else:
        assert rational(text) == value


import dataclasses
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contains_oracle
from conftest import FIELDS, lattice_specs, quad_numbers, rationals
from ingham import catalog, lattice
from ingham.errors import (
    DuplicateTranslateError,
    FieldMismatchError,
    NotInLatticeError,
    SingularMatrixError,
)
from ingham.lattice import (
    LatticePoint,
    LatticeSpec,
    _residue,
    contains,
    line_lattice_subset,
    mat_det,
    mat_inv,
    mat_vec,
    minimality_certificate,
    qvec,
    realize_points,
    validate_spec,
    vec_add,
    vec_sub,
)
from ingham.qfield import QuadNumber
from ingham.search import classify_configs


def q3(a, b=0):
    return QuadNumber(Fraction(a), Fraction(b), 3)


TRIANGULAR = catalog.get("triangular").spec
HONEYCOMB = catalog.get("honeycomb").spec


def two_coset_square():
    """Z^2 written redundantly as two translates of 2Z x Z."""
    q = QuadNumber
    return LatticeSpec(
        name="square_two_cosets",
        l_star=((q(2), q(0)), (q(0), q(1))),
        us=((q(0), q(0)), (q(Fraction(1, 2)), q(0))),
    )


def test_validate_accepts_catalog_triangular():
    assert validate_spec(TRIANGULAR) is TRIANGULAR


def test_validate_rejects_singular():
    z = QuadNumber(0)
    spec = LatticeSpec("zero", ((z, z), (z, z)), ((z, z),))
    with pytest.raises(SingularMatrixError):
        validate_spec(spec)


def test_validate_rejects_duplicate_translates():
    q = QuadNumber
    spec = LatticeSpec(
        "dup",
        ((q(1), q(0)), (q(0), q(1))),
        ((q(0), q(0)), (q(1), q(1))),
    )
    with pytest.raises(DuplicateTranslateError):
        validate_spec(spec)


_SQRT2 = QuadNumber(0, 1, 2)
_SQRT2_BELOW = Fraction(math.isqrt(2 * 10**420), 10**210)  # within 1e-210 below sqrt 2


@pytest.mark.parametrize("a, b, refused", [
    (0, Fraction(1, 10**400), True),
    (0, 1 - Fraction(1, 10**400), True),  # within 1e-400 of 1: around the circle
    (0, Fraction(1, 10**50), False),
    (0, Fraction(1, 10**20), False),  # float gap below the fast test's margin
    (_SQRT2, _SQRT2 + Fraction(1, 10**20), False),  # the same, in Q(sqrt 2)
    (0, 3 + _SQRT2 - _SQRT2_BELOW, True),  # 0 < sqrt 2 - p/q < 1e-210
    # exactly about -1.7e-20, but its float p/r + (q/r)*sqrt 2 cancels to 0.0
    (0, QuadNumber(Fraction(14142135623730950488, 10**19), -1, 2), True),
])
def test_validate_rejects_translates_closer_than_float_scale_mod_1(a, b, refused):
    """A translate difference within DET_MIN of Z, not in Z, becomes an
    integer as a float: refused."""
    q = lambda v: v if isinstance(v, QuadNumber) else QuadNumber(v)
    spec = LatticeSpec("near", ((q(1), q(0)), (q(0), q(1))),
                       ((q(a), q(0)), (q(b), q(Fraction(1, 2)))))
    if refused:
        with pytest.raises(ValueError, match="below 1e-100"):
            validate_spec(spec)
    else:
        assert validate_spec(spec) is spec


def test_duplicate_among_many_translates_is_found_fast():
    q = QuadNumber
    us = [(q(Fraction(k, 5001)), q(0)) for k in range(5000)]
    us.append((q(Fraction(7, 5001) + 1), q(-3)))
    spec = LatticeSpec("many", ((q(1), q(0)), (q(0), q(1))), tuple(us))
    start = time.perf_counter()
    with pytest.raises(DuplicateTranslateError, match="translates 7 and 5000 coincide"):
        validate_spec(spec)
    assert time.perf_counter() - start < 1.0


@given(st.sampled_from((1, 2, 3)).flatmap(lambda d: st.tuples(
    st.tuples(quad_numbers(d), quad_numbers(d)), st.tuples(quad_numbers(d), quad_numbers(d)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.booleans())))
def test_residue_is_the_class_mod_z2(args):
    u, v, n, shift = args
    if shift:  # half of the pairs in one class
        v = vec_add(u, qvec(*n))
    diff = vec_sub(u, v)
    assert (_residue(u) == _residue(v)) == (diff[0].is_integer() and diff[1].is_integer())


def test_contains_triangular_examples():
    # (1/2, sqrt3/2) = l_star @ (0, 1)
    p = qvec(Fraction(1, 2), q3(0, Fraction(1, 2)))
    assert contains(TRIANGULAR, p) == LatticePoint(0, (0, 1))
    # l_star @ u_1 is the origin
    assert contains(TRIANGULAR, qvec(0, 0)) == LatticePoint(0, (0, 0))
    # (1/3, 0) solves to a non-integer preimage
    assert contains(TRIANGULAR, qvec(Fraction(1, 3), 0)) is None


def test_contains_exactness_catalog():
    # every generated point with |m|_inf <= 10 is recovered with its own index,
    # for every catalog spec (two-square with R^2+r^2 = 2*25 stays in Q(sqrt2))
    for name in catalog.names():
        entry = (
            catalog.get(name, r=1, R=7) if name == "two_square" else catalog.get(name)
        )
        spec = entry.spec
        for j, u in enumerate(spec.us):
            for m0 in range(-10, 11):
                for m1 in range(-10, 11):
                    p = mat_vec(spec.l_star, (u[0] + m0, u[1] + m1))
                    got = contains(spec, p)
                    assert got == LatticePoint(j, (m0, m1)), (name, j, m0, m1)


@given(lattice_specs(), st.data())
def test_contains_inverts_realization(spec, data):
    j = data.draw(st.integers(0, spec.m - 1))
    m = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * 2))
    assert contains(spec, mat_vec(spec.l_star, vec_add(spec.us[j], qvec(*m)))) == LatticePoint(j, m)


def test_l_star_inverse_is_cached_and_exact(catalog_entries, monkeypatch):
    """Each spec computes its exact l_star^-1 once, on first use."""
    calls = []
    monkeypatch.setattr(lattice, "mat_inv", lambda m: calls.append(m) or mat_inv(m))
    for entry in catalog_entries.values():
        spec = dataclasses.replace(entry.spec)  # a fresh instance, no table read yet
        inv = spec._inverse
        assert inv == mat_inv(spec.l_star)
        assert spec._inverse is inv
        assert calls == [spec.l_star]
        calls.clear()


def test_det_l_is_cached_and_not_a_field(catalog_entries, monkeypatch):
    """Each spec takes its exact det l_star once, on the first det_l(); the
    cached float leaves equality, hashing and repr alone."""
    calls = []
    monkeypatch.setattr(lattice, "mat_det", lambda m: calls.append(m) or mat_det(m))
    for entry in catalog_entries.values():
        spec = dataclasses.replace(entry.spec)  # a fresh instance, no table read yet
        before = (repr(spec), hash(spec))
        assert spec.det_l() == abs(float(mat_det(spec.l_star)))
        assert spec.det_l() == spec.det_l() and "_det_l" in vars(spec)
        assert calls == [spec.l_star]
        assert (repr(spec), hash(spec)) == before and spec == entry.spec
        calls.clear()


@settings(max_examples=200)
@given(lattice_specs())
def test_form_rebuilds_every_coordinate(spec):
    """den is the lcm of the translates' denominators, d their one field (1
    when all are rational), and each coordinate is the QuadNumber its pair
    of Python ints denotes."""
    den, d, rows = spec.form
    coords = [t for u in spec.us for t in u]
    assert den == math.lcm(*(x.denominator for t in coords for x in (t.a, t.b)))
    assert d == max(t.d for t in coords)
    assert len(rows) == spec.m
    for u, row in zip(spec.us, rows):
        assert len(row) == 2
        for t, (a, b) in zip(u, row):
            assert type(a) is int and type(b) is int
            assert QuadNumber(Fraction(a, den), Fraction(b, den), d) == t
    assert spec.form is spec.form


def test_validation_leaves_the_form_unbuilt(catalog_entries):
    """validate_spec checks the one-field rule without building the form,
    which it does not need; every spec-file load runs it."""
    for entry in catalog_entries.values():
        spec = dataclasses.replace(entry.spec)  # a fresh instance, no table read yet
        assert validate_spec(spec) is spec and "form" not in vars(spec)


def test_translates_in_two_fields_are_refused():
    """x in Q(sqrt 2) and y in Q(sqrt 3), or x coordinates in both: the spec,
    its form and a survey refuse it and name both fields, even for cells on an
    axis, where each phase lies in one field.  The Gram and spectral layers
    are checked on these specs in test_gram and test_spectral."""
    one, zero = QuadNumber(1), QuadNumber(0)
    r2 = lambda a, b: QuadNumber(Fraction(a), Fraction(b), 2)
    r3 = lambda a, b: QuadNumber(Fraction(a), Fraction(b), 3)
    cases = [
        (((r2(0, "1/4"), r3(0, "1/3")), (QuadNumber(Fraction(1, 2)), zero)), ((0, 0), (1, 0))),
        (((r3(0, "1/4"), r2(0, "-1/2")), (r2("3/2", -1), QuadNumber(2)),
          (r3("3/4", "1/4"), QuadNumber(3)), (r2("9/4", -1), r2(1, "-1/2"))),
         ((0, 0), (1, 0), (0, 2), (-3, 0))),
    ]
    for us, cells in cases:
        spec = LatticeSpec("two fields", ((one, zero), (zero, one)), us)
        calls = [
            lambda: validate_spec(spec),
            lambda: LatticeSpec(spec.name, spec.l_star, spec.us).form,
            lambda: classify_configs(spec, [cells]),
        ]
        for call in calls:
            with pytest.raises(FieldMismatchError, match=r"sqrt\(2\) with sqrt\(3\)"):
                call()


def test_contains_field_mismatch():
    from ingham.errors import FieldMismatchError

    p = qvec(QuadNumber(0), QuadNumber(0, 1, 2))  # sqrt2 against a sqrt3 lattice
    with pytest.raises(FieldMismatchError):
        contains(TRIANGULAR, p)


def test_contains_translation_equivariance():
    spec = HONEYCOMB
    p = mat_vec(spec.l_star, (spec.us[1][0] + 2, spec.us[1][1] - 1))
    assert contains(spec, p) is not None
    shift = mat_vec(spec.l_star, qvec(3, -2))
    shifted = (p[0] + shift[0], p[1] + shift[1])
    assert contains(spec, shifted) is not None


def test_realize_points_triangular():
    pts = realize_points(TRIANGULAR, (0.0, 0.0, 1.1, 1.0))
    coords = [(round(p.x, 9), round(p.y, 9)) for p in pts]
    assert coords == [(0.0, 0.0), (0.5, round(3**0.5 / 2, 9)), (1.0, 0.0)]


def test_realize_points_empty_bbox():
    assert realize_points(TRIANGULAR, (0.0, 0.0, 0.0, 1.0)) == []


def test_realize_points_honeycomb_nearest_neighbor():
    pts = realize_points(HONEYCOMB, (-0.1, -0.1, 2.1, 2.1))
    assert len(pts) >= 4
    best = min(
        ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5
        for i, a in enumerate(pts)
        for b in pts[i + 1 :]
    )
    assert best == pytest.approx(1.0, abs=1e-9)


def test_realize_points_closed_under_translations():
    spec = HONEYCOMB
    bbox = (-0.1, -0.1, 3.1, 3.1)
    pts = realize_points(spec, bbox)
    have = {(round(p.x, 9), round(p.y, 9)) for p in pts}
    basis = [mat_vec(spec.l_star, qvec(1, 0)), mat_vec(spec.l_star, qvec(0, 1))]
    for p in pts:
        for t in basis:
            for sgn in (1, -1):
                x = p.x + sgn * float(t[0])
                y = p.y + sgn * float(t[1])
                if bbox[0] <= x <= bbox[2] and bbox[1] <= y <= bbox[3]:
                    assert (round(x, 9), round(y, 9)) in have


def test_line_lattice_same_translate():
    spec = HONEYCOMB
    a = qvec(0, 0)
    b = mat_vec(spec.l_star, qvec(1, 0))
    assert line_lattice_subset(spec, a, b) is True


def test_line_lattice_honeycomb_two_sites():
    spec = HONEYCOMB
    a = mat_vec(spec.l_star, spec.us[0])
    b = mat_vec(spec.l_star, spec.us[1])
    assert line_lattice_subset(spec, a, b) is False


def test_line_lattice_symmetry():
    spec = HONEYCOMB
    a = mat_vec(spec.l_star, spec.us[0])
    b = mat_vec(spec.l_star, spec.us[1])
    assert line_lattice_subset(spec, a, b) == line_lattice_subset(spec, b, a)


def test_line_lattice_even_sublattice():
    spec = catalog.get("square").spec
    assert line_lattice_subset(spec, qvec(0, 0), qvec(2, 0)) is True


def test_line_lattice_rejects_outside_points():
    with pytest.raises(NotInLatticeError):
        line_lattice_subset(TRIANGULAR, qvec(0, 0), qvec(Fraction(1, 3), 0))


def test_line_lattice_long_period():
    # step 1/1000003 visits 1000003 classes mod Z^2, more than the 2 translates
    prime = 1000003
    q = QuadNumber
    spec = LatticeSpec(
        "fine",
        ((q(1), q(0)), (q(0), q(1))),
        ((q(0), q(0)), (q(Fraction(1, prime)), q(0))),
    )
    assert line_lattice_subset(spec, qvec(0, 0), qvec(Fraction(1, prime), 0)) is False


def test_line_lattice_fine_translates_are_decided_fast():
    # the endpoints share a translate, though the lcm of all denominators is 999999
    q = QuadNumber
    spec = LatticeSpec(
        "fine",
        ((q(1), q(0)), (q(0), q(1))),
        ((q(0), q(0)), (q(Fraction(1, 999999)), q(0))),
    )
    start = time.perf_counter()
    assert line_lattice_subset(spec, qvec(0, 0), qvec(1, 0)) is True
    assert time.perf_counter() - start < 0.1


def period_scan(spec, a, b):
    """Oracle: test every k of the membership period in Fraction arithmetic.

    In (l_star)^-1 coordinates the point a + k(b-a) is x0 + k*delta; it lies
    in translate u's coset when x0 - u + k*delta is integer, a pattern
    periodic in k with period the lcm of all the denominators involved.
    """
    inv = mat_inv(spec.l_star)
    x0 = mat_vec(inv, a)
    delta = mat_vec(inv, vec_sub(b, a))
    if not (delta[0].is_rational() and delta[1].is_rational()):
        return False
    dx, dy = delta[0].a, delta[1].a
    residues = [
        (r[0].a, r[1].a)
        for r in (vec_sub(x0, u) for u in spec.us)
        if r[0].is_rational() and r[1].is_rational()
    ]
    period = math.lcm(dx.denominator, dy.denominator, *(x.denominator for r in residues for x in r))
    return all(
        any((rx + k * dx).denominator == 1 and (ry + k * dy).denominator == 1 for rx, ry in residues)
        for k in range(period)
    )


SIXTHS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
L_STARS = (
    ((QuadNumber(1), QuadNumber(0)), (QuadNumber(0), QuadNumber(1))),
    ((QuadNumber(2), QuadNumber(Fraction(1, 2))), (QuadNumber(-1), QuadNumber(3))),
    TRIANGULAR.l_star,
)


@st.composite
def progression_specs(draw):
    """Rational translates with denominators up to 6, at most 6 of them.  The
    first few form a progression u0 + k*s, so that some line lattices lie
    inside; the rest are random."""
    u0 = draw(st.tuples(SIXTHS, SIXTHS))
    s = draw(st.tuples(SIXTHS, SIXTHS))
    n = draw(st.integers(1, 6))
    candidates = [(u0[0] + k * s[0], u0[1] + k * s[1]) for k in range(n)]
    candidates += draw(st.lists(st.tuples(SIXTHS, SIXTHS), max_size=6))
    classes = {}
    for x, y in candidates:
        classes.setdefault((x % 1, y % 1), qvec(x, y))
    us = tuple(classes.values())[:6]
    return validate_spec(LatticeSpec("progression", draw(st.sampled_from(L_STARS)), us))


def lattice_point_pair(spec, data):
    ends = []
    for _ in range(2):
        j = data.draw(st.integers(0, spec.m - 1))
        m = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        ends.append(mat_vec(spec.l_star, vec_add(spec.us[j], qvec(*m))))
    return ends


@settings(max_examples=400, deadline=None)
@given(progression_specs(), st.data())
def test_line_lattice_matches_period_scan_on_random_specs(spec, data):
    a, b = lattice_point_pair(spec, data)
    assert line_lattice_subset(spec, a, b) is period_scan(spec, a, b)


# every catalog lattice; two-square sides 1, 7 keep l_star in Q(sqrt2)
CATALOG_SPECS = [
    (catalog.get(name, r=1, R=7) if name == "two_square" else catalog.get(name)).spec
    for name in catalog.names()
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CATALOG_SPECS), st.data())
def test_line_lattice_matches_period_scan_on_catalog(spec, data):
    a, b = lattice_point_pair(spec, data)
    assert line_lattice_subset(spec, a, b) is period_scan(spec, a, b)


def test_minimality_honeycomb():
    spec = HONEYCOMB
    witnesses = [mat_vec(spec.l_star, u) for u in spec.us]
    assert minimality_certificate(spec, witnesses) is True


def test_minimality_two_coset_counterexample():
    spec = two_coset_square()
    # witnesses in the same coset: the progression stays inside the lattice
    witnesses = [qvec(0, 0), qvec(2, 0)]
    assert minimality_certificate(spec, witnesses) is False


def test_minimality_single_translate_vacuous():
    assert minimality_certificate(TRIANGULAR, [qvec(0, 0)]) is True


# -- membership by translate index against the operator-built oracle ----------


def _outcome(fn, *args):
    """fn's result, or its exception as (type, message)."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _offsets(d):
    """0, a non-integer rational, or a number of Q(sqrt d) or of another field."""
    return st.one_of(
        st.just(0),
        rationals().filter(lambda x: x.denominator != 1),
        quad_numbers(d),
        st.sampled_from(FIELDS).flatmap(quad_numbers),
    )


@settings(max_examples=200, deadline=None)
@given(lattice_specs(), st.data())
def test_contains_matches_operator_oracle(spec, data):
    d = max(x.d for x in (*spec.l_star[0], *spec.l_star[1], *spec.us[0]))
    j = data.draw(st.integers(0, spec.m - 1))
    m = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * 2))
    o = data.draw(st.tuples(_offsets(d), _offsets(d)))
    coordinate = st.one_of(st.integers(-50, 50), rationals())
    u = vec_add(spec.us[j], qvec(*m))
    points = [contains_oracle.mat_vec(spec.l_star, u), o, data.draw(st.tuples(coordinate, coordinate))]
    try:  # u_j + m + o in the plane, unless o's field is not the spec's
        points.append(contains_oracle.mat_vec(spec.l_star, (u[0] + o[0], u[1] + o[1])))
    except FieldMismatchError:
        pass
    for p in points:
        want = _outcome(contains_oracle.contains, spec, p)
        got = _outcome(contains, spec, p)
        if want != got:
            # the one allowed difference: the oracle's preimage exists (this
            # mat_vec does not raise) but its translate loop raised, as the
            # preimage shares no field with a translate, so no class matches
            contains_oracle.mat_vec(mat_inv(spec.l_star), p)
            assert want[0] is FieldMismatchError and got is None, (p, want, got)


def test_contains_preimage_in_no_translate_field_is_none():
    spec = catalog.get("two_square", r=1, R=2).spec  # sqrt5 l_star, sqrt2 translates
    p = qvec(5, 0)  # preimage (sqrt5, 0)
    with pytest.raises(FieldMismatchError):
        contains_oracle.contains(spec, p)
    assert contains(spec, p) is None


def _mixed_numbers():
    """Numbers of Q, Q(sqrt2) or Q(sqrt3), often with a zero part, so that
    products cancel to rationals and fields mismatch."""
    part = st.one_of(st.just(0), rationals())
    return st.builds(QuadNumber, part, part, st.sampled_from((1, 2, 3)))


@given(st.tuples(*[_mixed_numbers()] * 4),
       st.tuples(*[st.one_of(_mixed_numbers(), st.integers(-9, 9), rationals())] * 2))
def test_mat_vec_matches_operator_oracle(entries, v):
    m = (entries[:2], entries[2:])
    assert _outcome(mat_vec, m, v) == _outcome(contains_oracle.mat_vec, m, v)


def _fields(z):
    return z.p, z.q, z.r, z.d


def _kernel_operands():
    """(a, x, b, y) drawn freely, or as (a, x, -a, x + t) for a rational t,
    whose radical parts cancel whenever a is rational."""
    number = st.one_of(_mixed_numbers(), st.sampled_from(FIELDS).flatmap(quad_numbers))
    cancelling = st.builds(lambda a, x, t: (a, x, -a, x + t),
                           number, number, st.one_of(st.just(0), rationals()))
    return st.one_of(st.tuples(number, number, number, number), cancelling)


@given(_kernel_operands())
def test_dot_kernel_matches_operators(operands):
    """The integers of the kernel are those of a*x + b*y on QuadNumber
    operators, and both raise the same FieldMismatchError."""
    a, x, b, y = operands
    assert _outcome(lattice._dot, a, x, b, y) == _outcome(lambda: _fields(a * x + b * y))


def test_contains_reads_ints_and_fractions_and_refuses_floats():
    square = catalog.get("square").spec
    assert contains(square, (2, -3)) == LatticePoint(0, (2, -3))
    assert contains(square, (Fraction(4, 2), True)) == LatticePoint(0, (2, 1))
    assert contains(square, (Fraction(1, 2), 0)) is None
    assert contains(TRIANGULAR, (Fraction(1, 2), 0)) is None
    assert contains(TRIANGULAR, (0, 0)) == LatticePoint(0, (0, 0))
    with pytest.raises(TypeError, match=r"^cannot multiply a matrix by float, int$"):
        contains(square, (0.5, 1))
    with pytest.raises(TypeError, match=r"^cannot multiply a matrix by QuadNumber, float$"):
        contains(TRIANGULAR, (QuadNumber(0), 1.0))


def test_contains_builds_no_quad_number(monkeypatch):
    """A query forms the key and the shift m from the integers of
    l_star^-1 p: the only object it returns is the LatticePoint."""
    from ingham import qfield

    spec = catalog.get("truncated_trihexagonal").spec
    points = [mat_vec(spec.l_star, vec_add(u, qvec(7, -5))) for u in spec.us]
    points.append(qvec(Fraction(1, 3), QuadNumber(0, 1, 3)))
    contains(spec, points[0])  # the spec's tables are built once, on first use
    made = []
    make = qfield._make
    for module in (qfield, lattice):
        monkeypatch.setattr(module, "_make", lambda *parts: made.append(parts) or make(*parts))
    got = [contains(spec, p) for p in points]
    assert got == [LatticePoint(j, (7, -5)) for j in range(spec.m)] + [None]
    assert made == []


def test_membership_tables_are_not_fields():
    spec = validate_spec(LatticeSpec(name="h", l_star=HONEYCOMB.l_star, us=HONEYCOMB.us))
    before = (repr(spec), hash(spec))
    assert contains(spec, qvec(0, 0)) == LatticePoint(0, (0, 0))
    assert "_inverse" in vars(spec) and "_translate_index" in vars(spec)
    assert (repr(spec), hash(spec)) == before
    assert spec == LatticeSpec(name="h", l_star=HONEYCOMB.l_star, us=HONEYCOMB.us)

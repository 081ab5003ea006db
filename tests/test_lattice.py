from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import lattice_specs
from ingham import catalog
from ingham.errors import (
    DuplicateTranslateError,
    NotInLatticeError,
    PeriodTooLargeError,
    SingularMatrixError,
)
from ingham.lattice import (
    LatticePoint,
    LatticeSpec,
    contains,
    l_star_inverse,
    line_lattice_subset,
    mat_inv,
    mat_vec,
    minimality_certificate,
    qvec,
    realize_points,
    validate_spec,
    vec_add,
)
from ingham.qfield import QuadNumber


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


def test_l_star_inverse_is_cached_and_exact(catalog_entries):
    for entry in catalog_entries.values():
        l_star = entry.spec.l_star
        inv = l_star_inverse(l_star)
        assert inv == mat_inv(l_star)
        assert l_star_inverse(tuple(tuple(row) for row in l_star)) is inv


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


def test_line_lattice_period_cap():
    prime = 1000003
    q = QuadNumber
    spec = LatticeSpec(
        "fine",
        ((q(1), q(0)), (q(0), q(1))),
        ((q(0), q(0)), (q(Fraction(1, prime)), q(0))),
    )
    with pytest.raises(PeriodTooLargeError):
        line_lattice_subset(
            spec, qvec(0, 0), qvec(Fraction(1, prime), 0)
        )


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

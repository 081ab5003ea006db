"""Shared fixtures, hypothesis strategies, the independent quadrature
oracle for inner products and the trigonometric identity behind the
two-square determinant's nonvanishing."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from ingham import catalog
from ingham.lattice import LatticeSpec, mat_det, mat_float, validate_spec
from ingham.qfield import QuadNumber

# Square-free d of the fields Q(sqrt d) the random specs live in; 1 is Q.
FIELDS = (1, 2, 3, 5, 6, 7)


def rationals():
    """Rationals in [-99, 99] with denominators up to 12."""
    return st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12))


def quad_numbers(d):
    return st.builds(QuadNumber, rationals(), rationals(), st.just(d))


def _class_mod_z2(u):
    """Translates u, v give the same lattice coset exactly when u - v is integer."""
    return tuple((c.a - math.floor(c.a), c.b) for c in u)


@st.composite
def lattice_specs(draw):
    """Valid single-field specs: a nonsingular l_star and 1..4 translates that
    are distinct mod Z^2, all entries in one Q(sqrt d)."""
    d = draw(st.sampled_from(FIELDS))
    vec = st.tuples(quad_numbers(d), quad_numbers(d))
    l_star = draw(st.tuples(vec, vec).filter(lambda m: not mat_det(m).is_zero()))
    us = draw(st.lists(vec, min_size=1, max_size=4, unique_by=_class_mod_z2))
    # code points over st.text()'s default range (all but surrogates), drawn
    # without the unicode charmap st.text() builds on a cold cache
    code_points = st.integers(0, 0x10FFFF).filter(lambda c: not 0xD800 <= c <= 0xDFFF)
    name = draw(st.lists(code_points.map(chr), max_size=8).map("".join))
    return validate_spec(LatticeSpec(name=name, l_star=l_star, us=tuple(us)))


def trig_identity_residual(beta: float, gamma: float) -> float:
    """Residual of the sum-to-product identity used in the nonvanishing proof.

    sin(2b+2g) - 4 sin(b+g) + sin(2b) + sin(2g) = 4 sin(b+g)(cos b cos g - 1);
    returns the absolute difference of the two sides.
    """
    lhs = (
        math.sin(2 * beta + 2 * gamma)
        - 4 * math.sin(beta + gamma)
        + math.sin(2 * beta)
        + math.sin(2 * gamma)
    )
    rhs = 4 * math.sin(beta + gamma) * (math.cos(beta) * math.cos(gamma) - 1)
    return abs(lhs - rhs)


def ambient_l(spec):
    """L as floats (transpose of the stored adjoint)."""
    return np.array(mat_float(spec.l_star)).T


def quadrature_inner_product(spec, config, p, q):
    """Numerically integrate e^{i(lambda_p - lambda_q, x)} over the domain.

    Independent of the closed-form path: works in ambient coordinates,
    parameterizes each parallelogram cell and hands the oscillatory real and
    imaginary parts to scipy's adaptive 2-D quadrature.
    """
    from scipy.integrate import dblquad

    l = ambient_l(spec)
    linv = np.linalg.inv(l)
    delta = _ambient_delta(spec, p, q)
    e1 = linv @ np.array([2 * np.pi, 0.0])
    e2 = linv @ np.array([0.0, 2 * np.pi])
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    total = 0.0j
    for n in config.ns:
        v0 = linv @ (2 * np.pi * np.asarray(n, dtype=float))
        re, _ = dblquad(
            lambda s, t: np.cos(delta @ (v0 + s * e1 + t * e2)), 0, 1, 0, 1,
            epsabs=1e-9, epsrel=1e-9,
        )
        im, _ = dblquad(
            lambda s, t: np.sin(delta @ (v0 + s * e1 + t * e2)), 0, 1, 0, 1,
            epsabs=1e-9, epsrel=1e-9,
        )
        total += jac * (re + 1j * im)
    return total


def quadrature_hole_inner_product(spec, hole, p, q):
    """Numerically integrate e^{i(lambda_p - lambda_q, x)} over the hole rectangle."""
    from scipy.integrate import dblquad

    delta = _ambient_delta(spec, p, q)
    x0, y0, x1, y1 = hole
    parts = [
        dblquad(lambda y, x: f(delta @ (x, y)), x0, x1, y0, y1, epsabs=1e-10, epsrel=1e-10)[0]
        for f in (np.cos, np.sin)
    ]
    return parts[0] + 1j * parts[1]


def _ambient_delta(spec, p, q):
    """lambda_p - lambda_q = L* (u_p + m_p - u_q - m_q) in floats."""
    up = np.array([float(c) for c in spec.us[p.j]]) + np.asarray(p.m, dtype=float)
    uq = np.array([float(c) for c in spec.us[q.j]]) + np.asarray(q.m, dtype=float)
    return ambient_l(spec).T @ (up - uq)


@pytest.fixture(scope="session")
def catalog_entries():
    """All fixed catalog entries plus one two-square instance."""
    out = {}
    for name in catalog.names():
        out[name] = (
            catalog.get(name, r=1, R=3) if name == "two_square" else catalog.get(name)
        )
    return out


@pytest.fixture
def eigvalsh_inputs(monkeypatch):
    """The matrices handed to np.linalg.eigvalsh from here on, in order."""
    seen = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen

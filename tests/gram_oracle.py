"""The Gram entries and phases one at a time, in exact QuadNumber arithmetic:
`inner_product` and `hole_inner_product` take one entry of `gram_matrix` and
`hole_gram_matrix` through the same float kernels (`gram._phi`,
`gram._hole_entry`, `spectral._phase_angle`), and `phase` one column entry of
`spectral.phase_columns`.  The bit tests hold the integer-table
implementation to them."""

import cmath
from typing import Iterable

from ingham.errors import FieldMismatchError
from ingham.gram import Rect, _hole_entry, _homothety, _phi
from ingham.lattice import (
    LatticePoint,
    LatticeSpec,
    TranslationConfig,
    Vec2,
    _translate_field,
    vec_add,
    vec_dot,
    vec_sub,
)
from ingham.qfield import QuadNumber
from ingham.spectral import _check_size, _phase_angle


def phase(t: QuadNumber) -> complex:
    """exp(2*pi*i*t) for an exactly known t."""
    return cmath.exp(1j * _phase_angle(t.p, t.q, t.r, t.d))


def _mu(spec: LatticeSpec, p: LatticePoint, q: LatticePoint) -> Vec2:
    """u_p + m_p - (u_q + m_q).  Translates in two irrational fields are
    refused, as the matrices refuse them through `LatticeSpec.form`."""
    _translate_field(spec.us)
    up = vec_add(spec.us[p.j], (p.m[0], p.m[1]))
    uq = vec_add(spec.us[q.j], (q.m[0], q.m[1]))
    return vec_sub(up, uq)


def _phase_sum(phases: Iterable[complex]) -> complex:
    """The sum of the e^{2 pi i <mu, n_k>}, added in the order of the n_k."""
    total = 0.0j
    for w in phases:
        total += w
    return total


def inner_product(
    spec: LatticeSpec,
    config: TranslationConfig,
    p: LatticePoint,
    q: LatticePoint,
) -> complex:
    """Exact closed-form integral of e_p conj(e_q) over the domain."""
    _check_size(spec, config.m)
    mu = a, b = _mu(spec, p, q)
    factor = complex(_phi(a.p, a.q, a.r, a.d)) * complex(_phi(b.p, b.q, b.r, b.d))
    if factor == 0:
        return 0.0j
    return _phase_sum(phase(vec_dot(mu, n)) for n in config.ns) * factor / spec.det_l()


def hole_inner_product(
    spec: LatticeSpec, hole: Rect, p: LatticePoint, q: LatticePoint
) -> complex:
    """Integral of e_p conj(e_q) over the hole rectangle alone.

    Uses the ambient closed form with delta = L* mu per coordinate (see
    `_hole_entry`).  delta_d = 0 is decided exactly; across fields L* must be
    a homothety (`_homothety`).
    """
    mu = _mu(spec, p, q)
    deltas, zeros = [], []
    for row, t in zip(spec.l_star, mu):
        try:
            delta, scale = vec_dot(row, mu), 1.0
        except FieldMismatchError:
            delta, scale = t, float(_homothety(spec))
        deltas.append(scale * float(delta))
        zeros.append(delta.is_zero())
    return complex(_hole_entry(hole, deltas, zeros))

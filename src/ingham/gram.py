"""Gram matrices of lattice exponentials over the integration domain.

Inner products <e_p, e_q> = integral over Omega of e^{i(lambda_p-lambda_q, x)}
reduce, after the change of variables that maps the domain back to the
translated cubes, to the closed form

    |det L|^{-1} * sum_k e^{2 pi i <mu, n_k>} * prod_d phi(mu_d),

with mu the difference of translate-plus-integer indices and
phi(t) = (e^{2 pi i t} - 1)/(i t), phi(0) = 2 pi.  Whether a component of mu
is zero or integer is decided in exact arithmetic, so Fourier orthogonality
is exact and no quadrature enters the main path.

mu = (u_p - u_q) + (m_p - m_q) splits into a translate pair and an integer
shift s.  The phase sum depends on the pair alone (an integer shift leaves
the fractional and radical parts of <mu, n_k> unchanged), so `gram_matrix`
takes M^2 of them.  QuadNumber arithmetic also runs once per translate pair,
not once per shift.  With (u_p - u_q)_d = (p + q*sqrt d)/r, mu_d is the
canonical (p + s_d*r, q, r, d), whose zero and integer tests are p = q = 0
and q = 0, r = 1; the hole's delta_d = (L* mu)_d is (P + Q*sqrt D)/R over one
denominator R and radicand D per pair and axis, with P and Q linear in s
(`_delta_form`).  Each distinct shift then costs integer additions and
floats formed as float(QuadNumber) forms them (`qfield.quad_float`,
`spectral._phase_angle`): from the correctly rounded integer quotients p/r
and q/r, which depend on the rationals alone, not on the denominator they
are written over.  So the per-shift values have the bits of the scalar
`inner_product` and `hole_inner_product`, which stay as the test oracles;
numpy gathers them into the S^2 entries and multiplies them component by
component in CPython's rounding order, which keeps those bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FieldMismatchError, HoleOutsideDomainError
from .geometry import ambient_l
from .lattice import LatticePoint, LatticeSpec, Vec2, vec_add, vec_dot, vec_sub
from .qfield import QuadNumber, quad_float
from .spectral import (
    TWO_PI,
    TranslationConfig,
    _lex_ids,
    _phase_angle,
    _ranks,
    hermitian_extremes,
    ingham_constants,
    phase_columns,
)

Rect = tuple[float, float, float, float]  # x0, y0, x1, y1

# Largest support a SupportSet may hold.  A Gram matrix of S points is S^2
# complex entries (16 B each); it is filled one slab of SLAB_ROWS rows at a
# time, through upper-triangle index and value arrays of up to about 150 B per
# entry of the slab.  At S = 4000 that is 256 MB of matrix plus about 150 MB
# of slab temporaries, before the eigensolve of frame_bound_check copies the
# matrix.
MAX_SUPPORT = 4000
SLAB_ROWS = 256

# Support coordinates stay below this in absolute value, so the int64 shifts
# m_p - m_q the Gram kernels take cannot overflow.
COORD_LIMIT = 2**62


@dataclass(frozen=True)
class SupportSet:
    """Finite set of lattice-point indices carrying the coefficient support."""

    items: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise ValueError("support items must be pairwise distinct")
        if any(abs(c) >= COORD_LIMIT for p in self.items for c in p.m):
            raise ValueError(
                f"support coordinates must lie in (-{COORD_LIMIT}, {COORD_LIMIT})"
            )

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def box(cls, spec: LatticeSpec, xs: Sequence[int], ys: Sequence[int]) -> SupportSet:
        """All translates crossed with the integer box xs x ys."""
        size = spec.m * len(xs) * len(ys)
        if size > MAX_SUPPORT:
            raise ValueError(f"support of {size} points exceeds {MAX_SUPPORT}")
        return cls(
            tuple(
                LatticePoint(j, (int(a), int(b)))
                for j in range(spec.m)
                for a in xs
                for b in ys
            )
        )

    @classmethod
    def centered(cls, spec: LatticeSpec, radius: int) -> SupportSet:
        """All translates crossed with {m : |m|_inf <= radius}."""
        if radius < 0:
            raise ValueError(f"support radius must be >= 0, got {radius}")
        rng = range(-radius, radius + 1)
        return cls.box(spec, rng, rng)


@dataclass(frozen=True)
class FrameBoundReport:
    lambda_min: float
    lambda_max: float
    c1_full: float
    c2_full: float
    a2: bool
    passed: bool


def _mu(spec: LatticeSpec, p: LatticePoint, q: LatticePoint) -> Vec2:
    up = vec_add(spec.us[p.j], (p.m[0], p.m[1]))
    uq = vec_add(spec.us[q.j], (q.m[0], q.m[1]))
    return vec_sub(up, uq)


def _phi(p: int, q: int, r: int, d: int) -> complex:
    """Integral of e^{2 pi i t s} over s in (0, 2 pi) of one coordinate, for
    t = (p + q*sqrt d)/r in canonical form.

    Branches on the exactly-known arithmetic type of t: zero gives the cube
    edge 2 pi, any other integer gives exactly 0.
    """
    if q == 0 and p == 0:
        return complex(TWO_PI)
    if q == 0 and r == 1:
        return 0.0j
    return (cmath.exp(1j * _phase_angle(p, q, r, d)) - 1.0) / (1j * quad_float(p, q, r, d))


def _phase_sum(config: TranslationConfig, mu: Vec2) -> complex:
    """sum_k e^{2 pi i <mu, n_k>}, added in the order of the n_k."""
    total = 0.0j
    for w in phase_columns([mu], config.ns)[0].tolist():
        total += w
    return total


def inner_product(
    spec: LatticeSpec,
    config: TranslationConfig,
    p: LatticePoint,
    q: LatticePoint,
) -> complex:
    """Exact closed-form integral of e_p conj(e_q) over the domain."""
    mu = a, b = _mu(spec, p, q)
    factor = _phi(a.p, a.q, a.r, a.d) * _phi(b.p, b.q, b.r, b.d)
    if factor == 0:
        return 0.0j
    return _phase_sum(config, mu) * factor / spec.det_l()


def _product(x, y):
    """(re, im) of x * y for (re, im) pairs of arrays, in CPython's rounding.

    numpy's complex multiply may use fused multiply-add and round differently
    from the scalar product in `inner_product`.
    """
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _assemble(spec: LatticeSpec, support: SupportSet, block) -> np.ndarray:
    """Hermitian S x S matrix, one translate pair (x, y) at a time.

    block(x, y, shift) returns the entries (a, b), a <= b, whose points have
    translates x and y, from their integer shifts m_a - m_b; the rows a come
    in slabs of at most SLAB_ROWS.  The lower triangle holds the conjugates,
    written first so the diagonal keeps the values themselves.
    """
    items = support.items
    j = np.array([p.j for p in items], dtype=np.intp)
    m = np.array([p.m for p in items], dtype=np.int64).reshape(-1, 2)
    where = [np.flatnonzero(j == x) for x in range(spec.m)]
    slabs = [
        (x, px[k : k + SLAB_ROWS])
        for x, px in enumerate(where)
        for k in range(0, len(px), SLAB_ROWS)
    ]
    g = np.empty((len(items), len(items)), dtype=complex)
    for x, pa in slabs:
        for y, pb in enumerate(where):
            r, c = np.nonzero(pa[:, None] <= pb[None, :])
            if not len(r):
                continue
            rows, cols = pa[r], pb[c]
            upper = block(x, y, m[rows] - m[cols])
            g[cols, rows] = upper.conj()
            g[rows, cols] = upper
    return g


def gram_matrix(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet
) -> np.ndarray:
    """Hermitian S x S matrix of pairwise inner products over the domain.

    Entry (a, b), a <= b, has the bits of inner_product(items[a], items[b]).
    """
    det = spec.det_l()

    def block(x: int, y: int, shift: np.ndarray) -> np.ndarray:
        mu = vec_sub(spec.us[x], spec.us[y])
        phi = []
        for d, t in enumerate(mu):
            keys, inverse = _ranks(shift[:, d])
            table = [_phi(t.p + s * t.r, t.q, t.r, t.d) for s in keys.tolist()]
            phi.append(np.array(table, dtype=complex)[inverse])
        factor = _product(*((v.real, v.imag) for v in phi))
        total = _phase_sum(config, mu)
        re, im = _product((total.real, total.imag), factor)
        upper = np.empty(len(shift), dtype=complex)
        upper.real = re / det
        upper.imag = im / det
        upper[(factor[0] == 0) & (factor[1] == 0)] = 0
        return upper

    return _assemble(spec, support, block)


def frame_bound_check(
    spec: LatticeSpec,
    config: TranslationConfig,
    support: SupportSet,
) -> FrameBoundReport:
    """Check the Gram spectrum against the frame bounds [c1_full, c2_full].

    Valid for every finite support: a*Ga is the domain integral of |f|^2 for
    f with coefficients a.  When (A2) fails the lower constant degrades to 0
    and only the upper bound is asserted.
    """
    sr = ingham_constants(spec, config)
    lam_min, lam_max = hermitian_extremes(gram_matrix(spec, config, support))
    eps = 1e-6 * sr.c2_full
    if sr.satisfies_a2:
        passed = sr.c1_full - eps <= lam_min and lam_max <= sr.c2_full + eps
        c1 = sr.c1_full
    else:
        passed = lam_max <= sr.c2_full + eps
        c1 = 0.0
    return FrameBoundReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        c1_full=c1,
        c2_full=sr.c2_full,
        a2=sr.satisfies_a2,
        passed=passed,
    )


# -- removal of an open subset ------------------------------------------------


def _cell_of_rect(spec: LatticeSpec, config: TranslationConfig, hole: Rect) -> int:
    """Index of the cell strictly containing the rectangle, or raise."""
    x0, y0, x1, y1 = hole
    if not all(math.isfinite(v) for v in hole):
        raise HoleOutsideDomainError("rectangle corners must be finite")
    if not (x1 > x0 and y1 > y0):
        raise HoleOutsideDomainError("rectangle has no interior")
    l = ambient_l(spec)
    corners = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]) @ l.T
    for k, n in enumerate(config.ns):
        lo = TWO_PI * np.asarray(n, dtype=float)
        if np.all(corners > lo + 1e-12) and np.all(corners < lo + TWO_PI - 1e-12):
            return k
    raise HoleOutsideDomainError("rectangle is not strictly inside a single cell")


def inscribed_hole(
    spec: LatticeSpec,
    config: TranslationConfig,
    cell_index: int = 0,
    area_fraction: float = 0.25,
) -> Rect:
    """Axis-aligned square centered in a cell with the given area fraction."""
    if not 0 <= cell_index < spec.m:
        raise ValueError(f"hole cell must be in [0, {spec.m}), got {cell_index}")
    if not area_fraction > 0:
        raise ValueError(f"hole area fraction must be > 0, got {area_fraction}")
    if area_fraction >= 1:
        raise HoleOutsideDomainError(
            f"area fraction {area_fraction} >= 1 cannot fit inside one cell"
        )
    linv = np.linalg.inv(ambient_l(spec))
    n = np.asarray(config.ns[cell_index], dtype=float)
    centroid = linv @ (TWO_PI * n + math.pi)
    cell_area = TWO_PI**2 / spec.det_l()
    half = math.sqrt(area_fraction * cell_area) / 2.0
    hole = (
        float(centroid[0] - half),
        float(centroid[1] - half),
        float(centroid[0] + half),
        float(centroid[1] + half),
    )
    _cell_of_rect(spec, config, hole)
    return hole


def _hole_entry(hole: Rect, deltas: Sequence[float | None]) -> complex:
    """prod_d (e^{i delta_d b_d} - e^{i delta_d a_d})/(i delta_d) over the
    hole's sides (a_d, b_d), a delta_d of None (exactly 0) contributing the
    side length.  A float 0.0 is an exactly nonzero delta_d that underflowed,
    and is refused: the quotient has no float value."""
    x0, y0, x1, y1 = hole
    val = 1.0 + 0.0j
    for df, (lo, hi) in zip(deltas, ((x0, x1), (y0, y1))):
        if df is None:
            val *= hi - lo
        elif df == 0.0:
            raise ValueError("hole integral: a nonzero delta_d = (L* mu)_d underflows to 0.0")
        else:
            val *= (cmath.exp(1j * df * hi) - cmath.exp(1j * df * lo)) / (1j * df)
    return val


def _homothety(spec: LatticeSpec) -> QuadNumber:
    """The c of L* = c*I, or FieldMismatchError.

    When L* and mu lie in different quadratic fields (two-square tilings
    whose sqrt(R^2 + r^2) is not in Q(sqrt 2)), L* must be a homothety: then
    delta_d = c*mu_d vanishes exactly when mu_d does, and its float is
    float(c)*float(mu_d).
    """
    (c, b), (b2, e) = spec.l_star
    if not (b.is_zero() and b2.is_zero() and c == e):
        raise FieldMismatchError(
            f"hole integrals need L* in the field of the translates or a "
            f"homothety; {spec.name} has neither"
        )
    return c


def hole_inner_product(
    spec: LatticeSpec, hole: Rect, p: LatticePoint, q: LatticePoint
) -> complex:
    """Integral of e_p conj(e_q) over the hole rectangle alone.

    Uses the ambient closed form with delta = L* mu per coordinate (see
    `_hole_entry`).  delta_d = 0 is decided exactly; across fields L* must be
    a homothety (`_homothety`).
    """
    mu = _mu(spec, p, q)
    deltas = []
    for row, t in zip(spec.l_star, mu):
        try:
            delta = vec_dot(row, mu)
        except FieldMismatchError:
            scale = float(_homothety(spec))
            deltas.append(None if t.is_zero() else scale * float(t))
        else:
            deltas.append(None if delta.is_zero() else float(delta))
    return _hole_entry(hole, deltas)


def _delta_form(spec: LatticeSpec, mu: Vec2, d: int) -> tuple:
    """delta_d over the integer shifts s of the translate pair mu = u_x - u_y:
    (scale, P, a0, a1, Q, b0, b1, R, D) in integers but the float scale, with

        delta_d(s) = (L* (mu + s))_d = scale * ((P + a.s) + (Q + b.s)*sqrt D)/R.

    scale is 1.0, which leaves a float's bits alone, when L*_d . mu, L*_d0
    and L*_d1 lie in one field; then `hole_inner_product` computes the same
    number exactly at every shift.  Otherwise L* must be a homothety c*I
    (`_homothety`), whose reference branch every shift takes: scale is
    float(c) and the form that of mu_d + s_d.
    """
    row = spec.l_star[d]
    try:
        terms = (vec_dot(row, mu), *row)
    except FieldMismatchError:
        terms = ()
    if not terms or len({t.d for t in terms if t.q}) > 1:
        scale, t = float(_homothety(spec)), mu[d]
        return (scale, t.p, t.r * (d == 0), t.r * (d == 1), t.q, 0, 0, t.r, t.d)
    r = math.lcm(*(t.r for t in terms))
    (p, q), (a0, b0), (a1, b1) = ((t.p * (r // t.r), t.q * (r // t.r)) for t in terms)
    return (1.0, p, a0, a1, q, b0, b1, r, max(t.d for t in terms))


def _delta(form: tuple, s0: int, s1: int) -> float | None:
    """The float of delta_d(s) from its `_delta_form`, or None when it is
    exactly 0: the bits of the float of the QuadNumber (`qfield.quad_float`)."""
    scale, p, a0, a1, q, b0, b1, r, d = form
    p += a0 * s0 + a1 * s1
    q += b0 * s0 + b1 * s1
    return None if p == 0 and q == 0 else scale * quad_float(p, q, r, d)


def hole_gram_matrix(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet, hole: Rect
) -> np.ndarray:
    """Gram matrix of the exponentials over the hole rectangle alone.

    Entry (a, b), a <= b, is hole_inner_product(items[a], items[b]), which
    depends only on the translate pair and the shift m_a - m_b.
    """
    _cell_of_rect(spec, config, hole)

    def block(x: int, y: int, shift: np.ndarray) -> np.ndarray:
        inverse, first = _lex_ids(shift)
        mu = vec_sub(spec.us[x], spec.us[y])
        forms = [_delta_form(spec, mu, d) for d in range(2)]
        table = [
            _hole_entry(hole, [_delta(form, s0, s1) for form in forms])
            for s0, s1 in shift[first].tolist()
        ]
        return np.array(table, dtype=complex)[inverse]

    return _assemble(spec, support, block)


def removal_witness(
    spec: LatticeSpec,
    config: TranslationConfig,
    hole: Rect,
    supports: Sequence[SupportSet],
) -> list[float]:
    """lambda_min of the Gram matrix over the domain minus the hole, per support.

    As the support grows the sequence decreases toward 0, witnessing that the
    lower estimate cannot survive the removal of an open set.
    """
    out = []
    for support in supports:
        g = gram_matrix(spec, config, support) - hole_gram_matrix(
            spec, config, support, hole
        )
        lam_min, _ = hermitian_extremes(g)
        out.append(float(lam_min))
    return out

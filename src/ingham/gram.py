"""Gram matrices of lattice exponentials over the integration domain.

Inner products <e_p, e_q> = integral over Omega of e^{i(lambda_p-lambda_q, x)}
reduce, after the change of variables that maps the domain back to the
translated cubes, to the closed form

    |det L|^{-1} * sum_k e^{2 pi i <mu, n_k>} * prod_d phi(mu_d),

with mu the difference of translate-plus-integer indices and
phi(t) = (e^{2 pi i t} - 1)/(i t), phi(0) = 2 pi.  Whether a component of mu
is zero or integer is decided in exact arithmetic, so Fourier orthogonality
is exact and no quadrature enters the main path.

mu = (u_p - u_q) + (m_p - m_q) splits into a translate difference and an
integer shift s.  `_differences` subtracts the translates' integer rows of
`LatticeSpec.form`, so for translates (x, y) mu_c = (A + s_c*D +
B*sqrt(d))/D with integers A and B, in the translates' one field Q(sqrt d):
zero when A and B are, an integer when B is 0 and D divides A.  Each matrix
is built from per-entry integer keys and tables of their values, with no
loop over translate pairs or entries:

- the phase sum depends on u_x - u_y mod Z^2 alone (an integer shift leaves
  the fractional and radical parts of <mu, n_k> unchanged), so it is taken
  once per distinct residue, at most M^2 of them (one `phase_columns` call);
- a support is every translate crossed with an integer box of A x B points
  (`SupportSet`), so each shift s_c lies in [-(A-1), A-1] or [-(B-1), B-1];
  phi(mu_c) is taken once per (axis, translate difference, shift) key, into
  a plain array indexed [code, s_c + span_c];
- the hole's delta_d = (L* mu)_d is (P + Q*sqrt D')/R with P and Q linear in
  s, one `_delta_form` per distinct translate difference, and its entry is
  taken once per (translate difference, s_0, s_1) key, into an array
  indexed [code, s_0 + span_0, s_1 + span_1].

The floats are formed as float(QuadNumber) forms them (`qfield.quad_float`,
`spectral._phase_angle`): from the correctly rounded integer quotients p/r
and q/r, which depend on the rationals alone, not on the denominator they
are written over.  So the table values have the bits of the scalar
`inner_product` and `hole_inner_product`, which stay as the test oracles;
numpy gathers them into the S^2 entries, slab by slab (`_assemble`), and
multiplies them component by component in CPython's rounding order, which
keeps those bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

import numpy as np

from .errors import FieldMismatchError, HoleOutsideDomainError, SizeMismatchError
from .geometry import ambient_l
from .lattice import (
    LatticePoint,
    LatticeSpec,
    TranslationConfig,
    Vec2,
    _translate_field,
    vec_add,
    vec_dot,
    vec_sub,
)
from .qfield import QuadNumber, quad_float
from .spectral import (
    TWO_PI,
    _check_size,
    _phase_angle,
    hermitian_extremes,
    ingham_constants,
    phase,
    phase_columns,
)

Rect = tuple[float, float, float, float]  # x0, y0, x1, y1

# Largest support a SupportSet may hold.  A Gram matrix of S points is S^2
# complex entries (16 B each).  It is filled in slabs of max(1, SLAB_ROWS**2
# // S) rows, so a slab spans at most SLAB_ROWS**2 = 65,536 entries, whose
# keys and values take about 130 B each.  At S = 4000 that is 256 MB of matrix
# plus about 9 MB of slab temporaries, before the eigensolve of
# frame_bound_check copies the matrix.  On an M-translate box of A x B points
# the phi tables hold at most M^2 x (2A-1) and M^2 x (2B-1) values and the
# hole table M^2 x (2A-1)(2B-1); on the largest centered catalog supports
# that is at most 38,416 (about 5 MB while they are computed).
MAX_SUPPORT = 4000
SLAB_ROWS = 256


def _axis(name: str, values: Sequence[int]) -> range:
    """values as a range, or ValueError unless they are consecutive increasing
    integers."""
    if len(values) == 0:
        raise ValueError(f"support axis {name} is empty")
    axis = range(values[0], values[0] + len(values))
    if any(a != v for a, v in zip(axis, values)):
        raise ValueError(f"support axis {name} must be consecutive increasing integers")
    return axis


@dataclass(frozen=True)
class SupportSet:
    """The coefficient support: all m translates crossed with the integer box
    xs x ys, two consecutive increasing ranges.

    Boxes are all the Gram checks need: the Gram matrix of any finite support
    is a principal submatrix of that of a box containing it, so by Cauchy
    interlacing its spectrum lies within the box's.  Only differences of box
    positions enter a matrix, so a box may lie at any offset.
    """

    m: int
    xs: range
    ys: range

    def __post_init__(self) -> None:
        size = self.m * len(self.xs) * len(self.ys)
        if size > MAX_SUPPORT:
            raise ValueError(f"support of {size} points exceeds {MAX_SUPPORT}")
        object.__setattr__(self, "xs", _axis("xs", self.xs))
        object.__setattr__(self, "ys", _axis("ys", self.ys))

    def __len__(self) -> int:
        return self.m * len(self.xs) * len(self.ys)

    @property
    def items(self) -> tuple[LatticePoint, ...]:
        """The points, translate by translate, each box in row-major order."""
        return tuple(
            LatticePoint(j, (a, b)) for j in range(self.m) for a in self.xs for b in self.ys
        )

    @classmethod
    def box(cls, spec: LatticeSpec, xs: Sequence[int], ys: Sequence[int]) -> SupportSet:
        """All translates crossed with the integer box xs x ys."""
        return cls(spec.m, xs, ys)

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
    """u_p + m_p - (u_q + m_q).  Translates in two irrational fields are
    refused, as the matrices refuse them through `LatticeSpec.form`."""
    _translate_field(spec.us)
    up = vec_add(spec.us[p.j], (p.m[0], p.m[1]))
    uq = vec_add(spec.us[q.j], (q.m[0], q.m[1]))
    return vec_sub(up, uq)


def _phi(p: int, q: int, r: int, d: int) -> complex:
    """Integral of e^{2 pi i t s} over s in (0, 2 pi) of one coordinate, for
    t = (p + q*sqrt d)/r with r > 0, reduced or not.

    Branches on the exactly-known arithmetic type of t: zero gives the cube
    edge 2 pi, any other integer gives exactly 0.
    """
    if q == 0 and p == 0:
        return complex(TWO_PI)
    if q == 0 and p % r == 0:
        return 0.0j
    return (cmath.exp(1j * _phase_angle(p, q, r, d)) - 1.0) / (1j * quad_float(p, q, r, d))


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
    factor = _phi(a.p, a.q, a.r, a.d) * _phi(b.p, b.q, b.r, b.d)
    if factor == 0:
        return 0.0j
    return _phase_sum(phase(vec_dot(mu, n)) for n in config.ns) * factor / spec.det_l()


def _product(x, y):
    """(re, im) of x * y for (re, im) pairs of arrays, in CPython's rounding.

    numpy's complex multiply may use fused multiply-add and round differently
    from the scalar product in `inner_product`.
    """
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _differences(spec: LatticeSpec, support: SupportSet) -> tuple[dict, tuple[int, int]]:
    """The translate pairs (x, y), x <= y, of the upper triangle mapped to the
    differences of their rows of `LatticeSpec.form`, one per coordinate, and
    the spans len(xs) - 1 and len(ys) - 1: each shift of an axis lies in
    [-span, span].  A support built for another tiling is refused."""
    if support.m != spec.m:
        raise SizeMismatchError(
            f"support has {support.m} translates, lattice has {spec.m} translates"
        )
    xs, ys = zip(*spec.form[2])  # the rows of each translate's x and y
    pairs = {
        (x, y): (tuple(map(sub, xs[x], xs[y])), tuple(map(sub, ys[x], ys[y])))
        for x in range(spec.m)
        for y in range(x, spec.m)
    }
    return pairs, (len(support.xs) - 1, len(support.ys) - 1)


def _assemble(support: SupportSet, entries) -> np.ndarray:
    """Hermitian S x S matrix from its upper triangle, in slabs of rows.

    entries(pair, s0, s1) returns the entries (a, b), a <= b, of a slab from
    their translate pair codes j_a*M + j_b and integer shifts m_a - m_b, row
    by row.  Point a is translate j_a at box position (x_a, y_a), by divmod of
    a, and its shift to b is the difference of the positions.  A slab has
    max(1, SLAB_ROWS**2 // S) rows, so it spans at most SLAB_ROWS**2 entries.
    Its rows are written whole, upper entries and the conjugates of the ones
    above them, and the conjugates of its entries right of the slab go down
    the columns below it.
    """
    size = len(support)
    index = np.arange(size)
    j, position = np.divmod(index, len(support.xs) * len(support.ys))
    m = np.divmod(position, len(support.ys))
    step = max(1, SLAB_ROWS * SLAB_ROWS // size)
    g = np.empty((size, size), dtype=complex)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        upper = index[: hi - lo, None] <= index[: size - lo]
        pair = (j[lo:hi, None] * support.m + j[lo:])[upper]
        block = g[lo:hi, lo:]
        block[upper] = entries(pair, *((c[lo:hi, None] - c[lo:])[upper] for c in m))
        square, below = block[:, : hi - lo], ~upper[:, : hi - lo]
        square[below] = square.T[below].conj()
        g[hi:, lo:hi] = block[:, hi - lo :].T.conj()
    return g


def gram_matrix(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet
) -> np.ndarray:
    """Hermitian S x S matrix of pairwise inner products over the domain.

    Entry (a, b), a <= b, has the bits of inner_product(items[a], items[b]).
    """
    _check_size(spec, config.m)
    pairs, spans = _differences(spec, support)
    den, d, _ = spec.form
    det = spec.det_l()
    codes = np.zeros((3, spec.m * spec.m), dtype=np.intp)
    keys, residues = ({}, {}), {}
    for (x, y), diff in pairs.items():
        code = x * spec.m + y
        for c, key in enumerate(diff):
            codes[c, code] = keys[c].setdefault(key, len(keys[c]))
        codes[2, code] = residues.setdefault(tuple((a % den, b) for a, b in diff), len(residues))
    w = phase_columns((den, d, list(residues)), config.ns)
    totals = np.array([_phase_sum(row) for row in w.tolist()], dtype=complex)
    phis = [
        np.array(
            [_phi(a + s * den, q, den, d) for a, q in key for s in range(-span, span + 1)],
            dtype=complex,
        ).reshape(len(key), 2 * span + 1)
        for key, span in zip(keys, spans)
    ]

    def entries(pair: np.ndarray, *shift: np.ndarray) -> np.ndarray:
        phi = [phis[c][codes[c, pair], s + spans[c]] for c, s in enumerate(shift)]
        factor = _product(*((v.real, v.imag) for v in phi))
        total = totals[codes[2, pair]]
        re, im = _product((total.real, total.imag), factor)
        upper = np.empty(len(pair), dtype=complex)
        upper.real = re / det
        upper.imag = im / det
        upper[(factor[0] == 0) & (factor[1] == 0)] = 0
        return upper

    return _assemble(support, entries)


def frame_bound_check(
    spec: LatticeSpec,
    config: TranslationConfig,
    support: SupportSet,
) -> FrameBoundReport:
    """Check the Gram spectrum against the frame bounds [c1_full, c2_full].

    Valid for every box, and by interlacing every support inside one: a*Ga is
    the domain integral of |f|^2 for f with coefficients a.  When (A2) fails
    the lower constant degrades to 0 and only the upper bound is asserted.
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
    _check_size(spec, config.m)
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
    _check_size(spec, config.m)
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
    depends only on the difference u_x - u_y of the translates and the shift
    m_a - m_b.
    """
    _cell_of_rect(spec, config, hole)
    pairs, spans = _differences(spec, support)
    codes = np.zeros(spec.m * spec.m, dtype=np.intp)
    ids, forms = {}, []
    for (x, y), diff in pairs.items():
        if diff not in ids:
            ids[diff] = len(forms)
            mu = vec_sub(spec.us[x], spec.us[y])
            forms.append([_delta_form(spec, mu, d) for d in range(2)])
        codes[x * spec.m + y] = ids[diff]

    s0s, s1s = (range(-span, span + 1) for span in spans)
    table = np.array(
        [_hole_entry(hole, [_delta(f, s0, s1) for f in form])
         for form in forms for s0 in s0s for s1 in s1s],
        dtype=complex,
    ).reshape(len(forms), len(s0s), len(s1s))
    return _assemble(
        support, lambda pair, s0, s1: table[codes[pair], s0 + spans[0], s1 + spans[1]]
    )


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

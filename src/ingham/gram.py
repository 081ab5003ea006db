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
`LatticeSpec.form` for all M^2 translate pairs (x, y) at once, so
mu_c = (A + s_c*D + B*sqrt(d))/D with integers A and B, in the translates'
one field Q(sqrt d): zero when A and B are, an integer when B is 0 and D
divides A.  A support is every translate crossed with an integer box of
A x B points (`SupportSet`), so each shift s_c lies in [-(A-1), A-1] or
[-(B-1), B-1], and each matrix is one table indexed
[x*M + y, s_0 + span_0, s_1 + span_1] from which `_assemble` gathers the
S^2 entries, slab by slab, with no loop over translate pairs or entries:

- `gram_matrix`: the phase sums of all pairs come from one `phase_columns`
  call on the difference rows, phi of both axes from one `_phi` call over
  (pair, axis shift), and the table is their product over det L;
- `hole_gram_matrix`: delta_k = (L* mu)_k is (P + Q*sqrt f)/(rho*D) with
  P and Q integer arrays, products of the integer rows of L* (over one
  denominator rho per row) and the same difference rows, and `_delta` and
  `_hole_entry` are one array evaluation over (pair, s_0, s_1);
- `removal_witness`: one table of their difference serves every support
  whose spans fit in its own, since each entry is a function of the pair
  and the shift alone: a box with spans (t_0, t_1) reads the centred slice
  [:, T_0 - t_0 : T_0 + t_0 + 1, T_1 - t_1 : T_1 + t_1 + 1] of the table
  of spans (T_0, T_1).  Nested supports, radii 0..k, make one table, at
  the largest support's spans.

Integers stay integers: int64 arrays while every integer is below 2**53,
Python ints past that, through the same expressions
(`spectral._int_array`).  The floats are formed as float(QuadNumber) forms
them (`qfield.quad_float`, `spectral._phase_angle`): from the correctly
rounded integer quotients p/r and q/r, which depend on the rationals alone,
not on the denominator they are written over.  The complex products and
quotients are CPython's, written out on (re, im) pairs
(`spectral._product`, `_over_i`).  So the tables have the bits of the
scalar `inner_product` and `hole_inner_product` of `tests/gram_oracle.py`,
the test oracles, which take one entry through the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import FieldMismatchError, HoleOutsideDomainError, SizeMismatchError
from .geometry import ambient_l
from .lattice import LatticePoint, LatticeSpec, TranslationConfig
from .qfield import QuadNumber, quad_float
from .spectral import (
    TWO_PI,
    SpectralResult,
    _check_size,
    _complex,
    _int_array,
    _phase_angle,
    _product,
    hermitian_extremes,
    ingham_constants,
    phase_columns,
)

Rect = tuple[float, float, float, float]  # x0, y0, x1, y1

# Largest support a SupportSet may hold.  A Gram matrix of S points is S^2
# complex entries (16 B each).  It is filled in slabs of max(1, SLAB_ROWS**2
# // S) rows, so a slab spans at most SLAB_ROWS**2 = 65,536 entries, whose
# keys and values take about 130 B each.  At S = 4000 that is 256 MB of matrix
# plus about 9 MB of slab temporaries, before the eigensolve of
# frame_bound_check copies the matrix.  On an M-translate box of A x B points
# the Gram table and the hole table each hold M^2 x (2A-1)(2B-1) values; on
# the largest centered catalog supports (truncated trihexagonal at radius 8)
# that is 156,816, 2.5 MB, with a peak of about 8 MB while the Gram table is
# computed and 27 MB while the hole table is.
MAX_SUPPORT = 4000
SLAB_ROWS = 256


def _length(name: str, values: Sequence[int]) -> int:
    """The number of values, or ValueError if there are none.  A range is
    counted from its ends: len raises OverflowError past sys.maxsize."""
    n = (-((values.start - values.stop) // values.step) if isinstance(values, range)
         else len(values))
    if n <= 0:
        raise ValueError(f"support axis {name} is empty")
    return n


def _axis(name: str, values: Sequence[int]) -> range:
    """values as a range, or ValueError unless they are consecutive increasing
    integers."""
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
        size = self.m * _length("xs", self.xs) * _length("ys", self.ys)
        if size > MAX_SUPPORT:
            raise ValueError(f"support of {size} points exceeds {MAX_SUPPORT}")
        object.__setattr__(self, "xs", _axis("xs", self.xs))
        object.__setattr__(self, "ys", _axis("ys", self.ys))

    def __len__(self) -> int:
        return self.m * len(self.xs) * len(self.ys)

    @property
    def spans(self) -> tuple[int, int]:
        """len(xs) - 1 and len(ys) - 1: each shift of an axis lies in
        [-span, span]."""
        return len(self.xs) - 1, len(self.ys) - 1

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


def _over_i(x, t):
    """x / (1j*t) for nonzero floats t, as CPython's _Py_c_quot rounds it, on
    the (re, im) pairs of `spectral._product`.

    1j*t is (copysign(0.0, t), t), so its imaginary part is the larger:
    _Py_c_quot's ratio real/imag is then +0.0 and its denominator
    real*ratio + imag is t, which leaves ((x.re*ratio + x.im)/t,
    (x.im*ratio - x.re)/t).  The products with +0.0 carry the signs of the
    zeros: at t = 1e-100, x.re = e^{2 pi i t}.re - 1 is 0.0 exactly."""
    return (x[0] * 0.0 + x[1]) / t, (x[1] * 0.0 - x[0]) / t


def _phi(p, q, r: int, d: int) -> np.ndarray:
    """Integral of e^{2 pi i t s} over s in (0, 2 pi) of one coordinate,
    elementwise for t = (p + q*sqrt d)/r, integers or integer arrays p and q
    (`spectral._int_array`) and r > 0, reduced or not: (e^{2 pi i t} -
    1)/(i t) in CPython's complex rounding.

    Branches on the exactly-known arithmetic type of t: zero gives the cube
    edge 2 pi, any other integer gives exactly 0, and the quotient's divisor
    is set to 1 there.  The oracle `inner_product` of `tests/gram_oracle.py`
    calls it on the scalar parts of one QuadNumber.
    """
    integer = (q == 0) & (p % r == 0)
    e = np.exp(1j * np.asarray(_phase_angle(p, q, r, d), dtype=float))
    t = np.where(integer, 1.0, np.asarray(quad_float(p, q, r, d), dtype=float))
    re, im = _over_i((e.real - 1.0, e.imag), t)
    exact = np.where(p == 0, TWO_PI, 0.0)
    return _complex((np.where(integer, exact, re), np.where(integer, 0.0, im)))


def _check_support(spec: LatticeSpec, support: SupportSet) -> None:
    """SizeMismatchError unless the support has the spec's translate count."""
    if support.m != spec.m:
        raise SizeMismatchError(
            f"support has {support.m} translates, lattice has {spec.m} translates"
        )


def _differences(spec: LatticeSpec, support: SupportSet) -> tuple[np.ndarray, tuple[int, int]]:
    """The differences of the rows of `LatticeSpec.form` of all translate
    pairs (x, y), at index x*M + y, as an (M*M, 2, 2) integer array [pair,
    axis, (rational, radical part)], and the support's spans
    (`SupportSet.spans`).  The array is int64 when every difference plus a
    shift times the denominator is below 2**53 (`spectral._int_array`).  A
    support for another tiling is refused (`_check_support`)."""
    _check_support(spec, support)
    den, _, rows = spec.form
    spans = support.spans
    width = max(map(abs, chain.from_iterable(chain.from_iterable(rows))))
    a = _int_array(rows, 2 * width + (max(spans) + 1) * den)
    return (a[:, None] - a).reshape(-1, 2, 2), spans


def _assemble(support: SupportSet, table: np.ndarray) -> np.ndarray:
    """Hermitian S x S matrix from its upper triangle, in slabs of rows.

    Entry (a, b), a <= b, is table[j_a*M + j_b, s_0 + span_0, s_1 + span_1]
    for the translates j and the integer shifts s = m_a - m_b.  Point a is
    translate j_a at box position (x_a, y_a), by divmod of a, and its shift
    to b is the difference of the positions.  A slab has max(1,
    SLAB_ROWS**2 // S) rows, so it spans at most SLAB_ROWS**2 entries.  Its
    rows are written whole, upper entries and the conjugates of the ones
    above them, and the conjugates of its entries right of the slab go down
    the columns below it.
    """
    size = len(support)
    index = np.arange(size)
    j, position = np.divmod(index, len(support.xs) * len(support.ys))
    m = np.divmod(position, len(support.ys))
    spans = support.spans
    step = max(1, SLAB_ROWS * SLAB_ROWS // size)
    g = np.empty((size, size), dtype=complex)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        upper = index[: hi - lo, None] <= index[: size - lo]
        pair = (j[lo:hi, None] * support.m + j[lo:])[upper]
        shifts = ((c[lo:hi, None] - c[lo:])[upper] + span for c, span in zip(m, spans))
        block = g[lo:hi, lo:]
        block[upper] = table[(pair, *shifts)]
        square, below = block[:, : hi - lo], ~upper[:, : hi - lo]
        square[below] = square.T[below].conj()
        g[hi:, lo:hi] = block[:, hi - lo :].T.conj()
    return g


def _gram_table(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet
) -> np.ndarray:
    """gram_matrix's entries by [x*M + y, s_0 + span_0, s_1 + span_1]: each
    translate pair's phase sum, one `phase_columns` call whose columns are
    added in the order of config.ns as the oracle `inner_product` adds
    them, times phi of each axis over (pair, shift), over det L."""
    _check_size(spec, config.m)
    diffs, spans = _differences(spec, support)
    den, d, _ = spec.form
    w = phase_columns((den, d, diffs.tolist()), config.ns)
    total = sum(w.T, np.zeros(len(diffs), complex))  # column by column, from 0.0
    # phi over both axes at once: columns (axis 0, s_0) and then (axis 1, s_1)
    axis = [c for c, span in enumerate(spans) for _ in range(2 * span + 1)]
    shifts = np.array([s for span in spans for s in range(-span, span + 1)], dtype=diffs.dtype)
    phi = _phi(diffs[:, axis, 0] + shifts * den, diffs[:, axis, 1], den, d)
    x, y = phi[:, : 2 * spans[0] + 1, None], phi[:, None, 2 * spans[0] + 1 :]
    factor = _product((x.real, x.imag), (y.real, y.imag))
    t, det = total[:, None, None], spec.det_l()
    table = _complex([v / det for v in _product((t.real, t.imag), factor)])
    table[(factor[0] == 0) & (factor[1] == 0)] = 0
    return table


def gram_matrix(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet
) -> np.ndarray:
    """Hermitian S x S matrix of pairwise inner products over the domain.

    Entry (a, b), a <= b, has the bits of the oracle
    inner_product(items[a], items[b]) of `tests/gram_oracle.py`.
    """
    return _assemble(support, _gram_table(spec, config, support))


def frame_bound_check(
    spec: LatticeSpec,
    config: TranslationConfig,
    support: SupportSet,
) -> FrameBoundReport:
    """Check the Gram spectrum against the frame bounds [c1_full, c2_full]:
    `frame_bound_report` with the configuration's own `ingham_constants`,
    computed first, so a configuration they refuse is refused before any
    Gram work."""
    return frame_bound_report(spec, config, support, ingham_constants(spec, config))


def frame_bound_report(
    spec: LatticeSpec,
    config: TranslationConfig,
    support: SupportSet,
    constants: SpectralResult,
) -> FrameBoundReport:
    """The frame-bound verdict of the configuration on the support, given its
    `ingham_constants` (a caller that holds them, as the reproduction report
    does, passes them; `frame_bound_check` computes them); the only place
    the verdict rule is written.

    Valid for every box, and by interlacing every support inside one: a*Ga is
    the domain integral of |f|^2 for f with coefficients a.  When (A2) fails
    the lower constant degrades to 0 and only the upper bound is asserted.

    The Gram matrix is taken of the configuration translated to minimum 0,
    as `ingham_constants` canonicalises it: translating the domain turns G
    into D G D^* with D diagonal and unitary, which keeps the spectrum, and
    the float phases of a configuration far from the origin lose their
    digits (at (10**15, -10**15) a negative lambda_min was read).
    """
    _check_size(spec, config.m)
    x0, y0 = (min(c) for c in zip(*config.ns))
    at_origin = TranslationConfig(tuple((x - x0, y - y0) for x, y in config.ns))
    lam_min, lam_max = hermitian_extremes(gram_matrix(spec, at_origin, support))
    eps = 1e-6 * constants.c2_full
    if constants.satisfies_a2:
        passed = constants.c1_full - eps <= lam_min and lam_max <= constants.c2_full + eps
        c1 = constants.c1_full
    else:
        passed = lam_max <= constants.c2_full + eps
        c1 = 0.0
    return FrameBoundReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        c1_full=c1,
        c2_full=constants.c2_full,
        a2=constants.satisfies_a2,
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


def _delta(
    spec: LatticeSpec, diffs: np.ndarray, spans: tuple[int, int], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """delta_k(s) = (L* (mu + s))_k of each translate difference mu of
    `_differences` at every shift s with |s_c| <= spans[c], as a (pair,
    2*span_0 + 1, 2*span_1 + 1) float array, and the mask of the deltas that
    are exactly 0.

    mu_c + s_c is (a_c + b_c*sqrt d)/den with a_c = A_c + s_c*den, and row k
    of L* is ((al_c + be_c*sqrt e)/rho)_c over one lcm rho, so delta_k is
    (P + Q*sqrt f)/(rho*den) with P = sum al_c*a_c + be_c*b_c*e and
    Q = sum al_c*b_c + be_c*a_c in integers, f the one field of the row and
    the translates.  Its float is `qfield.quad_float`'s, whose bits depend on
    the rationals alone, as float(QuadNumber) in the oracle
    `hole_inner_product` of `tests/gram_oracle.py`.  When the row and the
    translates lie in two fields, L* must be a homothety c*I (`_homothety`):
    delta_k is then the exact product where mu_k is rational (b_k = 0), and
    float(c) times the float of mu_k + s_k elsewhere, the branch the oracle
    takes there.
    """
    den, d, _ = spec.form
    row = spec.l_star[k]
    e, rho = max(t.d for t in row), math.lcm(*(t.r for t in row))
    (al0, be0), (al1, be1) = ((t.p * (rho // t.r), t.q * (rho // t.r)) for t in row)
    width = max(map(abs, diffs.ravel().tolist())) + (max(spans) + 1) * den  # >= |a_c|, |b_c|
    # |P| and |Q| are at most 4*e*max|al_c, be_c|*width
    x = _int_array(diffs, 4 * e * max(map(abs, (al0, be0, al1, be1))) * width + rho * den)
    s0, s1 = (np.arange(-span, span + 1).astype(x.dtype) * den for span in spans)
    a = x[:, 0, 0, None, None] + s0[:, None], x[:, 1, 0, None, None] + s1
    b = x[:, 0, 1, None, None], x[:, 1, 1, None, None]
    p = al0 * a[0] + al1 * a[1] + (be0 * b[0] + be1 * b[1]) * e
    q = al0 * b[0] + al1 * b[1] + be0 * a[0] + be1 * a[1]
    delta = np.asarray(quad_float(p, q, rho * den, e if e > 1 else d), dtype=float)
    zero = (p == 0) & (q == 0)
    if len({t.d for t in row} | {d, 1}) > 2:  # the row and the translates in two fields
        c, cross = float(_homothety(spec)), b[k] != 0
        mu = np.asarray(quad_float(a[k], b[k], den, d), dtype=float)
        delta, zero = np.where(cross, c * mu, delta), zero & ~cross
    return delta, zero


def _hole_entry(hole: Rect, deltas, zeros) -> np.ndarray:
    """prod_d (e^{i delta_d b_d} - e^{i delta_d a_d})/(i delta_d) over the
    hole's sides (a_d, b_d), elementwise for floats or float arrays delta_d
    and the masks of the delta_d that are exactly 0, in CPython's complex
    rounding (`_product`, `_over_i`).  An exactly zero delta_d contributes
    the side length, and the quotient's divisor is set to 1 there.  A float
    0.0 is an exactly nonzero delta_d that underflowed, and is refused: the
    quotient has no float value.  The oracle `hole_inner_product` of
    `tests/gram_oracle.py` calls it on one entry's scalar deltas."""
    x0, y0, x1, y1 = hole
    val = (1.0, 0.0)
    for df, zero, (lo, hi) in zip(deltas, zeros, ((x0, x1), (y0, y1))):
        if np.any((df == 0.0) & np.logical_not(zero)):
            raise ValueError("hole integral: a nonzero delta_d = (L* mu)_d underflows to 0.0")
        df = np.where(zero, 1.0, df)
        i_df = _product((0.0, 1.0), (df, 0.0))
        e_hi, e_lo = (np.exp(_complex(_product(i_df, (end, 0.0)))) for end in (hi, lo))
        ends = e_hi - e_lo
        re, im = _over_i((ends.real, ends.imag), df)
        val = _product(val, (np.where(zero, hi - lo, re), np.where(zero, 0.0, im)))
    return _complex(val)


def _hole_table(spec: LatticeSpec, support: SupportSet, hole: Rect) -> np.ndarray:
    """hole_gram_matrix's entries by [x*M + y, s_0 + span_0, s_1 + span_1],
    as `_gram_table` fills the Gram table: one array evaluation of `_delta`
    and `_hole_entry` over (translate pair, s_0, s_1), from the integer
    differences of `_differences`.  The caller has placed the hole
    (`_cell_of_rect`)."""
    diffs, spans = _differences(spec, support)
    return _hole_entry(hole, *zip(*(_delta(spec, diffs, spans, k) for k in range(2))))


def hole_gram_matrix(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet, hole: Rect
) -> np.ndarray:
    """Gram matrix of the exponentials over the hole rectangle alone.

    Entry (a, b), a <= b, is the oracle hole_inner_product(items[a],
    items[b]) of `tests/gram_oracle.py`, which depends only on the
    difference u_x - u_y of the translates and the shift m_a - m_b.  The hole is where it is: a configuration translated with it
    gives another matrix.
    """
    _cell_of_rect(spec, config, hole)
    return _assemble(support, _hole_table(spec, support, hole))


def removal_witness(
    spec: LatticeSpec,
    config: TranslationConfig,
    hole: Rect,
    supports: Sequence[SupportSet],
) -> list[float]:
    """lambda_min of the Gram matrix over the domain minus the hole, per support.

    As the support grows the sequence decreases toward 0, witnessing that the
    lower estimate cannot survive the removal of an open set.  Each matrix is
    assembled from the Gram table minus the hole table: conjugation
    commutes with float subtraction, so it has the bits of
    gram_matrix - hole_gram_matrix but for the sign of a zero imaginary part
    below the diagonal, where the two imaginary parts cancel: the conjugate
    is -0.0 and the difference +0.0.  It is exactly Hermitian.  Like the
    hole, it takes config.ns as they are, not translated to the origin as
    `frame_bound_check` does.

    One table serves every support whose spans fit in its own: an entry
    depends only on the translate pair and the shift, elementwise, so the
    table of a box with spans (A, B) holds that of spans (a, b) <= (A, B) as
    its centred slice [:, A - a : A + a + 1, B - b : B + b + 1], bit for bit.
    Supports are taken largest first, and a table is computed, at a
    support's own spans, only when no earlier table holds it, so nested
    supports (radii 0..k) make one table and none is larger than the largest
    support's.  Every support and the hole are checked before any table is
    built.
    """
    _check_size(spec, config.m)
    for support in supports:
        _check_support(spec, support)
    _cell_of_rect(spec, config, hole)
    tables: list[np.ndarray] = []
    lambdas = [0.0] * len(supports)
    for i in sorted(range(len(supports)), key=lambda i: len(supports[i]), reverse=True):
        support = supports[i]
        a, b = support.spans
        table = next((t for t in tables if 2 * a < t.shape[1] and 2 * b < t.shape[2]), None)
        if table is None:
            table = _gram_table(spec, config, support) - _hole_table(spec, support, hole)
            tables.append(table)
        big_a, big_b = table.shape[1] // 2, table.shape[2] // 2
        window = table[:, big_a - a : big_a + a + 1, big_b - b : big_b + b + 1]
        lambdas[i] = hermitian_extremes(_assemble(support, window))[0]
    return lambdas

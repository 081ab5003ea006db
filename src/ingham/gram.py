"""Gram matrices of lattice exponentials over the integration domain.

Inner products <e_p, e_q> = integral over Omega of e^{i(lambda_p-lambda_q, x)}
reduce, after the change of variables that maps the domain back to the
translated cubes, to the closed form

    |det L|^{-1} * sum_k e^{2 pi i <mu, n_k>} * prod_d phi(mu_d),

with mu the difference of translate-plus-integer indices and
phi(t) = (e^{2 pi i t} - 1)/(i t), phi(0) = 2 pi.  Whether a component of mu
is zero or integer is decided in exact arithmetic, so Fourier orthogonality
is exact and no quadrature enters the main path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HoleOutsideDomainError
from .geometry import ambient_l
from .lattice import LatticePoint, LatticeSpec, Vec2, vec_add, vec_dot, vec_sub
from .spectral import (
    A2_DET_TOL,
    TWO_PI,
    TranslationConfig,
    hermitian_extremes,
    ingham_constants,
    phase,
)

Rect = tuple[float, float, float, float]  # x0, y0, x1, y1


@dataclass(frozen=True)
class SupportSet:
    """Finite set of lattice-point indices carrying the coefficient support."""

    items: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise ValueError("support items must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def box(cls, spec: LatticeSpec, xs: Sequence[int], ys: Sequence[int]) -> SupportSet:
        """All translates crossed with the integer box xs x ys."""
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


def _phi(t) -> complex:
    """Integral of e^{2 pi i t s} over s in (0, 2 pi) of one coordinate.

    Branches on the exactly-known arithmetic type of t: zero gives the cube
    edge 2 pi, any other integer gives exactly 0.
    """
    if t.is_zero():
        return complex(TWO_PI)
    if t.is_integer():
        return 0.0j
    return (phase(t) - 1.0) / (1j * float(t))


def inner_product(
    spec: LatticeSpec,
    config: TranslationConfig,
    p: LatticePoint,
    q: LatticePoint,
) -> complex:
    """Exact closed-form integral of e_p conj(e_q) over the domain."""
    mu = _mu(spec, p, q)
    factor = _phi(mu[0]) * _phi(mu[1])
    if factor == 0:
        return 0.0j
    total = 0.0j
    for n in config.ns:
        total += phase(vec_dot(mu, n))
    return total * factor / spec.det_l()


def gram_matrix(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet
) -> np.ndarray:
    """Hermitian S x S matrix of pairwise inner products over the domain."""
    items = support.items
    s = len(items)
    g = np.empty((s, s), dtype=complex)
    for a in range(s):
        g[a, a] = inner_product(spec, config, items[a], items[a])
        for b in range(a + 1, s):
            v = inner_product(spec, config, items[a], items[b])
            g[a, b] = v
            g[b, a] = v.conjugate()
    return g


def frame_bound_check(
    spec: LatticeSpec,
    config: TranslationConfig,
    support: SupportSet,
    tol: float = A2_DET_TOL,
) -> FrameBoundReport:
    """Check the Gram spectrum against the frame bounds [c1_full, c2_full].

    Valid for every finite support: a*Ga is the domain integral of |f|^2 for
    f with coefficients a.  When (A2) fails the lower constant degrades to 0
    and only the upper bound is asserted.
    """
    sr = ingham_constants(spec, config, tol)
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
    if not (x1 > x0 and y1 > y0):
        raise HoleOutsideDomainError("hole rectangle has no interior")
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
    if not area_fraction > 0:  # fractions >= 1 fail the containment check below
        raise ValueError(f"hole area fraction must be > 0, got {area_fraction}")
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


def hole_gram_matrix(
    spec: LatticeSpec, config: TranslationConfig, support: SupportSet, hole: Rect
) -> np.ndarray:
    """Gram matrix of the exponentials over the hole rectangle alone.

    Uses the ambient closed form with delta = L* mu per coordinate,
    prod_d (e^{i delta_d b_d} - e^{i delta_d a_d})/(i delta_d), the zero
    branch contributing the side length.  delta_d = 0 is decided exactly.
    """
    _cell_of_rect(spec, config, hole)
    x0, y0, x1, y1 = hole
    sides = ((x0, x1), (y0, y1))
    items = support.items
    s = len(items)
    g = np.empty((s, s), dtype=complex)
    rows = spec.l_star
    for a in range(s):
        for b in range(a, s):
            mu = _mu(spec, items[a], items[b])
            val = 1.0 + 0.0j
            for d in range(2):
                delta = rows[d][0] * mu[0] + rows[d][1] * mu[1]
                lo, hi = sides[d]
                if delta.is_zero():
                    val *= hi - lo
                else:
                    df = float(delta)
                    val *= (cmath.exp(1j * df * hi) - cmath.exp(1j * df * lo)) / (
                        1j * df
                    )
            g[a, b] = val
            g[b, a] = val.conjugate()
    return g


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


def witness_csv_rows(
    supports: Sequence[SupportSet], lambdas: Sequence[float]
) -> list[tuple[int, str]]:
    return [(len(s), f"{lam:.12g}") for s, lam in zip(supports, lambdas)]

"""The spectral kernel: E, its determinant and the eigenvalues of E E^*.

For translates u_1..u_M and translation vectors v_k = 2*pi*n_k the matrix
E[j,k] = exp(2*pi*i*<u_j, n_k>) decides the two-sided estimate: (A2) holds
when E is invertible, and the optimal constants are the extreme eigenvalues
of E E^*.  `phase` is the only place an exact inner product becomes a unit
complex number; `spectra` is the only place determinants and eigenvalues of
E E^* are taken.  It takes a point list and an (N, m) index array into it
(`config_index` builds both from a configuration list) and walks the array
in chunks of CHUNK_ROWS configurations, so its memory does not grow with the
survey.  A single configuration is a batch of one, and neither the batch
nor the chunk changes a configuration's bits.  `a2_holds` is the only place
the (A2) verdict is decided: |det E| > A2_DET_TOL in floats, a heuristic.
`a2_stable` is the only place its stability is judged: a batch is stable when
no |det E| lies between the ends of A2_SWEEP, so no threshold there moves a
verdict; the report gates every grid survey on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateTilingError, NotHermitianError, SizeMismatchError
from .lattice import LatticeSpec, Vec2, qvec, validate_spec, vec_dot
from .qfield import QuadNumber, Rational

# (A2) verdict: E counts as invertible when |det E| exceeds this.  An absolute
# determinant threshold separates the structurally singular configurations
# (float |det| below ~1e-13 for M <= 12) from every genuinely invertible one
# in the catalog (smallest observed |det| = 1.09e-3), so the verdict is stable
# for thresholds anywhere in [1e-12, 1e-4].  A relative eigenvalue-gap test is
# not: several invertible two-square configurations have kappa1/kappa2 ~ 1e-9.
A2_DET_TOL = 1e-8

A2_SWEEP = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)

TWO_PI = 2.0 * math.pi

# Configurations per chunk of `spectra` and `geometry.connected_rows`.  A
# chunk holds its E's, their conjugates and E E^* (three complex M x M
# matrices, 16 B an entry) plus the eigensolver's workspace: at M = 12 about
# 9 KB per configuration, so 20 MB per chunk whatever the survey's size.
CHUNK_ROWS = 2048

TWO_SQUARE_CONFIG = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class TranslationConfig:
    """Integer vectors n_k encoding v_k = 2*pi*n_k; (A1) holds by construction."""

    ns: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.ns)) != len(self.ns):
            raise ValueError("translation vectors must be pairwise distinct")

    @property
    def m(self) -> int:
        return len(self.ns)

    @classmethod
    def of(cls, *ns: tuple[int, int]) -> TranslationConfig:
        return cls(tuple((int(a), int(b)) for a, b in ns))

    @classmethod
    def parse(cls, text: str) -> TranslationConfig:
        """Parse the CLI syntax 'a,b;a,b;...'."""
        pairs = []
        for chunk in text.split(";"):
            a, b = chunk.split(",")
            pairs.append((int(a.strip()), int(b.strip())))
        return cls(tuple(pairs))

    def __str__(self) -> str:
        return ";".join(f"{a},{b}" for a, b in self.ns)


@dataclass(frozen=True)
class SpectralResult:
    """Spectral data of E E^* plus the volume-normalized constants."""

    kappa1: float
    kappa2: float
    det_abs: float
    satisfies_a2: bool
    c1_full: float
    c2_full: float


def _phase_angle(t: QuadNumber) -> float:
    """2*pi*t with the rational part reduced mod 1 exactly."""
    irr = (t.q / t.r) * math.sqrt(t.d) if t.q else 0.0
    return TWO_PI * (t.p % t.r / t.r + irr)


def phase(t: QuadNumber) -> complex:
    """exp(2*pi*i*t) for an exactly known t."""
    return cmath.exp(1j * _phase_angle(t))


def phase_columns(
    vectors: Sequence[Vec2], points: Sequence[tuple[int, int]]
) -> np.ndarray:
    """W[j, p] = exp(2*pi*i*<vectors[j], points[p]>)."""
    w = np.empty((len(vectors), len(points)), dtype=complex)
    for j, u in enumerate(vectors):
        for p, n in enumerate(points):
            w[j, p] = phase(vec_dot(u, n))
    return w


def _check_size(spec: LatticeSpec, m: int) -> None:
    if m != spec.m:
        raise SizeMismatchError(
            f"config has {m} vectors, lattice has {spec.m} translates"
        )


def build_e(spec: LatticeSpec, config: TranslationConfig) -> np.ndarray:
    """The M x M matrix E[j,k] = exp(2*pi*i*<u_j, n_k>)."""
    _check_size(spec, config.m)
    return phase_columns(spec.us, config.ns)


def config_index(
    configs: Sequence[Sequence[tuple[int, int]]],
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Sorted distinct points of a configuration list and the (N, m) index
    array into them, the form `spectra` takes."""
    points = sorted({n for cfg in configs for n in cfg})
    index = {n: i for i, n in enumerate(points)}
    return points, np.array([[index[n] for n in cfg] for cfg in configs], dtype=np.intp)


def chunks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most CHUNK_ROWS rows covering range(n)."""
    return (slice(k, k + CHUNK_ROWS) for k in range(0, n, CHUNK_ROWS))


def spectra(
    spec: LatticeSpec, points: Sequence[tuple[int, int]], idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|det E|, kappa1 and kappa2 of the configurations points[idx[i]].

    kappa1 and kappa2 are the extreme eigenvalues of E E^*, kappa1 clamped
    at 0.  Phases are computed once per point; the stacked E's of one chunk
    of CHUNK_ROWS configurations at a time go to the batched LAPACK
    determinant and Hermitian eigensolver, which treat each matrix alone, so
    the bits of a configuration do not depend on its batch or chunk.  For a
    configuration list, `spectra(spec, *config_index(configs))`.
    """
    _check_size(spec, idx.shape[-1])
    w = phase_columns(spec.us, points)
    det = np.empty(len(idx))
    lo = np.empty(len(idx))
    hi = np.empty(len(idx))
    for rows in chunks(len(idx)):
        es = w[:, idx[rows]].transpose(1, 0, 2)  # (chunk, M, m)
        hs = es @ es.conj().transpose(0, 2, 1)
        det[rows] = np.abs(np.linalg.det(es))
        eigs = np.linalg.eigvalsh(hs)
        lo[rows] = eigs[:, 0]
        hi[rows] = eigs[:, -1]
    return det, np.where(0.0 > lo, 0.0, lo), hi


def a2_holds(det_abs):
    """The (A2) verdict |det E| > A2_DET_TOL, elementwise for a batch; the only
    place the rule is written."""
    return det_abs > A2_DET_TOL


def a2_stable(det_abs) -> bool:
    """Whether no |det E| lies in (min(A2_SWEEP), max(A2_SWEEP)]: the thresholds
    nest, so exactly when every one gives the same failing count (NaN fails at all)."""
    return not np.any((det_abs > min(A2_SWEEP)) & (det_abs <= max(A2_SWEEP)))


def hermitian_extremes(h: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of a Hermitian matrix (full symmetric eigensolve)."""
    h = np.asarray(h, dtype=complex)
    asym = np.max(np.abs(h - h.conj().T))
    if asym > 1e-10:
        raise NotHermitianError(f"asymmetry {asym:.2e} exceeds 1e-10")
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    return float(w[0]), float(w[-1])


def check_a2(spec: LatticeSpec, config: TranslationConfig) -> bool:
    """Whether E is invertible, by `a2_holds`."""
    return ingham_constants(spec, config).satisfies_a2


def ingham_constants(spec: LatticeSpec, config: TranslationConfig) -> SpectralResult:
    """Optimal constants: kappas are the extreme eigenvalues of E E^*.

    c1_full/c2_full carry the (2*pi)^2 / |det L| volume factor, turning the
    kappas into the frame bounds of the exponentials over the domain.
    """
    dets, k1s, k2s = spectra(spec, *config_index([config.ns]))
    k1 = float(k1s[0])
    k2 = float(k2s[0])
    scale = TWO_PI**2 / spec.det_l()
    return SpectralResult(
        kappa1=k1,
        kappa2=k2,
        det_abs=float(dets[0]),
        satisfies_a2=bool(a2_holds(dets[0])),
        c1_full=k1 * scale,
        c2_full=k2 * scale,
    )


# -- two-square (Pythagorean) tiling ----------------------------------------


def _two_square_fractions(r: Rational, R: Rational) -> tuple[Fraction, Fraction]:
    r = Fraction(r)
    R = Fraction(R)
    # The spec's name prints both sides, and str() refuses an integer past
    # the interpreter's int-string limit (CPython's default: 4300 digits).
    for side, x in (("r", r), ("R", R)):
        try:
            str(x)
        except ValueError:
            raise ValueError(f"two-square side {side} has too many digits to print") from None
    if r <= 0 or R <= r:
        raise DegenerateTilingError(
            f"need 0 < r < R (got r={r}, R={R}): coinciding lattice points"
        )
    return r, R


def two_square_spec(r: Rational, R: Rational) -> LatticeSpec:
    """Vertex lattice of the tiling by squares of sides r < R.

    l_star is the homothety by sqrt(R^2+r^2); the four translates are the
    small-square vertices, with components +-rR/(sqrt2 (R^2+r^2)) and
    +-r^2/(sqrt2 (R^2+r^2)), exact in Q(sqrt2) for rational r, R.
    """
    r, R = _two_square_fractions(r, R)
    s = R * R + r * r
    scale = QuadNumber.sqrt(s)
    # A cos(alpha) and A sin(alpha) with A = r / sqrt(2 s), alpha = arctan(r/R)
    ac = QuadNumber(0, r * R / (2 * s), 2)
    as_ = QuadNumber(0, r * r / (2 * s), 2)
    zero = QuadNumber(0)
    us = (
        qvec(as_, ac),  # angle -alpha + pi/2
        qvec(-ac, as_),  # angle -alpha + pi
        qvec(-as_, -ac),  # angle -alpha + 3 pi/2
        qvec(ac, -as_),  # angle -alpha + 2 pi
    )
    l_star = ((scale, zero), (zero, scale))
    return validate_spec(LatticeSpec(name=f"two_square_r{r}_R{R}", l_star=l_star, us=us))


def two_square_delta(r: Rational, R: Rational) -> complex:
    """Closed-form det E for the canonical 2x2-block configuration.

    With C = exp(2*pi*i*A*cos(alpha)) and D = exp(2*pi*i*A*sin(alpha)) the
    determinant factors as (C^2-1)(D^2-1)(C^2 D^2 - 4CD + C^2 + D^2 + 1);
    the modulus agrees with |det(build_e(...))| to machine precision.
    """
    r, R = _two_square_fractions(r, R)
    s = R * R + r * r
    root2 = math.sqrt(2.0)
    ac = float(r * R) / (root2 * float(s))
    as_ = float(r * r) / (root2 * float(s))
    c = cmath.exp(2j * math.pi * ac)
    d = cmath.exp(2j * math.pi * as_)
    return (c * c - 1) * (d * d - 1) * (c * c * d * d - 4 * c * d + c * c + d * d + 1)


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

"""Lattice primitives: union-of-translates lattices over quadratic fields.

A lattice is the union over j of l_star @ (u_j + Z^2), stored exactly.
Membership, line-lattice containment and the minimal-translate certificate
are decided in exact arithmetic; floating point appears only when points
are realized for output.  A translate's class mod Z^2 has a hashable key,
`_residue`, so duplicate translates and the classes a line lattice meets
are found by dict lookups, in work bounded by the number of translates.

Each LatticeSpec builds its tables once, on first use, and keeps them on
the instance (cached properties that are not dataclass fields, so equality,
hashing and repr see only name, l_star and us): `_inverse`, the exact
l_star^-1; `_det_l`, |det l_star| as the float `det_l` returns;
`_translate_index`, each translate's `_residue` key mapped to its
index j, so membership of p is one lookup of the key of l_star^-1 p, formed
from that preimage's integers without building a QuadNumber; `form`,
the translates as integer rows over one denominator and one field; and
`_hash`, the hash of those three fields.

The translates' coordinates lie in one field Q(sqrt d), as every tiling of
the catalog and every spec file has them: `validate_spec` and `form` refuse
two irrational fields (`_translate_field`), so no layer handles a second.
l_star may lie in another field (the two-square tilings).

The module imports neither numpy nor any numeric module of the package, so
the exact layer (this module, `qfield` and `catalog`) starts without them.
It also holds the numpy-free pieces the catalog is built from:
`TranslationConfig`, the integer vectors of a configuration, and the
two-square (Pythagorean) tiling, `two_square_spec` and `TWO_SQUARE_CONFIG`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, reduce
from itertools import chain
from typing import Sequence

from .errors import (
    DegenerateTilingError,
    DuplicateTranslateError,
    NotInLatticeError,
    SingularMatrixError,
)
from .qfield import QuadNumber, Rational, _coerce, _exact, _joint_d, _make, quad_float

Vec2 = tuple[QuadNumber, QuadNumber]
Mat2 = tuple[Vec2, Vec2]  # rows

# Most candidate points realize_points tests, M per integer vector of the
# bbox's preimage.  Each point inside the bbox costs about 450 B as a
# RealizedPoint plus its CSV row (measured), so the output stays below about
# 225 MB, produced in about 3 s.
MAX_REALIZE_CANDIDATES = 500_000

# Range of the float |det l_star| that validate_spec accepts.  The float
# layers divide by the determinant (c1_full = 4 pi^2 kappa1 / |det|, every
# Gram entry), so a determinant near the ends of the float range (about
# 1e-308 and 1e308) turns results into inf or 0: two-square sides 3e-160,
# 4e-160 (|det| = 2.5e-319) gave c1_full = Infinity.  1e-100 and 1e100
# leave about 200 orders of magnitude for the products that follow.  A
# two-square spec has |det| = r^2 + R^2, 1.000001 for sides 0.001, 1 and
# about 1e12 for sides 1, 10**6; the catalog's lie between 0.87 and 6.5.
# Translates whose difference is a non-integer within DET_MIN of Z are
# refused too (`_least_gap_mod_1`).
DET_MIN, DET_MAX = 1e-100, 1e100


def qvec(x: QuadNumber | Rational, y: QuadNumber | Rational) -> Vec2:
    cast = lambda v: v if isinstance(v, QuadNumber) else QuadNumber(v)
    return (cast(x), cast(y))


def vec_add(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] + v[0], u[1] + v[1])


def vec_sub(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] - v[0], u[1] - v[1])


def vec_dot(u: Vec2, v: Vec2) -> QuadNumber:
    return u[0] * v[0] + u[1] * v[1]


def _residue(v: Vec2) -> tuple[tuple[int, int, int, int], ...]:
    """Key of v mod Z^2: equal for u and v exactly when u - v is an integer
    vector, since adding n to (p + q*sqrt d)/r gives the canonical
    (p + n*r, q, r, d).  `contains` forms the same key from the integers
    (p, q, r, d) of `_dot`."""
    x, y = v
    return (x.p % x.r, x.q, x.r, x.d), (y.p % y.r, y.q, y.r, y.d)


def _fraction_part(x: QuadNumber) -> QuadNumber:
    """x - floor(x), exactly: floor((p + q*sqrt d)/r) = (p + floor(q*sqrt d)) // r
    for r > 0, and q*sqrt d is irrational when q != 0."""
    root = math.isqrt(x.q * x.q * x.d)
    return x - (x.p + (root if x.q >= 0 else -root - 1)) // x.r


_exact_order = cmp_to_key(lambda x, y: (x - y).sign())


def _translate_field(us: Sequence[Vec2]) -> int:
    """The d of the one field Q(sqrt d) of every translate coordinate, 1 when
    all are rational; coordinates in two irrational fields raise
    FieldMismatchError naming both.  The one statement of the rule."""
    return reduce(_joint_d, sorted({t.d for u in us for t in u}), 1)


def _least_gap_mod_1(classes: set[tuple[int, int, int, int]]) -> float:
    """The float of the least distance to Z of a difference of two numbers
    of distinct classes mod 1 (`_residue` keys), when it may be below
    DET_MIN; otherwise a float above it.

    The float layers see this distance as the float of mu_d + s, so below
    DET_MIN it rounds to 0 (a 1e-400 became 0.0: a ZeroDivisionError in the
    Gram phi, det E = 0 in the (A2) verdict).  On the circle R/Z the least
    such distance is a gap between neighbours.  The floats of the classes
    are within err of them, so when every float gap exceeds 4 err no exact
    one is small; otherwise the classes, all in one field, are sorted exactly.
    """
    ring = sorted([quad_float(*k) % 1.0 for k in classes])
    err = 2.0**-50 * max([1.0 + abs(q / r) * math.sqrt(d) for _, q, r, d in classes])
    least = min([b - a for a, b in zip(ring, ring[1:])] + [ring[0] + 1.0 - ring[-1]])
    if least > 4 * err:
        return least
    ring = sorted({_fraction_part(QuadNumber(Fraction(p, r), Fraction(q, r), d))
                   for p, q, r, d in classes}, key=_exact_order)
    gaps = [b - a for a, b in zip(ring, ring[1:])] + [ring[0] + 1 - ring[-1]]
    return min(map(float, gaps))


def mat_det(m: Mat2) -> QuadNumber:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv(m: Mat2) -> Mat2:
    det = mat_det(m)
    if det.is_zero():
        raise SingularMatrixError("matrix is singular")
    inv = det.inverse()
    return (
        (m[1][1] * inv, -m[0][1] * inv),
        (-m[1][0] * inv, m[0][0] * inv),
    )


def mat_vec(m: Mat2, v: Vec2) -> Vec2:
    """m @ v exactly; v's coordinates may be ints or Fractions."""
    x, y = _operands(v)
    return _make(*_dot(m[0][0], x, m[0][1], y)), _make(*_dot(m[1][0], x, m[1][1], y))


def _operands(v: Vec2) -> Vec2:
    """v's coordinates as QuadNumbers: ints and Fractions are coerced, and
    another type raises TypeError."""
    x, y = v[0], v[1]
    if isinstance(x, QuadNumber) and isinstance(y, QuadNumber):
        return x, y
    x, y = _coerce(x), _coerce(y)
    if x is NotImplemented or y is NotImplemented:
        raise TypeError(f"cannot multiply a matrix by {type(v[0]).__name__}, {type(v[1]).__name__}")
    return x, y


def _dot(
    a: QuadNumber, x: QuadNumber, b: QuadNumber, y: QuadNumber
) -> tuple[int, int, int, int]:
    """The canonical (p, q, r, d) of a*x + b*y, the four integers of its
    QuadNumber, formed over the one denominator a.r*x.r*b.r*y.r and reduced
    once; `mat_vec` wraps them in a QuadNumber and `contains` reads them as
    they are.

    Raises what a*x + b*y raises: each product's operands must share a
    field, and so must the products (a product whose radical part cancels
    is rational and joins any field)."""
    d1, d2 = _joint_d(a.d, x.d), _joint_d(b.d, y.d)
    q1, q2 = a.p * x.q + a.q * x.p, b.p * y.q + b.q * y.p
    d = _joint_d(d1 if q1 else 1, d2 if q2 else 1)
    # both radical parts nonzero share a.d with x.d, and b.d with y.d
    p1, p2 = a.p * x.p + a.q * x.q * a.d, b.p * y.p + b.q * y.q * b.d
    r1, r2 = a.r * x.r, b.r * y.r
    # r > 0, as every QuadNumber's r is, so only gcd(p, q, r) divides out
    p, q, r = p1 * r2 + p2 * r1, q1 * r2 + q2 * r1, r1 * r2
    g = math.gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    return p, q, r, d if q else 1


def mat_float(m: Mat2) -> list[list[float]]:
    return [[float(e) for e in row] for row in m]


@dataclass(frozen=True)
class LatticePoint:
    """Index (j, m) of the lattice point l_star @ (u_j + m); j is 0-based."""

    j: int
    m: tuple[int, int]


@dataclass(frozen=True)
class RealizedPoint:
    x: float
    y: float
    j: int
    m: tuple[int, int]


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
        try:
            ns = tuple((int(a), int(b)) for a, b in (pair.split(",") for pair in text.split(";")))
        except ValueError:  # not two integers in a pair
            raise ValueError(f"expected integer pairs 'a,b;a,b;...', got {text!r}") from None
        return cls(ns)

    def __str__(self) -> str:
        return ";".join(f"{a},{b}" for a, b in self.ns)


@dataclass(frozen=True)
class LatticeSpec:
    """Exact description of a union-of-translates lattice in the plane."""

    name: str
    l_star: Mat2
    us: tuple[Vec2, ...]

    @property
    def m(self) -> int:
        """Number of translates."""
        return len(self.us)

    def det_l(self) -> float:
        """|det L| = |det L*| as a float."""
        return self._det_l

    @cached_property
    def _det_l(self) -> float:
        """|det L*| as a float, from the exact determinant taken once per spec."""
        return abs(float(mat_det(self.l_star)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of (name, l_star, us), taken once: hashing the
        exact entries costs 13-31 us on a catalog spec, and
        `spectral.symmetries` looks the spec up on every survey."""
        return hash((self.name, self.l_star, self.us))

    @cached_property
    def _inverse(self) -> Mat2:
        """l_star^-1, exact, computed once per spec."""
        return mat_inv(self.l_star)

    @cached_property
    def form(self) -> tuple[int, int, tuple[tuple[tuple[int, int], tuple[int, int]], ...]]:
        """The translates in Python ints, (den, d, rows), with
        u_jc = (a + b*sqrt(d))/den for rows[j][c] = (a, b): den is the lcm of
        their denominators and Q(sqrt d) their one field (d = 1 and every
        b = 0 when they are rational).  Two irrational fields are refused
        (`_translate_field`)."""
        d = _translate_field(self.us)
        den = math.lcm(*(t.r for u in self.us for t in u))
        row = lambda t: (t.p * (den // t.r), t.q * (den // t.r))
        return den, d, tuple((row(x), row(y)) for x, y in self.us)

    @cached_property
    def _translate_index(self) -> dict[tuple, int]:
        """The first j of each translate class mod Z^2, by `_residue` key."""
        index: dict[tuple, int] = {}
        for j, u in enumerate(self.us):
            index.setdefault(_residue(u), j)
        return index


def validate_spec(spec: LatticeSpec) -> LatticeSpec:
    """Check the structural invariants; return the spec unchanged if valid."""
    if spec.m < 1:
        raise DuplicateTranslateError("spec needs at least one translate")
    det = mat_det(spec.l_star)
    if det.is_zero():
        raise SingularMatrixError(f"{spec.name}: l_star is singular")
    _translate_field(spec.us)
    # Everything past the exact layer computes in floats.
    try:
        floats = [float(x) for x in (det, *spec.l_star[0], *spec.l_star[1], *chain(*spec.us))]
    except OverflowError:
        floats = [math.inf]
    if not all(map(math.isfinite, floats)) or not DET_MIN <= abs(floats[0]) <= DET_MAX:
        raise ValueError(
            f"{spec.name}: l_star and the translates must be finite as floats, and "
            f"|det l_star| within [{DET_MIN:g}, {DET_MAX:g}]"
        )
    first = spec._translate_index
    for k, u in enumerate(spec.us):
        i = first[_residue(u)]
        if i != k:
            raise DuplicateTranslateError(f"{spec.name}: translates {i} and {k} coincide mod Z^2")
    for axis in range(2):
        gap = _least_gap_mod_1({key[axis] for key in first})
        if gap < DET_MIN:
            raise ValueError(
                f"{spec.name}: two translates differ in coordinate {axis} by a "
                f"non-integer at float distance {gap:g} from Z, below {DET_MIN:g}"
            )
    return spec


def contains(spec: LatticeSpec, p: Vec2) -> LatticePoint | None:
    """Exact membership: the (j, m) with p = l_star @ (u_j + m), if any.

    The coordinates of y = l_star^-1 p are formed as integers (p, q, r, d)
    by `_dot`, as `mat_vec` forms them, but no QuadNumber is built from them:
    their `_residue` key, (p % r, q, r, d) per coordinate, is looked up in
    the spec's translate index, and a hit j has y and u_j equal but for the
    numerators, whose difference over the shared denominator is m.  int and
    Fraction coordinates of p are coerced as `mat_vec` coerces them, and a
    float raises the same TypeError."""
    x, y = _operands(p)
    (a, b), (c, e) = spec._inverse
    p0, q0, r0, d0 = _dot(a, x, b, y)
    p1, q1, r1, d1 = _dot(c, x, e, y)
    j = spec._translate_index.get(((p0 % r0, q0, r0, d0), (p1 % r1, q1, r1, d1)))
    if j is None:
        return None
    u0, u1 = spec.us[j]
    return LatticePoint(j, ((p0 - u0.p) // r0, (p1 - u1.p) // r1))


def realize_points(
    spec: LatticeSpec, bbox: tuple[float, float, float, float]
) -> list[RealizedPoint]:
    """All lattice points inside the closed bbox (x0, y0, x1, y1), as floats.

    Points are tagged with their (j, m) index and sorted lexicographically
    by (x, y, j).  A degenerate bbox yields an empty list.  A non-finite
    corner, or a bbox needing more than MAX_REALIZE_CANDIDATES candidates,
    raises ValueError before any point is built.
    """
    x0, y0, x1, y1 = bbox
    if not all(map(math.isfinite, bbox)):
        raise ValueError(f"bbox corners must be finite, got {bbox}")
    if not (x1 > x0 and y1 > y0):
        return []
    inv = mat_float(spec._inverse)
    corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    pre = [
        (inv[0][0] * cx + inv[0][1] * cy, inv[1][0] * cx + inv[1][1] * cy)
        for cx, cy in corners
    ]
    # An upper bound on the candidates of the loop; inf or nan if pre overflowed.
    count = spec.m * math.prod(max(c) - min(c) + 3 for c in zip(*pre))
    if not count <= MAX_REALIZE_CANDIDATES:
        raise ValueError(
            f"bbox needs about {count:.3g} candidate points, over {MAX_REALIZE_CANDIDATES}"
        )
    lo0 = math.floor(min(p[0] for p in pre)) - 1
    hi0 = math.ceil(max(p[0] for p in pre)) + 1
    lo1 = math.floor(min(p[1] for p in pre)) - 1
    hi1 = math.ceil(max(p[1] for p in pre)) + 1
    lsf = mat_float(spec.l_star)
    out = []
    for j, u in enumerate(spec.us):
        ux, uy = float(u[0]), float(u[1])
        for m0 in range(lo0, hi0 + 1):
            for m1 in range(lo1, hi1 + 1):
                yx, yy = ux + m0, uy + m1
                px = lsf[0][0] * yx + lsf[0][1] * yy
                py = lsf[1][0] * yx + lsf[1][1] * yy
                if x0 <= px <= x1 and y0 <= py <= y1:
                    out.append(RealizedPoint(px, py, j, (m0, m1)))
    out.sort(key=lambda r: (r.x, r.y, r.j))
    return out


def line_lattice_subset(spec: LatticeSpec, a: Vec2, b: Vec2) -> bool:
    """Whether the progression {a + k(b-a) : k in Z} lies inside the lattice.

    Decided exactly from the endpoints' translates: with a = l_star @ (u_ja +
    m_a) and b = l_star @ (u_jb + m_b), the k-th point lies in the class of
    u_ja + k*step mod Z^2, step = u_jb - u_ja.  An irrational step visits
    each class at most once, hence yields False.  A rational step visits q
    classes in turn, q = the lcm of its denominators, so the progression lies
    in the lattice exactly when q <= M and each of those classes is a
    translate's.
    """
    pa, pb = contains(spec, a), contains(spec, b)
    if pa is None or pb is None:
        raise NotInLatticeError("endpoints must belong to the lattice")
    point = spec.us[pa.j]
    step = vec_sub(spec.us[pb.j], point)
    if not (step[0].is_rational() and step[1].is_rational()):
        return False
    q = math.lcm(step[0].r, step[1].r)
    if q > spec.m:
        return False
    keys = spec._translate_index
    for _ in range(q - 1):
        point = vec_add(point, step)
        if _residue(point) not in keys:
            return False
    return True


def minimality_certificate(spec: LatticeSpec, witnesses: Sequence[Vec2]) -> bool:
    """Certify that no representation of the lattice uses fewer translates.

    True when no two witness points generate a line lattice contained in the
    lattice; the witnesses must be spec.m distinct lattice points.  The
    criterion is sufficient, not necessary: False means "not certified".
    """
    if len(witnesses) != spec.m:
        raise ValueError(f"expected {spec.m} witnesses, got {len(witnesses)}")
    for i in range(len(witnesses)):
        for k in range(i + 1, len(witnesses)):
            if line_lattice_subset(spec, witnesses[i], witnesses[k]):
                return False
    return True


# -- two-square (Pythagorean) tiling ----------------------------------------

TWO_SQUARE_CONFIG = ((0, 0), (1, 0), (0, 1), (1, 1))


def _two_square_fractions(r: Rational, R: Rational) -> tuple[Fraction, Fraction]:
    _exact(r, R)
    r, R = Fraction(r), Fraction(R)
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
    +-r^2/(sqrt2 (R^2+r^2)), exact in Q(sqrt2) for sides given as ints or
    Fractions (text through `qfield.rational`; any other type raises TypeError).
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

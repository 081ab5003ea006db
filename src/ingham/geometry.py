"""Integration-domain geometry, disk bounds and polyomino enumeration.

The integration domain is L^{-1} of the union of translated cubes
2*pi*n_k + (0,2*pi)^2, a union of M parallelogram cells with pairwise
disjoint interiors.  Cell vertices determine area (shoelace) and diameter
(farthest vertex pair, valid by convexity of the cells).

Fixed polyominoes, the connected configurations that connected surveys
classify, are enumerated by Redelmeier's algorithm (D. H. Redelmeier,
"Counting polyominoes: yet another attack", Discrete Math. 36 (1981)
191-203), which reaches each one once, so no set of shapes is kept.
`spectral.classes` under the identity then normalises and sorts them as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import SizeTooLargeError
from .lattice import LatticeSpec, TranslationConfig, mat_float
from .spectral import D4, TWO_PI, Classes, _check_size, chunks, classes

POLYOMINO_MAX = 8


@dataclass(frozen=True, eq=False)
class DomainGeometry:
    """Cells of the integration domain with their aggregate measurements."""

    cells: np.ndarray  # (M, 4, 2) vertices, cells[k] counterclockwise in preimage
    area: float
    diameter: float


@dataclass(frozen=True)
class DiskBounds:
    """Radii bracketing the disks for which the two-sided estimate can hold."""

    r_sufficient: float  # half the domain diameter: such a disk contains a translate
    r_necessary: float  # sqrt(area/pi): any valid disk has at least the domain's area
    r_bessel: float  # 2 * (first positive root of J0), uniform-gap sufficient radius


@dataclass(frozen=True)
class PolyominoShape:
    """Edge-connected cell set, translation-normalized to min coordinates 0."""

    cells: tuple[tuple[int, int], ...]


def ambient_l(spec: LatticeSpec) -> np.ndarray:
    """L as floats; L is the transpose of the stored adjoint."""
    return np.array(mat_float(spec.l_star)).T


def omega_cells(spec: LatticeSpec, config: TranslationConfig) -> DomainGeometry:
    """Construct the M parallelogram cells L^{-1}(2*pi*n_k + (0,2*pi)^2)."""
    _check_size(spec, config.m)
    linv = np.linalg.inv(ambient_l(spec))
    corners = np.array([(0.0, 0.0), (TWO_PI, 0.0), (TWO_PI, TWO_PI), (0.0, TWO_PI)])
    cells = np.empty((config.m, 4, 2))
    for k, n in enumerate(config.ns):
        cells[k] = (corners + TWO_PI * np.asarray(n, dtype=float)) @ linv.T
    verts = cells.reshape(-1, 2)
    diffs = verts[:, None, :] - verts[None, :, :]
    diameter = float(np.sqrt((diffs**2).sum(-1)).max())
    return DomainGeometry(
        cells=cells,
        area=sum(_shoelace(c) for c in cells),
        diameter=diameter,
    )


def _shoelace(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def area_check(geometry: DomainGeometry, spec: LatticeSpec) -> float:
    """Polygon-union (shoelace) area, verified against M (2*pi)^2 / |det L|."""
    want = len(geometry.cells) * TWO_PI**2 / spec.det_l()
    if abs(geometry.area - want) > 1e-9 * want:
        raise AssertionError(
            f"cell union area {geometry.area!r} != volume formula {want!r}"
        )
    return geometry.area


def disk_bounds(geometry: DomainGeometry) -> DiskBounds:
    return DiskBounds(
        r_sufficient=geometry.diameter / 2.0,
        r_necessary=math.sqrt(geometry.area / math.pi),
        r_bessel=2.0 * bessel_j0_root(),
    )


def bessel_j0(x: float) -> float:
    """J0 by its alternating power series; ample for |x| <= 4."""
    term = 1.0
    total = 1.0
    q = x * x / 4.0
    for k in range(1, 60):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


@lru_cache(maxsize=1)
def bessel_j0_root() -> float:
    """Smallest positive root of J0, by bisection on [2, 3]."""
    lo, hi = 2.0, 3.0
    flo = bessel_j0(lo)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        fm = bessel_j0(mid)
        if fm == 0.0:
            return mid
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2.0


def is_connected(cells) -> bool:
    """Edge connectivity (4-neighborhood) of a set of distinct grid cells."""
    cells = [tuple(int(v) for v in c) for c in cells]
    todo = set(cells)
    stack = [cells[0]]
    todo.discard(cells[0])
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in todo:
                todo.discard(nb)
                stack.append(nb)
    return not todo


def connected_rows(points, idx: np.ndarray) -> np.ndarray:
    """Edge connectivity of each configuration points[idx[i]], as `is_connected`.

    Per chunk of configurations (`spectral.chunks`), held by columns as
    (m, chunk) arrays: a cell pair at |dx| + |dy| == 1 is an edge, and
    reachability from cell 0 is propagated over the m(m - 1)/2 pairs, both
    ways, for m - 1 rounds, one elementwise boolean step per pair (a pair
    with no edge in the chunk is skipped).  Each round reaches at least one
    more step of every path, so every cell at distance m - 1 or less is
    reached; a configuration is connected when every cell is.
    """
    x, y = np.asarray(points, dtype=np.int64).reshape(-1, 2).T
    m = idx.shape[-1]
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    out = np.empty(len(idx), dtype=bool)
    for rows in chunks(len(idx)):
        cells = idx[rows].T  # (m, chunk)
        cx, cy = x[cells], y[cells]
        dist = np.abs(cx[first] - cx[second])
        dist += np.abs(cy[first] - cy[second])
        edges = dist == 1  # (pairs, chunk)
        live = [(a, b, edge) for (a, b), edge, any_ in zip(pairs, edges, edges.any(axis=1)) if any_]
        reach = np.zeros(cells.shape, dtype=bool)
        reach[0] = True
        link = np.empty(len(reach[0]), dtype=bool)
        for _ in range(m - 1):
            for a, b, edge in live:
                np.logical_or(reach[a], reach[b], out=link)
                link &= edge
                reach[a] |= link
                reach[b] |= link
        out[rows] = reach.all(axis=0)
    return out


def _redelmeier(size: int) -> Iterator[tuple[int, ...]]:
    """Each fixed polyomino of `size` cells exactly once, by Redelmeier's
    algorithm (D. H. Redelmeier, "Counting polyominoes: yet another attack",
    Discrete Math. 36 (1981) 191-203).

    Polyominoes grow from the cell (0, 0) over the half-plane y > 0 or
    (y == 0 and x >= 0), in which (0, 0) is the least cell, so each fixed
    polyomino has one placement with its least cell there.  `untried` holds
    the cells the current polyomino may still grow by; `seen` holds every
    cell that was ever untried at this or an outer level.  A cell taken from
    `untried` stays in `seen`, so no later polyomino in this branch adds it,
    and no polyomino is reached twice.  Cell (x, y) is the code
    y * (2 * size + 1) + x + size, so that codes of the half-plane are those
    >= size and the neighbours are at +-1 and +-(2 * size + 1); a polyomino
    is the tuple of its codes in the order they were added.
    """
    width = 2 * size + 1
    steps = (1, width, -1, -width)
    poly: list[int] = []
    seen = {size}

    def extend(untried: list[int]) -> Iterator[tuple[int, ...]]:
        while untried:
            cell = untried.pop()
            poly.append(cell)
            if len(poly) == size:
                yield tuple(poly)
            else:
                fresh = [nb for nb in (cell + s for s in steps) if nb >= size and nb not in seen]
                seen.update(fresh)
                yield from extend(untried + fresh)
                seen.difference_update(fresh)
            poly.pop()

    yield from extend([size])


def polyominoes(size: int) -> Classes:
    """The fixed (translation-only) polyominoes of the given size, sorted, as
    `spectral.classes` under the identity (`D4[:1]`) gives them: Redelmeier's
    algorithm (`_redelmeier`) emits each exactly once, so each is a class of its
    own.  Sizes outside 1..POLYOMINO_MAX are refused."""
    if not 1 <= size <= POLYOMINO_MAX:
        raise SizeTooLargeError(f"size must be in 1..{POLYOMINO_MAX}, got {size}")
    codes, idx = np.unique(np.array(list(_redelmeier(size))), return_inverse=True)
    y, x = np.divmod(codes, 2 * size + 1)  # x + size; classes moves it to 0
    return classes(D4[:1], list(zip(x.tolist(), y.tolist())), idx.reshape(-1, size))


def fixed_polyominoes(size: int) -> list[PolyominoShape]:
    """All fixed polyominoes of the given size, sorted: `polyominoes` as a list."""
    shapes = polyominoes(size)
    return [PolyominoShape(tuple(shapes.points[k] for k in row)) for row in shapes.idx.tolist()]


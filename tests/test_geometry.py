import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyomino_oracle
from ingham import catalog, spectral
from ingham.errors import SizeTooLargeError
from ingham.geometry import (
    POLYOMINO_MAX,
    _redelmeier,
    area_check,
    bessel_j0,
    bessel_j0_root,
    connected_rows,
    disk_bounds,
    fixed_polyominoes,
    is_connected,
    omega_cells,
    polyominoes,
)
from ingham.spectral import TranslationConfig, config_index

TWO_PI = 2 * math.pi


def geom(name, config_name=None):
    entry = catalog.get(name)
    cfg = entry.default_configs[config_name or entry.primary_config]
    return entry.spec, omega_cells(entry.spec, cfg)


def test_triangular_cell_vertices():
    _, g = geom("triangular")
    want = {
        (0.0, 0.0),
        (TWO_PI, -TWO_PI / math.sqrt(3)),
        (0.0, 2 * TWO_PI / math.sqrt(3)),
        (TWO_PI, TWO_PI / math.sqrt(3)),
    }
    got = {(round(x, 9), round(y, 9)) for x, y in g.cells.reshape(-1, 2)}
    assert got == {(round(x, 9), round(y, 9)) for x, y in want}


def test_honeycomb_union_vertices():
    _, g = geom("honeycomb", "right")
    outer = {
        (0.0, 0.0),
        (-TWO_PI / 3, TWO_PI / math.sqrt(3)),
        (TWO_PI, TWO_PI / math.sqrt(3)),
        (4 * TWO_PI / 3, 0.0),
    }
    got = {(round(x, 9), round(y, 9)) for x, y in g.cells.reshape(-1, 2)}
    for x, y in outer:
        assert (round(x, 9), round(y, 9)) in got


def test_identity_lattice_cube():
    _, g = geom("square")
    got = {(round(x, 9), round(y, 9)) for x, y in g.cells.reshape(-1, 2)}
    assert got == {(0.0, 0.0), (round(TWO_PI, 9), 0.0),
                   (round(TWO_PI, 9), round(TWO_PI, 9)), (0.0, round(TWO_PI, 9))}


def test_areas_match_closed_forms():
    spec, g = geom("triangular")
    assert area_check(g, spec) == pytest.approx(8 * math.pi**2 / math.sqrt(3), rel=1e-9)
    spec, g = geom("honeycomb", "right")
    assert area_check(g, spec) == pytest.approx(16 * math.pi**2 / (3 * math.sqrt(3)), rel=1e-9)
    spec, g = geom("honeycomb", "up")
    assert area_check(g, spec) == pytest.approx(16 * math.pi**2 / (3 * math.sqrt(3)), rel=1e-9)
    spec, g = geom("square")
    assert area_check(g, spec) == pytest.approx(TWO_PI**2, rel=1e-12)


def test_area_equals_sum_of_cells_no_overlap(catalog_entries):
    for entry in catalog_entries.values():
        g = omega_cells(entry.spec, entry.default_configs[entry.primary_config])
        want = entry.spec.m * TWO_PI**2 / entry.spec.det_l()
        assert g.area == pytest.approx(want, rel=1e-9)


def test_disk_bounds_triangular():
    _, g = geom("triangular")
    db = disk_bounds(g)
    assert db.r_sufficient == pytest.approx(TWO_PI, rel=1e-9)
    assert db.r_sufficient == pytest.approx(6.28, abs=5e-3)
    assert db.r_necessary == pytest.approx(math.sqrt(8 * math.pi / math.sqrt(3)), rel=1e-9)
    assert db.r_necessary == pytest.approx(3.8, abs=5e-2)
    assert db.r_bessel == pytest.approx(4.8096, abs=5e-4)


def test_disk_bounds_honeycomb_both_choices():
    for cfg in ("right", "up"):
        _, g = geom("honeycomb", cfg)
        db = disk_bounds(g)
        assert db.r_sufficient == pytest.approx(2 * math.pi * math.sqrt(7) / 3, rel=1e-9)
        assert db.r_sufficient == pytest.approx(5.54, abs=5e-3)
        assert db.r_necessary == pytest.approx(4 * math.sqrt(math.pi) / 3**0.75, rel=1e-9)
        assert db.r_necessary == pytest.approx(3.11, abs=5e-3)


def test_disk_bounds_unit_square():
    _, g = geom("square")
    db = disk_bounds(g)
    assert db.r_sufficient == pytest.approx(math.sqrt(2) * math.pi, rel=1e-12)
    assert db.r_necessary == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)


def test_necessary_below_sufficient(catalog_entries):
    for entry in catalog_entries.values():
        g = omega_cells(entry.spec, entry.default_configs[entry.primary_config])
        db = disk_bounds(g)
        assert db.r_necessary <= db.r_sufficient


def test_diameter_translation_invariant():
    entry = catalog.get("honeycomb")
    g1 = omega_cells(entry.spec, TranslationConfig.of((0, 0), (1, 0)))
    g2 = omega_cells(entry.spec, TranslationConfig.of((5, -2), (6, -2)))
    assert g1.diameter == pytest.approx(g2.diameter, rel=1e-12)


def test_bessel_root_value():
    rho = bessel_j0_root()
    assert rho == pytest.approx(2.40482556, abs=1e-7)
    assert abs(bessel_j0(rho)) < 1e-10
    assert 2 * rho == pytest.approx(4.8096, abs=5e-4)


def test_is_connected():
    assert is_connected([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert not is_connected([(0, 0), (1, 1)])
    assert is_connected([(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])


def test_fixed_polyomino_counts():
    # independent reference: the fixed-polyomino counting sequence
    for size, count in [(1, 1), (2, 2), (3, 6), (4, 19), (5, 63), (6, 216)]:
        assert len(fixed_polyominoes(size)) == count


def test_fixed_polyominoes_canonical_and_sorted():
    shapes = fixed_polyominoes(4)
    assert shapes == sorted(shapes, key=lambda s: s.cells)
    for s in shapes:
        assert min(x for x, _ in s.cells) == 0
        assert min(y for _, y in s.cells) == 0
        assert is_connected(s.cells)


def test_fixed_polyominoes_rotation_permutes_set():
    shapes = {s.cells for s in fixed_polyominoes(4)}
    rotated = {polyomino_oracle.canonical([(-y, x) for x, y in cells]) for cells in shapes}
    assert rotated == shapes


def test_fixed_polyominoes_size_bounds():
    with pytest.raises(SizeTooLargeError):
        fixed_polyominoes(9)
    with pytest.raises(SizeTooLargeError):
        fixed_polyominoes(0)


@pytest.mark.parametrize("size", range(1, 9))
def test_fixed_polyominoes_match_the_set_growth(size):
    want = polyomino_oracle.fixed_polyominoes(size)
    assert [s.cells for s in fixed_polyominoes(size)] == want
    # every shape Redelmeier's algorithm emits is a translation class of its own
    shapes = polyominoes(size)
    assert sorted(shapes.of.tolist()) == list(range(len(want))) == list(range(len(shapes.idx)))


def test_redelmeier_counts_are_a001168():
    # OEIS A001168, fixed polyominoes with n cells; each is emitted once
    start = time.perf_counter()
    counts = [sum(1 for _ in _redelmeier(n)) for n in range(1, 11)]
    elapsed = time.perf_counter() - start
    assert counts == [1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446]
    assert elapsed < 1.0, f"n = 1..10 took {elapsed:.2f} s"


# -- vectorised connectivity against the breadth-first search -------------------

CELL = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
STEPS = [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (1, 1)]  # the last two may disconnect


@st.composite
def configurations(draw, m: int):
    """m distinct cells: scattered, on a line with at most one gap, or grown
    from a cell by steps that mostly keep it connected."""
    kind = draw(st.sampled_from(["scattered", "line", "grown"]))
    if kind == "scattered":
        return draw(st.lists(CELL, min_size=m, max_size=m, unique=True))
    x0, y0 = draw(CELL)
    if kind == "line":
        gap = draw(st.integers(0, m))  # gap == m: no gap
        along = [k + (k >= gap) for k in range(m)]
        if draw(st.booleans()):
            return [(x0 + k, y0) for k in along]
        return [(x0, y0 + k) for k in along]
    cells = [(x0, y0)]
    while len(cells) < m:
        x, y = draw(st.sampled_from(cells))
        dx, dy = draw(st.sampled_from(STEPS))
        if (x + dx, y + dy) not in cells:
            cells.append((x + dx, y + dy))
    return cells


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_connected_rows_matches_is_connected(data):
    m = data.draw(st.integers(1, 12), label="m")
    configs = data.draw(st.lists(configurations(m), min_size=1, max_size=4), label="configs")
    points, idx = config_index(configs)
    assert connected_rows(points, idx).tolist() == [is_connected(c) for c in configs]


def test_connected_rows_on_every_small_configuration():
    grid = [(a, b) for a in range(4) for b in range(4)]
    for m in (1, 2, 3, 4, 5):
        configs = list(combinations(grid, m))
        points, idx = config_index(configs)
        assert connected_rows(points, idx).tolist() == [is_connected(c) for c in configs]
    line = [(k, 0) for k in range(12)]
    hook = line[:11] + [(10, 1)]
    split = line[:6] + [(k, 0) for k in range(7, 13)]
    points, idx = config_index([line, hook, split])
    assert connected_rows(points, idx).tolist() == [True, True, False]


def _seeded_configurations(m: int, rng) -> list[list[tuple[int, int]]]:
    """Configurations of m cells, most of them not connected: scattered in a
    box of side m + 1, and grown from a cell by unit steps, then with one
    cell moved two steps away (often leaving it or another cell alone)."""
    box = [(x, y) for x in range(m + 1) for y in range(m + 1)]
    configs = [[box[k] for k in rng.choice(len(box), m, replace=False)] for _ in range(40)]
    for _ in range(40):
        cells = [(0, 0)]
        while len(cells) < m:
            x, y = cells[rng.integers(len(cells))]
            dx, dy = STEPS[rng.integers(4)]
            if (x + dx, y + dy) not in cells:
                cells.append((x + dx, y + dy))
        configs.append(list(cells))
        k = int(rng.integers(m))
        x, y = cells[k]
        dx, dy = STEPS[rng.integers(4)]
        if (x + 2 * dx, y + 2 * dy) not in cells:
            cells[k] = (x + 2 * dx, y + 2 * dy)
            configs.append(cells)
    return configs


@pytest.mark.parametrize("chunk_rows", [None, 61])
def test_connected_rows_on_every_polyomino_and_seeded_splits(chunk_rows, monkeypatch):
    """Every fixed polyomino up to POLYOMINO_MAX cells is connected, and
    seeded configurations of 1 to 12 cells, mostly not connected, match
    `is_connected`, in chunks of CHUNK_ROWS and of 61 rows."""
    if chunk_rows is not None:
        monkeypatch.setattr(spectral, "CHUNK_ROWS", chunk_rows)
    for size in range(1, POLYOMINO_MAX + 1):
        shapes = polyominoes(size)
        cells = [[shapes.points[k] for k in row] for row in shapes.idx.tolist()]
        got = connected_rows(shapes.points, shapes.idx).tolist()
        assert got == [is_connected(c) for c in cells] == [True] * len(cells), size
    assert len(shapes.idx) > spectral.CHUNK_ROWS  # 2725 8-ominoes: more than one chunk
    rng = np.random.default_rng(12)
    for m in range(1, 13):
        configs = _seeded_configurations(m, rng)
        points, idx = config_index(configs)
        got = connected_rows(points, idx).tolist()
        assert got == [is_connected(c) for c in configs], m
        assert m == 1 or not all(got), m

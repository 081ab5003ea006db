"""Seeded inputs for the four workloads.

The seed changes which inputs are drawn, never how many: every workload
gets the same number of surveys, configurations, points and pairs for any
seed.  Inputs are plain data (names, integers, fractions); the benchmark
turns them into library objects.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

# Coprime two-square side pairs whose grid-4 survey verdicts are stable for
# every A2 threshold in [1e-12, 1e-4] (checked when the references are
# captured), so a numerically equivalent kernel cannot flip a verdict.
SURVEY_PAIRS = (
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5),
    (2, 7), (3, 4), (3, 7), (4, 5), (4, 7), (5, 7), (6, 7),
)
SURVEY_PAIR_COUNT = 4
SURVEY_PAIR_GRID = 4

# Fixed survey inputs: (tiling, grid_max).
SURVEY_GRIDS = (("snub_square", 6), ("truncated_square", 4), ("trihexagonal", 4))
# Catalog tilings with 4 or 6 translates, surveyed over fixed polyominoes.
CONNECTED_TILINGS = (
    "snub_square", "truncated_square",
    "snub_hexagonal", "rhombitrihexagonal", "truncated_hexagonal",
)

FIXED_TILINGS = (
    "elongated_triangular", "honeycomb", "rhombitrihexagonal", "snub_hexagonal",
    "snub_square", "square", "triangular", "trihexagonal", "truncated_hexagonal",
    "truncated_square", "truncated_trihexagonal",
)

CONTAINS_POINTS = 2500
CONTAINS_RANGE = 10
LINE_PAIRS_PER_SPEC = 4
JSON_ROUND_TRIPS_PER_SPEC = 10

WITNESS_RADII = (0, 1, 2, 3)
HOLE_FRACTION = 0.25


def pythagorean_pairs(count: int) -> list[tuple[int, int]]:
    """Two-square sides (r, R) with R^2 + r^2 = 2 z^2, from primitive triples.

    For x^2 + y^2 = z^2, r = |x - y| and R = x + y give r^2 + R^2 = 2 z^2, so
    sqrt(R^2 + r^2) = z sqrt(2) and the whole spec stays in Q(sqrt 2).
    """
    out = []
    m = 2
    while len(out) < count:
        for n in range(1, m):
            if (m - n) % 2 == 1 and gcd(m, n) == 1:
                x, y = m * m - n * n, 2 * m * n
                out.append((abs(x - y), x + y))
        m += 1
    return sorted(out[:count])


# Pool for the exact workload: small enough that the minimality verdict of
# every member is captured in the references.
EXACT_PAIRS = tuple(pythagorean_pairs(8))


def survey_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    pairs = sorted(rng.sample(SURVEY_PAIRS, SURVEY_PAIR_COUNT))
    return {
        "grids": [list(g) for g in SURVEY_GRIDS],
        "pairs": [list(p) for p in pairs],
        "pair_grid": SURVEY_PAIR_GRID,
        "connected": list(CONNECTED_TILINGS),
    }


def certify_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    r, R = rng.choice(pythagorean_pairs(12))
    scale = Fraction(1, rng.choice((1, 2, 3, 5)))
    return {
        "two_square": [str(r * scale), str(R * scale)],
        "witness_radii": list(WITNESS_RADII),
        "hole_fraction": HOLE_FRACTION,
    }


def exact_inputs(seed: int, m_counts: dict[str, int]) -> dict:
    """Inputs over the fixed tilings plus one seeded two-square spec.

    `m_counts` maps each spec label to its translate count, so that indices
    j are drawn in range; the label of the two-square spec is "two_square".
    """
    rng = random.Random(seed)
    r, R = rng.choice(EXACT_PAIRS)
    labels = list(FIXED_TILINGS) + ["two_square"]
    points = []
    for i in range(CONTAINS_POINTS):
        label = labels[i % len(labels)]
        j = rng.randrange(m_counts[label])
        m = (rng.randint(-CONTAINS_RANGE, CONTAINS_RANGE),
             rng.randint(-CONTAINS_RANGE, CONTAINS_RANGE))
        points.append([label, j, list(m)])
    pairs = []
    for label in labels:
        mc = m_counts[label]
        for k in range(LINE_PAIRS_PER_SPEC):
            j1 = rng.randrange(mc)
            # even k: same translate (a sub-lattice line); odd k: another one
            j2 = j1 if k % 2 == 0 or mc == 1 else (j1 + rng.randrange(1, mc)) % mc
            m1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            m2 = m1
            while m2 == m1:
                m2 = (rng.randint(-3, 3), rng.randint(-3, 3))
            pairs.append([label, j1, list(m1), j2, list(m2)])
    return {
        "two_square": [r, R],
        "points": points,
        "line_pairs": pairs,
        "json_round_trips": JSON_ROUND_TRIPS_PER_SPEC,
    }

"""Built-in tilings with exact lattice data and their reference result tables.

Each fixed tiling is written in `_TILINGS` as the spec object of the
`--spec-file` JSON schema (exact numbers such as {"a": "3/2", "b": "-1/2"},
a zero "b" left out), with a few named translation configurations, and is
loaded by `spec_from_json`, the loader of user spec files.  So `catalog
show NAME` prints a file that `--spec-file` accepts, except for a two-square
tiling whose scale and translates lie in two fields (r = 1, R = 2: sqrt 5
and sqrt 2), which is shown in floats.  Two-square specs are built from
their sides by `lattice.two_square_spec`.  Each entry also carries the
machine-readable table of expected results that the reproduce harness runs.

Expected records whose published source value is demonstrably inconsistent
with the data (three cases, see the notes on the records) gate on the frozen
computed value and keep the published figure in the `printed` field, so the
report shows the discrepancy while regressions still fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any

from .errors import UnknownTilingError
from .lattice import (
    TWO_SQUARE_CONFIG,
    LatticeSpec,
    TranslationConfig,
    Vec2,
    mat_vec,
    two_square_spec,
    validate_spec,
)
from .qfield import QuadNumber, _from_square_free, _ratio, _square_free_split, rational

COLUMN_6 = ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
BAD_6 = ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 4))
STAIRCASE_6 = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (1, 4))
BLOCK_6X2 = tuple((a, b) for a in range(6) for b in range(2))
BLOCK_3X4 = tuple((a, b) for a in range(3) for b in range(4))

PAIR_TOL = 0.015  # two-decimal published constants, truncation vs rounding unknown
SEED = 20240801  # of the delta_nonzero draws, and the report's environment.seed


@dataclass(frozen=True)
class ExpectedRecord:
    """One reproducible claim: a kind tag, parameters, and the expected value."""

    kind: str
    key: str
    want: Any
    source: str
    tol: float = 0.0
    params: dict = field(default_factory=dict)
    printed: Any = None  # published value, when it differs from the gated one
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    spec: LatticeSpec
    default_configs: dict[str, TranslationConfig]
    expected: tuple[ExpectedRecord, ...]
    primary_config: str


# -- exact tiling data --------------------------------------------------------
#
# name: (spec in the --spec-file schema, named configurations, primary configuration)

_SINGLE = {"base": ((0, 0),)}
_SQUARE_BLOCK = {"square_block": ((0, 0), (0, 1), (1, 0), (1, 1))}
_SIX = {"column": COLUMN_6, "bad": BAD_6, "staircase": STAIRCASE_6}

# fmt: off
_TILINGS: dict[str, tuple[dict, dict[str, tuple], str]] = {
    "square": (
        {"d": 1,
         "l_star": [[{"a": "1"}, {"a": "0"}],
                    [{"a": "0"}, {"a": "1"}]],
         "us": [[{"a": "0"}, {"a": "0"}]]},
        _SINGLE, "base"),
    "triangular": (
        {"d": 3,
         "l_star": [[{"a": "1"}, {"a": "1/2"}],
                    [{"a": "0"}, {"a": "0", "b": "1/2"}]],
         "us": [[{"a": "0"}, {"a": "0"}]]},
        _SINGLE, "base"),
    "honeycomb": (
        {"d": 3,
         "l_star": [[{"a": "3/2"}, {"a": "0"}],
                    [{"a": "0", "b": "1/2"}, {"a": "0", "b": "1"}]],
         "us": [[{"a": "0"}, {"a": "0"}],
                [{"a": "2/3"}, {"a": "-1/3"}]]},
        {"right": ((0, 0), (1, 0)), "up": ((0, 0), (0, 1))}, "right"),
    "elongated_triangular": (
        {"d": 3,
         "l_star": [[{"a": "1"}, {"a": "1/2"}],
                    [{"a": "0"}, {"a": "1", "b": "1/2"}]],
         "us": [[{"a": "0"}, {"a": "0"}],
                [{"a": "-1", "b": "1"}, {"a": "4", "b": "-2"}]]},
        {"domino_v": ((0, 0), (0, 1)), "domino_h": ((0, 0), (1, 0))}, "domino_v"),
    "trihexagonal": (
        {"d": 3,
         "l_star": [[{"a": "0", "b": "1"}, {"a": "0", "b": "1"}],
                    [{"a": "1"}, {"a": "-1"}]],
         "us": [[{"a": "0"}, {"a": "0"}],
                [{"a": "0"}, {"a": "1/2"}],
                [{"a": "1/2"}, {"a": "0"}]]},
        {"l_tromino": ((0, 0), (0, 1), (1, 0))}, "l_tromino"),
    "snub_square": (
        {"d": 3,
         "l_star": [[{"a": "1", "b": "1/2"}, {"a": "-1/2"}],
                    [{"a": "1/2"}, {"a": "1", "b": "1/2"}]],
         "us": [[{"a": "0"}, {"a": "0"}],
                [{"a": "1", "b": "-1/2"}, {"a": "1/2"}],
                [{"a": "3/2", "b": "-1/2"}, {"a": "-1/2", "b": "1/2"}],
                [{"a": "1/2"}, {"a": "0", "b": "1/2"}]]},
        _SQUARE_BLOCK, "square_block"),
    "truncated_square": (
        {"d": 2,
         "l_star": [[{"a": "2", "b": "1"}, {"a": "1", "b": "1/2"}],
                    [{"a": "0"}, {"a": "1", "b": "1/2"}]],
         "us": [[{"a": "0"}, {"a": "0"}],
                [{"a": "1", "b": "-1/2"}, {"a": "0"}],
                [{"a": "0"}, {"a": "2", "b": "-1"}],
                [{"a": "0", "b": "1/2"}, {"a": "2", "b": "-1"}]]},
        _SQUARE_BLOCK, "square_block"),
    "snub_hexagonal": (
        {"d": 3,
         "l_star": [[{"a": "0", "b": "1"}, {"a": "0", "b": "1/2"}],
                    [{"a": "2"}, {"a": "-5/2"}]],
         "us": [[{"a": "0"}, {"a": "0"}],
                [{"a": "3/7"}, {"a": "1/7"}],
                [{"a": "2/7"}, {"a": "3/7"}],
                [{"a": "5/7"}, {"a": "4/7"}],
                [{"a": "1/7"}, {"a": "5/7"}],
                [{"a": "4/7"}, {"a": "6/7"}]]},
        _SIX, "column"),
    "rhombitrihexagonal": (
        {"d": 3,
         "l_star": [[{"a": "1", "b": "1"}, {"a": "1/2", "b": "1/2"}],
                    [{"a": "0"}, {"a": "3/2", "b": "1/2"}]],
         "us": [[{"a": "0"}, {"a": "0"}],
                [{"a": "-1/2", "b": "1/2"}, {"a": "0"}],
                [{"a": "-1", "b": "2/3"}, {"a": "1", "b": "-1/3"}],
                [{"a": "-1/2", "b": "1/2"}, {"a": "3/2", "b": "-1/2"}],
                [{"a": "1/2", "b": "1/6"}, {"a": "1", "b": "-1/3"}],
                [{"a": "1/2", "b": "1/6"}, {"a": "1/2", "b": "1/6"}]]},
        _SIX, "staircase"),
    "truncated_hexagonal": (
        {"d": 3,
         "l_star": [[{"a": "1", "b": "1/2"}, {"a": "1/2"}],
                    [{"a": "1/2"}, {"a": "1", "b": "1/2"}]],
         # u_4 read as the 2-vector (2 - 2 sqrt3/3, sqrt3/3)
         "us": [[{"a": "0", "b": "1/3"}, {"a": "2", "b": "-2/3"}],
                [{"a": "1", "b": "-1/3"}, {"a": "-1", "b": "2/3"}],
                [{"a": "-1", "b": "2/3"}, {"a": "1", "b": "-1/3"}],
                [{"a": "2", "b": "-2/3"}, {"a": "0", "b": "1/3"}],
                [{"a": "0", "b": "1/3"}, {"a": "0", "b": "1/3"}],
                [{"a": "1", "b": "-1/3"}, {"a": "1", "b": "-1/3"}]]},
        _SIX, "staircase"),
    "truncated_trihexagonal": (
        {"d": 3,
         "l_star": [[{"a": "3/2", "b": "1/2"}, {"a": "3/2", "b": "-1/2"}],
                    [{"a": "3/2", "b": "-1/2"}, {"a": "3/2", "b": "1/2"}]],
         "us": [[{"a": "1/3"}, {"a": "5/6", "b": "-1/6"}],
                [{"a": "-1/6", "b": "1/6"}, {"a": "5/6", "b": "-1/6"}],
                [{"a": "-1/6", "b": "1/6"}, {"a": "1/3"}],
                [{"a": "1/3"}, {"a": "-1/6", "b": "1/6"}],
                [{"a": "5/6", "b": "-1/6"}, {"a": "-1/6", "b": "1/6"}],
                [{"a": "5/6", "b": "-1/6"}, {"a": "1/3"}],
                [{"a": "2/3"}, {"a": "7/6", "b": "-1/6"}],
                [{"a": "1/6", "b": "1/6"}, {"a": "7/6", "b": "-1/6"}],
                [{"a": "1/6", "b": "1/6"}, {"a": "2/3"}],
                [{"a": "2/3"}, {"a": "1/6", "b": "1/6"}],
                [{"a": "7/6", "b": "-1/6"}, {"a": "1/6", "b": "1/6"}],
                [{"a": "7/6", "b": "-1/6"}, {"a": "2/3"}]]},
        {"block_6x2": BLOCK_6X2, "block_3x4": BLOCK_3X4}, "block_6x2"),
}
# fmt: on


# -- expected-result tables (computed values frozen by tests/freeze run) ------

# fmt: off
_EXPECTED: dict[str, list[ExpectedRecord]] = {}

_EXPECTED["square"] = [
    ExpectedRecord("kappa_pair", "base", (1.0, 1.0), "baseline Parseval cube", 1e-12,
                   {"config": "base"}),
    ExpectedRecord("area", "cell", 39.47841760435743, "baseline Parseval cube", 1e-9,
                   {"config": "base", "relative": True}),
]

_EXPECTED["triangular"] = [
    ExpectedRecord("area", "domain", 45.58575006211244, "reference: unit triangular domain area 8*pi^2/sqrt(3)",
                   1e-9, {"config": "base", "relative": True}),
    ExpectedRecord("half_diameter", "domain", 6.283185307179586,
                   "reference: printed 6.28", 5e-3, {"config": "base"}),
    ExpectedRecord("radius_necessary", "domain", 3.8092512274558294,
                   "reference: printed 3.8", 5e-2, {"config": "base"}),
    ExpectedRecord("bessel_bound", "j0", 4.8096, "reference: printed 4.8096", 5e-4, {}),
    ExpectedRecord("kappa_pair", "base", (1.0, 1.0), "single translate", 1e-12,
                   {"config": "base"}),
]

_EXPECTED["honeycomb"] = [
    ExpectedRecord("area", "domain-right", 30.390500041408302,
                   "reference: honeycomb domain area 16*pi^2/(3*sqrt(3))", 1e-9,
                   {"config": "right", "relative": True}),
    ExpectedRecord("area", "domain-up", 30.390500041408302,
                   "reference: volume independence of the v-choice", 1e-9,
                   {"config": "up", "relative": True}),
    ExpectedRecord("half_diameter", "domain-right", 5.541248588044054,
                   "reference: printed 5.54", 5e-3, {"config": "right"}),
    ExpectedRecord("half_diameter", "domain-up", 5.541248588044054,
                   "reference: printed 5.54", 5e-3, {"config": "up"}),
    ExpectedRecord("radius_necessary", "domain", 3.1102406031124286,
                   "reference: printed 3.11", 5e-3, {"config": "right"}),
    ExpectedRecord("a2_verdict", "right", True, "reference: det E != 0", 0.0,
                   {"config": "right"}),
    ExpectedRecord("a2_verdict", "up", True, "reference: same E matrix", 0.0,
                   {"config": "up"}),
    ExpectedRecord("kappa_pair", "right", (1.0, 3.0), "derived: eigenvalues of the 2x2 E E*",
                   1e-9, {"config": "right"}),
    ExpectedRecord("minimality", "witnesses", True, "reference: two-translate minimality",
                   0.0, {}),
    ExpectedRecord("density_ratio", "vs-triangular", 1.5,
                   "reference: triangular domain is 1.5x the honeycomb one", 1e-9, {}),
]

_EXPECTED["two_square"] = [
    ExpectedRecord("survey_fail_count", "r1-R2", 9, "reference: 9 over 1820", 0.0,
                   {"r": 1, "R": 2, "grid_max": 3}),
    ExpectedRecord("survey_fail_count", "r1-R3", 28, "reference: 28 over 1820", 0.0,
                   {"r": 1, "R": 3, "grid_max": 3}),
    ExpectedRecord("survey_fail_count", "r1-R4", 0, "reference: all satisfy (A2)", 0.0,
                   {"r": 1, "R": 4, "grid_max": 3}),
    ExpectedRecord("survey_fail_count", "r1-R5", 4, "reference: 4 over 1820", 0.0,
                   {"r": 1, "R": 5, "grid_max": 3}),
    ExpectedRecord("delta_matches_det", "closed-form", 1e-8,
                   "derived: determinant oracle", 1e-8,
                   {"pairs": [[1, 2], [1, 3], [2, 5]]}),
    ExpectedRecord("delta_nonzero", "random-100", 1e-10,
                   "reference: nonvanishing determinant", 0.0, {"count": 100, "seed": SEED}),
]

_EXPECTED["elongated_triangular"] = [
    ExpectedRecord("class_pairs", "cells-2x2", [
        [[0, 0], [0, 1], 1.7749216, 2.2250784],
        [[0, 0], [1, 0], 0.6677382, 3.3322618],
        [[0, 0], [1, 1], 0.6677382, 3.3322618],
        [[0, 1], [1, 0], 0.3678748, 3.6321252],
    ], "reference: three domain classes with printed pairs", PAIR_TOL,
        {"printed_pairs": [[1.77, 2.22], [0.66, 3.33], [0.36, 3.63]]},
        note="4 translation classes; (1,0) and (1,1) share a pair exactly"),
    ExpectedRecord("rank_order", "cells-2x2", [
        [[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 0], [1, 1]], [[0, 1], [1, 0]],
    ], "reference: sorted by increasing ratio", 0.0, {}),
    ExpectedRecord("connected_all_pass", "dominoes", True,
                   "reference: both dominoes satisfy (A2)", 0.0, {}),
]

_EXPECTED["trihexagonal"] = [
    ExpectedRecord("survey_pass_count", "grid-0-2", 36,
                   "reference: 36 over the 84 domains", 0.0,
                   {"grid_max": 2, "total": 84},
                   note="grid [0,2]^2 per the count C(9,3)=84; a caption says [0,3]^2"),
    ExpectedRecord("survey_pass_kappas", "grid-0-2", (1.0, 4.0),
                   "reference: constants constantly equal to 1 and 4", 1e-9,
                   {"grid_max": 2}),
    ExpectedRecord("kappa_pair", "l_tromino", (1.0, 4.0), "derived: rows (1,1,1),(1,-1,1),(1,1,-1)",
                   1e-9, {"config": "l_tromino"}),
]

_EXPECTED["snub_square"] = [
    ExpectedRecord("survey_fail_count", "grid-0-3", 76, "reference: 76 over 1820", 0.0,
                   {"grid_max": 3}),
    ExpectedRecord("connected_pass_count", "tetrominoes", 19,
                   "reference: every connected domain satisfies (A2)", 0.0, {}),
    ExpectedRecord("polyomino_count", "size-4", 19, "reference: the 19 fixed tetrominoes",
                   0.0, {"size": 4}),
    ExpectedRecord("class_pairs", "tetromino-classes", [
        ["I", 1.3354763, 6.6645237],
        ["L", 0.160023, 7.839977],
        ["O", 3.3322618, 4.6677382],
        ["S", 1.1221034, 6.8778966],
        ["T", 1.0347439, 6.6645237],
    ], "reference: five representatives, constants invariant under symmetry", PAIR_TOL,
        {"printed_pairs": [[1.03, 6.66], [0.16, 7.83], [1.33, 6.66], [1.12, 6.87]]}),
    ExpectedRecord("kappa_pair", "square_block", (3.3322618, 4.6677382),
                   "computed; published (0.54, 2.16) is infeasible", 1e-6,
                   {"config": "square_block"},
                   printed=(0.54, 2.16),
                   note="trace(E E*) = 16 forces the top eigenvalue >= 4, so the "
                        "published pair cannot be the spectrum of any 4x4 E E*"),
]

_EXPECTED["truncated_square"] = [
    ExpectedRecord("survey_fail_count", "grid-0-3", 278,
                   "computed; published count is 892", 0.0,
                   {"grid_max": 3},
                   printed=892,
                   note="published pairs all match this data yet no reading of the "
                        "translate data reproduces 892; computed count is sweep-stable"),
    ExpectedRecord("connected_pass_count", "tetrominoes", 10,
                   "computed; published count is 9", 0.0, {},
                   printed=9,
                   note="exactly 9 connected shapes FAIL (A2); the published figure "
                        "shows 10 passing shapes of which 6 carry printed constants"),
    ExpectedRecord("class_pairs", "tetromino-passing", [
        [0.229592, 7.9214108],
        [0.7169304, 6.2303338],
        [0.8319928, 7.3385713],
        [1.0286338, 7.2425188],
        [1.1728635, 8.0247227],
        [1.249616, 7.5318378],
    ], "reference: six printed constant pairs among passing shapes", PAIR_TOL,
        {"printed_pairs": [[1.02, 7.24], [0.71, 6.23], [0.83, 7.33],
                           [1.17, 8.02], [1.24, 7.53], [0.22, 7.92]]}),
]

_EXPECTED["snub_hexagonal"] = [
    ExpectedRecord("kappa_pair", "column", (1.0, 7.0),
                   "reference: constants 1 and 7", PAIR_TOL, {"config": "column"}),
    ExpectedRecord("a2_verdict", "column", True, "reference: (A2) satisfied", 0.0,
                   {"config": "column"}),
    ExpectedRecord("a2_verdict", "bad", False, "reference: (A2) not satisfied", 0.0,
                   {"config": "bad"}),
]

_EXPECTED["rhombitrihexagonal"] = [
    ExpectedRecord("a2_verdict", "column", False, "reference: (A2) not satisfied", 0.0,
                   {"config": "column"}),
    ExpectedRecord("a2_verdict", "bad", False, "reference: (A2) not satisfied", 0.0,
                   {"config": "bad"}),
    ExpectedRecord("kappa_pair", "staircase", (0.4723132, 11.9264779),
                   "reference: printed (0.47, 11.92)", PAIR_TOL,
                   {"config": "staircase"}),
]

_EXPECTED["truncated_hexagonal"] = [
    ExpectedRecord("a2_verdict", "column", False, "reference: (A2) not satisfied", 0.0,
                   {"config": "column"}),
    ExpectedRecord("a2_verdict", "bad", False, "reference: (A2) not satisfied", 0.0,
                   {"config": "bad"}),
    ExpectedRecord("kappa_pair", "staircase", (0.1501176, 15.6088757),
                   "reference: printed (0.15, 15.6)", PAIR_TOL,
                   {"config": "staircase"}),
]

_EXPECTED["truncated_trihexagonal"] = [
    ExpectedRecord("kappa_pair", "block_6x2", (0.3442612, 29.5352413),
                   "computed; published (2.71, 28.02) irreproducible", 1e-6,
                   {"config": "block_6x2"},
                   printed=(2.71, 28.02),
                   note="the published pair matches no reading of the translate data "
                        "nor any nearby configuration; an independent reconstruction "
                        "of the tiling gives the same spectrum as the printed data"),
    ExpectedRecord("a2_verdict", "block_6x2", True, "reference: (A2) satisfied", 0.0,
                   {"config": "block_6x2"}),
    ExpectedRecord("a2_verdict", "block_3x4", False, "reference: (A2) not satisfied",
                   0.0, {"config": "block_3x4"}),
]
# fmt: on


def _entry(
    family: str, spec: LatticeSpec, configs: dict[str, tuple], primary: str
) -> CatalogEntry:
    """The entry of `spec`, with the expected records of `family`."""
    return CatalogEntry(
        spec=spec,
        default_configs={k: TranslationConfig.of(*v) for k, v in configs.items()},
        expected=tuple(_EXPECTED[family]),
        primary_config=primary,
    )


def _build_catalog() -> dict[str, CatalogEntry]:
    return {
        name: _entry(name, spec_from_json({"name": name, **data}), configs, primary)
        for name, (data, configs, primary) in _TILINGS.items()
    }


_CATALOG: dict[str, CatalogEntry] | None = None


def _catalog() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def names() -> list[str]:
    """The eleven fixed tilings plus the parametric two-square family."""
    return sorted(_catalog()) + ["two_square"]


def get(name: str, r=None, R=None) -> CatalogEntry:
    """Catalog entry by name; two_square requires the side lengths r < R, given
    either as r and R or in the name ("two_square_r1_R3"), not both.  A fixed
    tiling takes no sides."""
    if name == "two_square" or name.startswith("two_square_"):
        if name != "two_square":
            if r is not None or R is not None:
                raise UnknownTilingError(
                    f"two_square sides given twice: in the name {name!r} and as r={r}, R={R}")
            r, R = _parse_two_square_name(name)
        if r is None or R is None:
            raise UnknownTilingError("two_square needs parameters r and R")
        return _entry("two_square", two_square_spec(r, R),
                      {"canonical": TWO_SQUARE_CONFIG}, "canonical")
    try:
        entry = _catalog()[name]
    except KeyError:
        raise UnknownTilingError(f"unknown tiling {name!r}") from None
    if r is not None or R is not None:
        given = ", ".join(f"{k}={v}" for k, v in (("r", r), ("R", R)) if v is not None)
        raise UnknownTilingError(f"fixed tiling {name!r} takes no sides, got {given}")
    return entry


def _parse_two_square_name(name: str) -> tuple[Fraction, Fraction]:
    """The sides of a name "two_square_r<r>_R<R>", such as "two_square_r1_R3"."""
    parts = name.split("_")
    if len(parts) == 4 and parts[2][:1] == "r" and parts[3][:1] == "R":
        try:
            return rational(parts[2][1:]), rational(parts[3][1:])
        except ValueError:
            pass
    raise UnknownTilingError(f"cannot parse two_square name {name!r}")


def expected_results(name: str) -> tuple[ExpectedRecord, ...]:
    if name == "two_square" or name.startswith("two_square_"):
        return tuple(_EXPECTED["two_square"])
    if name in _catalog():
        return _catalog()[name].expected
    raise UnknownTilingError(f"unknown tiling {name!r}")


def minimality_witnesses(entry: CatalogEntry) -> list[Vec2]:
    """Witness points l_star @ u_j for the minimal-translate certificate."""
    return [mat_vec(entry.spec.l_star, u) for u in entry.spec.us]


# -- JSON interchange ----------------------------------------------------------


def _ratio_text(n: int, r: int) -> str:
    """n/r in lowest terms as str(Fraction(n, r)) writes it, for r > 0."""
    g = gcd(n, r)
    return str(n // g) if r == g else f"{n // g}/{r // g}"


def _qn_json(x: QuadNumber) -> dict[str, str]:
    return {"a": _ratio_text(x.p, x.r), "b": _ratio_text(x.q, x.r)}


def spec_to_json(spec: LatticeSpec) -> dict:
    ds = {e.d for row in spec.l_star for e in row if e.q} | {
        c.d for u in spec.us for c in u if c.q
    }
    if len(ds) > 1:
        raise ValueError("spec mixes radicals; not representable in the schema")
    return {
        "name": spec.name,
        "d": ds.pop() if ds else 1,
        "l_star": [[_qn_json(e) for e in row] for row in spec.l_star],
        "us": [[_qn_json(c) for c in u] for u in spec.us],
    }


def _json_list(value: Any, place: str, length: int | None = None) -> list:
    """`value`, at `place` in the spec, when it is a JSON list (of `length` items)."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise ValueError(f"spec {place} must be a list" + (f" of {length}" if length else ""))
    return value


def spec_from_json(data: Any) -> LatticeSpec:
    """The spec of a JSON interchange object.  Input of another shape, or
    numbers that are not rationals (named as "us[2][0].b"), raise ValueError.

    The radicand d is read as an int once and factored at most once, at the
    first number with a radical part, into s*s*e with e square-free: every
    number's b*sqrt(d) is then b*s*sqrt(e), built unfactored.  A spec whose
    numbers are all rational never factors d."""
    if not isinstance(data, dict) or not {"name", "l_star", "us"} <= data.keys():
        raise ValueError("spec must be a JSON object with name, l_star and us")
    try:
        d = rational(data.get("d", 1))
    except ValueError as exc:
        raise ValueError(f"d: {exc}") from None
    if d.denominator != 1 or d < 1:
        raise ValueError(f"spec d must be a positive integer, got {d}")
    d = d.numerator
    split = None  # (s, e) with d = s*s*e

    def qn(obj: Any, place: str, k: int) -> QuadNumber:
        nonlocal split
        if not isinstance(obj, dict) or "a" not in obj:
            raise ValueError(f'{place}[{k}]: numbers must be objects with "a" and optional "b"')
        key = "a"  # the place is formatted only for an error: spec loading is on the exact path
        try:
            an, ad = _ratio(obj["a"])
            key = "b"
            bn, bd = _ratio(obj.get("b", "0"))
        except ValueError as exc:
            raise ValueError(f"{place}[{k}].{key}: {exc}") from None
        if bn and split is None:
            split = _square_free_split(d)
        s, e = split if bn else (1, 1)
        return _from_square_free(an, ad, bn * s, bd, e)

    def pair(obj: Any, place: str) -> tuple[QuadNumber, QuadNumber]:
        x, y = _json_list(obj, place, 2)
        return qn(x, place, 0), qn(y, place, 1)

    rows = enumerate(_json_list(data["l_star"], "l_star", 2))
    l_star = tuple(pair(row, f"l_star[{i}]") for i, row in rows)
    us = tuple(pair(u, f"us[{j}]") for j, u in enumerate(_json_list(data["us"], "us")))
    return validate_spec(LatticeSpec(name=str(data["name"]), l_star=l_star, us=us))


def load_spec_file(path: str) -> LatticeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))

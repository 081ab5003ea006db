"""One-shot reproduction harness over the catalog's expected-result tables.

`build_report` evaluates every ExpectedRecord of the catalog and one
frame-bound entry per tiling into report.json, deterministic (no
timestamps, sorted keys, the one seed `catalog.SEED`), and writes it with
the survey CSVs.  A record with a printed value documents a published
figure that the data provably contradicts: it gates on the frozen computed
value and surfaces the printed one.  Owners:

- each record kind's evaluator: `KINDS`; every result computed once: `_store`;
- the (A2) stability gate of grid surveys: `_survey_kind`;
- the frame-bound entries: `_frame_bound_entry`, by `gram.frame_bound_report`;
- the two-square closed forms: `_delta_matches_det`, `_seeded_deltas`.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import catalog, geometry, gram, search, spectral
from .catalog import SEED, CatalogEntry, ExpectedRecord
from .lattice import LatticeSpec, TranslationConfig, minimality_certificate


@dataclass(frozen=True)
class Store:
    """What one report computes, by argument: its catalog entries
    (`catalog.get`), grid surveys (`search.classify_all` of the spec on
    [0, grid_max]^2), connected surveys (`search.connected_survey`),
    constants (`spectral.ingham_constants`), domains (`geometry.omega_cells`)
    and 2x2 cell-block classes (`_cell_block_classes`).  `_store` makes one
    whose every member computes on its first request and keeps the result
    for later ones, and whose grid surveys are the spec pass over class
    reductions it keeps by (group, grid_max, m), so specs of one group share
    one."""

    entry: Callable[..., CatalogEntry]
    grid: Callable[[LatticeSpec, int], search.SurveyResult]
    connected: Callable[[LatticeSpec], search.SurveyResult]
    constants: Callable[[LatticeSpec, TranslationConfig], spectral.SpectralResult]
    domain: Callable[[LatticeSpec, TranslationConfig], geometry.DomainGeometry]
    cell_block: Callable[[LatticeSpec], search.SurveyRecords]


Evaluator = Callable[[CatalogEntry, ExpectedRecord, Store], tuple[Any, bool]]


def _close(got, want, tol: float, relative: bool = False) -> bool:
    """|got - want| <= tol (times |want| if relative), elementwise on sequences."""
    if isinstance(got, (tuple, list)):
        return all(_close(g, w, tol, relative) for g, w in zip(got, want))
    return abs(got - want) <= (tol * abs(want) if relative else tol)


def _equal(compute: Callable[[CatalogEntry, ExpectedRecord, Store], Any]) -> Evaluator:
    """Pass when the computed value equals `want`."""
    def evaluate(entry, rec, store):
        computed = compute(entry, rec, store)
        return computed, computed == rec.want

    return evaluate


def _within(compute: Callable[[CatalogEntry, ExpectedRecord, Store], Any]) -> Evaluator:
    """Pass when the computed value is within `tol` of `want`."""
    def evaluate(entry, rec, store):
        computed = compute(entry, rec, store)
        return computed, _close(computed, rec.want, rec.tol, rec.params.get("relative", False))

    return evaluate


def _config(entry: CatalogEntry, rec: ExpectedRecord) -> TranslationConfig:
    return entry.default_configs[rec.params["config"]]


def _constants(entry: CatalogEntry, rec: ExpectedRecord, store: Store) -> spectral.SpectralResult:
    return store.constants(entry.spec, _config(entry, rec))


def _domain(entry: CatalogEntry, rec: ExpectedRecord, store: Store) -> geometry.DomainGeometry:
    return store.domain(entry.spec, _config(entry, rec))


def _kappas(entry: CatalogEntry, rec: ExpectedRecord, store: Store) -> tuple[float, float]:
    sr = _constants(entry, rec, store)
    return (sr.kappa1, sr.kappa2)


def _disk_bound(field: str) -> Evaluator:
    """One field of the domain's disk bounds (half diameter, necessary radius)."""
    return _within(
        lambda entry, rec, store: getattr(geometry.disk_bounds(_domain(entry, rec, store)), field)
    )


def _density_ratio(entry: CatalogEntry, rec: ExpectedRecord, store: Store) -> float:
    tri = store.entry("triangular")
    tri_area = store.domain(tri.spec, tri.default_configs["base"]).area
    return tri_area / store.domain(entry.spec, entry.default_configs["right"]).area


def _survey_kind(measure: Callable[[search.SurveyResult, ExpectedRecord], Any]) -> Evaluator:
    """Grid-survey kinds: `measure` gives (computed, passed) from one survey; the
    record's `total` param and the survey's (A2) stability add their gates."""
    def evaluate(entry, rec, store):
        params = rec.params
        if "r" in params:
            entry = store.entry("two_square", params["r"], params["R"])
        result = store.grid(entry.spec, params["grid_max"])
        computed, passed = measure(result, rec)
        passed = passed and result.total == params.get("total", result.total)
        return computed, passed and spectral.a2_stable(result.records.classes.det_abs)

    return evaluate


def _pass_kappas(result: search.SurveyResult, rec: ExpectedRecord):
    """Extremes of kappa1 and kappa2 over the passing configurations (their classes)."""
    cols = result.records.classes
    k1s, k2s = cols.kappa1[cols.a2], cols.kappa2[cols.a2]
    computed = (float(k1s.min()), float(k1s.max()), float(k2s.min()), float(k2s.max()))
    want1, want2 = rec.want
    return computed, _close(computed, (want1, want1, want2, want2), rec.tol)


def _cell_block_classes(spec: LatticeSpec) -> search.SurveyRecords:
    """One record per translation class of m-subsets of the 2x2 cell block,
    its representative (`search.translation_classes`)."""
    classes = search.translation_classes(combinations(((0, 0), (0, 1), (1, 0), (1, 1)), spec.m))
    return search.classify_configs(spec, [c.representative for c in classes])


def _class_pairs(entry: CatalogEntry, rec: ExpectedRecord, store: Store):
    """Constant pairs per class: each wanted pair within 1e-6 (matched by cells
    when the rows are labelled with them), each printed pair within `tol`."""
    labelled = rec.key == "cells-2x2"
    if labelled:
        rows = [
            [list(r.config[0]), list(r.config[1]), round(r.kappa1, 7), round(r.kappa2, 7)]
            for r in store.cell_block(entry.spec)
        ]
    else:  # tetromino classes: distinct pairs among the passing connected shapes
        cols = store.connected(entry.spec).records.classes
        passing = zip(cols.kappa1[cols.a2].tolist(), cols.kappa2[cols.a2].tolist())
        pairs = {(round(k1, 7), round(k2, 7)) for k1, k2 in passing}
        rows = [[k1, k2] for k1, k2 in sorted(pairs)]

    def found(pair, tol, cells=None) -> bool:
        return any(
            (cells is None or row[:-2] == cells) and _close(row[-2:], pair, tol) for row in rows
        )

    passed = (
        len(rows) == len(rec.want)
        and all(found(w[-2:], 1e-6, w[:-2] if labelled else None) for w in rec.want)
        and all(found(p, rec.tol) for p in rec.params.get("printed_pairs", []))
    )
    return rows, passed


def _rank_order(entry: CatalogEntry, rec: ExpectedRecord, store: Store) -> list:
    ranked = search.rank_by_conditioning(search.as_result(store.cell_block(entry.spec)))
    return [[list(p) for p in r.config] for r in ranked]


def _delta_matches_det(entry: CatalogEntry, rec: ExpectedRecord, store: Store):
    """Largest gap between the kernel's |det E| and the closed-form delta of
    the record's integer side pairs, in one array evaluation
    (`spectral.two_square_deltas`)."""
    pairs = rec.params["pairs"]
    diffs = []
    for (r, R), delta in zip(pairs, spectral.two_square_deltas(*zip(*pairs), 1).tolist()):
        sub = store.entry("two_square", r, R)
        sr = store.constants(sub.spec, sub.default_configs["canonical"])
        diffs.append(abs(sr.det_abs - abs(delta)))
    return max(diffs), max(diffs) <= rec.tol


def _seeded_deltas(seed: int, count: int) -> np.ndarray:
    """The closed-form delta of `count` seeded random side pairs, in one
    array evaluation (`spectral.two_square_deltas`): r = a/100 and
    R = r + b/100 for draws a, b in [1, 1000), both halved when R > 10."""
    a, b = np.random.default_rng(seed).integers(1, 1000, size=(count, 2)).T
    return spectral.two_square_deltas(a, a + b, np.where(a + b > 1000, 200, 100))


def _delta_nonzero(entry: CatalogEntry, rec: ExpectedRecord, store: Store):
    """Smallest |delta| over seeded random side lengths; must exceed `want`."""
    smallest = min(map(abs, _seeded_deltas(rec.params["seed"], rec.params["count"]).tolist()))
    return smallest, smallest > rec.want


KINDS: dict[str, Evaluator] = {
    "kappa_pair": _within(_kappas),
    "a2_verdict": _equal(lambda entry, rec, store: _constants(entry, rec, store).satisfies_a2),
    "area": _within(
        lambda entry, rec, store: geometry.area_check(_domain(entry, rec, store), entry.spec)
    ),
    "half_diameter": _disk_bound("r_sufficient"),
    "radius_necessary": _disk_bound("r_necessary"),
    "bessel_bound": _within(lambda entry, rec, store: 2.0 * geometry.bessel_j0_root()),
    "minimality": _equal(
        lambda entry, rec, store: minimality_certificate(
            entry.spec, catalog.minimality_witnesses(entry)
        )
    ),
    "density_ratio": _within(_density_ratio),
    "survey_fail_count": _survey_kind(lambda res, rec: (res.failing, res.failing == rec.want)),
    "survey_pass_count": _survey_kind(lambda res, rec: (res.passing, res.passing == rec.want)),
    "survey_pass_kappas": _survey_kind(_pass_kappas),
    "connected_pass_count": _equal(lambda entry, rec, store: store.connected(entry.spec).passing),
    "connected_all_pass": _equal(
        lambda entry, rec, store: store.connected(entry.spec).failing == 0
    ),
    "polyomino_count": _equal(
        lambda entry, rec, store: len(geometry.polyominoes(rec.params["size"]).idx)
    ),
    "class_pairs": _class_pairs,
    "rank_order": _equal(_rank_order),
    "delta_matches_det": _delta_matches_det,
    "delta_nonzero": _delta_nonzero,
}


def _report_entry(tiling: str, rec: ExpectedRecord, computed: Any, passed: bool) -> dict:
    """One report.json entry; `printed` and `note` appear only when present."""
    return {
        "tiling": tiling,
        "kind": rec.kind,
        "key": rec.key,
        "want": rec.want,
        "computed": computed,
        "tol": rec.tol,
        "pass": bool(passed),
        "source": rec.source,
        **({"printed": rec.printed} if rec.printed is not None else {}),
        **({"note": rec.note} if rec.note else {}),
    }


def _evaluate(entry: CatalogEntry, rec: ExpectedRecord, store: Store) -> dict:
    if rec.kind not in KINDS:
        raise ValueError(f"unknown expected-record kind {rec.kind!r}")
    computed, passed = KINDS[rec.kind](entry, rec, store)
    return _report_entry(entry.spec.name, rec, computed, passed)


def _tilings(store: Store, R: int):
    """Every catalog entry, the two-square family at r=1 and the given R."""
    for name in catalog.names():
        yield store.entry(name, 1, R) if name == "two_square" else store.entry(name)


def _store() -> Store:
    """A store whose members keep each result by its arguments
    (`functools.cache`).  `ingham reproduce --out` asks it for 36 catalog
    entries, of which 16 are distinct; `grid` for 12 grid surveys, of which
    7 are, and those ask for 7 class reductions (`search.grid_reduction`,
    kept by group, grid_max and m), of which 4 are (the four two-square
    ratios share one group); `connected` for 5 connected surveys, of which 3
    are; for 34 constants of 21 configurations; for 11 domains of 4; and for
    2 cell blocks of 1.  `build_report` makes one store and drops it when it
    returns, so nothing is kept from one report to the next."""
    reduction = cache(search.grid_reduction)

    def grid(spec: LatticeSpec, grid_max: int) -> search.SurveyResult:
        red = reduction(spectral.symmetries(spec), grid_max, spec.m)
        return search.as_result(search.classify_reduction(spec, red))

    return Store(cache(catalog.get), *map(cache, (
        grid, search.connected_survey, spectral.ingham_constants, geometry.omega_cells,
        _cell_block_classes,
    )))


def build_report(out_dir: str | Path | None = None) -> dict:
    """Run every expected record; optionally write report.json and CSVs.
    Each distinct result is computed once per call (`_store`).  The output
    directory is made before any record is evaluated, so a path that cannot
    be one is refused (OSError) at once."""
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    store = _store()
    entries = [
        _evaluate(entry, rec, store) for entry in _tilings(store, R=2) for rec in entry.expected
    ]
    entries += [_frame_bound_entry(entry, store) for entry in _tilings(store, R=3)]

    passed = sum(1 for e in entries if e["pass"])
    fields = ("tiling", "kind", "key", "printed", "computed", "note")
    discrepancies = [{k: e.get(k, "") for k in fields} for e in entries if "printed" in e]
    report = {
        "entries": entries,
        "summary": {
            "total": len(entries),
            "passed": passed,
            "failed": len(entries) - passed,
            "documented_discrepancies": discrepancies,
            "all_pass": passed == len(entries),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seed": SEED,
        },
    }
    if out_dir is not None:
        _write_outputs(out_dir, report, store)
    return report


def _frame_bound_entry(entry: CatalogEntry, store: Store) -> dict:
    """Frame-bound containment for the tiling's primary configuration, with
    its constants from the store (`gram.frame_bound_report`)."""
    support = _acceptance_support(entry.spec)
    config = entry.default_configs[entry.primary_config]
    fb = gram.frame_bound_report(entry.spec, config, support, store.constants(entry.spec, config))
    rec = ExpectedRecord(
        kind="frame_bounds",
        key=f"{entry.primary_config}/S{len(support)}",
        want=[fb.c1_full, fb.c2_full],
        source="derived: Gram spectrum within the frame bounds",
        tol=gram.FRAME_BOUND_TOL * fb.c2_full,
    )
    return _report_entry(entry.spec.name, rec, [fb.lambda_min, fb.lambda_max], fb.passed and fb.a2)


def _acceptance_support(spec) -> gram.SupportSet:
    """Largest centered-box support with at most 50 exponentials."""
    boxes = [(nx, ny) for nx in range(1, 8) for ny in range(1, 8) if spec.m * nx * ny <= 50]
    nx, ny = max(boxes, key=lambda box: box[0] * box[1])
    xs, ys = (range(-(n // 2), n - n // 2) for n in (nx, ny))
    return gram.SupportSet.box(spec, xs, ys)


def _write_outputs(out_dir: Path, report: dict, store: Store) -> None:
    """report.json and the survey CSVs, each named after its tiling's spec."""
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for tiling in (("two_square", 1, 2), ("snub_square",), ("truncated_square",), ("trihexagonal",)):
        spec = store.entry(*tiling).spec
        grid = 2 if spec.m == 3 else 3
        search.write_survey_csv(out_dir / f"survey_{spec.name}.csv", store.grid(spec, grid))

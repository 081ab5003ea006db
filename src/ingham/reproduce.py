"""One-shot reproduction harness over the catalog's expected-result tables.

`KINDS` maps each ExpectedRecord kind to an evaluator that gives `(computed,
passed)`; kinds doing the same work share one.  Evaluators read grid and
connected surveys from a store that `build_report` makes for one report
(`_survey_store`, a `functools.cache`), so a survey that several records and
the CSVs read runs once.  The 2x2 cell-block records take the public survey
calls: `search.translation_classes` of the block's m-subsets, then
`search.classify_configs` of the class representatives.  `_report_entry`
builds every report entry, frame bounds included.

The report is deterministic (no timestamps, sorted keys, fixed seeds) and is
written with the survey CSVs.  Every grid survey gates on
`spectral.a2_stable` (no |det E| near the (A2) threshold).  Records with a
`printed` value document a published figure that the data provably
contradicts; they gate on the frozen computed value and surface the printed
one in the report.
"""

from __future__ import annotations

import json
import platform
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import catalog, geometry, search, spectral
from .catalog import CatalogEntry, ExpectedRecord
from .gram import SupportSet, frame_bound_check
from .lattice import LatticeSpec, minimality_certificate

SEED = 20240801

# the survey of (spec, grid_max), computed once per key and report
Surveys = Callable[[LatticeSpec, int | None], search.SurveyResult]
Evaluator = Callable[[CatalogEntry, ExpectedRecord, Surveys], tuple[Any, bool]]


def _close(got, want, tol: float, relative: bool = False) -> bool:
    """|got - want| <= tol (times |want| if relative), elementwise on sequences."""
    if isinstance(got, (tuple, list)):
        return all(_close(g, w, tol, relative) for g, w in zip(got, want))
    return abs(got - want) <= (tol * abs(want) if relative else tol)


def _equal(compute: Callable[[CatalogEntry, ExpectedRecord], Any]) -> Evaluator:
    """Pass when the computed value equals `want`."""
    def evaluate(entry, rec, surveys):
        computed = compute(entry, rec)
        return computed, computed == rec.want

    return evaluate


def _within(compute: Callable[[CatalogEntry, ExpectedRecord], Any]) -> Evaluator:
    """Pass when the computed value is within `tol` of `want`."""
    def evaluate(entry, rec, surveys):
        computed = compute(entry, rec)
        return computed, _close(computed, rec.want, rec.tol, rec.params.get("relative", False))

    return evaluate


def _config(entry: CatalogEntry, rec: ExpectedRecord) -> spectral.TranslationConfig:
    return entry.default_configs[rec.params["config"]]


def _domain(entry: CatalogEntry, rec: ExpectedRecord) -> geometry.DomainGeometry:
    return geometry.omega_cells(entry.spec, _config(entry, rec))


def _kappas(entry: CatalogEntry, rec: ExpectedRecord) -> tuple[float, float]:
    sr = spectral.ingham_constants(entry.spec, _config(entry, rec))
    return (sr.kappa1, sr.kappa2)


def _disk_bound(field: str) -> Evaluator:
    """One field of the domain's disk bounds (half diameter, necessary radius)."""
    return _within(lambda entry, rec: getattr(geometry.disk_bounds(_domain(entry, rec)), field))


def _density_ratio(entry: CatalogEntry, rec: ExpectedRecord) -> float:
    tri = catalog.get("triangular")
    tri_geom = geometry.omega_cells(tri.spec, tri.default_configs["base"])
    return tri_geom.area / geometry.omega_cells(entry.spec, entry.default_configs["right"]).area


def _survey_kind(measure: Callable[[search.SurveyResult, ExpectedRecord], Any]) -> Evaluator:
    """Grid-survey kinds: `measure` gives (computed, passed) from one survey; the
    record's `total` param and the survey's (A2) stability add their gates."""
    def evaluate(entry, rec, surveys):
        params = rec.params
        if "r" in params:
            entry = catalog.get("two_square", r=params["r"], R=params["R"])
        result = surveys(entry.spec, params["grid_max"])
        computed, passed = measure(result, rec)
        passed = passed and result.total == params.get("total", result.total)
        return computed, passed and spectral.a2_stable(result.records.classes.det_abs)

    return evaluate


def _connected(measure: Callable[[search.SurveyResult], Any]) -> Evaluator:
    """Connected-survey kinds: pass when `measure` of the survey equals `want`."""
    def evaluate(entry, rec, surveys):
        computed = measure(surveys(entry.spec, None))
        return computed, computed == rec.want

    return evaluate


def _pass_kappas(result: search.SurveyResult, rec: ExpectedRecord):
    """Extremes of kappa1 and kappa2 over the passing configurations (their classes)."""
    cols = result.records.classes
    k1s, k2s = cols.kappa1[cols.a2], cols.kappa2[cols.a2]
    computed = (float(k1s.min()), float(k1s.max()), float(k2s.min()), float(k2s.max()))
    want1, want2 = rec.want
    return computed, _close(computed, (want1, want1, want2, want2), rec.tol)


def _cell_block_classes(spec) -> search.SurveyRecords:
    """One record per translation class of m-subsets of the 2x2 cell block,
    its representative (`search.translation_classes`)."""
    classes = search.translation_classes(combinations(((0, 0), (0, 1), (1, 0), (1, 1)), spec.m))
    return search.classify_configs(spec, [c.representative for c in classes])


def _class_pairs(entry: CatalogEntry, rec: ExpectedRecord, surveys: Surveys):
    """Constant pairs per class: each wanted pair within 1e-6 (matched by cells
    when the rows are labelled with them), each printed pair within `tol`."""
    labelled = rec.key == "cells-2x2"
    if labelled:
        rows = [
            [list(r.config[0]), list(r.config[1]), round(r.kappa1, 7), round(r.kappa2, 7)]
            for r in _cell_block_classes(entry.spec)
        ]
    else:  # tetromino classes: distinct pairs among the passing connected shapes
        cols = surveys(entry.spec, None).records.classes
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


def _rank_order(entry: CatalogEntry, rec: ExpectedRecord) -> list:
    ranked = search.rank_by_conditioning(search.as_result(_cell_block_classes(entry.spec)))
    return [[list(p) for p in r.config] for r in ranked]


def _delta_matches_det(entry: CatalogEntry, rec: ExpectedRecord, surveys: Surveys):
    """Largest gap between the kernel's |det E| and the closed-form delta."""
    diffs = []
    for r, R in rec.params["pairs"]:
        sub = catalog.get("two_square", r=r, R=R)
        sr = spectral.ingham_constants(sub.spec, sub.default_configs["canonical"])
        diffs.append(abs(sr.det_abs - abs(spectral.two_square_delta(r, R))))
    return max(diffs), max(diffs) <= rec.tol


def _delta_nonzero(entry: CatalogEntry, rec: ExpectedRecord, surveys: Surveys):
    """Smallest |delta| over seeded random side lengths; must exceed `want`."""
    rng = np.random.default_rng(rec.params["seed"])
    vals = []
    for _ in range(rec.params["count"]):
        r = Fraction(int(rng.integers(1, 1000)), 100)
        R = r + Fraction(int(rng.integers(1, 1000)), 100)
        if R > 10:
            r, R = r / 2, R / 2
        vals.append(abs(spectral.two_square_delta(r, R)))
    return min(vals), min(vals) > rec.want


KINDS: dict[str, Evaluator] = {
    "kappa_pair": _within(_kappas),
    "a2_verdict": _equal(lambda entry, rec: spectral.check_a2(entry.spec, _config(entry, rec))),
    "area": _within(lambda entry, rec: geometry.area_check(_domain(entry, rec), entry.spec)),
    "half_diameter": _disk_bound("r_sufficient"),
    "radius_necessary": _disk_bound("r_necessary"),
    "bessel_bound": _within(lambda entry, rec: 2.0 * geometry.bessel_j0_root()),
    "minimality": _equal(
        lambda entry, rec: minimality_certificate(entry.spec, catalog.minimality_witnesses(entry))
    ),
    "density_ratio": _within(_density_ratio),
    "survey_fail_count": _survey_kind(lambda res, rec: (res.failing, res.failing == rec.want)),
    "survey_pass_count": _survey_kind(lambda res, rec: (res.passing, res.passing == rec.want)),
    "survey_pass_kappas": _survey_kind(_pass_kappas),
    "connected_pass_count": _connected(lambda res: res.passing),
    "connected_all_pass": _connected(lambda res: res.failing == 0),
    "polyomino_count": _equal(
        lambda entry, rec: len(geometry.polyominoes(rec.params["size"]).idx)
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


def _evaluate(entry: CatalogEntry, rec: ExpectedRecord, surveys: Surveys) -> dict:
    if rec.kind not in KINDS:
        raise ValueError(f"unknown expected-record kind {rec.kind!r}")
    computed, passed = KINDS[rec.kind](entry, rec, surveys)
    return _report_entry(entry.spec.name, rec, computed, passed)


def _tilings(R: int):
    """Every catalog entry, the two-square family at r=1 and the given R."""
    for name in catalog.names():
        yield catalog.get(name, r=1, R=R) if name == "two_square" else catalog.get(name)


def _survey_store() -> Surveys:
    """The survey of (spec, grid_max), each computed on its first request and
    kept for later ones (`functools.cache`): `classify_all` on the grid
    [0, grid_max]^2, or `connected_survey` for grid_max None.  The report's
    records and its CSVs ask for 12 grid surveys, of which 7 are distinct,
    and 5 connected ones, of which 3 are.  One report makes one store and
    drops it when it returns."""

    @cache
    def survey(spec: LatticeSpec, grid_max: int | None) -> search.SurveyResult:
        if grid_max is None:
            return search.connected_survey(spec)
        return search.classify_all(spec, grid_max, spec.m)

    return survey


def build_report(out_dir: str | Path | None = None) -> dict:
    """Run every expected record; optionally write report.json and CSVs.
    Each distinct survey runs once per call (`_survey_store`)."""
    surveys = _survey_store()
    entries = [
        _evaluate(entry, rec, surveys) for entry in _tilings(R=2) for rec in entry.expected
    ]
    entries += [_frame_bound_entry(entry) for entry in _tilings(R=3)]

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
        _write_outputs(Path(out_dir), report, surveys)
    return report


def _frame_bound_entry(entry: CatalogEntry) -> dict:
    """Frame-bound containment for the tiling's primary configuration."""
    support = _acceptance_support(entry.spec)
    fb = frame_bound_check(entry.spec, entry.default_configs[entry.primary_config], support)
    rec = ExpectedRecord(
        kind="frame_bounds",
        key=f"{entry.primary_config}/S{len(support)}",
        want=[fb.c1_full, fb.c2_full],
        source="derived: Gram spectrum within the frame bounds",
        tol=1e-6 * fb.c2_full,
    )
    return _report_entry(entry.spec.name, rec, [fb.lambda_min, fb.lambda_max], fb.passed and fb.a2)


def _acceptance_support(spec) -> SupportSet:
    """Largest centered-box support with at most 50 exponentials."""
    boxes = [(nx, ny) for nx in range(1, 8) for ny in range(1, 8) if spec.m * nx * ny <= 50]
    nx, ny = max(boxes, key=lambda box: box[0] * box[1])
    xs, ys = (range(-(n // 2), n - n // 2) for n in (nx, ny))
    return SupportSet.box(spec, xs, ys)


def _write_outputs(out_dir: Path, report: dict, surveys: Surveys) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for label in ("two_square_r1_R2", "snub_square", "truncated_square", "trihexagonal"):
        entry = catalog.get(label)
        grid = 2 if entry.spec.m == 3 else 3
        search.write_survey_csv(out_dir / f"survey_{label}.csv", surveys(entry.spec, grid))

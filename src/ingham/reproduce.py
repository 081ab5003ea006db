"""One-shot reproduction harness over the catalog's expected-result tables.

Evaluates every ExpectedRecord, collects pass/fail entries into a
deterministic report (no timestamps, sorted keys, fixed seeds), and writes
the report plus survey CSVs.  Records that carry a `printed` value document
a published figure that the data provably contradicts; they gate on the
frozen computed value and surface the printed one in the report.
"""

from __future__ import annotations

import csv
import json
import platform
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any

import numpy as np

from . import catalog, geometry, search, spectral
from .catalog import CatalogEntry, ExpectedRecord
from .gram import SupportSet, frame_bound_check
from .lattice import minimality_certificate

SEED = 20240801


@dataclass
class ReportEntry:
    tiling: str
    kind: str
    key: str
    want: Any
    computed: Any
    tol: float
    passed: bool
    source: str
    printed: Any = None
    note: str = ""


def _close(a: float, b: float, tol: float, relative: bool = False) -> bool:
    if relative:
        return abs(a - b) <= tol * abs(b)
    return abs(a - b) <= tol


def _pair_close(got, want, tol) -> bool:
    return _close(got[0], want[0], tol) and _close(got[1], want[1], tol)


def _survey(entry: CatalogEntry, grid_max: int) -> search.SurveyResult:
    return search.classify_all(entry.spec, grid_max, entry.spec.m)


def _eval_record(entry: CatalogEntry, rec: ExpectedRecord) -> ReportEntry:
    spec = entry.spec
    kind, params = rec.kind, rec.params
    computed: Any
    passed: bool

    if kind == "kappa_pair":
        sr = spectral.ingham_constants(spec, entry.default_configs[params["config"]])
        computed = (sr.kappa1, sr.kappa2)
        passed = _pair_close(computed, rec.want, rec.tol)
    elif kind == "a2_verdict":
        computed = spectral.check_a2(spec, entry.default_configs[params["config"]])
        passed = computed == rec.want
    elif kind == "area":
        geom = geometry.omega_cells(spec, entry.default_configs[params["config"]])
        computed = geometry.area_check(geom, spec)
        passed = _close(computed, rec.want, rec.tol, params.get("relative", False))
    elif kind == "half_diameter":
        geom = geometry.omega_cells(spec, entry.default_configs[params["config"]])
        computed = geometry.disk_bounds(geom).r_sufficient
        passed = _close(computed, rec.want, rec.tol)
    elif kind == "radius_necessary":
        geom = geometry.omega_cells(spec, entry.default_configs[params["config"]])
        computed = geometry.disk_bounds(geom).r_necessary
        passed = _close(computed, rec.want, rec.tol)
    elif kind == "bessel_bound":
        computed = 2.0 * geometry.bessel_j0_root()
        passed = _close(computed, rec.want, rec.tol)
    elif kind == "minimality":
        computed = minimality_certificate(spec, catalog.minimality_witnesses(entry))
        passed = computed == rec.want
    elif kind == "density_ratio":
        tri = catalog.get("triangular")
        tri_geom = geometry.omega_cells(tri.spec, tri.default_configs["base"])
        hc_geom = geometry.omega_cells(spec, entry.default_configs["right"])
        computed = tri_geom.area / hc_geom.area
        passed = _close(computed, rec.want, rec.tol)
    elif kind in ("survey_fail_count", "survey_pass_count"):
        sub = entry
        if "r" in params:
            sub = catalog.get("two_square", r=params["r"], R=params["R"])
        result = _survey(sub, params["grid_max"])
        if kind == "survey_fail_count":
            computed = result.failing
            passed = computed == rec.want
        else:
            computed = result.passing
            passed = computed == rec.want and result.total == params["total"]
        if params.get("sweep_stable") and len(set(search.sweep_counts(result).values())) > 1:
            passed = False
    elif kind == "survey_pass_kappas":
        result = _survey(entry, params["grid_max"])
        pairs = [(r.kappa1, r.kappa2) for r in result.records if r.a2]
        k1s = [p[0] for p in pairs]
        k2s = [p[1] for p in pairs]
        computed = (min(k1s), max(k1s), min(k2s), max(k2s))
        passed = all(
            _close(v, w, rec.tol)
            for v, w in zip(computed, (rec.want[0], rec.want[0], rec.want[1], rec.want[1]))
        )
    elif kind == "connected_pass_count":
        result = search.connected_survey(spec)
        computed = result.passing
        passed = computed == rec.want
    elif kind == "connected_all_pass":
        result = search.connected_survey(spec)
        computed = result.failing == 0
        passed = computed == rec.want
    elif kind == "polyomino_count":
        computed = len(geometry.fixed_polyominoes(params["size"]))
        passed = computed == rec.want
    elif kind == "class_pairs":
        computed, passed = _eval_class_pairs(entry, rec)
    elif kind == "rank_order":
        ranked = search.rank_by_conditioning(search.as_result(_cell_block_classes(spec)))
        computed = [[list(p) for p in r.config] for r in ranked]
        passed = computed == rec.want
    elif kind == "delta_matches_det":
        diffs = []
        for r, R in params["pairs"]:
            sub = catalog.get("two_square", r=r, R=R)
            sr = spectral.ingham_constants(sub.spec, sub.default_configs["canonical"])
            diffs.append(abs(sr.det_abs - abs(spectral.two_square_delta(r, R))))
        computed = max(diffs)
        passed = computed <= rec.tol
    elif kind == "delta_nonzero":
        rng = np.random.default_rng(params["seed"])
        vals = []
        for _ in range(params["count"]):
            r = Fraction(int(rng.integers(1, 1000)), 100)
            R = r + Fraction(int(rng.integers(1, 1000)), 100)
            if R > 10:
                r, R = r / 2, R / 2
            vals.append(abs(spectral.two_square_delta(r, R)))
        computed = min(vals)
        passed = computed > rec.want
    else:
        raise ValueError(f"unknown expected-record kind {kind!r}")

    return ReportEntry(
        tiling=spec.name,
        kind=kind,
        key=rec.key,
        want=rec.want,
        computed=computed,
        tol=rec.tol,
        passed=bool(passed),
        source=rec.source,
        printed=rec.printed,
        note=rec.note or params.get("note", ""),
    )


def _cell_block_classes(spec) -> list[search.SurveyRecord]:
    """One record per translation class of m-subsets of the 2x2 cell block."""
    classes = search.translation_classes(
        combinations(((0, 0), (0, 1), (1, 0), (1, 1)), spec.m)
    )
    return search.classify_configs(spec, [cls.representative for cls in classes])


def _eval_class_pairs(entry: CatalogEntry, rec: ExpectedRecord):
    spec = entry.spec
    if rec.key == "cells-2x2":
        records = _cell_block_classes(spec)
        computed = [
            [list(r.config[0]), list(r.config[1]), round(r.kappa1, 7), round(r.kappa2, 7)]
            for r in records
        ]
        by_config = {tuple(map(tuple, row[:2])): (row[2], row[3]) for row in computed}
        passed = len(records) == len(rec.want)
        for row in rec.want:
            key = (tuple(row[0]), tuple(row[1]))
            passed = passed and key in by_config
            passed = passed and _pair_close(by_config[key], (row[2], row[3]), 1e-6)
        for printed in rec.params.get("printed_pairs", []):
            passed = passed and any(
                _pair_close((row[2], row[3]), printed, rec.tol) for row in computed
            )
        return computed, passed
    # tetromino classes: group the connected survey by free symmetry class
    result = search.connected_survey(spec)
    pairs = sorted(
        {(round(r.kappa1, 7), round(r.kappa2, 7)) for r in result.records if r.a2}
    )
    computed = [[k1, k2] for k1, k2 in pairs]
    want_pairs = [row[-2:] for row in rec.want]
    passed = len(computed) == len(want_pairs)
    for wk1, wk2 in want_pairs:
        passed = passed and any(_pair_close((k1, k2), (wk1, wk2), 1e-6) for k1, k2 in computed)
    for printed in rec.params.get("printed_pairs", []):
        passed = passed and any(
            _pair_close((k1, k2), printed, rec.tol) for k1, k2 in computed
        )
    return computed, passed


def build_report(out_dir: str | Path | None = None) -> dict:
    """Run every expected record; optionally write report.json and CSVs."""
    entries: list[ReportEntry] = []
    for name in catalog.names():
        entry = catalog.get(name, r=1, R=2) if name == "two_square" else catalog.get(name)
        for rec in entry.expected:
            entries.append(_eval_record(entry, rec))

    frame_entries = _frame_bound_entries()
    entries.extend(frame_entries)

    passed = sum(1 for e in entries if e.passed)
    discrepancies = [
        {"tiling": e.tiling, "kind": e.kind, "key": e.key, "printed": e.printed,
         "computed": e.computed, "note": e.note}
        for e in entries
        if e.printed is not None
    ]
    report = {
        "entries": [
            {
                "tiling": e.tiling,
                "kind": e.kind,
                "key": e.key,
                "want": e.want,
                "computed": e.computed,
                "tol": e.tol,
                "pass": e.passed,
                "source": e.source,
                **({"printed": e.printed} if e.printed is not None else {}),
                **({"note": e.note} if e.note else {}),
            }
            for e in entries
        ],
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
        _write_outputs(Path(out_dir), report)
    return report


def _frame_bound_entries() -> list[ReportEntry]:
    """Frame-bound containment for each tiling's primary configuration."""
    out = []
    for name in catalog.names():
        entry = catalog.get(name, r=1, R=3) if name == "two_square" else catalog.get(name)
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        support = _acceptance_support(spec)
        fb = frame_bound_check(spec, config, support)
        out.append(
            ReportEntry(
                tiling=spec.name,
                kind="frame_bounds",
                key=f"{entry.primary_config}/S{len(support)}",
                want=[fb.c1_full, fb.c2_full],
                computed=[fb.lambda_min, fb.lambda_max],
                tol=1e-6 * fb.c2_full,
                passed=fb.passed and fb.a2,
                source="derived: Gram spectrum within the frame bounds",
            )
        )
    return out


def _acceptance_support(spec) -> SupportSet:
    """Largest centered-box support with at most 50 exponentials."""
    m = spec.m
    best = None
    for nx in range(1, 8):
        for ny in range(1, 8):
            size = m * nx * ny
            if size <= 50 and (best is None or size > best[0]):
                best = (size, nx, ny)
    _, nx, ny = best
    xs = range(-(nx // 2), nx - nx // 2)
    ys = range(-(ny // 2), ny - ny // 2)
    return SupportSet.box(spec, list(xs), list(ys))


def _write_outputs(out_dir: Path, report: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    surveys = {
        "two_square_r1_R2": catalog.get("two_square", r=1, R=2),
        "snub_square": catalog.get("snub_square"),
        "truncated_square": catalog.get("truncated_square"),
        "trihexagonal": catalog.get("trihexagonal"),
    }
    for label, entry in surveys.items():
        grid = 2 if entry.spec.m == 3 else 3
        result = search.classify_all(entry.spec, grid, entry.spec.m)
        with open(out_dir / f"survey_{label}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["config", "connected", "a2", "kappa1", "kappa2", "ratio"])
            writer.writerows(search.survey_csv_rows(result))

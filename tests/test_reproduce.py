import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from ingham import catalog, geometry, reproduce, search, spectral
from ingham.reproduce import build_report


def test_report_passes_and_flags_documented_discrepancies():
    report = build_report()
    assert report["summary"]["all_pass"] is True
    flags = {
        (d["tiling"], d["kind"]) for d in report["summary"]["documented_discrepancies"]
    }
    assert flags == {
        ("snub_square", "kappa_pair"),
        ("truncated_square", "survey_fail_count"),
        ("truncated_square", "connected_pass_count"),
        ("truncated_trihexagonal", "kappa_pair"),
    }


def test_corrupted_catalog_entry_fails_and_is_identified(monkeypatch):
    # harness self-test: a wrong expected value must trip the run
    entries = dict(catalog._catalog())
    honeycomb = entries["honeycomb"]
    corrupted = tuple(
        dataclasses.replace(rec, want=(1.0, 2.5)) if rec.kind == "kappa_pair" else rec
        for rec in honeycomb.expected
    )
    entries["honeycomb"] = dataclasses.replace(honeycomb, expected=corrupted)
    monkeypatch.setattr(catalog, "_CATALOG", entries)

    report = build_report()
    assert report["summary"]["all_pass"] is False
    bad = [e for e in report["entries"] if not e["pass"]]
    assert len(bad) == 1
    assert bad[0]["tiling"] == "honeycomb"
    assert bad[0]["kind"] == "kappa_pair"


def test_corrupted_entry_gives_nonzero_exit(monkeypatch, capsys, tmp_path):
    from ingham.cli import main

    entries = dict(catalog._catalog())
    square = entries["square"]
    corrupted = tuple(
        dataclasses.replace(rec, want=(7.0, 7.0)) if rec.kind == "kappa_pair" else rec
        for rec in square.expected
    )
    entries["square"] = dataclasses.replace(square, expected=corrupted)
    monkeypatch.setattr(catalog, "_CATALOG", entries)

    code = main(["reproduce", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  square/kappa_pair" in out


# One corrupted record per expected-record kind, keyed by (tiling, kind, key).
# Most get a wrong `want`; the two determinant checks gate on `tol` / a floor.
CORRUPTIONS = {
    ("square", "area", "cell"): {"want": 1.0},
    ("triangular", "half_diameter", "domain"): {"want": 1.0},
    ("triangular", "radius_necessary", "domain"): {"want": 1.0},
    ("triangular", "bessel_bound", "j0"): {"want": 1.0},
    ("honeycomb", "a2_verdict", "right"): {"want": False},
    ("honeycomb", "kappa_pair", "right"): {"want": (1.0, 2.5)},
    ("honeycomb", "minimality", "witnesses"): {"want": False},
    ("honeycomb", "density_ratio", "vs-triangular"): {"want": 2.0},
    # every pair exists, but two are listed under each other's cells
    ("elongated_triangular", "class_pairs", "cells-2x2"): {"want": [
        [[0, 0], [0, 1], 0.3678748, 3.6321252],
        [[0, 0], [1, 0], 0.6677382, 3.3322618],
        [[0, 0], [1, 1], 0.6677382, 3.3322618],
        [[0, 1], [1, 0], 1.7749216, 2.2250784],
    ]},
    ("elongated_triangular", "rank_order", "cells-2x2"): {"want": [
        [[0, 1], [1, 0]], [[0, 0], [1, 1]], [[0, 0], [1, 0]], [[0, 0], [0, 1]],
    ]},
    ("elongated_triangular", "connected_all_pass", "dominoes"): {"want": False},
    ("trihexagonal", "survey_pass_count", "grid-0-2"): {"want": 35},
    ("trihexagonal", "survey_pass_kappas", "grid-0-2"): {"want": (1.0, 5.0)},
    ("snub_square", "connected_pass_count", "tetrominoes"): {"want": 18},
    ("snub_square", "polyomino_count", "size-4"): {"want": 18},
    ("two_square", "survey_fail_count", "r1-R2"): {"want": 10},
    ("two_square", "delta_matches_det", "closed-form"): {"tol": 1e-20},
    ("two_square", "delta_nonzero", "random-100"): {"want": 1e6},
}


def _corrupt(name, records):
    return [
        dataclasses.replace(rec, **CORRUPTIONS.get((name, rec.kind, rec.key), {}))
        for rec in records
    ]


def test_every_record_kind_fails_when_corrupted(monkeypatch):
    entries = {
        name: dataclasses.replace(entry, expected=tuple(_corrupt(name, entry.expected)))
        for name, entry in catalog._catalog().items()
    }
    monkeypatch.setattr(catalog, "_CATALOG", entries)
    monkeypatch.setitem(
        catalog._EXPECTED, "two_square", _corrupt("two_square", catalog._EXPECTED["two_square"])
    )
    kinds = {kind for _, kind, _ in CORRUPTIONS}
    records = [rec for e in entries.values() for rec in e.expected]
    records += catalog._EXPECTED["two_square"]
    assert kinds == {rec.kind for rec in records}
    assert len(kinds) == len(CORRUPTIONS) == 18

    report = build_report()
    failed = {
        (e["tiling"].replace("_r1_R2", ""), e["kind"], e["key"])
        for e in report["entries"]
        if not e["pass"]
    }
    assert failed == set(CORRUPTIONS)
    assert report["summary"]["failed"] == 18
    assert report["summary"]["total"] == 61


# (tiling, kind, key) of the eight grid-survey records
GRID_SURVEYS = {("two_square_r1_R2", "survey_fail_count", f"r1-R{R}") for R in (2, 3, 4, 5)} | {
    ("trihexagonal", "survey_pass_count", "grid-0-2"),
    ("trihexagonal", "survey_pass_kappas", "grid-0-2"),
    ("snub_square", "survey_fail_count", "grid-0-3"),
    ("truncated_square", "survey_fail_count", "grid-0-3"),
}


def test_every_grid_survey_gates_on_a2_stability(monkeypatch):
    # a sweep band reaching past passing determinants makes every grid survey
    # unstable, and nothing else reads the band
    monkeypatch.setattr(spectral, "A2_SWEEP", (1e-12, 10.0))
    report = build_report()
    failed = {(e["tiling"], e["kind"], e["key"]) for e in report["entries"] if not e["pass"]}
    assert failed == GRID_SURVEYS


def test_unknown_record_kind_raises(monkeypatch):
    entries = dict(catalog._catalog())
    first = catalog.names()[0]
    bogus = catalog.ExpectedRecord("no_such_kind", "x", 0, "test")
    entries[first] = dataclasses.replace(entries[first], expected=(bogus,))
    monkeypatch.setattr(catalog, "_CATALOG", entries)
    with pytest.raises(ValueError, match="no_such_kind"):
        build_report()


def _counting(monkeypatch, module, name):
    """Count the calls to module.<name> from here on."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_report_runs_each_survey_once(monkeypatch, tmp_path):
    """One build_report runs 7 grid surveys and 3 connected ones, where its
    records and CSVs ask for 12 and 5, and writes what a report whose store
    computes every request writes."""
    grids = _counting(monkeypatch, search, "classify_all")
    connected = _counting(monkeypatch, search, "connected_survey")
    report = build_report(tmp_path / "once")
    assert (len(grids), len(connected)) == (7, 3)
    assert len(set(grids)) == 7 and len(set(connected)) == 3

    def every_time():
        return reproduce.Store(catalog.get, reproduce._survey, spectral.ingham_constants,
                               geometry.omega_cells, reproduce._cell_block_classes)

    monkeypatch.setattr(reproduce, "_store", every_time)
    assert build_report(tmp_path / "every") == report
    assert (len(grids), len(connected)) == (7 + 12, 3 + 5)
    written = sorted(path.name for path in (tmp_path / "once").iterdir())
    assert len(written) == 5
    for name in written:
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "every" / name).read_bytes()


def test_a_report_computes_each_distinct_result_once(monkeypatch):
    """One build_report builds each of its 16 catalog entries, takes the
    constants of each of 19 configurations, the domain of each of 4 and the
    one cell block once; a second build_report does all of it again, since
    no store outlives its report."""
    calls = {
        name: _counting(monkeypatch, module, name)
        for module, name in ((catalog, "get"), (spectral, "ingham_constants"),
                             (geometry, "omega_cells"), (reproduce, "_cell_block_classes"))
    }
    build_report()
    once = {"get": 16, "ingham_constants": 19, "omega_cells": 4, "_cell_block_classes": 1}
    assert {name: len(args) for name, args in calls.items()} == once
    assert all(len(set(args)) == len(args) for args in calls.values())
    build_report()
    assert {name: len(args) for name, args in calls.items()} == {
        name: 2 * count for name, count in once.items()
    }


def test_an_unusable_out_directory_is_refused_before_any_record(monkeypatch, capsys, tmp_path):
    from ingham.cli import main

    stores = _counting(monkeypatch, reproduce, "_store")
    evaluated = _counting(monkeypatch, reproduce, "_evaluate")
    (tmp_path / "file").write_text("")
    assert main(["reproduce", "--out", str(tmp_path / "file" / "out")]) == 2
    assert "usage error" in capsys.readouterr().err
    assert stores == evaluated == []


def test_seeded_deltas_have_the_bits_of_the_scalar_closed_form():
    """The array sweep of the delta_nonzero record gives, side pair by side
    pair, the bits of two_square_delta of the Fraction sides drawn one at a
    time."""
    rec = next(r for r in catalog._EXPECTED["two_square"] if r.kind == "delta_nonzero")
    rng = np.random.default_rng(rec.params["seed"])
    want = []
    for _ in range(rec.params["count"]):
        r = Fraction(int(rng.integers(1, 1000)), 100)
        R = r + Fraction(int(rng.integers(1, 1000)), 100)
        if R > 10:
            r, R = r / 2, R / 2
        want.append(spectral.two_square_delta(r, R))
    got = reproduce._seeded_deltas(rec.params["seed"], rec.params["count"]).tolist()
    assert len(got) == 100
    assert [(z.real.hex(), z.imag.hex()) for z in got] == [
        (z.real.hex(), z.imag.hex()) for z in want
    ]

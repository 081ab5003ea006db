import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from ingham import catalog, geometry, gram, reproduce, search, spectral
from ingham.lattice import TWO_SQUARE_CONFIG, TranslationConfig
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


def _counting(monkeypatch, module, name, results=None):
    """Count the calls to module.<name> from here on; given a list, `results`
    gets what each returns."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        result = real(*args)
        if results is not None:
            results.append(result)
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_report_runs_each_survey_once(monkeypatch, tmp_path):
    """One build_report runs 4 grid class reductions for its 7 grid surveys
    (the four two-square ratios share one group), the spec pass of each of
    the 7 and 3 connected surveys, where its records and CSVs ask for 12
    grid surveys and 5 connected ones; it writes what a report whose store
    runs `search.classify_all` and every other call on every request
    writes."""
    made = []
    reductions = _counting(monkeypatch, search, "grid_reduction", made)
    passes = _counting(monkeypatch, search, "classify_reduction")
    connected = _counting(monkeypatch, search, "connected_survey")

    def grid_passes():  # the spec passes over grid reductions
        return [args for args in passes if args[1] in made]

    report = build_report(tmp_path / "once")
    assert (len(reductions), len(grid_passes()), len(connected)) == (4, 7, 3)
    assert len(set(reductions)) == 4 and len(set(grid_passes())) == 7
    assert len(set(connected)) == 3

    def every_time():
        return reproduce.Store(
            catalog.get,
            lambda spec, grid_max: search.classify_all(spec, grid_max, spec.m),
            search.connected_survey, spectral.ingham_constants, geometry.omega_cells,
            reproduce._cell_block_classes,
        )

    monkeypatch.setattr(reproduce, "_store", every_time)
    assert build_report(tmp_path / "every") == report
    assert (len(reductions), len(grid_passes()), len(connected)) == (4 + 12, 7 + 12, 3 + 5)
    written = sorted(path.name for path in (tmp_path / "once").iterdir())
    assert len(written) == 5
    for name in written:
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "every" / name).read_bytes()


def test_a_report_computes_each_distinct_result_once(monkeypatch):
    """One build_report builds each of its 16 catalog entries, takes the
    constants of each of 21 configurations (the frame-bound entries' 12
    among them, 10 of which the records ask for too), the domain of each of
    4 and the one cell block once, and no constants inside `gram`; a second
    build_report does all of it again, since no store outlives its
    report."""
    calls = {
        f"{module.__name__}.{name}": _counting(monkeypatch, module, name)
        for module, name in ((catalog, "get"), (spectral, "ingham_constants"),
                             (gram, "ingham_constants"), (geometry, "omega_cells"),
                             (reproduce, "_cell_block_classes"))
    }
    build_report()
    once = {"ingham.catalog.get": 16, "ingham.spectral.ingham_constants": 21,
            "ingham.gram.ingham_constants": 0, "ingham.geometry.omega_cells": 4,
            "ingham.reproduce._cell_block_classes": 1}
    assert {name: len(args) for name, args in calls.items()} == once
    assert all(len(set(args)) == len(args) for args in calls.values())
    build_report()
    assert {name: len(args) for name, args in calls.items()} == {
        name: 2 * count for name, count in once.items()
    }


def test_frame_bounds_from_the_store_are_those_frame_bound_check_computes():
    """For every catalog primary configuration on its acceptance support, the
    verdict from the store's constants (after the records asked for them)
    has the bits of `gram.frame_bound_check`, which computes its own, and
    the report's entry holds them."""
    store = reproduce._store()
    for entry in reproduce._tilings(store, R=2):  # every record, as build_report runs them
        for rec in entry.expected:
            reproduce._evaluate(entry, rec, store)
    tilings = list(reproduce._tilings(store, R=3))
    assert len(tilings) == 12
    for entry in tilings:
        spec, config = entry.spec, entry.default_configs[entry.primary_config]
        support = reproduce._acceptance_support(spec)
        got = gram.frame_bound_report(spec, config, support, store.constants(spec, config))
        want = gram.frame_bound_check(spec, config, support)
        floats = ("lambda_min", "lambda_max", "c1_full", "c2_full")
        assert [getattr(got, f).hex() for f in floats] == [getattr(want, f).hex() for f in floats]
        assert (type(got.a2), type(got.passed)) == (bool, bool)
        assert (got.a2, got.passed) == (want.a2, want.passed), spec.name
        e = reproduce._frame_bound_entry(entry, store)
        assert (e["computed"], e["want"]) == ([want.lambda_min, want.lambda_max],
                                              [want.c1_full, want.c2_full])
        assert e["pass"] is (want.passed and want.a2)


def test_the_frame_bound_tolerance_is_one_constant(monkeypatch):
    """`gram.FRAME_BOUND_TOL` sets both the verdict of `frame_bound_report`
    and the report entry's `tol`: at -1e-6, honeycomb's Gram spectrum, which
    lies 5.6e-7 of c2 inside its upper bound, fails, and the entry's tol
    reads -1e-6 times c2."""
    entry = catalog.get("honeycomb")
    spec, config = entry.spec, entry.default_configs[entry.primary_config]
    support = reproduce._acceptance_support(spec)
    store = reproduce._store()
    for tol, passed in ((1e-6, True), (-1e-6, False)):
        monkeypatch.setattr(gram, "FRAME_BOUND_TOL", tol)
        assert gram.frame_bound_check(spec, config, support).passed is passed
        e = reproduce._frame_bound_entry(entry, store)
        assert (e["pass"], e["tol"]) == (passed, tol * e["want"][1])


def test_the_seed_is_one_constant():
    """The delta_nonzero record draws with the seed the report names."""
    (rec,) = [r for r in catalog.get("two_square", 1, 2).expected if r.kind == "delta_nonzero"]
    assert rec.params["seed"] == catalog.SEED == build_report()["environment"]["seed"]


def test_an_unusable_out_directory_is_refused_before_any_record(monkeypatch, capsys, tmp_path):
    from ingham.cli import main

    stores = _counting(monkeypatch, reproduce, "_store")
    evaluated = _counting(monkeypatch, reproduce, "_evaluate")
    (tmp_path / "file").write_text("")
    assert main(["reproduce", "--out", str(tmp_path / "file" / "out")]) == 2
    assert "usage error" in capsys.readouterr().err
    assert stores == evaluated == []


def test_delta_matches_det_has_the_bits_of_the_scalar_closed_form():
    """The record's side pairs, evaluated in one array call, give the gap
    the scalar closed form gives pair by pair, bit for bit."""
    rec = next(r for r in catalog._EXPECTED["two_square"] if r.kind == "delta_matches_det")
    assert rec.params["pairs"] == [[1, 2], [1, 3], [2, 5]]
    store = reproduce._store()
    entry = store.entry("two_square", 1, 2)
    computed, passed = reproduce._delta_matches_det(entry, rec, store)
    gaps = []
    for r, R in rec.params["pairs"]:
        spec = catalog.get("two_square", r=r, R=R).spec
        det_abs = spectral.ingham_constants(spec, TranslationConfig(TWO_SQUARE_CONFIG)).det_abs
        gaps.append(abs(det_abs - abs(spectral.two_square_delta(r, R))))
    assert computed.hex() == max(gaps).hex()
    assert passed


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

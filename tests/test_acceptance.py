"""Acceptance suite: every reference claim at its stated tolerance.

One test per criterion group, printing a PASS line when its assertions hold.
Two published values are provably inconsistent with the published data they
accompany (see the notes in the catalog's expected tables); the literal
comparisons are kept as strict xfails so a change in that status is noticed,
and the reproduce report documents both.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import quadrature_inner_product, trig_identity_residual
from gram_oracle import inner_product

from ingham import catalog
from ingham.geometry import bessel_j0_root, disk_bounds, fixed_polyominoes, omega_cells
from ingham.gram import SupportSet, frame_bound_check, gram_matrix, inscribed_hole, removal_witness
from ingham.lattice import (
    TWO_SQUARE_CONFIG,
    LatticePoint,
    LatticeSpec,
    minimality_certificate,
    qvec,
    two_square_spec,
)
from ingham.qfield import QuadNumber
from ingham.reproduce import _acceptance_support, build_report
from ingham.search import classify_all, classify_configs, connected_survey, translation_classes
from ingham.spectral import (
    A2_SWEEP,
    TranslationConfig,
    build_e,
    ingham_constants,
    two_square_delta,
)

TWO_PI = 2 * math.pi
PAIR_TOL = 0.015


def _ok(label):
    print(f"ACCEPTANCE PASS: {label}")


def _sweep_counts(records):
    return {tol: sum(1 for r in records if r.det_abs <= tol) for tol in A2_SWEEP}


# -- criterion 1: survey counts, sweep stable ---------------------------------


def test_criterion_1a_two_square_counts():
    for R, want in [(2, 9), (3, 28), (4, 0), (5, 4)]:
        spec = catalog.get("two_square", r=1, R=R).spec
        result = classify_all(spec, 3, 4)
        counts = _sweep_counts(result.records)
        assert result.failing == want, (R, result.failing)
        assert set(counts.values()) == {want}, (R, counts)
    _ok("two-square failing counts 9/28/0/4, stable over the tolerance sweep")


def test_criterion_1b_trihexagonal_survey():
    spec = catalog.get("trihexagonal").spec
    result = classify_all(spec, 2, 3)
    assert result.total == 84
    assert result.passing == 36
    assert set(_sweep_counts(result.records).values()) == {48}
    for rec in result.records:
        if rec.a2:
            assert abs(rec.kappa1 - 1.0) <= 1e-9
            assert abs(rec.kappa2 - 4.0) <= 1e-9
    _ok("trihexagonal 36/84 passing, every passing pair (1, 4) within 1e-9")


def test_criterion_1c_snub_square_counts():
    spec = catalog.get("snub_square").spec
    result = classify_all(spec, 3, 4)
    assert result.failing == 76
    assert set(_sweep_counts(result.records).values()) == {76}
    connected = connected_survey(spec)
    assert connected.total == 19 and connected.failing == 0
    _ok("snub square 76 failing over 1820; all 19 connected tetrominoes pass")


def test_criterion_1d_truncated_square_counts_with_evidence():
    spec = catalog.get("truncated_square").spec
    result = classify_all(spec, 3, 4)
    assert set(_sweep_counts(result.records).values()) == {result.failing}
    connected = connected_survey(spec)
    # computed values, frozen; published figures are 892 and 9 (see report)
    assert result.failing == 278
    assert connected.passing == 10
    assert connected.failing == 9
    report = build_report()
    flagged = {
        (d["tiling"], d["kind"]): d
        for d in report["summary"]["documented_discrepancies"]
    }
    assert flagged[("truncated_square", "survey_fail_count")]["printed"] == 892
    assert flagged[("truncated_square", "connected_pass_count")]["printed"] == 9
    _ok(
        "truncated square: computed 278 failing / 10 connected passing, "
        "published 892 / 9 reported as documented discrepancies"
    )


@pytest.mark.xfail(
    strict=True,
    reason="published count 892 does not match the published lattice data; "
    "computed sweep-stable count is 278 (reported with evidence)",
)
def test_criterion_1d_truncated_square_literal_published_count():
    spec = catalog.get("truncated_square").spec
    assert classify_all(spec, 3, 4).failing == 892


def test_criterion_1e_fixed_tetrominoes():
    assert len(fixed_polyominoes(4)) == 19
    _ok("fixed tetromino enumeration yields 19 shapes")


# -- criterion 2: constant pairs ----------------------------------------------


def _pair_close(got, want, tol=PAIR_TOL):
    return abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol


def _kappas(name, config_name):
    entry = catalog.get(name)
    sr = ingham_constants(entry.spec, entry.default_configs[config_name])
    return sr


def test_criterion_2a_elongated_triangular_pairs():
    entry = catalog.get("elongated_triangular")
    classes = translation_classes(combinations(((0, 0), (0, 1), (1, 0), (1, 1)), 2))
    records = classify_configs(entry.spec, [c.representative for c in classes])
    pairs = [(r.kappa1, r.kappa2) for r in records]
    for want in [(1.77, 2.22), (0.66, 3.33), (0.36, 3.63)]:
        assert any(_pair_close(p, want) for p in pairs), want
    assert len(classes) == 4
    _ok("elongated triangular class pairs (1.77,2.22), (0.66,3.33), (0.36,3.63)")


def test_criterion_2b_snub_square_pairs():
    result = connected_survey(catalog.get("snub_square").spec)
    pairs = {(round(r.kappa1, 7), round(r.kappa2, 7)) for r in result.records}
    assert len(pairs) == 5  # constants invariant under rotations/reflections
    for want in [(1.03, 6.66), (0.16, 7.83), (1.33, 6.66), (1.12, 6.87)]:
        assert any(_pair_close(p, want) for p in pairs), want
    # the fifth class (the square tetromino) computes to (3.33, 4.67)
    assert any(_pair_close(p, (3.3322618, 4.6677382), 1e-6) for p in pairs)
    _ok("snub square five symmetry-class pairs incl. (1.03,6.66); square-block "
        "class computes to (3.33,4.67), published (0.54,2.16) documented-discrepant")


@pytest.mark.xfail(
    strict=True,
    reason="published pair (0.54, 2.16) is infeasible: trace(E E*) = 16 forces "
    "the top eigenvalue of a 4x4 E E* to be at least 4",
)
def test_criterion_2b_snub_square_literal_published_pair():
    sr = _kappas("snub_square", "square_block")
    assert _pair_close((sr.kappa1, sr.kappa2), (0.54, 2.16))


def test_criterion_2c_truncated_square_pairs():
    result = connected_survey(catalog.get("truncated_square").spec)
    pairs = {(r.kappa1, r.kappa2) for r in result.records if r.a2}
    for want in [(1.02, 7.24), (0.71, 6.23), (0.83, 7.33),
                 (1.17, 8.02), (1.24, 7.53), (0.22, 7.92)]:
        assert any(_pair_close(p, want) for p in pairs), want
    _ok("truncated square six printed pairs incl. (1.02,7.24) and (0.22,7.92)")


def test_criterion_2d_six_translate_tilings():
    sr = _kappas("snub_hexagonal", "column")
    assert _pair_close((sr.kappa1, sr.kappa2), (1.0, 7.0))
    sr = _kappas("rhombitrihexagonal", "staircase")
    assert _pair_close((sr.kappa1, sr.kappa2), (0.47, 11.92))
    sr = _kappas("truncated_hexagonal", "staircase")
    assert _pair_close((sr.kappa1, sr.kappa2), (0.15, 15.6))
    _ok("snub hexagonal (1,7); rhombitrihexagonal (0.47,11.92); "
        "truncated hexagonal (0.15,15.6)")


def test_criterion_2e_listed_a2_failures():
    for name in ("snub_hexagonal", "rhombitrihexagonal", "truncated_hexagonal"):
        entry = catalog.get(name)
        assert not _kappas(name, "bad").satisfies_a2, name
        if name != "snub_hexagonal":
            assert not _kappas(name, "column").satisfies_a2, name
    assert not _kappas("truncated_trihexagonal", "block_3x4").satisfies_a2
    _ok("all listed failing configurations violate (A2)")


@pytest.mark.xfail(
    strict=True,
    reason="published pair (2.71, 28.02) matches no reading of the published "
    "lattice data nor any nearby configuration; computed (0.344, 29.535)",
)
def test_criterion_2f_truncated_trihexagonal_literal_published_pair():
    sr = _kappas("truncated_trihexagonal", "block_6x2")
    assert _pair_close((sr.kappa1, sr.kappa2), (2.71, 28.02))


def test_criterion_2f_truncated_trihexagonal_computed_pair_reported():
    sr = _kappas("truncated_trihexagonal", "block_6x2")
    assert sr.satisfies_a2
    assert abs(sr.kappa1 - 0.3442612) <= 1e-6
    assert abs(sr.kappa2 - 29.5352413) <= 1e-6
    report = build_report()
    flagged = [
        d for d in report["summary"]["documented_discrepancies"]
        if d["tiling"] == "truncated_trihexagonal"
    ]
    assert flagged and tuple(flagged[0]["printed"]) == (2.71, 28.02)
    _ok("truncated trihexagonal 6x2 block computes to (0.344, 29.535) and "
        "passes (A2); published (2.71,28.02) documented-discrepant")


# -- criterion 3: geometry ------------------------------------------------------


def test_criterion_3_geometry():
    tri = catalog.get("triangular")
    g = omega_cells(tri.spec, tri.default_configs["base"])
    db = disk_bounds(g)
    assert abs(g.area - 8 * math.pi**2 / math.sqrt(3)) <= 1e-9 * g.area
    assert abs(db.r_sufficient - TWO_PI) <= 1e-9 * TWO_PI
    assert abs(db.r_sufficient - 6.28) <= 5e-3
    assert abs(db.r_necessary - math.sqrt(8 * math.pi / math.sqrt(3))) <= 1e-9 * db.r_necessary
    assert abs(db.r_necessary - 3.8) <= 5e-2

    hc = catalog.get("honeycomb")
    for cfg in ("right", "up"):
        g = omega_cells(hc.spec, hc.default_configs[cfg])
        db = disk_bounds(g)
        assert abs(g.area - 16 * math.pi**2 / (3 * math.sqrt(3))) <= 1e-9 * g.area
        assert abs(db.r_sufficient - TWO_PI * math.sqrt(7) / 3) <= 1e-9 * db.r_sufficient
        assert abs(db.r_sufficient - 5.54) <= 5e-3
        assert abs(db.r_necessary - 4 * math.sqrt(math.pi) / 3**0.75) <= 1e-9 * db.r_necessary
        assert abs(db.r_necessary - 3.11) <= 5e-3

    assert abs(2 * bessel_j0_root() - 4.8096) <= 5e-4

    tri_area = omega_cells(tri.spec, tri.default_configs["base"]).area
    hc_area = omega_cells(hc.spec, hc.default_configs["right"]).area
    assert abs(tri_area / hc_area - 1.5) <= 1e-9
    _ok("triangular and honeycomb areas, diameters and radii; 2*rho=4.8096; "
        "density ratio 1.5")


# -- criterion 4: two-sided estimate, finite shadows ---------------------------


def test_criterion_4_frame_bound_suite(catalog_entries):
    start = time.time()
    for entry in catalog_entries.values():
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        support = _acceptance_support(spec)
        assert len(support) <= 50
        report = frame_bound_check(spec, config, support)
        assert report.a2, spec.name
        assert report.passed, (spec.name, report)
        # interlacing across three nested supports
        prev = None
        for radius in (0, 1, 2):
            eigs = np.linalg.eigvalsh(
                gram_matrix(spec, config, SupportSet.centered(spec, radius))
            )
            if prev is not None:
                assert eigs[0] <= prev[0] + 1e-9
                assert eigs[-1] >= prev[-1] - 1e-9
            prev = eigs

    # M=1 exact equality
    sq = catalog_entries["square"]
    report = frame_bound_check(
        sq.spec, sq.default_configs["base"], SupportSet.centered(sq.spec, 3)
    )
    assert abs(report.lambda_min - TWO_PI**2) <= 1e-9
    assert abs(report.lambda_max - TWO_PI**2) <= 1e-9

    # quadrature oracle, 50 random samples
    rng = np.random.default_rng(20240801)
    names = ["honeycomb", "triangular", "trihexagonal", "elongated_triangular", "square"]
    samples = 0
    for name in names:
        entry = catalog_entries[name]
        config = entry.default_configs[entry.primary_config]
        for _ in range(10):
            p = LatticePoint(int(rng.integers(0, entry.spec.m)),
                             (int(rng.integers(-2, 3)), int(rng.integers(-2, 3))))
            q = LatticePoint(int(rng.integers(0, entry.spec.m)),
                             (int(rng.integers(-2, 3)), int(rng.integers(-2, 3))))
            got = inner_product(entry.spec, config, p, q)
            want = quadrature_inner_product(entry.spec, config, p, q)
            assert abs(got - want) < 1e-6
            samples += 1
    assert samples == 50
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 4 took {elapsed:.1f}s"
    _ok(f"frame-bound suite over all tilings, interlacing, Parseval equality, "
        f"50 quadrature checks ({elapsed:.1f}s)")


# -- criterion 5: removal witness ----------------------------------------------


def test_criterion_5_removal_witness():
    entry = catalog.get("honeycomb")
    spec = entry.spec
    config = entry.default_configs["right"]
    hole = inscribed_hole(spec, config, cell_index=0, area_fraction=0.25)
    supports = [
        SupportSet.box(spec, (0,), (0,)),
        SupportSet.box(spec, (0, 1), (0, 1)),
        SupportSet.box(spec, (-1, 0, 1), (-1, 0, 1)),
        SupportSet.box(spec, (-1, 0, 1, 2), (-1, 0, 1, 2)),
    ]
    assert [len(s) for s in supports] == [2, 8, 18, 32]
    lambdas = removal_witness(spec, config, hole, supports)
    assert all(b < a for a, b in zip(lambdas, lambdas[1:])), lambdas
    assert lambdas[-1] < 0.2 * lambdas[0], lambdas
    _ok(f"quarter-cell removal degrades lambda_min {lambdas[0]:.2f} -> "
        f"{lambdas[-1]:.2f} (< 20%) over supports 2/8/18/32")


# -- criterion 6: algebraic invariants on random draws ---------------------------


def _random_spec_config(rng):
    d = int(rng.choice([1, 2, 3]))
    m = int(rng.integers(1, 5))
    mk = lambda: QuadNumber(
        Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))),
        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))),
        d,
    )
    us = tuple((mk(), mk()) for _ in range(m))
    one, zero = QuadNumber(1), QuadNumber(0)
    spec = LatticeSpec("random", ((one, zero), (zero, one)), us)
    pts = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    idx = rng.choice(len(pts), size=m, replace=False)
    return spec, TranslationConfig(tuple(pts[i] for i in idx))


def test_criterion_6_randomized_invariants():
    rng = np.random.default_rng(20240801)
    for _ in range(200):
        spec, config = _random_spec_config(rng)
        m = spec.m
        e = build_e(spec, config)
        h = e @ e.conj().T
        eigs = np.linalg.eigvalsh((h + h.conj().T) / 2)
        assert abs(np.trace(h).real - m * m) <= 1e-9 * m * m
        det2 = abs(np.linalg.det(e)) ** 2
        assert abs(np.prod(eigs) - det2) <= 1e-7 * max(det2, 1e-12) + 1e-12

        # row/column permutation invariance
        prow = rng.permutation(m)
        pcol = rng.permutation(m)
        eigs_p = np.linalg.eigvalsh(e[np.ix_(prow, pcol)] @ e[np.ix_(prow, pcol)].conj().T)
        assert np.allclose(eigs, eigs_p, atol=1e-9)

        # integer shift of one translate
        j = int(rng.integers(0, m))
        us2 = list(spec.us)
        us2[j] = (us2[j][0] + int(rng.integers(-4, 5)), us2[j][1] + int(rng.integers(-4, 5)))
        e2 = build_e(LatticeSpec("s", spec.l_star, tuple(us2)), config)
        assert np.allclose(e, e2, atol=1e-9)

        # common translation of all n_k
        t = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        moved = TranslationConfig(tuple((a + t[0], b + t[1]) for a, b in config.ns))
        e3 = build_e(spec, moved)
        eigs_t = np.linalg.eigvalsh(e3 @ e3.conj().T)
        assert np.allclose(eigs, eigs_t, atol=1e-9)
    _ok("trace, determinant and kappa-multiset invariants on 200 random draws")


# -- criterion 7: closed-form determinant -----------------------------------------


def test_criterion_7_two_square_delta():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-10, 10, size=(1000, 2))
    assert max(trig_identity_residual(b, g) for b, g in pts) < 1e-12

    for r, R in [(1, 2), (1, 3), (2, 5)]:
        spec = two_square_spec(r, R)
        e = build_e(spec, TranslationConfig(TWO_SQUARE_CONFIG))
        assert abs(abs(two_square_delta(r, R)) - abs(np.linalg.det(e))) <= 1e-8

    rng = np.random.default_rng(20240801)
    for _ in range(100):
        r = Fraction(int(rng.integers(1, 1000)), 100)
        R = r + Fraction(int(rng.integers(1, 1000)), 100)
        if R > 10:
            r, R = r / 2, R / 2
        assert abs(two_square_delta(r, R)) > 1e-10
    _ok("trig identity < 1e-12 on 1000 points; |Delta| = |det E| to 1e-8; "
        "Delta nonzero on 100 random side pairs")


# -- criterion 8: minimal translate count ---------------------------------------


def test_criterion_8_minimality():
    hc = catalog.get("honeycomb")
    witnesses = catalog.minimality_witnesses(hc)
    assert minimality_certificate(hc.spec, witnesses) is True

    q = QuadNumber
    redundant = LatticeSpec(
        "square_two_cosets",
        ((q(2), q(0)), (q(0), q(1))),
        ((q(0), q(0)), (q(Fraction(1, 2)), q(0))),
    )
    assert minimality_certificate(redundant, [qvec(0, 0), qvec(2, 0)]) is False
    _ok("honeycomb minimality certified; redundant two-coset square rejected")


# -- criterion 9: reproduce run ----------------------------------------------------


def test_criterion_9_reproduce_deterministic(tmp_path):
    from ingham.cli import main

    start = time.time()
    code = main(["reproduce", "--out", str(tmp_path / "a")])
    elapsed_one = time.time() - start
    assert code == 0
    assert elapsed_one < 60, f"reproduce took {elapsed_one:.1f}s"
    code = main(["reproduce", "--out", str(tmp_path / "b")])
    assert code == 0
    for rel in ("report.json", "survey_two_square_r1_R2.csv", "survey_snub_square.csv",
                "survey_truncated_square.csv", "survey_trihexagonal.csv"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between runs"
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["summary"]["all_pass"] is True
    _ok(f"reproduce: exit 0 in {elapsed_one:.1f}s, byte-identical across runs")

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lattice_specs, quadrature_hole_inner_product, quadrature_inner_product

from ingham import catalog, gram, qfield
from ingham.errors import FieldMismatchError, HoleOutsideDomainError, SizeMismatchError
from ingham.gram import (
    MAX_SUPPORT,
    SupportSet,
    frame_bound_check,
    gram_matrix,
    hole_gram_matrix,
    hole_inner_product,
    inner_product,
    inscribed_hole,
    removal_witness,
)
from ingham.lattice import LatticePoint, LatticeSpec, vec_add, vec_dot
from ingham.qfield import QuadNumber
from ingham.spectral import TranslationConfig, phase

TWO_PI = 2 * math.pi


def lp(j, m0, m1):
    return LatticePoint(j, (m0, m1))


def test_parseval_square_lattice():
    entry = catalog.get("square")
    config = entry.default_configs["base"]
    support = SupportSet.centered(entry.spec, 2)
    g = gram_matrix(entry.spec, config, support)
    assert np.allclose(g, TWO_PI**2 * np.eye(len(support)), atol=1e-12)


def test_single_exponential_support():
    entry = catalog.get("triangular")
    config = entry.default_configs["base"]
    g = gram_matrix(entry.spec, config, SupportSet.box(entry.spec, [0], [0]))
    omega = TWO_PI**2 / entry.spec.det_l()
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(omega, rel=1e-12)


def test_same_translate_orthogonality_exact():
    entry = catalog.get("trihexagonal")
    config = entry.default_configs["l_tromino"]
    v = inner_product(entry.spec, config, lp(1, 0, 0), lp(1, 2, 1))
    assert v == 0.0


def test_diagonal_is_domain_volume(catalog_entries):
    for entry in catalog_entries.values():
        config = entry.default_configs[entry.primary_config]
        omega = entry.spec.m * TWO_PI**2 / entry.spec.det_l()
        v = inner_product(entry.spec, config, lp(0, 0, 0), lp(0, 0, 0))
        assert v.real == pytest.approx(omega, rel=1e-12)
        assert v.imag == 0.0


def test_inner_product_matches_quadrature_oracle():
    rng = np.random.default_rng(20240801)
    names = ["honeycomb", "triangular", "trihexagonal", "elongated_triangular"]
    checked = 0
    for name in names:
        entry = catalog.get(name)
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        for _ in range(13):
            p = lp(int(rng.integers(0, spec.m)), int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            q = lp(int(rng.integers(0, spec.m)), int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            got = inner_product(spec, config, p, q)
            want = quadrature_inner_product(spec, config, p, q)
            assert abs(got - want) < 1e-6
            checked += 1
    assert checked >= 50


def test_gram_hermitian_psd(catalog_entries):
    for entry in catalog_entries.values():
        config = entry.default_configs[entry.primary_config]
        support = SupportSet.centered(entry.spec, 1)
        g = gram_matrix(entry.spec, config, support)
        assert np.allclose(g, g.conj().T)
        eigs = np.linalg.eigvalsh(g)
        assert eigs[0] >= -1e-9 * max(eigs[-1], 1.0)
        # volume consistency: trace/S = |Omega|
        omega = entry.spec.m * TWO_PI**2 / entry.spec.det_l()
        assert np.trace(g).real / len(support) == pytest.approx(omega, rel=1e-12)


def test_frame_bounds_catalog_primary(catalog_entries):
    for entry in catalog_entries.values():
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        support = SupportSet.centered(spec, 1)
        report = frame_bound_check(spec, config, support)
        assert report.a2, spec.name
        assert report.passed, (spec.name, report)


def test_frame_bounds_square_equality():
    entry = catalog.get("square")
    report = frame_bound_check(entry.spec, entry.default_configs["base"],
                               SupportSet.centered(entry.spec, 3))
    assert report.lambda_min == pytest.approx(TWO_PI**2, rel=1e-12)
    assert report.lambda_max == pytest.approx(TWO_PI**2, rel=1e-12)
    assert report.c1_full == pytest.approx(TWO_PI**2, rel=1e-12)
    assert report.c2_full == pytest.approx(TWO_PI**2, rel=1e-12)


def test_frame_bounds_trihexagonal_12_exponentials():
    entry = catalog.get("trihexagonal")
    support = SupportSet.box(entry.spec, (0, 1), (0, 1))
    assert len(support) == 12
    report = frame_bound_check(entry.spec, entry.default_configs["l_tromino"], support)
    assert report.passed
    scale = TWO_PI**2 / entry.spec.det_l()
    assert report.c1_full == pytest.approx(1.0 * scale, rel=1e-9)
    assert report.c2_full == pytest.approx(4.0 * scale, rel=1e-9)


def test_frame_bounds_degrade_without_a2():
    entry = catalog.get("snub_hexagonal")
    config = entry.default_configs["bad"]
    report = frame_bound_check(entry.spec, config, SupportSet.centered(entry.spec, 0))
    assert not report.a2
    assert report.c1_full == 0.0
    assert report.passed  # upper bound still holds


def test_interlacing_nested_supports():
    entry = catalog.get("snub_hexagonal")
    spec = entry.spec
    config = entry.default_configs["column"]
    prev_min, prev_max = None, None
    for radius in (0, 1, 2):
        g = gram_matrix(spec, config, SupportSet.centered(spec, radius))
        eigs = np.linalg.eigvalsh(g)
        if prev_min is not None:
            assert eigs[0] <= prev_min + 1e-9
            assert eigs[-1] >= prev_max - 1e-9
        prev_min, prev_max = eigs[0], eigs[-1]


def test_monotone_lambda_max_snub_hexagonal_supports():
    entry = catalog.get("snub_hexagonal")
    spec = entry.spec
    config = entry.default_configs["column"]
    scale = TWO_PI**2 / spec.det_l()
    sizes = []
    lmaxes = []
    for xs, ys in [((0,), (0,)), ((0, 1), (0, 1)), ((-1, 0, 1), (-1, 0, 1))]:
        support = SupportSet.box(spec, xs, ys)
        sizes.append(len(support))
        eigs = np.linalg.eigvalsh(gram_matrix(spec, config, support))
        assert eigs[0] >= 1.0 * scale - 1e-6 * 7.0 * scale
        assert eigs[-1] <= 7.0 * scale + 1e-6 * 7.0 * scale
        lmaxes.append(eigs[-1])
    assert sizes == [6, 24, 54]
    assert lmaxes == sorted(lmaxes)


def _hole_setup():
    entry = catalog.get("honeycomb")
    spec = entry.spec
    config = entry.default_configs["right"]
    hole = inscribed_hole(spec, config, cell_index=0, area_fraction=0.25)
    return spec, config, hole


def test_removal_witness_decreasing_and_small():
    spec, config, hole = _hole_setup()
    supports = [
        SupportSet.box(spec, (0,), (0,)),
        SupportSet.box(spec, (0, 1), (0, 1)),
        SupportSet.box(spec, (-1, 0, 1), (-1, 0, 1)),
        SupportSet.box(spec, (-1, 0, 1, 2), (-1, 0, 1, 2)),
    ]
    assert [len(s) for s in supports] == [2, 8, 18, 32]
    lambdas = removal_witness(spec, config, hole, supports)
    assert all(lam > 0 for lam in lambdas)
    assert all(b < a for a, b in zip(lambdas, lambdas[1:]))
    assert lambdas[-1] < 0.2 * lambdas[0]
    # bounded by the no-hole lambda_min
    g = gram_matrix(spec, config, supports[0])
    assert lambdas[0] <= np.linalg.eigvalsh(g)[0] + 1e-9


def test_removal_witness_single_exponential_exact():
    entry = catalog.get("triangular")
    spec = entry.spec
    config = entry.default_configs["base"]
    hole = inscribed_hole(spec, config, cell_index=0, area_fraction=0.25)
    support = SupportSet.box(spec, [0], [0])
    lam = removal_witness(spec, config, hole, [support])[0]
    omega = TWO_PI**2 / spec.det_l()
    hole_area = (hole[2] - hole[0]) * (hole[3] - hole[1])
    assert lam == pytest.approx(omega - hole_area, rel=1e-9)


def test_removal_witness_continuity_in_hole_volume():
    entry = catalog.get("honeycomb")
    spec = entry.spec
    config = entry.default_configs["right"]
    support = SupportSet.box(spec, (0, 1), (0, 1))
    base = np.linalg.eigvalsh(gram_matrix(spec, config, support))[0]
    omega = 2 * TWO_PI**2 / spec.det_l()
    tiny = inscribed_hole(spec, config, 0, area_fraction=1e-6 * omega / (omega / 2))
    lam = removal_witness(spec, config, tiny, [support])[0]
    assert lam == pytest.approx(base, rel=1e-4)
    assert lam < base


def test_hole_must_sit_inside_one_cell():
    entry = catalog.get("honeycomb")
    spec = entry.spec
    config = entry.default_configs["right"]
    with pytest.raises(HoleOutsideDomainError):
        hole_gram_matrix(spec, config, SupportSet.centered(spec, 0), (-50.0, -50.0, -49.0, -49.0))
    with pytest.raises(HoleOutsideDomainError):
        inscribed_hole(spec, config, 0, area_fraction=50.0)


def test_holes_refuse_a_configuration_of_the_wrong_size():
    """Checked before a cell is indexed: cell 3 of a 2-cell configuration
    raised IndexError."""
    spec = catalog.get("snub_square").spec
    config = TranslationConfig.of((0, 0), (1, 0))
    for cell in (0, 3):
        with pytest.raises(SizeMismatchError, match="2 vectors"):
            inscribed_hole(spec, config, cell)
    hole = inscribed_hole(spec, TranslationConfig.of((0, 0), (1, 0), (0, 1), (1, 1)))
    with pytest.raises(SizeMismatchError, match="2 vectors"):
        hole_gram_matrix(spec, config, SupportSet.centered(spec, 0), hole)


def test_gram_refuses_a_configuration_of_the_wrong_size():
    """A 2-cell configuration on snub_square (4 translates) gave a 4x4 matrix
    whose diagonal was the volume of 2 cells."""
    spec = catalog.get("snub_square").spec
    config = TranslationConfig.of((0, 0), (1, 0))
    support = SupportSet.centered(spec, 0)
    with pytest.raises(SizeMismatchError, match="2 vectors"):
        gram_matrix(spec, config, support)
    with pytest.raises(SizeMismatchError, match="2 vectors"):
        inner_product(spec, config, support.items[0], support.items[0])


def test_hole_gram_is_psd_and_bounded():
    spec, config, hole = _hole_setup()
    support = SupportSet.box(spec, (0, 1), (0, 1))
    g_all = gram_matrix(spec, config, support)
    g_hole = hole_gram_matrix(spec, config, support, hole)
    assert np.allclose(g_hole, g_hole.conj().T)
    eigs_hole = np.linalg.eigvalsh(g_hole)
    assert eigs_hole[0] >= -1e-9
    eigs_rest = np.linalg.eigvalsh(g_all - g_hole)
    assert eigs_rest[0] >= -1e-9


# -- the table-built matrices against their scalar oracles ---------------------


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _oracle(entry, items):
    """Upper triangle entry by entry, the lower one conjugated."""
    s = len(items)
    g = np.empty((s, s), dtype=complex)
    for a in range(s):
        for b in range(a, s):
            v = entry(items[a], items[b])
            g[b, a] = v.conjugate()
            g[a, b] = v
    return g


def _random_box(spec, seed, offset=10**15, most=18):
    """A box of one to three points per axis, of at most `most` points where
    the translate count allows, at a random offset in [-offset, offset]."""
    rng = random.Random(seed)
    nx, ny = rng.randint(1, 3), rng.randint(1, 3)
    while spec.m * nx * ny > most and nx * ny > 1:
        nx, ny = (nx - 1, ny) if nx >= ny else (nx, ny - 1)
    x0, y0 = rng.randint(-offset, offset), rng.randint(-offset, offset)
    return SupportSet.box(spec, range(x0, x0 + nx), range(y0, y0 + ny))


def test_gram_matrix_equals_inner_product_oracle(catalog_entries):
    for seed, entry in enumerate(catalog_entries.values()):
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        support = _random_box(spec, seed)
        want = _oracle(lambda p, q: inner_product(spec, config, p, q), support.items)
        assert _same_bits(gram_matrix(spec, config, support), want), spec.name


def test_hole_gram_matrix_equals_hole_inner_product_oracle(catalog_entries):
    for seed, (name, entry) in enumerate(catalog_entries.items()):
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        hole = inscribed_hole(spec, config, 0, area_fraction=0.3)
        support = _random_box(spec, seed)
        want = _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), support.items)
        assert _same_bits(hole_gram_matrix(spec, config, support, hole), want), name


@st.composite
def _boxes(draw, spec, most=24):
    """Boxes of one to three points per axis, of at most `most` points where
    the translate count allows, at offsets up to 2**70."""
    nx = draw(st.integers(1, 3))
    ny = draw(st.integers(1, max(1, min(3, most // (spec.m * nx)))))
    x0, y0 = draw(st.integers(-(2**70), 2**70)), draw(st.integers(-(2**70), 2**70))
    return SupportSet.box(spec, range(x0, x0 + nx), range(y0, y0 + ny))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gram_matrix_random_subsets_match_oracle(catalog_entries, data):
    """Random boxes, each a finite subset of the lattice points."""
    entry = catalog_entries[data.draw(st.sampled_from(sorted(catalog_entries)))]
    spec = entry.spec
    config = entry.default_configs[entry.primary_config]
    support = data.draw(_boxes(spec))
    g = gram_matrix(spec, config, support)
    want = _oracle(lambda p, q: inner_product(spec, config, p, q), support.items)
    assert _same_bits(g, want)
    assert np.array_equal(g, g.conj().T)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hole_gram_matrix_random_subsets_match_oracle(catalog_entries, data):
    entries = dict(catalog_entries, two_square_r1_R2=catalog.get("two_square", r=1, R=2))
    entry = entries[data.draw(st.sampled_from(sorted(entries)))]
    spec = entry.spec
    config = entry.default_configs[entry.primary_config]
    hole = inscribed_hole(spec, config, 0, area_fraction=0.3)
    support = data.draw(_boxes(spec))
    h = hole_gram_matrix(spec, config, support, hole)
    want = _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), support.items)
    assert _same_bits(h, want)
    assert np.array_equal(h, h.conj().T)


@settings(max_examples=40, deadline=None)
@given(spec=lattice_specs(), data=st.data())
def test_gram_matrix_of_random_specs_matches_oracle(spec, data):
    """Translates over unreduced common denominators, in every field."""
    points = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    config = TranslationConfig(tuple(data.draw(
        st.lists(points, min_size=spec.m, max_size=spec.m, unique=True))))
    support = data.draw(_boxes(spec, most=12))
    g = gram_matrix(spec, config, support)
    want = _oracle(lambda p, q: inner_product(spec, config, p, q), support.items)
    assert _same_bits(g, want)


def test_far_apart_supports_match_the_oracles():
    """Boxes of random size at offsets up to 10**15 from the origin."""
    for k, (name, r, R) in enumerate((("snub_square", None, None), ("honeycomb", None, None),
                                      ("two_square", 1, 2))):
        entry = catalog.get(name, r=r, R=R)
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        hole = inscribed_hole(spec, config, 0, area_fraction=0.3)
        support = _random_box(spec, k, most=24)
        items = support.items
        assert max(abs(support.xs[0]), abs(support.ys[0])) > 10**12
        want = _oracle(lambda p, q: inner_product(spec, config, p, q), items)
        assert _same_bits(gram_matrix(spec, config, support), want), name
        want = _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), items)
        assert _same_bits(hole_gram_matrix(spec, config, support, hole), want), name


def test_supports_at_the_coordinate_limit_match_the_oracles():
    """Boxes of random size straddling the configuration limit
    `spectral.COORD_LIMIT` = 2**61 and at 2**62 - 1, which an int64 shift
    between opposite corners would overflow.  Only shifts within the box
    enter a matrix, so supports have no coordinate limit."""
    spec, config, hole = _hole_setup()
    for k, (x0, y0) in enumerate(((2**61 - 2, -(2**61) - 1), (-(2**61), 2**61 - 1),
                                  (2**62 - 1, -(2**62 - 1)))):
        box = _random_box(spec, k, offset=0)
        support = SupportSet.box(spec, range(x0, x0 + len(box.xs)), range(y0, y0 + len(box.ys)))
        items = support.items
        want = _oracle(lambda p, q: inner_product(spec, config, p, q), items)
        assert _same_bits(gram_matrix(spec, config, support), want)
        want = _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), items)
        assert _same_bits(hole_gram_matrix(spec, config, support, hole), want)


def test_sub_boxes_give_principal_submatrices():
    """Why boxes suffice: a box inside another has the matrices of its
    points' rows and columns in the larger one's, bit for bit, so by
    interlacing every finite support is checked by a box that holds it."""
    spec, config, hole = _hole_setup()
    outer = SupportSet.box(spec, range(-2, 3), range(-1, 3))
    g = gram_matrix(spec, config, outer)
    h = hole_gram_matrix(spec, config, outer, hole)
    row = {p: a for a, p in enumerate(outer.items)}
    for xs, ys in ((range(-2, 3), range(-1, 3)), (range(0, 2), range(1, 3)),
                   (range(-1, 0), range(-1, 0)), (range(2, 3), range(-1, 3))):
        inner = SupportSet.box(spec, xs, ys)
        rows = np.array([row[p] for p in inner.items])
        assert _same_bits(gram_matrix(spec, config, inner), g[np.ix_(rows, rows)])
        assert _same_bits(hole_gram_matrix(spec, config, inner, hole), h[np.ix_(rows, rows)])


@pytest.mark.parametrize("offset", [(0, 0), (1, -3), (10**15, -(10**15)), (2**70, 2**70 + 5)])
def test_a_box_has_the_same_matrices_at_every_offset(offset):
    """Past the configuration limit 2**61 too, and there they still have the
    bits of the scalar oracles."""
    for name in ("honeycomb", "snub_square"):
        entry = catalog.get(name)
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
        at_origin = SupportSet.box(spec, range(0, 3), range(0, 2))
        x0, y0 = offset
        support = SupportSet.box(spec, range(x0, x0 + 3), range(y0, y0 + 2))
        g = gram_matrix(spec, config, support)
        h = hole_gram_matrix(spec, config, support, hole)
        assert _same_bits(g, gram_matrix(spec, config, at_origin))
        assert _same_bits(h, hole_gram_matrix(spec, config, at_origin, hole))
        items = support.items
        assert _same_bits(g, _oracle(lambda p, q: inner_product(spec, config, p, q), items))
        assert _same_bits(h, _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), items))


def test_phi_runs_once_per_distinct_key(monkeypatch):
    """One _phi per key (axis, u_x - u_y, shift) of each axis's box: every
    translate pair of the upper triangle with every shift within the span,
    however many entries and slabs share it, and the keys the entries use
    among them."""
    calls = []
    phi = gram._phi
    monkeypatch.setattr(gram, "_phi", lambda *form: calls.append(form) or phi(*form))
    cases = [("honeycomb", 3, 8), ("truncated_trihexagonal", 1, 8)]
    for name, radius, slab_rows in cases:
        entry = catalog.get(name)
        spec = entry.spec
        support = SupportSet.centered(spec, radius)
        items = support.items
        upper = [(p, q) for a, p in enumerate(items) for q in items[a:]]
        used = {
            (c, spec.us[p.j][c] - spec.us[q.j][c], p.m[c] - q.m[c])
            for p, q in upper for c in range(2)
        }
        keys = {
            (c, spec.us[x][c] - spec.us[y][c], s)
            for x, y in {(p.j, q.j) for p, q in upper}
            for c in range(2)
            for s in range(-2 * radius, 2 * radius + 1)
        }
        assert used <= keys
        monkeypatch.setattr(gram, "SLAB_ROWS", slab_rows)
        calls.clear()
        gram_matrix(spec, entry.default_configs[entry.primary_config], support)
        got = Counter(QuadNumber(Fraction(p, r), Fraction(q, r), d) for p, q, r, d in calls)
        assert got == Counter(u + s for _, u, s in keys), name


def test_translates_in_two_fields_match_the_oracles():
    """One field per axis: a translate (sqrt 2/4, sqrt 3/3) beside a rational
    one.  The matrices refuse it as their scalar oracles do, naming both
    fields, whether or not a phase meets both radicals."""
    one, zero = QuadNumber(1), QuadNumber(0)
    mixed = (QuadNumber(0, Fraction(1, 4), 2), QuadNumber(0, Fraction(1, 3), 3))
    spec = LatticeSpec("two fields", ((one, zero), (zero, one)),
                       (mixed, (QuadNumber(Fraction(1, 2)), zero)))
    hole = (1.0, 1.0, 2.0, 2.0)
    support = SupportSet.box(spec, range(0, 3), range(-1, 1))
    items = support.items
    both = r"sqrt\(2\) with sqrt\(3\)"
    # <u_0 - u_1, (1, 0)> lies in one field; <u_0 - u_1, (1, 1)> meets both
    for config in [TranslationConfig.of((0, 0), (1, 0)), TranslationConfig.of((0, 0), (1, 1))]:
        with pytest.raises(FieldMismatchError, match=both):
            _oracle(lambda p, q: inner_product(spec, config, p, q), items)
        with pytest.raises(FieldMismatchError, match=both):
            gram_matrix(spec, config, support)
        with pytest.raises(FieldMismatchError, match=both):
            _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), items)
        with pytest.raises(FieldMismatchError, match=both):
            hole_gram_matrix(spec, config, support, hole)


def test_translates_in_two_fields_on_one_axis_are_refused():
    one, zero = QuadNumber(1), QuadNumber(0)
    us = ((QuadNumber(0, Fraction(1, 4), 2), QuadNumber(Fraction(1, 2))),
          (QuadNumber(0, Fraction(1, 4), 3), zero))
    spec = LatticeSpec("two fields", ((one, zero), (zero, one)), us)
    config = TranslationConfig.of((0, 0), (1, 0))
    support = SupportSet.box(spec, [0], [0])
    with pytest.raises(FieldMismatchError, match="sqrt"):
        gram_matrix(spec, config, support)
    with pytest.raises(FieldMismatchError, match="sqrt"):
        hole_gram_matrix(spec, config, support, (1.0, 1.0, 2.0, 2.0))
    with pytest.raises(FieldMismatchError):
        inner_product(spec, config, *support.items)


def test_slabs_leave_the_bits_unchanged(monkeypatch):
    spec, config, hole = _hole_setup()
    support = SupportSet.centered(spec, 2)  # 25 rows per translate
    g = gram_matrix(spec, config, support)
    h = hole_gram_matrix(spec, config, support, hole)
    monkeypatch.setattr(gram, "SLAB_ROWS", 4)
    assert gram_matrix(spec, config, support).tobytes() == g.tobytes()
    assert hole_gram_matrix(spec, config, support, hole).tobytes() == h.tobytes()


def test_oversized_support_is_refused_before_building():
    spec = catalog.get("truncated_trihexagonal").spec
    assert len(SupportSet.centered(spec, 2)) == 300 <= MAX_SUPPORT
    with pytest.raises(ValueError, match="exceeds"):
        SupportSet.centered(spec, 10**6)
    with pytest.raises(ValueError, match="exceeds"):
        SupportSet.box(spec, range(10**9), range(10**9))


def test_empty_and_non_box_axes_are_refused():
    """An empty box gave a 0x0 matrix, and frame_bound_check failed inside
    numpy on it ("zero-size array to reduction operation maximum")."""
    spec = catalog.get("honeycomb").spec
    with pytest.raises(ValueError, match="axis xs is empty"):
        SupportSet.box(spec, [], [])
    with pytest.raises(ValueError, match="axis ys is empty"):
        SupportSet.box(spec, [0, 1], range(3, 3))
    for xs in ([0, 2], range(-4, 5, 2), [1, 0], range(2, -1, -1), [0, 1, 1], [0, 2, 1]):
        with pytest.raises(ValueError, match="axis xs must be consecutive increasing"):
            SupportSet.box(spec, xs, [0])
        with pytest.raises(ValueError, match="axis ys must be consecutive increasing"):
            SupportSet(spec.m, range(1), xs)
    support = SupportSet.box(spec, [-1, 0, 1], (5, 6))
    assert (support.xs, support.ys, len(support)) == (range(-1, 2), range(5, 7), 12)
    assert support == SupportSet.box(spec, range(-1, 2), range(5, 7))


def test_a_support_for_another_tiling_is_refused():
    """A honeycomb support (2 translates) with the square spec (1 translate)
    raised IndexError inside the table building."""
    square = catalog.get("square")
    spec, config = square.spec, square.default_configs["base"]
    hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
    support = SupportSet.centered(catalog.get("honeycomb").spec, 1)
    calls = [
        lambda: gram_matrix(spec, config, support),
        lambda: hole_gram_matrix(spec, config, support, hole),
        lambda: frame_bound_check(spec, config, support),
        lambda: removal_witness(spec, config, hole, [SupportSet.centered(spec, 0), support]),
    ]
    for call in calls:
        with pytest.raises(SizeMismatchError, match="support has 2 translates, lattice has 1"):
            call()


# -- holes when L* and the translates lie in different fields -------------------


def _two_square_hole():
    entry = catalog.get("two_square", r=1, R=2)  # L* in Q(sqrt 5), translates in Q(sqrt 2)
    config = entry.default_configs[entry.primary_config]
    return entry.spec, config, inscribed_hole(entry.spec, config, 0, area_fraction=0.25)


def test_mixed_field_hole_matches_quadrature_oracle():
    spec, config, hole = _two_square_hole()
    pairs = [
        (lp(0, 0, 0), lp(0, 0, 0)),  # delta = 0 on both axes
        (lp(1, 2, 0), lp(1, 0, 0)),  # delta = 0 on the second axis only
        (lp(0, 0, 0), lp(1, 0, 0)),
        (lp(2, 1, -1), lp(3, 0, 2)),
        (lp(3, -2, 1), lp(0, 1, 1)),
    ]
    for p, q in pairs:
        got = hole_inner_product(spec, hole, p, q)
        want = quadrature_hole_inner_product(spec, hole, p, q)
        assert abs(got - want) < 1e-8, (p, q)
    support = _random_box(spec, 0)
    want = _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), support.items)
    assert _same_bits(hole_gram_matrix(spec, config, support, hole), want)


def test_mixed_field_hole_needs_a_homothety():
    spec, _, hole = _two_square_hole()
    (s, zero), _ = spec.l_star
    sheared = LatticeSpec("sheared", ((s, QuadNumber(1)), (zero, s)), spec.us)
    assert hole_inner_product(sheared, hole, lp(1, 0, 0), lp(1, 1, 0)) != 0  # one field
    with pytest.raises(FieldMismatchError, match="homothety"):
        hole_inner_product(sheared, hole, lp(0, 0, 0), lp(1, 0, 0))


# L*_00 = 1e-250 and u_1 - u_0 = (1e-80, 1/2): delta_0 = 1e-330 is not 0, but
# its float is
STRETCHED = {
    "name": "stretched", "d": 1,
    "l_star": [[{"a": "1e-250"}, {"a": "0"}], [{"a": "0"}, {"a": "1e250"}]],
    "us": [[{"a": "0"}, {"a": "0"}], [{"a": "1e-80"}, {"a": "1/2"}]],
}
STRETCHED_HOLE = (1e249, 1e-251, 2e249, 2e-251)


def test_a_delta_that_underflows_is_refused():
    """The scalar reference and the table both refuse the entry, instead of
    dividing by the float 0.0."""
    spec = catalog.spec_from_json(STRETCHED)
    p, q = lp(0, 0, 0), lp(1, 0, 0)
    with pytest.raises(ValueError, match="underflows"):
        hole_inner_product(spec, STRETCHED_HOLE, p, q)
    config = TranslationConfig.of((0, 0), (1, 0))
    support = SupportSet.box(spec, [0], [0])
    assert support.items == (p, q)
    with pytest.raises(ValueError, match="underflows"):
        hole_gram_matrix(spec, config, support, STRETCHED_HOLE)


# -- the per-shift integer forms against QuadNumber arithmetic ------------------


def _bits(value):
    """A float, complex or None as comparable bits, the sign of a zero included."""
    if value is None:
        return None
    return np.array([value], dtype=complex).tobytes()


def _phi_reference(t):
    """phi(t) from a QuadNumber, with the zero and integer tests of its methods."""
    if t.is_zero():
        return complex(TWO_PI)
    if t.is_integer():
        return 0.0j
    return (phase(t) - 1.0) / (1j * float(t))


@st.composite
def _field_numbers(draw, n):
    """n numbers of one field Q(sqrt d), d drawn with square factors, often
    integer or zero so that the exact branches are taken."""
    d = draw(st.sampled_from((1, 2, 3, 5, 8, 12, 13, 18, 50)))
    dens = st.sampled_from((1, 1, 1, 2, 3, 7, 12, 97, 10**12 + 39))

    def number():
        a = Fraction(draw(st.integers(-9, 9)), draw(dens))
        b = Fraction(draw(st.integers(-3, 3)), draw(dens)) if draw(st.booleans()) else 0
        return QuadNumber(a, b, d)

    return [number() for _ in range(n)]


_INTS = [QuadNumber(k) for k in (1, 0, 0, 2, 3, -1)]


@settings(max_examples=300, deadline=None)
@given(numbers=_field_numbers(6), s0=st.integers(-6, 6), s1=st.integers(-6, 6))
@example(numbers=_INTS, s0=-3, s1=1)  # mu + s = 0: phi's zero branch, both deltas 0
@example(numbers=_INTS, s0=-2, s1=1)  # mu_0 + s_0 = 1: phi's integer branch
def test_integer_forms_match_quadnumber_arithmetic(numbers, s0, s1):
    """phi of (p + s*r, q, r, d) and the float of a `_delta_form` at shift s
    have the bits of phi(mu + s) and float(row . (mu + s)) in QuadNumbers."""
    r00, r01, r10, r11, *mu = numbers
    t = mu[0]
    assert _bits(gram._phi(t.p + s0 * t.r, t.q, t.r, t.d)) == _bits(_phi_reference(t + s0))
    spec = LatticeSpec("random", ((r00, r01), (r10, r11)), ())
    for d, row in enumerate(spec.l_star):
        delta = vec_dot(row, vec_add(mu, (QuadNumber(s0), QuadNumber(s1))))
        want = None if delta.is_zero() else float(delta)
        got = gram._delta(gram._delta_form(spec, tuple(mu), d), s0, s1)
        assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(numbers=_field_numbers(1), s=st.integers(-6, 6), k=st.integers(2, 10**6))
@example(numbers=[QuadNumber(Fraction(1, 3))], s=2, k=3)  # t = 3 over r = 9
def test_phi_of_unreduced_forms_has_the_bits_of_the_canonical_form(numbers, s, k):
    """_phi((p + s*r)*k, q*k, r*k, d): a form over a multiple of the
    denominator, as `gram_matrix` writes every translate difference."""
    t = numbers[0]
    want = gram._phi(t.p + s * t.r, t.q, t.r, t.d)
    assert _bits(gram._phi((t.p + s * t.r) * k, t.q * k, t.r * k, t.d)) == _bits(want)


def test_exact_arithmetic_does_not_grow_with_the_support(monkeypatch):
    """QuadNumbers are built once per translate pair: as many at support
    radius 1 (25 shift vectors per pair) as at radius 3 (169)."""
    made = []
    make = qfield._make
    monkeypatch.setattr(qfield, "_make", lambda *parts: made.append(1) or make(*parts))
    cases = [(catalog.get(name), "right" if name == "honeycomb" else None)
             for name in ("honeycomb", "snub_square")]
    cases.append((catalog.get("two_square", r=1, R=2), None))  # the homothety branch
    for entry, config_name in cases:
        spec = entry.spec
        config = entry.default_configs[config_name or entry.primary_config]
        hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
        counts = []
        for radius in (1, 3):
            support = SupportSet.centered(spec, radius)
            made.clear()
            gram_matrix(spec, config, support)
            built = len(made)
            hole_gram_matrix(spec, config, support, hole)
            counts.append((built, len(made) - built))
        assert counts[0] == counts[1], (spec.name, counts)

import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lattice_specs, quadrature_hole_inner_product, quadrature_inner_product
from gram_oracle import hole_inner_product, inner_product, phase

from ingham import catalog, geometry, gram, qfield, reproduce, spectral
from ingham.errors import FieldMismatchError, HoleOutsideDomainError, SizeMismatchError
from ingham.gram import (
    MAX_SUPPORT,
    SupportSet,
    frame_bound_check,
    gram_matrix,
    hole_gram_matrix,
    inscribed_hole,
    removal_witness,
)
from ingham.lattice import LatticePoint, LatticeSpec, vec_add, vec_dot
from ingham.qfield import QuadNumber
from ingham.spectral import (
    TranslationConfig,
    _int_array,
    hermitian_extremes,
    phase_columns,
)

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


@pytest.mark.parametrize("offset", [0, 10**9, 10**15, -(10**15)])
def test_frame_bounds_are_the_same_at_every_offset(offset):
    """Translating the domain by t turns the Gram matrix into D G D^* with D
    diagonal and unitary, so the spectrum stays.  With the absolute phases
    snub_square square_block read lambda_min 26.04 against 35.26 at
    (10**15, -10**15), failing, and truncated_trihexagonal block_6x2 a
    negative eigenvalue, -35.7."""
    for name, config_name in (("snub_square", "square_block"),
                              ("truncated_trihexagonal", "block_6x2")):
        spec = catalog.get(name).spec
        config = catalog.get(name).default_configs[config_name]
        moved = TranslationConfig(tuple((a + offset, b - offset) for a, b in config.ns))
        support = SupportSet.centered(spec, 1)
        report = frame_bound_check(spec, config, support)
        assert report.passed, name
        assert frame_bound_check(spec, moved, support) == report, (name, offset)


@pytest.mark.parametrize("name, config_name", [("honeycomb", "right"),
                                                 ("snub_square", "square_block")])
def test_removal_witness_moves_the_hole_with_the_configuration(name, config_name):
    """A configuration moved by (10**3, -10**3), with its hole moved by the
    same ambient shift 2*pi*L^-1 (10**3, -10**3), gives the unmoved
    witness: both are taken back to the origin first.  What is left is the
    rounding of the moved hole's corners, 1.2e-12 relative; taken where they
    were given, the lambdas were 8.4e-11 (honeycomb) and 1.5e-10
    (snub_square) off."""
    entry = catalog.get(name)
    spec, config = entry.spec, entry.default_configs[config_name]
    hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
    n0 = (10**3, -(10**3))
    moved = TranslationConfig(tuple((a + n0[0], b + n0[1]) for a, b in config.ns))
    sx, sy = np.linalg.solve(geometry.ambient_l(spec), TWO_PI * np.array(n0, dtype=float))
    far_hole = (hole[0] + sx, hole[1] + sy, hole[2] + sx, hole[3] + sy)
    supports = [SupportSet.centered(spec, k) for k in range(4)]
    want = removal_witness(spec, config, hole, supports)
    assert removal_witness(spec, moved, far_hole, supports) == pytest.approx(want, rel=1e-11)


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


def test_removal_witness_is_lambda_min_of_gram_minus_hole(catalog_entries):
    """One matrix per support, assembled from the difference of the tables,
    has the bits of the difference of the two matrices."""
    for name, entry in catalog_entries.items():
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
        supports = [SupportSet.centered(spec, 0), SupportSet.box(spec, range(-1, 2), range(0, 2))]
        want = [
            hermitian_extremes(gram_matrix(spec, config, support)
                               - hole_gram_matrix(spec, config, support, hole))[0]
            for support in supports
        ]
        assert _bits(np.array(removal_witness(spec, config, hole, supports))) == _bits(
            np.array(want)), name


def _witness_matrix(spec, config, support, hole):
    """The matrix removal_witness takes lambda_min of."""
    return gram._assemble(support, gram._gram_table(spec, config, support)
                          - gram._hole_table(spec, support, hole))


def _spying(monkeypatch, name, calls):
    """Replace gram.<name> by a spy that appends (args, result) to calls."""
    real = getattr(gram, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(gram, name, spy)


def _box(spec, x0, nx, y0, ny):
    return SupportSet.box(spec, range(x0, x0 + nx), range(y0, y0 + ny))


def _witness_cases():
    honeycomb = catalog.get("honeycomb")
    snub = catalog.get("snub_square")
    two = catalog.get("two_square", r=1, R=2)
    return {
        "honeycomb/right 3,0,2,2": (
            honeycomb.spec, honeycomb.default_configs["right"],
            [SupportSet.centered(honeycomb.spec, k) for k in (3, 0, 2, 2)]),
        "honeycomb/right 0..3": (
            honeycomb.spec, honeycomb.default_configs["right"],
            [SupportSet.centered(honeycomb.spec, k) for k in range(4)]),
        # 1x4 and 4x1 do not nest; the 1x1 and 1x2 boxes nest in them
        "snub_square 1x4, 4x1": (
            snub.spec, snub.default_configs[snub.primary_config],
            [_box(snub.spec, 0, 1, 0, 2), _box(snub.spec, 5, 1, -2, 4),
             _box(snub.spec, -7, 4, 3, 1), _box(snub.spec, 10**6, 1, 0, 1)]),
        "two_square r1_R2": (
            two.spec, two.default_configs[two.primary_config],
            [SupportSet.centered(two.spec, k) for k in (1, 0, 2)] + [_box(two.spec, 3, 2, -1, 3)]),
    }


@pytest.mark.parametrize("slab_rows", [gram.SLAB_ROWS, 4])
@pytest.mark.parametrize("case", sorted(_witness_cases()))
def test_witness_matrices_have_the_bits_of_their_own_tables(monkeypatch, case, slab_rows):
    """Each matrix read from a slice of a shared table has the bytes, signed
    zeros included, of the matrix of its own support's tables, and each
    lambda_min the bits of that matrix's."""
    spec, config, supports = _witness_cases()[case]
    hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
    monkeypatch.setattr(gram, "SLAB_ROWS", slab_rows)
    want = [_witness_matrix(spec, config, s, hole) for s in supports]
    assembled = []
    _spying(monkeypatch, "_assemble", assembled)
    lambdas = removal_witness(spec, config, hole, supports)
    assert len(assembled) == len(supports)
    for support, w, lam in zip(supports, want, lambdas):
        (got,) = [g for (s, _), g in assembled if s is support]
        assert _same_bits(got, w), (case, support)
        assert lam.hex() == hermitian_extremes(w)[0].hex(), (case, support)


@pytest.mark.parametrize("case", sorted(_witness_cases()))
def test_witness_tables_are_built_at_the_spans_of_a_support(monkeypatch, case):
    """Tables are built only at a support's own spans, once per set of
    spans that no larger support holds: nested radii make one Gram table and
    one hole table.  The hole is placed once."""
    spec, config, supports = _witness_cases()[case]
    hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
    grams, holes, cells = [], [], []
    _spying(monkeypatch, "_gram_table", grams)
    _spying(monkeypatch, "_hole_table", holes)
    _spying(monkeypatch, "_cell_of_rect", cells)
    removal_witness(spec, config, hole, supports)
    assert len(cells) == 1
    built = [args[2].spans for args, _ in grams]
    assert built == [args[1].spans for args, _ in holes]
    assert len(set(built)) == len(built) and set(built) <= {s.spans for s in supports}
    expected = {"honeycomb/right 3,0,2,2": [(6, 6)], "honeycomb/right 0..3": [(6, 6)],
                "snub_square 1x4, 4x1": [(0, 3), (3, 0)], "two_square r1_R2": [(4, 4)]}
    assert built == expected[case]


@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_foreign_support_is_refused_before_any_table(monkeypatch, where):
    """A support of another tiling, first, inside or last in the list, is
    refused before any table or eigensolve."""
    spec, config, hole = _hole_setup()
    supports = [SupportSet.centered(spec, k) for k in range(4)]
    supports.insert(where, SupportSet.centered(catalog.get("snub_square").spec, 0))
    calls = []
    for name in ("_gram_table", "_hole_table", "hermitian_extremes"):
        _spying(monkeypatch, name, calls)
    with pytest.raises(SizeMismatchError, match="support has 4 translates, lattice has 2"):
        removal_witness(spec, config, hole, supports)
    assert calls == []


def test_gram_matrices_go_to_the_eigensolver_as_they_are(catalog_entries, eigvalsh_inputs):
    """Every frame-bound Gram matrix of the report (each tiling's primary
    configuration at the origin, on its acceptance support) and every
    removal-witness matrix is exactly Hermitian: hermitian_extremes hands it
    to the eigensolver unsymmetrised, with the eigenvalue bits of the
    symmetrised matrix."""
    matrices = []
    for entry in catalog_entries.values():
        spec = entry.spec
        config = entry.default_configs[entry.primary_config]
        x0, y0 = (min(c) for c in zip(*config.ns))
        at_origin = TranslationConfig(tuple((x - x0, y - y0) for x, y in config.ns))
        matrices.append(gram_matrix(spec, at_origin, reproduce._acceptance_support(spec)))
        hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
        supports = [SupportSet.centered(spec, 0), SupportSet.box(spec, range(-1, 2), range(2))]
        matrices += [_witness_matrix(spec, config, support, hole) for support in supports]
    honeycomb = catalog.get("honeycomb")
    spec, config = honeycomb.spec, honeycomb.default_configs["right"]
    hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
    matrices += [_witness_matrix(spec, config, SupportSet.centered(spec, k), hole)
                 for k in range(4)]
    for h in matrices:
        got = hermitian_extremes(h)
        assert eigvalsh_inputs[-1] is h
        w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
        assert np.array(got).tobytes() == np.array([w[0], w[-1]]).tobytes()


def test_hole_must_sit_inside_one_cell():
    entry = catalog.get("honeycomb")
    spec = entry.spec
    config = entry.default_configs["right"]
    support, outside = SupportSet.centered(spec, 0), (-50.0, -50.0, -49.0, -49.0)
    with pytest.raises(HoleOutsideDomainError):
        hole_gram_matrix(spec, config, support, outside)
    with pytest.raises(HoleOutsideDomainError):
        removal_witness(spec, config, outside, [support])
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
    support = SupportSet.centered(spec, 0)
    with pytest.raises(SizeMismatchError, match="2 vectors"):
        hole_gram_matrix(spec, config, support, hole)
    with pytest.raises(SizeMismatchError, match="2 vectors"):
        removal_witness(spec, config, hole, [support])


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
    `lattice.COORD_LIMIT` = 2**61 and at 2**62 - 1, which an int64 shift
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
    """One `_phi` call per matrix, whatever the slabs, over both axes at
    once: it holds each key (axis, translate pair (x, y), shift) once, every
    ordered pair with every shift within its axis's span, and the keys the
    entries use are among them."""
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
        keys = [
            (c, spec.us[x][c] - spec.us[y][c], s)
            for x in range(spec.m)
            for y in range(spec.m)
            for c in range(2)
            for s in range(-2 * radius, 2 * radius + 1)
        ]
        assert used <= set(keys)
        monkeypatch.setattr(gram, "SLAB_ROWS", slab_rows)
        calls.clear()
        gram_matrix(spec, entry.default_configs[entry.primary_config], support)
        assert len(calls) == 1, name
        p, q, r, d = calls[0]
        q = np.broadcast_to(q, p.shape)
        got = Counter(QuadNumber(Fraction(a, r), Fraction(b, r), d)
                      for a, b in zip(p.ravel().tolist(), q.ravel().tolist()))
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
        with pytest.raises(FieldMismatchError, match=both):
            removal_witness(spec, config, hole, [support])


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
    with pytest.raises(FieldMismatchError, match="sqrt"):
        removal_witness(spec, config, (1.0, 1.0, 2.0, 2.0), [support])
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
    # axes longer than sys.maxsize, whose len() raises OverflowError
    with pytest.raises(ValueError, match="exceeds"):
        SupportSet.centered(spec, 10**19)
    with pytest.raises(ValueError, match="exceeds"):
        SupportSet.box(spec, range(2**63), range(1))
    with pytest.raises(ValueError, match="axis ys is empty"):
        SupportSet.box(spec, range(2**63), range(0))


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


@pytest.mark.parametrize("r, R, radius", [("1/3", "2/3", 3), ("2/3", "5/3", 2), ("1/5", "4/5", 2)])
def test_two_square_hole_takes_the_oracle_branch_per_pair(r, R, radius):
    """L* = c*I in Q(sqrt 5), Q(sqrt 29) and Q(sqrt 17), the translates in
    Q(sqrt 2): delta_k is the exact product c*mu_k where mu_k is rational and
    float(c) times the float of mu_k elsewhere, as `hole_inner_product` takes
    it.  The float product for every pair gives other bits at these sides
    and radii (not at radius 1, nor at (1, 3) up to radius 3)."""
    entry = catalog.get("two_square", r=Fraction(r), R=Fraction(R))
    spec, config = entry.spec, entry.default_configs[entry.primary_config]
    hole = inscribed_hole(spec, config, 0, area_fraction=0.25)
    support = SupportSet.centered(spec, radius)
    want = _oracle(lambda p, q: hole_inner_product(spec, hole, p, q), support.items)
    assert _same_bits(hole_gram_matrix(spec, config, support, hole), want)


def test_mixed_field_hole_needs_a_homothety():
    """The oracle refuses the entries whose delta meets both fields; the
    matrices refuse the spec, whatever the support."""
    spec, config, hole = _two_square_hole()
    (s, zero), _ = spec.l_star
    sheared = LatticeSpec("sheared", ((s, QuadNumber(1)), (zero, s)), spec.us)
    assert hole_inner_product(sheared, hole, lp(1, 0, 0), lp(1, 1, 0)) != 0  # one field
    with pytest.raises(FieldMismatchError, match="homothety"):
        hole_inner_product(sheared, hole, lp(0, 0, 0), lp(1, 0, 0))
    hole = inscribed_hole(sheared, config, 0, area_fraction=0.25)
    support = SupportSet.centered(sheared, 0)
    with pytest.raises(FieldMismatchError, match="homothety"):
        hole_gram_matrix(sheared, config, support, hole)
    with pytest.raises(FieldMismatchError, match="homothety"):
        removal_witness(sheared, config, hole, [support])


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
    with pytest.raises(ValueError, match="underflows"):
        removal_witness(spec, config, STRETCHED_HOLE, [support])


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


def _hole_reference(hole, deltas):
    """The hole entry in Python's complex arithmetic, a delta_d of None
    (exactly 0) contributing the side length."""
    x0, y0, x1, y1 = hole
    val = 1.0 + 0.0j
    for df, (lo, hi) in zip(deltas, ((x0, x1), (y0, y1))):
        if df is None:
            val *= hi - lo
        else:
            val *= (cmath.exp(1j * df * hi) - cmath.exp(1j * df * lo)) / (1j * df)
    return val


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
_OVER_SWITCH = [QuadNumber(Fraction(1, 10**12 + 39)), QuadNumber(0), QuadNumber(0),
                QuadNumber(1), QuadNumber(Fraction(3, 10**12 + 39), Fraction(1, 10**12 + 39), 2),
                QuadNumber(1)]


def _ints(values, *more):
    """values as `spectral._int_array` makes them for integers up to the
    largest |v| among values and more, which holds the denominator."""
    return _int_array(values, max(map(abs, [*values, *more])))


def _phi_bits(p, q, r, d):
    """The bits of each phi value of `gram._phi`, as `_bits` gives them."""
    return [_bits(v) for v in gram._phi(p, q, r, d).tolist()]


SHIFTS = range(-6, 7)


@settings(max_examples=300, deadline=None)
@given(numbers=_field_numbers(6))
@example(numbers=_INTS)  # s = (-3, 1): mu + s = 0, phi's zero branch and both deltas 0;
# s_0 = -2: mu_0 + s_0 = 1, phi's integer branch
@example(numbers=_OVER_SWITCH)  # rho*den = (10**12 + 39)**2: Python ints
def test_integer_forms_match_quadnumber_arithmetic(numbers):
    """phi of (p + s*r, q, r, d) and the `_delta` floats of the translate
    difference u_0 - u_1 = mu at every shift s with |s_c| <= 6 have the bits
    of phi(mu + s) and float(row . (mu + s)) in QuadNumbers, and the delta's
    zero mask is where row . (mu + s) is exactly 0."""
    r00, r01, r10, r11, *mu = numbers
    t = mu[0]
    got = _phi_bits(_ints([t.p + s * t.r for s in SHIFTS], t.r), _ints([t.q], t.r), t.r, t.d)
    assert got == [_bits(_phi_reference(t + s)) for s in SHIFTS]
    zero_vec = (QuadNumber(0), QuadNumber(0))
    spec = LatticeSpec("random", ((r00, r01), (r10, r11)), (tuple(mu), zero_vec))
    diffs, spans = gram._differences(spec, SupportSet.box(spec, range(7), range(7)))
    assert spans == (6, 6)
    for k, row in enumerate(spec.l_star):
        values, zeros = gram._delta(spec, diffs, spans, k)
        for s0 in SHIFTS:
            for s1 in SHIFTS:
                delta = vec_dot(row, vec_add(mu, (QuadNumber(s0), QuadNumber(s1))))
                zero = zeros[1, s0 + 6, s1 + 6]  # pair (0, 1)
                assert zero == delta.is_zero()
                if not zero:
                    assert _bits(values[1, s0 + 6, s1 + 6]) == _bits(float(delta))


@settings(max_examples=200, deadline=None)
@given(numbers=_field_numbers(1), k=st.integers(2, 10**6))
@example(numbers=[QuadNumber(Fraction(1, 3))], k=3)  # t + 2 = 7/3 over r = 9
@example(numbers=[QuadNumber(0, Fraction(3, 10**12 + 39), 2)], k=35481)  # r*k past 2**53
def test_phi_of_unreduced_forms_has_the_bits_of_the_canonical_form(numbers, k):
    """`_phi` of ((p + s*r)*k, q*k, r*k, d) at every |s| <= 6: a form over a
    multiple of the denominator, as `gram_matrix` writes every translate
    difference."""
    t = numbers[0]
    want = _phi_bits(_ints([t.p + s * t.r for s in SHIFTS], t.r), _ints([t.q], t.r), t.r, t.d)
    r = t.r * k
    got = _phi_bits(_ints([(t.p + s * t.r) * k for s in SHIFTS], r), _ints([t.q * k], r), r, t.d)
    assert got == want


_FLOATS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                    st.floats(allow_nan=False, allow_infinity=False))
_DIVISORS = st.one_of(st.sampled_from((1e-100, -1e-100, 5e-324, -1.0)),
                      st.floats(allow_nan=False, allow_infinity=False).filter(bool))


@settings(max_examples=500, deadline=None)
@given(re=_FLOATS, im=_FLOATS, t=_DIVISORS)
@example(re=0.0, im=TWO_PI * 1e-100, t=1e-100)  # e^{2 pi i t} - 1 at t = 1e-100
@example(re=0.0, im=-TWO_PI * 1e-100, t=-1e-100)
@example(re=-0.0, im=0.0, t=3.0)
def test_over_i_is_cpython_complex_division(re, im, t):
    """`_over_i` has the bits of complex(re, im) / (1j*t), the signs of zeros
    included: at t = 1e-100 the real part of e^{2 pi i t} - 1 is 0.0 and
    the quotient's imaginary part +0.0, where -(e.re - 1)/t gives -0.0."""
    want = complex(re, im) / (1j * t)
    with np.errstate(over="ignore", invalid="ignore"):  # CPython overflows quietly too
        got_re, got_im = gram._over_i((np.array([re]), np.array([im])), np.array([t]))
    assert _bits(complex(got_re[0], got_im[0])) == _bits(want)


# Python ints and int64 arrays: `_int_array` switches at 2**53.
_SWITCH_DEN = 10**12 + 39


_BELOW_SWITCH = st.integers(-(2**53) + 1, 2**53 - 1)


@settings(max_examples=200, deadline=None)
@given(p=_BELOW_SWITCH, q=_BELOW_SWITCH, d=st.sampled_from((1, 2, 3, 5)),
       den=st.sampled_from((1, 7, _SWITCH_DEN)))
@example(p=2**53 - 1, q=0, d=1, den=_SWITCH_DEN)
@example(p=-(2**53) + 1, q=2**53 - 1, d=3, den=_SWITCH_DEN)
def test_python_int_arrays_have_the_bits_of_int64_arrays(p, q, d, den):
    """Integers below 2**53, where `_int_array` gives int64: `_phase_angle`,
    `quad_float` and `_phi` give the same bits on int64 and on Python-int
    arrays, and the first two those of the scalar Python-int expression.
    Rationals have no radical part, as in `LatticeSpec.form`."""
    q = q if d > 1 else 0
    ps = [p, -p, p // 2]
    ints, objects = (np.array(ps, dtype=t) for t in (np.int64, object))
    qs = [np.array([q], dtype=t) for t in (np.int64, object)]
    for f in (spectral._phase_angle, qfield.quad_float):
        want = _bits(np.array([f(x, q, den, d) for x in ps]))
        for a, b in zip((ints, objects), qs):
            assert _bits(np.asarray(f(a, b, den, d), dtype=float)) == want
    assert _phi_bits(ints, qs[0], den, d) == _phi_bits(objects, qs[1], den, d)


def test_phase_columns_have_the_bits_of_phase_on_both_sides_of_the_switch():
    """Translates in Q(sqrt 2) over the denominator 10**12 + 39 and points
    whose bound lies just below and just above 2**53, and far above it,
    where int64 true division of the radical exponent would round twice:
    each column has the bits of the scalar `phase`."""
    den = _SWITCH_DEN
    us = tuple((QuadNumber(Fraction(a, den), Fraction(b, den), 2),
                QuadNumber(Fraction(c, den), Fraction(e, den), 2))
               for a, b, c, e in ((0, 0, 0, 0), (den // 3, 1, den // 7, 5),
                                  (2 * den // 5, 3, 5, den // 11)))
    one, zero = QuadNumber(1), QuadNumber(0)
    spec = LatticeSpec("switch", ((one, zero), (zero, one)), us)
    assert spec.form[0] == den
    width = max(abs(v) for row in spec.form[2] for part in row for v in part)
    reach = (2**53 - 1) // (2 * width)
    assert 2 * width * reach < 2**53 <= 2 * width * (reach + 1)
    far = [(2**20 + 2 * k + 1, 3 * 2**19 - k) for k in range(40)]
    for points in ([(reach, 1), (-reach, reach - 7)], [(reach + 1, 1), (3, -reach - 1)], far):
        want = [[phase(vec_dot(u, n)) for n in points] for u in spec.us]
        assert phase_columns(spec.form, points).tolist() == want


_SIDES = st.floats(-1e6, 1e6, allow_nan=False)
_DELTAS = st.one_of(st.none(), st.sampled_from((1e-100, -1e-300, 2.0**-1070)),
                    st.floats(-1e6, 1e6, allow_nan=False).filter(bool))


@settings(max_examples=300, deadline=None)
@given(corners=st.tuples(_SIDES, _SIDES, _SIDES, _SIDES),
       deltas=st.lists(st.tuples(_DELTAS, _DELTAS), min_size=1, max_size=6))
@example(corners=(0.0, -0.0, 1.0, 2.0), deltas=[(1e-100, None), (-1.5, -0.25)])
def test_hole_entries_have_the_bits_of_python_complex_arithmetic(corners, deltas):
    """`_hole_entry` on arrays of deltas, None marking an exact zero, has the
    bits of the product in Python's complex arithmetic, entry by entry, and
    so has it on scalars, as `hole_inner_product` calls it."""
    x0, y0, a, b = corners
    hole = (x0, y0, x0 + abs(a), y0 + abs(b))
    axes = [np.array([pair[c] or 0.0 for pair in deltas]) for c in range(2)]
    zeros = [np.array([pair[c] is None for pair in deltas]) for c in range(2)]
    got = gram._hole_entry(hole, axes, zeros)
    for k, pair in enumerate(deltas):
        want = _bits(_hole_reference(hole, pair))
        assert _bits(got[k]) == want
        scalars = [d or 0.0 for d in pair], [d is None for d in pair]
        assert _bits(complex(gram._hole_entry(hole, *scalars))) == want


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

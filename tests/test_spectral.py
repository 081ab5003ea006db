import cmath
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import classes_oracle
from conftest import lattice_specs, trig_identity_residual
from gram_oracle import phase

from ingham import catalog, spectral
from ingham.lattice import vec_dot
from ingham.errors import (
    DegenerateTilingError,
    FieldMismatchError,
    NotHermitianError,
    SizeMismatchError,
)
from ingham.lattice import TWO_SQUARE_CONFIG, LatticeSpec, two_square_spec
from ingham.qfield import QuadNumber
from ingham.spectral import (
    A2_SWEEP,
    COORD_LIMIT,
    Classes,
    D4,
    KEY_LIMIT,
    TranslationConfig,
    a2_holds,
    a2_stable,
    build_e,
    classes,
    config_index,
    spectra,
    symmetries,
    check_a2,
    hermitian_extremes,
    ingham_constants,
    phase_columns,
    two_square_delta,
    two_square_deltas,
)


def cfg(*ns):
    return TranslationConfig.of(*ns)


def random_spec(rng) -> tuple[LatticeSpec, TranslationConfig]:
    d = int(rng.choice([1, 2, 3]))
    m = int(rng.integers(1, 5))
    qn = lambda: QuadNumber(
        Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))),
        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))),
        d,
    )
    us = []
    seen = set()
    while len(us) < m:
        u = (qn(), qn())
        key = (u[0] - us[0][0], u[1] - us[0][1]) if us else None
        us.append(u)
    one = QuadNumber(1)
    zero = QuadNumber(0)
    spec = LatticeSpec("random", ((one, zero), (zero, one)), tuple(us))
    pts = [(int(a), int(b)) for a in range(-3, 4) for b in range(-3, 4)]
    idx = rng.choice(len(pts), size=m, replace=False)
    config = TranslationConfig(tuple(pts[i] for i in idx))
    return spec, config


def test_build_e_trihexagonal_sign_matrix():
    entry = catalog.get("trihexagonal")
    e = build_e(entry.spec, cfg((0, 0), (0, 1), (1, 0)))
    want = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=complex)
    assert np.allclose(e, want, atol=1e-12)


def test_build_e_single_translate():
    entry = catalog.get("square")
    e = build_e(entry.spec, cfg((0, 0)))
    assert e.shape == (1, 1) and e[0, 0] == pytest.approx(1.0)


def test_build_e_snub_hexagonal_vandermonde():
    entry = catalog.get("snub_hexagonal")
    e = build_e(entry.spec, cfg(*[(0, k) for k in range(6)]))
    # column k is w_j^k with w_j a 7th root of unity, exponents {0,1,3,4,5,6}
    ws = [cmath.exp(2j * cmath.pi * t / 7) for t in (0, 1, 3, 4, 5, 6)]
    for j, w in enumerate(ws):
        for k in range(6):
            assert e[j, k] == pytest.approx(w**k, abs=1e-12)


def test_build_e_size_mismatch():
    with pytest.raises(SizeMismatchError):
        build_e(catalog.get("honeycomb").spec, cfg((0, 0)))


def test_constants_of_a_configuration_with_no_cells_are_refused():
    with pytest.raises(ValueError, match="at least one cell"):
        ingham_constants(catalog.get("square").spec, TranslationConfig(()))


def test_build_e_unit_modulus_and_trace(catalog_entries):
    for entry in catalog_entries.values():
        config = entry.default_configs[entry.primary_config]
        e = build_e(entry.spec, config)
        assert np.allclose(np.abs(e), 1.0, atol=1e-12)
        m = entry.spec.m
        trace = np.trace(e @ e.conj().T).real
        assert trace == pytest.approx(m * m, rel=1e-9)


def test_hermitian_extremes_identity():
    assert hermitian_extremes(np.eye(3, dtype=complex)) == (1.0, 1.0)


def test_hermitian_extremes_trihexagonal():
    entry = catalog.get("trihexagonal")
    e = build_e(entry.spec, cfg((0, 0), (0, 1), (1, 0)))
    k1, k2 = hermitian_extremes(e @ e.conj().T)
    assert k1 == pytest.approx(1.0, abs=1e-9)
    assert k2 == pytest.approx(4.0, abs=1e-9)


def test_hermitian_extremes_snub_hexagonal():
    entry = catalog.get("snub_hexagonal")
    e = build_e(entry.spec, cfg(*[(0, k) for k in range(6)]))
    k1, k2 = hermitian_extremes(e @ e.conj().T)
    assert k1 == pytest.approx(1.0, abs=1e-9)
    assert k2 == pytest.approx(7.0, abs=1e-9)


def _exactly_hermitian_matrix(upper) -> np.ndarray:
    """The upper triangle of `upper`, its real diagonal, and below it the
    conjugates of the entries above, as `gram._assemble` fills them."""
    h = np.triu(np.asarray(upper, dtype=complex))
    h[np.diag_indices(len(h))] = h.diagonal().real
    below = np.tril_indices(len(h), -1)
    h[below] = h.T[below].conj()
    return h


def test_an_exactly_hermitian_matrix_goes_to_the_eigensolver_as_it_is(eigvalsh_inputs):
    h = _exactly_hermitian_matrix([[2, 1, 0.5j, 0], [0, 3, 1 - 1j, 0], [0, 0, 1, 0.25],
                                   [0, 0, 0, 4]])
    got = hermitian_extremes(h)
    assert eigvalsh_inputs[-1] is h
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    assert np.array(got).tobytes() == np.array([w[0], w[-1]]).tobytes()


@pytest.mark.parametrize("lower", [
    complex(1.0, 0.0),  # the mirror of 1 + 0j, with the sign of its zero flipped
    complex(1.0 + 1e-11, -0.0),  # off by less than 1e-10
])
def test_a_matrix_not_exactly_hermitian_is_solved_from_its_lower_triangle(eigvalsh_inputs,
                                                                         lower):
    h = _exactly_hermitian_matrix([[2, 1, 0.5j], [0, 3, 1 - 1j], [0, 0, 1]])
    assert np.signbit(h[1, 0].imag)
    h[1, 0] = lower
    got = hermitian_extremes(h)
    assert eigvalsh_inputs[-1] is h
    w = np.linalg.eigvalsh(h)
    assert np.array(got).tobytes() == np.array([w[0], w[-1]]).tobytes()
    symmetrised = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    assert np.allclose(got, [symmetrised[0], symmetrised[-1]], rtol=0, atol=1e-9)


def test_hermitian_extremes_rejects_asymmetric():
    with pytest.raises(NotHermitianError):
        hermitian_extremes(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_ingham_constants_elongated_classes():
    entry = catalog.get("elongated_triangular")
    sr = ingham_constants(entry.spec, cfg((0, 0), (0, 1)))
    assert (sr.kappa1, sr.kappa2) == (
        pytest.approx(1.77, abs=0.015),
        pytest.approx(2.22, abs=0.015),
    )
    sr = ingham_constants(entry.spec, cfg((0, 0), (1, -1)))
    assert (sr.kappa1, sr.kappa2) == (
        pytest.approx(0.36, abs=0.015),
        pytest.approx(3.63, abs=0.015),
    )


def test_ingham_constants_truncated_trihexagonal_block():
    entry = catalog.get("truncated_trihexagonal")
    sr = ingham_constants(entry.spec, entry.default_configs["block_6x2"])
    # frozen computed values; the published (2.71, 28.02) is irreproducible
    assert sr.kappa1 == pytest.approx(0.3442612, abs=1e-6)
    assert sr.kappa2 == pytest.approx(29.5352413, abs=1e-6)
    assert sr.satisfies_a2


def test_ingham_constants_c_full_scaling():
    entry = catalog.get("honeycomb")
    sr = ingham_constants(entry.spec, entry.default_configs["right"])
    det_l = 3 * 3**0.5 / 2
    assert sr.kappa1 == pytest.approx(1.0, abs=1e-12)
    assert sr.kappa2 == pytest.approx(3.0, abs=1e-12)
    assert sr.c1_full == pytest.approx((2 * np.pi) ** 2 / det_l, rel=1e-12)
    assert sr.c2_full == pytest.approx(3 * (2 * np.pi) ** 2 / det_l, rel=1e-12)


def test_check_a2_examples():
    snub_hex = catalog.get("snub_hexagonal")
    assert check_a2(snub_hex.spec, snub_hex.default_configs["column"]) is True
    assert check_a2(snub_hex.spec, snub_hex.default_configs["bad"]) is False
    rh = catalog.get("rhombitrihexagonal")
    assert check_a2(rh.spec, rh.default_configs["staircase"]) is True
    assert check_a2(rh.spec, rh.default_configs["column"]) is False
    sq = catalog.get("square")
    assert check_a2(sq.spec, cfg((0, 0))) is True


def test_check_a2_two_square_r4_has_no_failures_but_tiny_gaps():
    # the eight near-singular configs are genuinely invertible
    spec = two_square_spec(1, 4)
    config = cfg((0, 1), (1, 1), (1, 3), (3, 3))
    sr = ingham_constants(spec, config)
    assert sr.satisfies_a2
    assert sr.det_abs == pytest.approx(1.0916498e-3, rel=1e-4)
    assert sr.kappa1 / sr.kappa2 < 1e-8  # why a ratio criterion cannot work


# each threshold, its float neighbours, and the values no threshold separates
SWEEP_EDGES = (0.0, math.inf, math.nan, *A2_SWEEP) + tuple(
    float(np.nextafter(t, side)) for t in A2_SWEEP for side in (0.0, math.inf)
)


@given(st.lists(st.sampled_from(SWEEP_EDGES) | st.floats(0.0, 1.0), max_size=6))
@example(list(SWEEP_EDGES))  # every edge, also one at a time
def test_a2_stable_is_one_failing_count_over_the_sweep(dets):
    for batch in [dets] + [[d] for d in dets]:
        counts = {sum(1 for d in batch if d <= t) for t in A2_SWEEP}
        assert a2_stable(np.array(batch, dtype=float)) is (len(counts) == 1), batch


def test_two_square_spec_exact_components():
    spec = two_square_spec(1, 3)
    # A cos(alpha) = 3/(10 sqrt2) = (3/20) sqrt2, A sin(alpha) = (1/20) sqrt2
    ac = QuadNumber(0, Fraction(3, 20), 2)
    as_ = QuadNumber(0, Fraction(1, 20), 2)
    assert spec.us[0] == (as_, ac)
    assert spec.us[1] == (-ac, as_)
    assert spec.us[3] == (ac, -as_)


def test_two_square_antipodal_symmetry():
    spec = two_square_spec(2, 5)
    assert spec.us[0][0] + spec.us[2][0] == QuadNumber(0)
    assert spec.us[0][1] + spec.us[2][1] == QuadNumber(0)
    assert spec.us[1][0] + spec.us[3][0] == QuadNumber(0)


def test_two_square_degenerate():
    with pytest.raises(DegenerateTilingError):
        two_square_spec(1, 1)
    with pytest.raises(DegenerateTilingError):
        two_square_spec(0, 2)


@pytest.mark.parametrize("r, R", [(0.1, 0.5), (1, "3")])
def test_two_square_sides_that_are_not_ints_or_fractions_are_refused(r, R):
    with pytest.raises(TypeError, match="expected an int or a Fraction"):
        two_square_spec(r, R)


def test_two_square_delta_matches_determinant():
    for r, R in [(1, 2), (1, 3), (2, 5)]:
        spec = two_square_spec(r, R)
        e = build_e(spec, TranslationConfig(TWO_SQUARE_CONFIG))
        assert abs(two_square_delta(r, R)) == pytest.approx(
            abs(np.linalg.det(e)), abs=1e-8
        )


def test_two_square_delta_nonzero_random():
    rng = np.random.default_rng(20240801)
    for _ in range(100):
        r = Fraction(int(rng.integers(1, 1000)), 100)
        R = r + Fraction(int(rng.integers(1, 1000)), 100)
        if R > 10:
            r, R = r / 2, R / 2
        assert abs(two_square_delta(r, R)) > 1e-10


def _python_two_square_delta(r, R) -> complex:
    """The closed form in Python's complex arithmetic and cmath, as one
    expression."""
    r, R = Fraction(r), Fraction(R)
    s = R * R + r * r
    c = cmath.exp(2j * math.pi * (float(r * R) / (math.sqrt(2.0) * float(s))))
    d = cmath.exp(2j * math.pi * (float(r * r) / (math.sqrt(2.0) * float(s))))
    return (c * c - 1) * (d * d - 1) * (c * c * d * d - 4 * c * d + c * c + d * d + 1)


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


# integer sides p < P over a denominator n, every one below 2**26
two_square_sides = st.tuples(
    st.integers(1, 2**25 - 1), st.integers(1, 2**25), st.integers(1, 2**26 - 1)
).map(lambda t: (t[0], t[0] + t[1], t[2]))


@settings(max_examples=200, deadline=None)
@given(sides=two_square_sides)
@example(sides=(999, 1000, 1000))
@example(sides=(1, 2, 1))
def test_two_square_delta_has_the_bits_of_the_python_expression(sides):
    p, P, n = sides
    assert _hex(two_square_delta(Fraction(p, n), Fraction(P, n))) == _hex(
        _python_two_square_delta(Fraction(p, n), Fraction(P, n)))


@settings(max_examples=50, deadline=None)
@given(sides=st.lists(two_square_sides, min_size=1, max_size=30))
def test_two_square_deltas_have_the_bits_of_the_scalar_form(sides):
    got = two_square_deltas(*(np.array(column) for column in zip(*sides))).tolist()
    want = [two_square_delta(Fraction(p, n), Fraction(P, n)) for p, P, n in sides]
    assert list(map(_hex, got)) == list(map(_hex, want))


def test_scalar_two_square_delta_stays_in_python_floats(monkeypatch):
    """The scalar form takes cmath.exp on Python floats, never numpy, and has
    the bits of the array form at seeded sides."""
    rng = random.Random(20261021)
    sides = []
    for _ in range(500):
        p, n = rng.randint(1, 2**25 - 1), rng.randint(1, 2**26 - 1)
        sides.append((p, rng.randint(p + 1, 2**26 - 1), n))
    want = two_square_deltas(*(np.array(column) for column in zip(*sides))).tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("the scalar two_square_delta called np.exp")

    monkeypatch.setattr(np, "exp", refuse)
    got = [two_square_delta(Fraction(p, n), Fraction(P, n)) for p, P, n in sides]
    assert all(type(z) is complex for z in got)
    assert list(map(_hex, got)) == list(map(_hex, want))


@pytest.mark.parametrize("sides", [(0, 1, 1), (2, 2, 1), (1, 2**26, 1), (1, 2, 0), (1, 2, 2**26),
                                   ([1, 3], [2, 3], 1), (Fraction(3, 2), 2, 1), (1.9, 2, 1),
                                   (1, 2**70, 1), (np.uint64(2**63), 2**63 + 1, 1)])
def test_two_square_deltas_refuse_sides_outside_the_exact_range(sides):
    """Fractions and floats too: cast to int64 they were truncated, and
    (3/2, 2) gave the delta of (1, 2)."""
    with pytest.raises(ValueError, match="two-square sides"):
        two_square_deltas(*sides)


def test_two_square_delta_finite_near_degenerate():
    val = two_square_delta(Fraction(999, 1000), 1)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_trig_identity_residual():
    assert trig_identity_residual(0.0, 0.0) == 0.0
    alpha = np.arctan(1 / 3)
    assert trig_identity_residual(np.pi * np.cos(alpha), np.pi * np.sin(alpha)) < 1e-12
    rng = np.random.default_rng(42)
    pts = rng.uniform(-10, 10, size=(1000, 2))
    assert max(trig_identity_residual(b, g) for b, g in pts) < 1e-12


def test_trace_and_det_invariants_random():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        spec, config = random_spec(rng)
        e = build_e(spec, config)
        m = spec.m
        h = e @ e.conj().T
        assert np.trace(h).real == pytest.approx(m * m, rel=1e-9)
        eigs = np.linalg.eigvalsh((h + h.conj().T) / 2)
        det2 = abs(np.linalg.det(e)) ** 2
        assert np.prod(eigs) == pytest.approx(det2, rel=1e-7, abs=1e-12)
        assert eigs[-1] <= m * m + 1e-9
        assert eigs[0] >= -1e-9


def test_kappa_invariance_under_permutations_shifts_translations():
    rng = np.random.default_rng(99)
    entry = catalog.get("snub_square")
    spec = entry.spec
    base_cfg = TranslationConfig.of((0, 0), (0, 1), (1, 0), (2, 1))
    base = np.linalg.eigvalsh(_gram_of(spec, base_cfg))
    # column permutation
    perm_cfg = TranslationConfig.of((2, 1), (0, 0), (1, 0), (0, 1))
    assert np.allclose(base, np.linalg.eigvalsh(_gram_of(spec, perm_cfg)), atol=1e-9)
    # common translation of all n_k
    for _ in range(5):
        t = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        moved = TranslationConfig(tuple((a + t[0], b + t[1]) for a, b in base_cfg.ns))
        assert np.allclose(base, np.linalg.eigvalsh(_gram_of(spec, moved)), atol=1e-9)
    # integer shift of one translate leaves E entrywise unchanged
    shifted_us = list(spec.us)
    shifted_us[2] = (spec.us[2][0] + 5, spec.us[2][1] - 7)
    shifted = LatticeSpec(spec.name, spec.l_star, tuple(shifted_us))
    assert np.allclose(
        build_e(spec, base_cfg), build_e(shifted, base_cfg), atol=1e-9
    )


def _gram_of(spec, config):
    e = build_e(spec, config)
    h = e @ e.conj().T
    return (h + h.conj().T) / 2


def test_snub_square_symmetry_of_pairs():
    # applying the 8 square-grid symmetries to the cells leaves the pair unchanged
    entry = catalog.get("snub_square")
    shape = ((0, 0), (0, 1), (0, 2), (1, 0))

    def canon(cells):
        mx = min(c[0] for c in cells)
        my = min(c[1] for c in cells)
        return tuple(sorted((x - mx, y - my) for x, y in cells))

    images = set()
    for refl in (False, True):
        pts = [(-x, y) if refl else (x, y) for x, y in shape]
        for _ in range(4):
            pts = [(-y, x) for x, y in pts]
            images.add(canon(pts))
    pairs = set()
    for img in images:
        sr = ingham_constants(entry.spec, TranslationConfig(img))
        pairs.add((round(sr.kappa1, 9), round(sr.kappa2, 9)))
    assert len(pairs) == 1


# -- certified symmetries and classes -------------------------------------------

IDENTITY, MINUS_I = ((1, 0), (0, 1)), ((-1, 0), (0, -1))

GROUP_ORDERS = {
    "square": 8, "triangular": 8, "trihexagonal": 8, "snub_square": 8,
    "honeycomb": 4, "rhombitrihexagonal": 4, "truncated_hexagonal": 4,
    "truncated_trihexagonal": 4, "two_square_r1_R2": 4,
    "elongated_triangular": 2, "snub_hexagonal": 2, "truncated_square": 2,
}


def _spec(name):
    return catalog.get(name).spec


def _move(a, cells, t=(0, 0)):
    """A n + t for each cell n."""
    return [
        (a[0][0] * x + a[0][1] * y + t[0], a[1][0] * x + a[1][1] * y + t[1]) for x, y in cells
    ]


def _oracle(spec, cells):
    """|det E|, kappa1 and kappa2 of one configuration, straight from build_e."""
    e = build_e(spec, TranslationConfig(tuple(cells)))
    eigs = np.linalg.eigvalsh(e @ e.conj().T)
    return abs(np.linalg.det(e)), max(eigs[0], 0.0), eigs[-1]


class _Draws:
    """Stands in for `st.data()` in an explicit example: `draw` returns the
    given values in order, whatever the strategy."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


def test_symmetry_group_orders():
    assert set(GROUP_ORDERS) == set(catalog.names()) - {"two_square"} | {"two_square_r1_R2"}
    for name, order in GROUP_ORDERS.items():
        group = symmetries(_spec(name))
        assert len(group) == order, name
        assert group[0] == IDENTITY and MINUS_I in group, name
        assert all(a in D4 for a in group)
        # a group: closed under products
        for a in group:
            for b in group:
                ab = tuple(
                    tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                    for i in range(2)
                )
                assert ab in group, (name, a, b)


@settings(max_examples=200)
@given(
    spec=st.one_of(st.sampled_from(sorted(GROUP_ORDERS)).map(_spec), lattice_specs()),
    data=st.data(),
)
@example(spec=_spec("elongated_triangular"),  # |dkappa1| 2.26e-13, past a bound in |u| alone
         data=_Draws([(3, 4), (1, 4)], MINUS_I, (-2, 40)))
def test_certified_symmetries_keep_the_spectrum(spec, data):
    """Against build_e and numpy per configuration: a configuration, its
    image under a certified A and a translation, reordered, have one verdict
    and kappas within 1e-13 * kappa2; the class path gives both of them
    identical bits and agrees with the oracle.  A phase's float error grows
    with its argument <u_j, n_k>, and the translations reach +-50, so the
    bound is scaled by the largest |<u_j, n_k>| of both configurations past 1."""
    box = [(x, y) for x in range(5) for y in range(5)]
    cells = data.draw(st.lists(st.sampled_from(box), min_size=spec.m, max_size=spec.m,
                               unique=True))
    a = data.draw(st.sampled_from(symmetries(spec)))
    t = data.draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    moved = _move(a, cells, t)[::-1]
    det0, k10, k20 = _oracle(spec, cells)
    det1, k11, k21 = _oracle(spec, moved)
    arg = max(abs(float(vec_dot(u, n))) for u in spec.us for n in cells + moved)
    tol = 1e-13 * k20 * max(1.0, arg)
    assert a2_holds(det0) == a2_holds(det1)
    assert abs(k10 - k11) <= tol and abs(k20 - k21) <= tol
    cls = classes(symmetries(spec), *config_index([cells, moved]))
    assert cls.of[0] == cls.of[1] and len(cls.idx) == 1
    det, k1, k2 = spectra(spec, cls.points, cls.idx)
    assert bool(a2_holds(det[0])) == a2_holds(det0)
    assert abs(k1[0] - k10) <= tol and abs(k2[0] - k20) <= tol
    sr = ingham_constants(spec, TranslationConfig(tuple(moved)))
    assert (sr.kappa1, sr.kappa2, sr.det_abs) == (k1[0], k2[0], det[0])


def test_symmetries_certify_a_vector_mixing_two_fields():
    """The x coordinates lie in Q(sqrt 3) and Q(sqrt 2), so the c of the
    reflections would mix both fields: no symmetry is certified, and the
    spectra a symmetry would keep are refused too, each naming both fields."""
    one, zero = QuadNumber(1), QuadNumber(0)
    us = ((QuadNumber(0, Fraction(1, 4), 3), QuadNumber(0, Fraction(-1, 2), 2)),
          (QuadNumber(Fraction(3, 2), -1, 2), QuadNumber(2)),
          (QuadNumber(Fraction(3, 4), Fraction(1, 4), 3), QuadNumber(3)),
          (QuadNumber(Fraction(9, 4), -1, 2), QuadNumber(1, Fraction(-1, 2), 2)))
    spec = LatticeSpec("two fields", ((one, zero), (zero, one)), us)
    cells = [(0, 0), (1, 0), (0, 2), (-3, 0)]
    calls = [
        lambda: symmetries(spec),
        lambda: _oracle(spec, cells),
        lambda: _oracle(spec, _move(MINUS_I, cells)),
        lambda: ingham_constants(spec, TranslationConfig(tuple(cells))),
        lambda: spectra(spec, *config_index([cells])),
    ]
    for call in calls:
        with pytest.raises(FieldMismatchError, match=r"sqrt\(2\) with sqrt\(3\)"):
            call()


def test_uncertified_symmetries_change_verdicts():
    """The negative control: every element of D4 outside a tiling's certified
    group changes the (A2) verdict of some of 300 seeded configurations."""
    rng = np.random.default_rng(20240801)
    box = [(x, y) for x in range(5) for y in range(5)]
    checked = 0
    for name in sorted(GROUP_ORDERS):
        spec = _spec(name)
        configs = [[box[k] for k in rng.choice(len(box), spec.m, replace=False)]
                   for _ in range(300)]
        verdict = lambda cfgs: a2_holds(spectra(spec, *config_index(cfgs))[0])
        base = verdict(configs)
        for a in D4:
            if a not in symmetries(spec):
                assert np.any(verdict([_move(a, c) for c in configs]) != base), (name, a)
                checked += 1
    assert checked == 5 * 4 + 3 * 6  # orders 4 and 2; the four of order 8 have none


def _rational_spec(m, seed):
    """l_star = I and m random rational translates distinct mod Z^2, so every
    phase is exact mod 1 however large the coordinates."""
    rng = np.random.default_rng(seed)
    one, zero = QuadNumber(1), QuadNumber(0)
    us = {}
    while len(us) < m:
        u = tuple(Fraction(int(rng.integers(0, 97)), 97) for _ in range(2))
        us[u] = (QuadNumber(u[0]), QuadNumber(u[1]))
    return LatticeSpec("rational", ((one, zero), (zero, one)), tuple(us.values()))


def _canonical(cells, group):
    """The canonical configuration, by brute force in Python."""
    forms = []
    for a in group:
        moved = _move(a, cells)
        mx, my = min(x for x, _ in moved), min(y for _, y in moved)
        forms.append(tuple(sorted((x - mx, y - my) for x, y in moved)))
    return min(forms)


def test_wide_m12_configurations_match_the_oracle():
    """Coordinates near +-10**6 at M = 12: one row is 24 numbers of span 2e6,
    far past one int64, so a packed or wrapped key would merge classes."""
    spec = _rational_spec(12, 5)
    rng = np.random.default_rng(11)
    base = [
        [tuple(int(v) for v in rng.integers(-10**6, 10**6, 2)) for _ in range(12)]
        for _ in range(6)
    ]
    configs = base + [_move(MINUS_I, c, (3, -10**6)) for c in base]
    configs += [_move(IDENTITY, c, (7, 7)) for c in base]
    assert symmetries(spec) == (IDENTITY, MINUS_I)
    cls = classes(symmetries(spec), *config_index(configs))
    canon = [_canonical(c, symmetries(spec)) for c in configs]
    assert [tuple(cls.points[k] for k in cls.idx[c]) for c in cls.of] == canon
    assert len(cls.idx) == 6
    det, k1, k2 = spectra(spec, cls.points, cls.idx)
    for i, cells in enumerate(configs):
        want = _oracle(spec, cells)
        c = cls.of[i]
        assert bool(a2_holds(det[c])) == bool(a2_holds(want[0]))
        assert abs(k1[c] - want[1]) <= 1e-13 * want[2]
        assert abs(k2[c] - want[2]) <= 1e-13 * want[2]


def _assert_same_classes(got, want):
    assert got.points == want.points
    for a, b in ((got.idx, want.idx), (got.of, want.of)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Box sides s on both sides of every dtype switch of `classes` (`_int_type`),
# for cells in [0, s]**2: the image words, int16 while (s + 1)**(2m) <= 2**15
# (s = 180, 12, 4, 2 for m = 1 to 4) and int32 while below 2**31 (s =
# 46339, 214, 34, 13, 7, 4 for m = 1 to 6); the image cell codes, int16 up to
# s = 180; the point codes and key, int16 while (s + 1)(2s + 1) <= 2**14 (s =
# 89) and int32 up to 2**30 (s = 23169); the representatives' coordinates,
# int16 up to s = 32767.  Each is listed with the side past it.
SWITCH_SIDES = (2, 3, 4, 5, 7, 8, 12, 13, 14, 34, 35, 89, 90, 180, 181, 214, 215,
                23169, 23170, 32767, 32768, 46339, 46340)

# coordinates: a 6 x 6 box (twelve cells there need two key words), a wide
# square, values within 2 of +-COORD_LIMIT (ranked image coordinates), and a
# box [0, s]**2 of a side s from SWITCH_SIDES, shared by every cell of a draw
# (each coordinate the least of s and an integer up to the largest side, so s
# and 0 are drawn often and some configuration spans the box)
CLASS_COORDS = {
    "box": st.integers(0, 5),
    "wide": st.integers(-10**6, 10**6),
    "limit": st.sampled_from([COORD_LIMIT - 1, COORD_LIMIT - 2, 2 - COORD_LIMIT, 1 - COORD_LIMIT,
                              -1, 0, 1]),
    "switch": st.tuples(st.shared(st.sampled_from(SWITCH_SIDES), key="box side"),
                        st.integers(0, max(SWITCH_SIDES))).map(min),
}


@st.composite
def class_batches(draw):
    """A catalog tiling's certified group or the identity alone (`D4[:1]`, the
    translation classes), a point list and an index array: configurations
    of 1 to 12 cells, some of them images of others under the group and a
    translation, some repeated, cells in any order, the points sorted or
    not."""
    names = sorted(GROUP_ORDERS)
    group = draw(st.sampled_from([D4[:1]] + [symmetries(_spec(name)) for name in names]))
    m = draw(st.integers(1, 12))
    coord = CLASS_COORDS[draw(st.sampled_from(sorted(CLASS_COORDS)))]
    cells = st.lists(st.tuples(coord, coord), min_size=m, max_size=m, unique=True)
    configs = draw(st.lists(cells, min_size=1, max_size=8))
    for k, a, t in draw(st.lists(st.tuples(st.integers(0, len(configs) - 1),
                                           st.sampled_from(group),
                                           st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
                                 max_size=8)):
        moved = _move(a, configs[k], t)
        if all(-COORD_LIMIT < c < COORD_LIMIT for p in moved for c in p):
            configs.append(moved)
    configs += [configs[k] for k in draw(st.lists(st.integers(0, len(configs) - 1), max_size=4))]
    configs = [draw(st.permutations(c)) for c in configs]
    points, idx = config_index(configs)
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(points))))
        where = np.argsort(order)
        points, idx = [points[k] for k in order], where[idx]
    return group, points, idx


@settings(max_examples=300, deadline=None)
@given(class_batches())
@example((D4, [], np.zeros((0, 1), dtype=np.intp)))  # no configurations
@example((D4[:1], [(0, 0), (1, 2)], np.zeros((0, 4), dtype=np.intp)))
def test_classes_match_the_coordinate_pair_reduction(batch):
    _assert_same_classes(classes(*batch), classes_oracle.classes(*batch))


@settings(max_examples=300, deadline=None)
@given(class_batches())
def test_classes_by_networks_match_the_coordinate_pair_reduction(batch):
    """The batches above are too small for the compare-exchange networks;
    with no threshold every sort of `classes` goes through them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "NETWORK_ROWS_PER_EXCHANGE", 0)
        got = classes(*batch)
    _assert_same_classes(got, classes_oracle.classes(*batch))


@pytest.mark.parametrize("m, side", [
    (2, 12), (2, 13), (3, 4), (3, 5), (4, 2), (4, 3),  # image words int16 | int32
    (2, 214), (2, 215), (3, 34), (3, 35), (4, 13), (4, 14), (5, 7), (5, 8), (6, 4), (6, 5),
    (2, 180), (2, 181),  # image cell codes int16 | int32
    (3, 89), (3, 90), (3, 23169), (3, 23170),  # point codes and key int16 | int32 | int64
    (2, 32767), (2, 32768),  # representatives' coordinates int16 | int32
])
def test_classes_on_both_sides_of_each_dtype_switch(m, side):
    """Configurations of m cells in the box [0, side]**2, the first spanning
    it, a translate inside the box and the images under D4 moved back into
    it, on each side of a switch of SWITCH_SIDES, equal the coordinate-pair
    reduction, in one chunk and by the networks.  (A configuration of one
    cell has a box of side 0, so m = 1 never reaches a switch.)"""
    rng = np.random.default_rng(side * 16 + m)

    def cells(lo, hi, *fixed):
        out = set(fixed)
        while len(out) < m:
            out.add(tuple(int(v) for v in rng.integers(lo, hi + 1, 2)))
        return sorted(out)

    half = side // 2
    configs = [cells(0, side, (0, 0), (side, side)), cells(0, side), cells(0, half)]
    configs.append(_move(IDENTITY, configs[-1], (side - half, side - half)))
    for a, c in zip(D4[1:], configs * 2):
        moved = _move(a, c)
        configs.append(_move(IDENTITY, moved, tuple(side * (min(v) < 0) for v in zip(*moved))))
    batch = (D4, *config_index(configs + configs[:2]))
    got = classes(*batch)
    assert max(map(max, got.points)) == side  # the spanning configuration's box
    _assert_same_classes(got, classes_oracle.classes(*batch))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "NETWORK_ROWS_PER_EXCHANGE", 0)
        _assert_same_classes(classes(*batch), classes_oracle.classes(*batch))


ONE_ROW_COORDS = {**CLASS_COORDS, "span": st.integers(1 - COORD_LIMIT, COORD_LIMIT - 1)}
PAST_THE_LIMIT = [COORD_LIMIT, -COORD_LIMIT, 10**20]


@st.composite
def one_rows(draw):
    """A group (every catalog tiling's, `D4[:1]` or `D4`), the cells of one
    configuration of 1 to 12 cells in any order, a translation that keeps
    them inside the coordinate limit, and, in some draws, a coordinate
    moved past the limit."""
    names = sorted(GROUP_ORDERS)
    group = draw(st.sampled_from([D4[:1], D4] + [symmetries(_spec(name)) for name in names]))
    m = draw(st.integers(1, 12))
    coord = ONE_ROW_COORDS[draw(st.sampled_from(sorted(ONE_ROW_COORDS)))]
    cells = draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m, unique=True))
    xs, ys = zip(*cells)
    t = (draw(st.integers(1 - COORD_LIMIT - min(xs), COORD_LIMIT - 1 - max(xs))),
         draw(st.integers(1 - COORD_LIMIT - min(ys), COORD_LIMIT - 1 - max(ys))))
    if draw(st.integers(0, 9)) == 0:
        k, c = draw(st.integers(0, m - 1)), draw(st.integers(0, 1))
        cell = list(cells[k])
        cell[c] = draw(st.sampled_from(PAST_THE_LIMIT))
        cells[k] = tuple(cell)
    return group, cells, t


@settings(max_examples=150, deadline=None)
@given(one_rows())
@example((D4, [(0, 0), (2, 1), (0, 0)], (3, -4)))  # a repeated cell
@example((D4[:1], [(COORD_LIMIT - 1, 1 - COORD_LIMIT), (1 - COORD_LIMIT, COORD_LIMIT - 1)], (0, 0)))
def test_one_row_matches_the_batch_path_and_the_oracle(row):
    """`classes` of one row (its one-row path) equals the coordinate-pair
    reduction of that row, and the batch path, which the row and a
    translated copy take: the same points, idx and dtypes, with `of` [0]
    beside [0, 0].  A coordinate past the limit is refused by all three."""
    group, cells, t = row
    points = sorted(set(cells))
    one = np.array([[points.index(c) for c in cells]], dtype=np.intp)
    moved = [(x + t[0], y + t[1]) for x, y in cells]
    pair_points = sorted(set(cells) | set(moved))
    pair = np.array([[pair_points.index(c) for c in cfg] for cfg in (cells, moved)],
                    dtype=np.intp)
    if not all(-COORD_LIMIT < c < COORD_LIMIT for p in cells for c in p):
        for call in (classes, classes_oracle.classes):
            with pytest.raises(ValueError, match="coordinates must lie"):
                call(group, points, one)
        with pytest.raises(ValueError, match="coordinates must lie"):
            classes(group, pair_points, pair)
        return
    got = classes(group, points, one)
    _assert_same_classes(got, classes_oracle.classes(group, points, one))
    batch = classes(group, pair_points, pair)
    assert batch.of.dtype == np.intp and batch.of.tolist() == [0, 0]
    _assert_same_classes(got, Classes(batch.points, batch.idx, batch.of[:1]))


@pytest.mark.parametrize("m", range(1, 7))
def test_networks_sort_every_zero_one_input(m, monkeypatch):
    """A comparator network that sorts all 2**m inputs of zeros and ones
    sorts every input (Knuth, TAOCP 3, 5.3.4, the 0-1 principle)."""
    monkeypatch.setattr(spectral, "NETWORK_ROWS_PER_EXCHANGE", 0)
    cells = (np.arange(2**m) >> np.arange(m)[:, None]) & 1  # column i: the bits of i
    want = np.sort(cells, axis=0)
    spectral._sort_cells(cells)
    assert (cells == want).all()


INT_TYPES = st.sampled_from([np.int16, np.int32, np.int64])


def int_values(dtype, edge=3):
    """Integers of a dtype: small ones, any in range, and within `edge` of
    either end of the range (and about +-KEY_LIMIT for int64)."""
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    near_keys = [KEY_LIMIT - edge // 2, -KEY_LIMIT - edge // 2] if dtype == np.int64 else []
    ends = [lo, hi - edge, *near_keys]
    return st.one_of(st.integers(-3, 3), st.integers(lo, hi),
                     *(st.integers(0, edge).map(lambda v, e=e: e + v) for e in ends))


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), shape=st.lists(st.integers(1, 9), min_size=1, max_size=2),
       dtype=INT_TYPES, data=st.data(), network=st.booleans())
def test_sorted_cells_equal_np_sort(m, shape, dtype, data, network):
    """Both branches of `_sort_cells` (past six cells only np.sort), on
    int16, int32 and int64 (m, rows) and (m, G, rows) arrays with ties,
    negative values and values near the ends of the dtype, equal np.sort
    over each configuration's cells, in that dtype."""
    size = m * math.prod(shape)
    values = data.draw(st.lists(int_values(dtype), min_size=size, max_size=size))
    cells = np.array(values, dtype=dtype).reshape(m, *shape)
    want = np.moveaxis(np.sort(np.moveaxis(cells, 0, -1), axis=-1), -1, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "NETWORK_ROWS_PER_EXCHANGE", 0 if network else 10**9)
        spectral._sort_cells(cells)
    assert cells.dtype == dtype and (cells == want).all()


@pytest.mark.parametrize("name, grid", [("snub_square", 4), ("truncated_square", 4),
                                        ("two_square_r1_R2", 4), ("truncated_trihexagonal", 3)])
def test_classes_of_a_grid_match_the_coordinate_pair_reduction(name, grid, monkeypatch):
    """Whole grid surveys, in one chunk and in chunks of 7 translation classes."""
    spec = catalog.get("two_square", r=1, R=2).spec if name.startswith("two") else _spec(name)
    grid_points = [(a, b) for a in range(grid + 1) for b in range(grid + 1)]
    batch = (symmetries(spec), *config_index(list(combinations(grid_points, spec.m))))
    _assert_same_classes(classes(*batch), classes_oracle.classes(*batch))
    monkeypatch.setattr(spectral, "CHUNK_ROWS", 7)
    _assert_same_classes(classes(*batch), classes_oracle.classes(*batch))


@pytest.mark.parametrize("name, source, size", [
    ("snub_square", "grid", 5), ("truncated_trihexagonal", "grid", 3),
    ("square", "grid", 4), ("snub_hexagonal", "polyominoes", 6),
    ("truncated_square", "polyominoes", 8),  # the tiling's group, on 8-ominoes
])
def test_classes_of_sorted_and_permuted_rows_agree(name, source, size):
    """`classes` reads the rows as they are, and a translation class's key is
    its offsets from its first cell; the same configurations with each row's
    cells permuted give the same classes, since the image stage sorts every
    image's cells.  Both equal the coordinate-pair reduction."""
    spec = _spec(name)
    if source == "grid":
        from ingham.search import combination_table, grid_points
        points = grid_points(size)
        rows = combination_table(len(points), spec.m)
    else:
        from ingham.geometry import fixed_polyominoes
        points, rows = config_index([shape.cells for shape in fixed_polyominoes(size)])
    permuted = np.random.default_rng(size).permuted(rows, axis=1)
    assert (rows[:, 1:] > rows[:, :-1]).all()
    assert spec.m == 1 or not (permuted[:, 1:] > permuted[:, :-1]).all()
    group = symmetries(spec)
    got = classes(group, points, rows)
    _assert_same_classes(got, classes(group, points, permuted))
    _assert_same_classes(got, classes_oracle.classes(group, points, rows))


@st.composite
def int_columns(draw, max_size=40):
    """An int16, int32 or int64 column of values from `int_values`."""
    dtype = draw(INT_TYPES)
    return np.array(draw(st.lists(int_values(dtype, 80), max_size=max_size)), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(column=int_columns(), span_per_key=st.sampled_from([0, 5, 64]))
@example(column=np.array([], dtype=np.int64), span_per_key=5)
@example(column=np.array([7], dtype=np.int64), span_per_key=5)
@example(column=np.array([-3, -1, -3, 0], dtype=np.int16), span_per_key=5)
@example(column=np.array([KEY_LIMIT, KEY_LIMIT - 1, KEY_LIMIT], dtype=np.int64), span_per_key=5)
@example(column=np.array([-KEY_LIMIT, KEY_LIMIT], dtype=np.int64), span_per_key=64)
@example(column=np.array([-2**15, 2**15 - 1, -2**15], dtype=np.int16), span_per_key=2**15)
@example(column=np.array([-2**31, 2**31 - 1], dtype=np.int32), span_per_key=5)
def test_ranks_equal_np_unique(column, span_per_key):
    """Both paths of `_ranks`, the count (a dense column, span at most
    RANK_SPAN_PER_KEY times its length) and the argsort (0 forces it), on
    int16, int32 and int64 columns, equal np.unique(return_inverse=True),
    values and dtypes: the distinct values in the column's dtype, the ranks
    intp."""
    want, inverse = np.unique(column, return_inverse=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "RANK_SPAN_PER_KEY", span_per_key)
        got, rank = spectral._ranks(column)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert rank.dtype == np.intp and rank.tolist() == inverse.ravel().tolist()


@st.composite
def lex_arrays(draw):
    """An (n, k) int16, int32 or int64 array whose columns have spans the
    dtype holds, as `_lex_ids` asks: each column lies in a window [a, a +
    span] of the dtype, with spans about each switch of the key (a product
    of bases below 2**31 or not, a base past KEY_LIMIT), and repeated rows."""
    dtype = draw(INT_TYPES)
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    spans = [v for v in (0, 1, 3, 40, 46339, 46340, hi - 1, hi) if v <= hi]
    n, k = draw(st.integers(0, 30)), draw(st.integers(1, 4))
    cols = []
    for _ in range(k):
        span = draw(st.sampled_from(spans))
        a = draw(st.integers(lo, hi - span))
        value = st.one_of(st.integers(a, a + span), st.sampled_from([a, a + span]))
        cols.append(draw(st.lists(value, min_size=n, max_size=n)))
    rows = np.array(cols, dtype=dtype).T.reshape(n, k)
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
    return np.concatenate([rows, rows[np.array(repeats, dtype=np.intp)]])


@settings(max_examples=60, deadline=None)
@given(lex_arrays())
def test_lex_ids_number_the_rows_in_lexicographic_order(cols):
    """`_lex_ids` of int16, int32 and int64 arrays (its key int32 below
    2**31, else int64 with ranks past KEY_LIMIT) equals np.unique over the
    rows: the same intp ids, and a row of each id; the input is not
    changed."""
    before = cols.copy()
    ids, first = spectral._lex_ids(cols)
    want, inverse = np.unique(cols, axis=0, return_inverse=True)
    assert (cols == before).all()
    assert ids.dtype == first.dtype == np.intp
    assert ids.tolist() == inverse.ravel().tolist()
    assert cols[first].tolist() == want.tolist()


@pytest.mark.parametrize("extra, counted", [(-1, True), (0, True), (1, False)])
def test_ranks_count_up_to_the_span_bound(extra, counted, monkeypatch):
    """A column of n entries is counted while its span max - min + 1 is at
    most RANK_SPAN_PER_KEY * n, and argsorted past it; both rank it as
    np.unique does."""
    n = 10
    span = spectral.RANK_SPAN_PER_KEY * n + extra
    column = np.array([KEY_LIMIT - span + 1] * (n - 1) + [KEY_LIMIT], dtype=np.int64)
    column[3] += span // 2
    want, inverse = np.unique(column, return_inverse=True)
    argsorts = []
    argsort = np.argsort
    monkeypatch.setattr(spectral.np, "argsort", lambda *a, **k: argsorts.append(1) or argsort(*a, **k))
    got, rank = spectral._ranks(column)
    monkeypatch.undo()
    assert (not argsorts) == counted
    assert got.tolist() == want.tolist() and rank.tolist() == inverse.ravel().tolist()


def test_coordinates_past_the_limit_are_refused():
    square = _spec("square")
    assert ingham_constants(square, cfg((COORD_LIMIT - 1, 1 - COORD_LIMIT))).satisfies_a2
    for n in [(COORD_LIMIT, 0), (0, -COORD_LIMIT), (10**20, 0)]:
        with pytest.raises(ValueError, match="coordinates must lie"):
            ingham_constants(square, cfg(n))


@given(
    spec=lattice_specs(),
    points=st.lists(st.tuples(*[st.one_of(st.just(0), st.integers(-10**9, 10**9))] * 2),
                    min_size=1, max_size=6),
)
def test_phase_columns_have_the_bits_of_phase_of_vec_dot(spec, points):
    want = [[phase(vec_dot(u, n)) for n in points] for u in spec.us]
    assert phase_columns(spec.form, points).tolist() == want

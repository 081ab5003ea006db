import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIELDS, lattice_specs
from ingham import catalog, qfield
from ingham.catalog import (
    _qn_json,
    get,
    expected_results,
    load_spec_file,
    minimality_witnesses,
    names,
    spec_from_json,
    spec_to_json,
)
from ingham.errors import UnknownTilingError
from ingham.lattice import minimality_certificate, validate_spec
from ingham.qfield import QuadNumber


def test_names_cover_twelve_tilings():
    got = names()
    assert len(got) == 12
    assert "two_square" in got
    assert "truncated_trihexagonal" in got


def test_every_spec_validates(catalog_entries):
    for entry in catalog_entries.values():
        assert validate_spec(entry.spec) is entry.spec


def test_translate_counts():
    assert get("square").spec.m == 1
    assert get("triangular").spec.m == 1
    assert get("honeycomb").spec.m == 2
    assert get("elongated_triangular").spec.m == 2
    assert get("trihexagonal").spec.m == 3
    assert get("snub_square").spec.m == 4
    assert get("truncated_square").spec.m == 4
    assert get("snub_hexagonal").spec.m == 6
    assert get("rhombitrihexagonal").spec.m == 6
    assert get("truncated_hexagonal").spec.m == 6
    assert get("truncated_trihexagonal").spec.m == 12
    assert get("two_square", r=1, R=3).spec.m == 4


def test_unknown_tiling():
    with pytest.raises(UnknownTilingError):
        get("nosuch")
    with pytest.raises(UnknownTilingError):
        expected_results("nosuch")
    with pytest.raises(UnknownTilingError):
        get("two_square")  # parameters required


def test_two_square_parametric_names():
    entry = get("two_square_r1_R3")
    assert entry.spec.name == "two_square_r1_R3"


@pytest.mark.parametrize("name", ["two_square_x1_y3", "two_square_R1_r3", "two_square_r1_x3",
                                  "two_square_1_3", "two_square_r1_R3_R5", "two_square_r_R3"])
def test_two_square_names_must_read_r_and_R(name):
    with pytest.raises(UnknownTilingError, match="cannot parse two_square name"):
        get(name)


def _without_zero_b(obj):
    """A spec_to_json number, list or object with each zero "b" left out."""
    if isinstance(obj, list):
        return [_without_zero_b(x) for x in obj]
    if not isinstance(obj, dict):
        return obj
    if obj.keys() == {"a", "b"}:
        return {"a": obj["a"]} if obj["b"] == "0" else obj
    return {k: _without_zero_b(v) for k, v in obj.items()}


@pytest.mark.parametrize("name", sorted(catalog._TILINGS))
def test_table_specs_are_written_as_spec_to_json_writes_them(name):
    data, configs, primary = catalog._TILINGS[name]
    entry = get(name)
    written = spec_to_json(entry.spec)
    assert written.pop("name") == name
    assert data == _without_zero_b(written)
    assert {k: c.ns for k, c in entry.default_configs.items()} == configs
    assert entry.primary_config == primary in configs


APPROX_KINDS = {
    "kappa_pair", "area", "half_diameter", "radius_necessary",
    "bessel_bound", "density_ratio", "survey_pass_kappas", "class_pairs",
}


def test_expected_records_well_formed(catalog_entries):
    # every non-exact expectation carries an explicit tolerance
    for name in names():
        for rec in expected_results(name):
            assert rec.kind
            assert rec.source
            assert rec.tol >= 0.0
            if rec.kind in APPROX_KINDS:
                assert rec.tol > 0.0, (name, rec.kind, rec.key)


def test_unit_edge_tilings_nearest_neighbor():
    # the catalog point sets realize unit-edge tilings (the two truncated
    # tilings share a 1/sqrt(2+sqrt3) scale, frozen here)
    from ingham.lattice import realize_points

    want = {
        "triangular": 1.0,
        "honeycomb": 1.0,
        "trihexagonal": 1.0,
        "elongated_triangular": 1.0,
        "snub_square": 1.0,
        "truncated_square": 1.0,
        "snub_hexagonal": 1.0,
        "rhombitrihexagonal": 1.0,
        "truncated_hexagonal": 0.5176380902050415,  # sqrt(2 - sqrt3)
        "truncated_trihexagonal": 0.5176380902050415,
    }
    for name, dist in want.items():
        pts = realize_points(get(name).spec, (-0.5, -0.5, 3.5, 3.5))
        best = min(
            ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5
            for i, a in enumerate(pts)
            for b in pts[i + 1 :]
        )
        assert best == pytest.approx(dist, abs=1e-9), name


def test_minimality_attempts_recorded(catalog_entries):
    # honeycomb is certified; others are attempted and reported, not asserted
    results = {}
    for name, entry in catalog_entries.items():
        try:
            results[name] = minimality_certificate(
                entry.spec, minimality_witnesses(entry)
            )
        except Exception:
            results[name] = None
    assert results["honeycomb"] is True
    assert results["square"] is True
    assert set(results) == set(catalog_entries)


def test_density_ratio_triangular_vs_honeycomb():
    from ingham.geometry import omega_cells

    tri = get("triangular")
    hc = get("honeycomb")
    a_tri = omega_cells(tri.spec, tri.default_configs["base"]).area
    a_hc = omega_cells(hc.spec, hc.default_configs["right"]).area
    assert a_tri / a_hc == pytest.approx(1.5, rel=1e-9)


def test_json_round_trip(tmp_path):
    spec = get("trihexagonal").spec
    data = spec_to_json(spec)
    assert data["d"] == 3
    assert data["l_star"][0][0] == {"a": "0", "b": "1"}
    back = spec_from_json(data)
    assert back == spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert load_spec_file(str(path)) == spec


@given(lattice_specs())
def test_json_round_trip_property(spec):
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


BIG_PRIME = 999999999989  # factoring it takes the longest trial division accepted


def _big_radicand_spec(radical: bool) -> dict:
    """A spec of Q(sqrt BIG_PRIME), as spec_to_json writes it, with six
    numbers that have a radical part, or with every one rational."""
    n = lambda a, b="0": {"a": a, "b": b if radical else "0"}
    return {
        "name": "big_radicand",
        "d": BIG_PRIME if radical else 1,
        "l_star": [[n("1", "1"), n("0", "1/2")], [n("0"), n("2", "1/3")]],
        "us": [[n("0"), n("0")], [n("1/2", "1/5"), n("0", "1/7")], [n("1/3"), n("1/4", "1/11")]],
    }


def _count_splits(monkeypatch) -> list[int]:
    """The radicands given to `qfield._square_free_split` from here on."""
    calls = []
    split = qfield._square_free_split
    for module in (qfield, catalog):
        monkeypatch.setattr(module, "_square_free_split", lambda n: calls.append(n) or split(n))
    return calls


def test_spec_from_json_factors_the_radicand_once(monkeypatch):
    data = _big_radicand_spec(radical=True)
    calls = _count_splits(monkeypatch)
    spec = spec_from_json(data)
    assert calls == [BIG_PRIME]
    assert spec_to_json(spec) == data
    assert spec.us[1][1] == QuadNumber(0, Fraction(1, 7), BIG_PRIME)


def test_spec_from_json_of_rationals_never_factors(monkeypatch):
    data = _big_radicand_spec(radical=False)
    for d in (1, BIG_PRIME, 10**800 + 1):
        calls = _count_splits(monkeypatch)
        spec = spec_from_json(data | {"d": d})
        assert calls == []
        assert spec_to_json(spec) == data


def test_spec_from_json_refuses_a_radicand_that_is_not_a_positive_integer():
    data = spec_to_json(get("trihexagonal").spec)
    for d in (0, -3, "1/2", "2.5"):
        with pytest.raises(ValueError, match="spec d must be a positive integer"):
            spec_from_json(data | {"d": d})


def test_json_rejects_mixed_fields():
    spec = get("two_square", r=1, R=3).spec  # sqrt(2) translates, sqrt(10) scale
    with pytest.raises(ValueError):
        spec_to_json(spec)


def test_catalog_data_uses_small_radicals(catalog_entries):
    for name, entry in catalog_entries.items():
        if name == "two_square":
            continue
        for row in entry.spec.l_star:
            for e in row:
                assert e.d in (1, 2, 3)
        for u in entry.spec.us:
            assert u[0].d in (1, 2, 3) and u[1].d in (1, 2, 3)


# -- JSON numbers from the integer form, against the Fraction formulas ---------


def _fraction_spec_to_json(spec):
    """spec_to_json as it was written on the Fractions x.a and x.b."""
    qn = lambda x: {"a": str(x.a), "b": str(x.b)}
    ds = {e.d for row in spec.l_star for e in row if e.b} | {
        c.d for u in spec.us for c in u if c.b
    }
    if len(ds) > 1:
        raise ValueError("spec mixes radicals; not representable in the schema")
    return {
        "name": spec.name,
        "d": ds.pop() if ds else 1,
        "l_star": [[qn(e) for e in row] for row in spec.l_star],
        "us": [[qn(c) for c in u] for u in spec.us],
    }


@given(st.sampled_from(FIELDS).flatmap(lambda d: st.builds(
    QuadNumber, st.fractions(max_denominator=10**12), st.fractions(max_denominator=10**12),
    st.just(d))))
def test_qn_json_writes_the_fraction_strings(x):
    assert _qn_json(x) == {"a": str(x.a), "b": str(x.b)}


def test_spec_to_json_bytes_match_the_fraction_formulas():
    specs = [get(name).spec for name in names() if name != "two_square"]
    specs.append(get("two_square", r=1, R=7).spec)
    assert len(specs) == 12
    for spec in specs:
        want = json.dumps(_fraction_spec_to_json(spec), indent=2, sort_keys=True)
        assert json.dumps(spec_to_json(spec), indent=2, sort_keys=True) == want, spec.name
    mixed = get("two_square", r=1, R=3).spec
    with pytest.raises(ValueError):
        _fraction_spec_to_json(mixed)
    with pytest.raises(ValueError):
        spec_to_json(mixed)

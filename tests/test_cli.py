import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingham
from ingham import catalog, cli, gram, search, spectral
from ingham.cli import main
from ingham.errors import NotHermitianError
from ingham.lattice import LatticeSpec
from ingham.qfield import QuadNumber


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert "trihexagonal" in lines
    assert any(line.startswith("two_square") for line in lines)


def test_catalog_show_trihexagonal(capsys):
    code, out, _ = run_cli(capsys, "catalog", "show", "trihexagonal")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 3
    assert data["d"] == 3
    # l_star entries sqrt3, sqrt3, 1, -1
    assert data["l_star"][0][0] == {"a": "0", "b": "1"}
    assert data["l_star"][1][0] == {"a": "1", "b": "0"}
    assert data["l_star"][1][1] == {"a": "-1", "b": "0"}
    assert data["minimality_certified"] in (True, False, None)


def test_catalog_show_unknown_exits_2(capsys):
    code, _, err = run_cli(capsys, "catalog", "show", "nosuch")
    assert code == 2
    assert "unknown tiling" in err


def test_constants_snub_hexagonal_column(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--tiling", "snub_hexagonal",
        "--config", "0,0;0,1;0,2;0,3;0,4;0,5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["a2"] is True
    assert data["kappa1"] == pytest.approx(1.0, abs=1e-9)
    assert data["kappa2"] == pytest.approx(7.0, abs=1e-9)
    assert data["connected"] is True


def test_constants_rhombitrihexagonal_column_fails_a2(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--tiling", "rhombitrihexagonal",
        "--config", "0,0;0,1;0,2;0,3;0,4;0,5",
    )
    assert code == 0
    assert json.loads(out)["a2"] is False


def test_constants_square(capsys):
    code, out, _ = run_cli(capsys, "constants", "--tiling", "square", "--config", "0,0")
    data = json.loads(out)
    assert code == 0
    assert data["kappa1"] == pytest.approx(1.0)
    assert data["kappa2"] == pytest.approx(1.0)


def test_constants_two_square_small_det_passes_a2(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--tiling", "two_square", "--r", "1", "--R", "4",
        "--config", "0,1;1,1;1,3;3,3",
    )
    assert code == 0
    assert json.loads(out)["a2"] is True  # |det| ~ 1.1e-3 above A2_DET_TOL = 1e-8


def test_survey_two_square_r5(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--tiling", "two_square", "--r", "1", "--R", "5", "--grid", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 1820
    assert data["failing"] == 4


def test_survey_connected_only_csv(capsys, tmp_path):
    path = tmp_path / "snub.csv"
    code, out, _ = run_cli(
        capsys, "survey", "--tiling", "snub_square", "--connected-only",
        "--csv", str(path),
    )
    assert code == 0
    assert json.loads(out)["failing"] == 0
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["config", "connected", "a2", "kappa1", "kappa2", "ratio"]
    assert len(rows) == 20


def test_verify_square_equality(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--tiling", "square", "--config", "0,0",
        "--support-radius", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["frame_bounds_pass"] is True
    assert data["lambda_min"] == pytest.approx(data["lambda_max"], rel=1e-12)


def test_verify_with_hole_witness(capsys, tmp_path):
    path = tmp_path / "witness.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--tiling", "honeycomb", "--config", "0,0;1,0",
        "--support-radius", "1", "--hole-fraction", "0.25",
        "--witness-radii", "0,1,2", "--csv", str(path),
    )
    assert code == 0
    data = json.loads(out)
    lams = [w["lambda_min"] for w in data["witness"]]
    assert lams == sorted(lams, reverse=True)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["support_size", "lambda_min"]
    assert len(rows) == 4


def test_export_honeycomb_points(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--tiling", "honeycomb", "--what", "points",
        "--bbox", "0,0,4,4",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "y", "j", "m0", "m1"]
    pts = [(float(r[0]), float(r[1])) for r in rows[1:]]
    best = min(
        ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5
        for i, a in enumerate(pts)
        for b in pts[i + 1 :]
    )
    assert best == pytest.approx(1.0, abs=1e-9)


def test_export_triangular_domain(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--tiling", "triangular", "--what", "domain"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["cell_index", "vertex_index", "x", "y"]
    assert len(rows) == 5  # one parallelogram, four vertices


def test_export_honeycomb_right_domain(capsys):
    config = catalog.get("honeycomb").default_configs["right"]
    code, out, _ = run_cli(
        capsys, "export", "--tiling", "honeycomb", "--what", "domain", "--config", str(config)
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 8  # two parallelograms, four vertices each
    assert rows[0][:2] == ["0", "0"]
    assert rows[-1][:2] == ["1", "3"]


def test_export_empty_bbox(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--tiling", "square", "--what", "points",
        "--bbox", "0,0,0,0",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["x", "y", "j", "m0", "m1"]]


@pytest.mark.parametrize("bbox, message", [
    ("0,0,inf,1", "must be finite"),
    ("0,0,nan,1", "must be finite"),
    ("-inf,0,1,1", "must be finite"),
    ("0,0,1e6,1e6", "candidate points"),
    ("-1e308,0,1e308,1", "candidate points"),
])
def test_export_bad_bbox_is_usage_error(capsys, bbox, message):
    code, out, err = run_cli(
        capsys, "export", "--tiling", "honeycomb", "--what", "points", f"--bbox={bbox}",
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_custom_spec_file(capsys, tmp_path):
    spec = {
        "name": "skew",
        "d": 1,
        "l_star": [[{"a": "1", "b": "0"}, {"a": "1/2", "b": "0"}],
                   [{"a": "0", "b": "0"}, {"a": "1", "b": "0"}]],
        "us": [[{"a": "0", "b": "0"}, {"a": "0", "b": "0"}]],
    }
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "constants", "--spec-file", str(path), "--config", "0,0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["tiling"] == "skew"
    assert data["kappa1"] == pytest.approx(1.0)


FIXED_TILINGS = [name for name in catalog.names() if name != "two_square"]


@pytest.mark.parametrize("name", FIXED_TILINGS)
def test_catalog_show_is_a_spec_file_with_the_same_constants(capsys, tmp_path, name):
    code, shown, _ = run_cli(capsys, "catalog", "show", name)
    assert code == 0
    path = tmp_path / "spec.json"
    path.write_text(shown)
    config = json.loads(shown)["configs"][catalog.get(name).primary_config]
    from_file = run_cli(capsys, "constants", "--spec-file", str(path), "--config", config)
    from_catalog = run_cli(capsys, "constants", "--tiling", name, "--config", config)
    assert from_file[0] == 0
    assert from_file == from_catalog


@pytest.mark.parametrize("flags, named", [
    (("--tiling", "honeycomb", "--r", "1"), "--tiling, --r"),
    (("--tiling", "square"), "--tiling"),
    (("--r", "1", "--R", "2"), "--r, --R"),
    (("--R", "2"), "--R"),
])
def test_spec_file_refuses_tiling_and_sides(capsys, tmp_path, flags, named):
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(SKEW))
    code, out, err = run_cli(capsys, "constants", "--spec-file", str(path), "--config", "0,0",
                             *flags)
    assert (code, out) == (2, "")
    assert err == f"usage error: --spec-file takes no {named}\n"


def test_reproduce_exit_zero(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reproduce", "--out", str(tmp_path / "rep"))
    assert code == 0
    assert "documented discrepancies" in out
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["summary"]["all_pass"] is True
    assert (tmp_path / "rep" / "survey_truncated_square.csv").exists()


@pytest.mark.parametrize(
    "tiling, grid", [("trihexagonal", "-1"), ("truncated_trihexagonal", "1")]
)
def test_survey_grid_too_small_is_usage_error(capsys, tiling, grid):
    code, _, err = run_cli(capsys, "survey", "--tiling", tiling, "--grid", grid)
    assert code == 2
    assert "usage error" in err


def test_oversized_survey_is_usage_error(capsys, monkeypatch):
    """C(100, 12) ~ 1e15 configurations: refused before anything is enumerated."""
    def enumerate_nothing(grid_max):
        raise AssertionError("the survey was enumerated")

    monkeypatch.setattr(search, "grid_points", enumerate_nothing)
    code, _, err = run_cli(capsys, "survey", "--tiling", "truncated_trihexagonal", "--grid", "9")
    assert code == 2
    assert "exceeds" in err


def test_constants_without_tiling_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "constants", "--config", "0,0")
    assert code == 2
    assert "--tiling" in err


def test_missing_spec_file_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "constants", "--spec-file", str(tmp_path / "nosuch.json"),
        "--config", "0,0",
    )
    assert code == 2
    assert "--spec-file" in err


HONEYCOMB_VERIFY = ("verify", "--tiling", "honeycomb", "--config", "0,0;1,0")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("catalog", "show"), "tiling name"),
        (HONEYCOMB_VERIFY + ("--hole-fraction", "0.25", "--hole-cell", "5"), "hole cell"),
        (HONEYCOMB_VERIFY + ("--hole-fraction", "0.25", "--hole-cell", "-1"), "hole cell"),
        (HONEYCOMB_VERIFY + ("--hole-fraction", "0"), "area fraction"),
        (HONEYCOMB_VERIFY + ("--hole-fraction", "-0.5"), "area fraction"),
        (HONEYCOMB_VERIFY + ("--csv", "witness.csv"), "--csv"),
        (HONEYCOMB_VERIFY + ("--hole=", "--csv", "witness.csv"), "--hole"),
    ],
)
def test_catalog_show_and_hole_misuse_is_usage_error(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err and message in err
    assert not any(tmp_path.iterdir())  # refused before anything is written


@pytest.mark.parametrize(
    "extra", [("--support-radius", "-1"), ("--hole-fraction", "0.25", "--witness-radii", "-1")]
)
def test_negative_support_radius_is_usage_error(capsys, extra):
    code, _, err = run_cli(capsys, *HONEYCOMB_VERIFY, *extra)
    assert code == 2
    assert "radius must be >= 0" in err


@pytest.mark.parametrize(
    "hole",
    [
        ("--hole-fraction", "1.0"),
        ("--hole-fraction", "inf"),
        ("--hole=-50,-50,-49,-49",),
        ("--hole=1,1,0,0",),
    ],
)
def test_misplaced_hole_is_usage_error(capsys, hole):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *HONEYCOMB_VERIFY, *hole)
    assert code == 2
    assert "usage error: hole:" in err


@pytest.mark.parametrize("argv, flag", [
    (HONEYCOMB_VERIFY + ("--hole", "1,2"), "--hole"),
    (HONEYCOMB_VERIFY + ("--hole", "0,0,x,1"), "--hole"),
    (("export", "--tiling", "square", "--what", "points", "--bbox", "0,0,1"), "--bbox"),
    (("export", "--tiling", "square", "--what", "points", "--bbox", "0,0,1,1,2"), "--bbox"),
    (("verify", "--tiling", "square", "--config", "0,0", "--hole="), "--hole"),  # empty, not absent
])
def test_box_of_wrong_arity_names_its_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"usage error: {flag} needs 4 values x0,y0,x1,y1" in err


@pytest.mark.parametrize(
    "extra",
    [
        ("--support-radius", "1000000"),
        ("--hole-fraction", "0.25", "--witness-radii", "0,1000000"),
        # axes longer than sys.maxsize, whose len() raised OverflowError
        ("--support-radius", "10000000000000000000"),
        ("--hole-fraction", "0.25", "--witness-radii", "0,10000000000000000000"),
    ],
)
def test_oversized_support_is_usage_error(capsys, extra):
    code, out, err = run_cli(capsys, *HONEYCOMB_VERIFY, *extra)
    assert code == 2 and out == ""
    assert err.startswith("usage error: support of ") and err.endswith(" points exceeds 4000\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("r, R", [("2", "1"), ("0", "1")])
def test_degenerate_two_square_is_usage_error(capsys, r, R):
    code, _, err = run_cli(
        capsys, "constants", "--tiling", "two_square", "--r", r, "--R", R,
        "--config", "0,0;0,1;1,0;1,1",
    )
    assert code == 2
    assert "need 0 < r < R" in err


@pytest.mark.parametrize("argv", [
    ("constants", "--config", "0,0"),
    ("survey", "--grid", "1"),
    ("verify", "--config", "0,0"),
    ("export", "--what", "domain"),
], ids=lambda argv: argv[0])
def test_tol_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--tiling", "square", *argv[1:], "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--connected-only", "--grid", "3"),
                                   ("--grid", "2", "--connected-only")])
def test_survey_refuses_grid_with_connected_only(capsys, monkeypatch, flags):
    def no_survey(*args):
        raise AssertionError("a survey ran")

    monkeypatch.setattr(search, "classify_all", no_survey)
    monkeypatch.setattr(search, "connected_survey", no_survey)
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--tiling", "square", *flags])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert "not allowed with argument" in out.err


def test_survey_grid_defaults_to_3(capsys):
    code, out, _ = run_cli(capsys, "survey", "--tiling", "square")
    assert code == 0
    assert json.loads(out)["grid_max"] == 3 and json.loads(out)["total"] == 16


SQUARE_VERIFY = ("verify", "--tiling", "square", "--config", "0,0")


@pytest.mark.parametrize("argv, message", [
    (SQUARE_VERIFY + ("--hole", "1,1,2,2", "--hole-fraction", "0.25"),
     "argument --hole-fraction: not allowed with argument --hole"),
    (SQUARE_VERIFY + ("--hole-cell", "0"), "usage error: --hole-cell needs --hole-fraction"),
    (SQUARE_VERIFY + ("--hole", "0.1,0.1,0.3,0.3", "--hole-cell", "0"),
     "usage error: --hole-cell needs --hole-fraction"),
    (SQUARE_VERIFY + ("--witness-radii", "0,1"),
     "usage error: --witness-radii needs --hole or --hole-fraction"),
    (("export", "--tiling", "square", "--what", "points", "--config", "0,0"),
     "usage error: export --what points takes no --config"),
    (("export", "--tiling", "square", "--what", "domain", "--bbox", "0,0,1,1"),
     "usage error: export --what domain takes no --bbox"),
    # an empty value is not a left-out flag
    (("survey", "--tiling", "square", "--grid", "1", "--csv="), "usage error: --csv needs a path"),
    (SQUARE_VERIFY + ("--csv=",), "usage error: --csv needs a path"),
    (SQUARE_VERIFY + ("--hole-fraction", "0.25", "--csv="), "usage error: --csv needs a path"),
    (("export", "--tiling", "square", "--what", "points", "--csv="),
     "usage error: --csv needs a path"),
    (SQUARE_VERIFY + ("--hole=",), "usage error: --hole needs 4 values x0,y0,x1,y1"),
], ids=["hole_and_fraction", "cell_alone", "cell_with_rect", "radii_alone", "points_config",
        "domain_bbox", "survey_empty_csv", "verify_empty_csv", "witness_empty_csv",
        "export_empty_csv", "empty_hole"])
def test_flags_that_do_not_apply_are_refused(capsys, monkeypatch, argv, message):
    """Refused before any spec is loaded: exit 2, nothing on stdout."""
    def no_spec(*args):
        raise AssertionError("a spec was loaded")

    monkeypatch.setattr(cli, "_spec", no_spec)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert message in out.err


TWO_SQUARE_HOLE = (
    "verify", "--tiling", "two_square", "--r", "1", "--R", "2",
    "--config", "0,0;1,0;0,1;1,1", "--hole-fraction", "0.25",
)


def test_two_square_hole_across_fields(capsys):
    """L* in Q(sqrt 5), translates in Q(sqrt 2): a homothety, so the hole works."""
    code, out, _ = run_cli(capsys, *TWO_SQUARE_HOLE)
    assert code == 0
    lams = [w["lambda_min"] for w in json.loads(out)["witness"]]
    assert len(lams) == 4 and all(b < a for a, b in zip(lams, lams[1:]))


def test_mixed_field_hole_without_homothety_is_usage_error(capsys, monkeypatch):
    entry = catalog.get("two_square", r=1, R=2)
    (s, zero), _ = entry.spec.l_star
    sheared = LatticeSpec("sheared", ((s, QuadNumber(1)), (zero, s)), entry.spec.us)
    sheared_entry = catalog.CatalogEntry(
        spec=sheared, default_configs={}, expected=(), primary_config=""
    )
    monkeypatch.setattr(catalog, "get", lambda *args, **kwargs: sheared_entry)
    code, _, err = run_cli(capsys, *TWO_SQUARE_HOLE)
    assert code == 2
    assert "usage error: hole:" in err and "homothety" in err


SKEW = {
    "name": "skew",
    "d": 1,
    "l_star": [[{"a": "1", "b": "0"}, {"a": "1/2", "b": "0"}],
               [{"a": "0", "b": "0"}, {"a": "1", "b": "0"}]],
    "us": [[{"a": "0", "b": "0"}, {"a": "0", "b": "0"}]],
}


def _skew_with(**changes):
    spec = json.loads(json.dumps(SKEW))
    spec.update(changes)
    return spec


# Spec files whose content is not a valid spec; each must be a usage error.
BAD_SPECS = {
    "top_level_list": ([SKEW], "JSON object"),
    "zero_denominator": (
        _skew_with(l_star=[[{"a": "1/0"}, {"a": "0"}], [{"a": "0"}, {"a": "1"}]]),
        "l_star[0][0].a: not a finite rational",
    ),
    "huge_radicand": (
        _skew_with(d=100000000000000000039,
                   l_star=[[{"a": "0", "b": "1"}, {"a": "0"}], [{"a": "0"}, {"a": "1"}]]),
        "radicand exceeds",
    ),
    "singular_l_star": (
        _skew_with(l_star=[[{"a": "1"}, {"a": "1"}], [{"a": "1"}, {"a": "1"}]]),
        "singular",
    ),
    "duplicate_translates": (
        _skew_with(us=[[{"a": "0"}, {"a": "0"}], [{"a": "1"}, {"a": "0"}]]),
        "coincide",
    ),
    "short_translate": (_skew_with(us=[[{"a": "0"}]]), "spec us[0] must be a list of 2"),
    "bare_numbers": (
        _skew_with(l_star=[[1, 0], [0, 1]]), "l_star[0][0]: numbers must be objects"
    ),
    "boolean_d": (_skew_with(d=True), "d: expected a rational, got True"),
    "boolean_a": (
        _skew_with(l_star=[[{"a": True}, {"a": "0"}], [{"a": "0"}, {"a": "1"}]]),
        "l_star[0][0].a: expected a rational, got True",
    ),
    "boolean_b": (
        _skew_with(us=[[{"a": "0", "b": False}, {"a": "0"}]]),
        "us[0][0].b: expected a rational, got False",
    ),
    "three_rows": (
        _skew_with(l_star=[[{"a": "1"}, {"a": "0"}]] * 3), "spec l_star must be a list of 2"
    ),
    # a JSON float has lost the decimal text it was written as
    "float_d": (_skew_with(d=2.0), "d: expected a rational, got float"),
    "float_a": (
        _skew_with(l_star=[[{"a": 0.5}, {"a": "0"}], [{"a": "0"}, {"a": "1"}]]),
        "l_star[0][0].a: expected a rational, got float",
    ),
    "float_b": (
        _skew_with(l_star=[[{"a": "1", "b": 0.5}, {"a": "0"}], [{"a": "0"}, {"a": "1"}]]),
        "l_star[0][0].b: expected a rational, got float",
    ),
    "float_translate": (
        _skew_with(us=[[{"a": "0"}, {"a": 0.1}]]),
        "us[0][1].a: expected a rational, got float",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_malformed_spec_file_is_usage_error(capsys, tmp_path, name):
    spec, message = BAD_SPECS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "constants", "--spec-file", str(path), "--config", "0,0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "usage error" in err and message in err


@pytest.mark.parametrize("command", ["verify", "constants"])
def test_translates_apart_by_less_than_float_scale_are_usage_error(capsys, tmp_path, command):
    # the honeycomb spec with L* = I and u_1 = (1e-400, 1/2): 1e-400 became
    # 0.0, a ZeroDivisionError in the Gram phi and `a2: false` though
    # det E = e(1e-400) - 1 is not 0
    spec = catalog.spec_to_json(catalog.get("honeycomb").spec)
    spec["l_star"] = [[{"a": "1"}, {"a": "0"}], [{"a": "0"}, {"a": "1"}]]
    spec["us"][1] = [{"a": "1e-400"}, {"a": "1/2"}]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, command, "--spec-file", str(path), "--config", "0,0;1,0")
    assert (code, out) == (2, "")
    assert "usage error" in err and "below 1e-100" in err


def test_hole_integral_underflow_is_usage_error(capsys, tmp_path):
    # L*_00 = 1e-250 times mu_0 = 1e-80 is exactly nonzero but 0.0 in floats:
    # a ZeroDivisionError traceback in the hole integral before
    spec = {
        "name": "stretched", "d": 1,
        "l_star": [[{"a": "1e-250"}, {"a": "0"}], [{"a": "0"}, {"a": "1e250"}]],
        "us": [[{"a": "0"}, {"a": "0"}], [{"a": "1e-80"}, {"a": "1/2"}]],
    }
    path = tmp_path / "stretched.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "verify", "--spec-file", str(path), "--config", "0,0;1,0",
                             "--hole=1e249,1e-251,2e249,2e-251", "--witness-radii", "0")
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "underflows to 0.0" in err


def test_huge_two_square_side_is_refused_fast(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "survey", "--tiling", "two_square", "--r", "1", "--R", "1e400", "--grid", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "radicand exceeds" in err


@pytest.mark.parametrize("r, R", [("0.001", "1"), ("1", "1000000")])
def test_two_square_side_with_long_radicand_is_split(capsys, r, R):
    # R^2 + r^2 = 1000001/10^6 and 10^12 + 1 = 73 * 137 * 99990001: radicands
    # above 10^12 whose factors are all found well inside the trial bound
    code, out, _ = run_cli(capsys, "constants", "--tiling", "two_square", "--r", r, "--R", R,
                           "--config", "0,0;0,1;1,0;1,1")
    assert code == 0
    assert json.loads(out)["tiling"] == f"two_square_r{Fraction(r)}_R{Fraction(R)}"


@pytest.mark.parametrize("flag", ["--r", "--R"])
@pytest.mark.parametrize("value", ["1/0", "inf", "x", ""])
def test_malformed_side_is_argparse_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--tiling", "two_square", "--r", "1", "--R", "2", f"{flag}={value}",
              "--config", "0,0;0,1;1,0;1,1"])
    assert exc.value.code == 2
    assert "invalid rational value" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("constants", "--tiling", "honeycomb", "--config", "0,0"), "lattice has 2 translates"),
    (("survey", "--tiling", "truncated_trihexagonal", "--connected-only"), "size must be"),
    (("catalog", "show", "two_square_r1_R1/0"), "cannot parse two_square name"),
    (("catalog", "show", "two_square", "--r", "5e399", "--R", "1e400"), "finite as floats"),
    (("catalog", "show", "two_square", "--r", "3e-200", "--R", "4e-200"), "finite as floats"),
    (("export", "--what", "domain", "--tiling", "square", "--config", "0,0;1,0"),
     "lattice has 1 translates"),
    # 10**4300 has 4301 digits, past the int-string limit the spec's name is printed with
    (("catalog", "show", "two_square", "--r", "1e4300", "--R", "2e4300"),
     "two-square side r has too many digits"),
    (("catalog", "show", "two_square", "--r", "3e-4300", "--R", "4e-4300"),
     "two-square side r has too many digits"),
    (("catalog", "show", "two_square", "--r", "1", "--R", "1e4300"),
     "two-square side R has too many digits"),
    # sides in the name and as --r/--R: refused, not silently resolved
    (("constants", "--tiling", "two_square_r1_R3", "--r", "1", "--R", "5",
      "--config", "0,0;0,1;1,0;1,1"), "in the name 'two_square_r1_R3' and as r=1, R=5"),
    (("catalog", "show", "two_square_garbage", "--r", "1", "--R", "2"),
     "in the name 'two_square_garbage' and as r=1, R=2"),
    # sides for a fixed tiling: refused, not silently dropped
    (("constants", "--tiling", "square", "--config", "0,0", "--r", "1", "--R", "5"),
     "fixed tiling 'square' takes no sides, got r=1, R=5"),
    (("catalog", "show", "square", "--r", "1", "--R", "2"),
     "fixed tiling 'square' takes no sides, got r=1, R=2"),
    (("survey", "--tiling", "honeycomb", "--grid", "1", "--R", "3/2"),
     "fixed tiling 'honeycomb' takes no sides, got R=3/2"),
    (("constants", "--tiling", "two_square_x1_y3", "--config", "0,0;0,1;1,0;1,1"),
     "cannot parse two_square name 'two_square_x1_y3'"),
])
def test_library_errors_from_input_are_usage_errors(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err and message in err


@pytest.mark.parametrize("config", ["", "0,0;1", "0,0,1", "a,b", "0,0;"])
def test_malformed_config_names_the_syntax(capsys, config):
    code, out, err = run_cli(capsys, "constants", "--tiling", "square", "--config", config)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "a,b;a,b" in err


@pytest.mark.parametrize("radii", ["1,x", "", "0,,1", "1.5"])
def test_malformed_witness_radii_name_the_flag(capsys, radii):
    code, out, err = run_cli(capsys, *HONEYCOMB_VERIFY, "--hole-fraction", "0.25",
                             "--witness-radii", radii)
    assert code == 2 and out == ""
    assert err == f"usage error: --witness-radii expects integers 'k,k,...', got {radii!r}\n"


@pytest.mark.parametrize("flags", [
    ("--hole-fraction", "0.25", "--witness-radii", "x"),
    ("--hole-fraction", "0.25", "--witness-radii", "-1"),
    ("--hole", "1,2,3"),
    ("--hole-fraction", "1.5"),
    ("--hole-fraction", "0.25", "--hole-cell", "7"),
    ("--hole", "100,100,100.5,100.5"),
])
def test_witness_flags_are_refused_before_the_frame_bound_check(capsys, monkeypatch, flags):
    def refuse(*args):
        raise AssertionError("frame_bound_check ran before the witness flags were read")

    monkeypatch.setattr(gram, "frame_bound_check", refuse)
    code, out, err = run_cli(capsys, "verify", "--tiling", "snub_square",
                             "--config", "0,0;1,0;0,1;1,1", "--support-radius", "8", *flags)
    assert code == 2 and out == "" and err.startswith("usage error:")


@pytest.mark.parametrize("r, R", [("3e-160", "4e-160"), ("3e60", "4e60")])
def test_determinant_beyond_float_scale_is_usage_error(capsys, r, R):
    # |det l_star| = r^2 + R^2 = 2.5e-319 (subnormal, once printed c1_full =
    # Infinity) and 2.5e121: finite floats, but outside [1e-100, 1e100]
    code, out, err = run_cli(capsys, "constants", "--tiling", "two_square", "--r", r, "--R", R,
                             "--config", "0,0;0,1;1,0;1,1")
    assert code == 2 and out == ""
    assert "|det l_star| within [1e-100, 1e+100]" in err


def test_internal_failures_propagate(monkeypatch, tmp_path):
    """A failed internal numerical check and a failure while writing are not
    usage errors: main lets them escape."""
    def not_hermitian(*_):
        raise NotHermitianError("asymmetry 1e-3 exceeds 1e-10")

    def disk_full(*_):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(spectral, "ingham_constants", not_hermitian)
    with pytest.raises(NotHermitianError):
        main(["constants", "--tiling", "square", "--config", "0,0"])
    monkeypatch.setattr(search, "write_survey_csv", disk_full)
    with pytest.raises(OSError) as exc:
        main(["survey", "--tiling", "square", "--grid", "1", "--csv", str(tmp_path / "x.csv")])
    assert exc.value.errno == errno.ENOSPC


@pytest.mark.parametrize("argv", [
    ("survey", "--tiling", "square", "--grid", "1", "--csv"),
    ("verify", *HONEYCOMB_VERIFY[1:], "--hole-fraction", "0.25", "--witness-radii", "0",
     "--csv"),
    ("export", "--tiling", "square", "--what", "points", "--csv"),
    ("reproduce", "--out"),
], ids=lambda argv: argv[0])
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, argv):
    (tmp_path / "file").write_text("")
    # reproduce creates missing directories, so its --out sits under a file
    path = tmp_path / ("file/out" if argv[0] == "reproduce" else "missing/x.csv")
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert "usage error" in err


def test_export_domain_from_spec_file_needs_config(capsys, tmp_path):
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(SKEW))
    code, out, err = run_cli(capsys, "export", "--spec-file", str(path), "--what", "domain")
    assert code == 2
    assert out == ""
    assert "needs --config with --spec-file" in err
    code, out, _ = run_cli(
        capsys, "export", "--spec-file", str(path), "--what", "domain", "--config", "0,0"
    )
    assert code == 0
    assert len(list(csv.reader(io.StringIO(out)))) == 5


def test_configuration_past_the_coordinate_limit_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "constants", "--tiling", "square", "--config", "99999999999999999999,0"
    )
    assert (code, out) == (2, "")
    assert "coordinates must lie in" in err


# -- no traceback on random argv ------------------------------------------------

TILINGS = ("square", "honeycomb", "trihexagonal", "snub_square", "truncated_trihexagonal",
           "two_square", "two_square_r1_R3", "two_square_rx", "two_square_r1_R1/0", "nosuch",
           "")
RATIONALS = ("1", "2", "3/2", "0", "-1", "1/0", "x", "", "inf", "nan", "1e400", "5e399",
             "1e-400", "0.001")
CONFIGS = ("0,0", "0,0;1,0", "0,0;0,1;1,0", "0,0;0,1;1,0;1,1", "0,0;0,0", "a,b", "",
           "0,0;", "1,2,3", "99999999999999999999,0", "-1,-1;0,0")
INTS = ("-1", "0", "1", "2", "x", "", "1000000000")
FLOATS = ("0.25", "0", "-0.5", "1", "1e-300", "inf", "nan", "x", "")
RECTS = ("0.1,0.1,0.3,0.3", "0,0,4,4", "1,1,0,0", "nan,0,1,1", "0,0,inf,1",
         "0,0,1e6,1e6", "1,2", "x", "")
RADII = ("0", "0,1", "-1", "x")
PATHS = ("{root}/out.csv", "{root}/missing/out.csv", "")
SPEC_FILES = tuple(f"{{root}}/{name}" for name in
                   ("good.json", "list.json", "zero.json", "huge_d.json", "missing.json", ""))
COMMON = {"tiling": TILINGS, "spec-file": SPEC_FILES, "r": RATIONALS, "R": RATIONALS}
OPTIONS = {
    "constants": {**COMMON, "config": CONFIGS},
    "survey": {**COMMON, "grid": INTS, "csv": PATHS},
    "verify": {**COMMON, "config": CONFIGS, "support-radius": INTS[:5], "hole": RECTS,
               "hole-fraction": FLOATS, "hole-cell": INTS, "witness-radii": RADII, "csv": PATHS},
    "export": {**COMMON, "what": ("points", "domain", "x"), "bbox": RECTS, "config": CONFIGS,
               "csv": PATHS},
}
# Flags always given: argparse requires --config and --what.
ALWAYS = {"config", "what"}
HOLES = {"hole", "hole-fraction"}
# verify's flags that refuse or need each other are drawn as one choice per
# group: one source of the spec, --r with --R, and at most one kind of hole,
# --hole-cell with --hole-fraction.  Each group lists first the choices valid
# with values that fit, then how many they are, and then the refused
# choices, so every subset of a group's flags can be drawn.  Half the verify
# draws fit: the valid choices, TILINGS[k] with CONFIGS[k] (k + 1 translates
# and cells, k < 4) and each other value from the slice of its table that
# verify accepts (FITTING).  --witness-radii is given beside every hole and
# never without one: verify refuses it without a hole, and the default radii
# 0,1,2,3 would cost about 0.5 s per hole.  A draw that fits gives --csv
# only beside a hole; the others give it on a coin, hole or not.
VERIFY_GROUPS = (
    ((("tiling",),) * 4 + (("spec-file",), ("tiling", "spec-file"), ()), 4),
    (((),) * 4 + (("r", "R"), ("R",), ("r",)), 4),
    (((),) * 3 + (("hole",), ("hole-fraction",), ("hole-fraction", "hole-cell"),
                  ("hole", "hole-fraction"), ("hole-cell",), ("hole", "hole-cell"),
                  ("hole", "hole-fraction", "hole-cell")), 6),
)
GROUPED = {flag for choices, _ in VERIFY_GROUPS for choice in choices for flag in choice}
FITTING = {"support-radius": slice(1, 4), "hole": slice(1), "hole-fraction": slice(1),
           "hole-cell": slice(1, 2), "witness-radii": slice(2), "csv": slice(1)}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, spec in [("good.json", SKEW), ("list.json", [SKEW]),
                       ("zero.json", BAD_SPECS["zero_denominator"][0]),
                       ("huge_d.json", BAD_SPECS["huge_radicand"][0])]:
        (root / name).write_text(json.dumps(spec))
    return root


def _random_argv(draw, root) -> list[str]:
    """A command and flags drawn from the tables above, values as --flag=value."""
    # verify, whose flags refuse each other most, twice
    command = draw(st.sampled_from(("catalog", "constants", "survey", "verify", "export",
                                    "verify")))
    if command == "catalog":
        argv = [draw(st.sampled_from(("list", "show", "x")))]
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(TILINGS)))
        options = {"r": RATIONALS, "R": RATIONALS}
    else:
        argv, options = [], OPTIONS[command]
        if command == "survey" and draw(st.booleans()):
            argv.append("--connected-only")
    fit = command == "verify" and draw(st.booleans())
    drawn = set()
    if command == "verify":
        for choices, valid in VERIFY_GROUPS:
            drawn.update(draw(st.sampled_from(choices[:valid] if fit else choices)))
    k = draw(st.integers(0, 3)) if fit else None
    for flag, values in options.items():
        if command == "verify" and flag in GROUPED:
            wanted = flag in drawn
        elif command == "verify" and flag == "witness-radii":
            wanted = bool(drawn & HOLES)
        elif command == "verify" and flag == "csv" and fit:
            wanted = bool(drawn & HOLES) and draw(st.booleans())
        else:
            wanted = flag in ALWAYS or draw(st.booleans())
        if wanted and fit:
            values = values[k:k + 1] if flag in ("tiling", "config") else values[FITTING[flag]]
        if wanted:
            value = draw(st.sampled_from(values)).replace("{root}", str(root))
            argv.append(f"--{flag}={value}")
    return [command, *argv]


def _run_random_argv(argv) -> None:
    """main returns 0 or 2, or 1 from a failed verify check, or argparse exits
    2; nothing else escapes."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse refusing the argv
        assert exc.code == 2, sink.getvalue()
    else:
        assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), sink.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_argv_never_shows_a_traceback(argv_files, data):
    """No drawn argv shows a traceback (`_run_random_argv`)."""
    _run_random_argv(_random_argv(data.draw, argv_files))


def test_random_argv_reach_the_frame_bound_check(monkeypatch, argv_files):
    """The draws above, derandomized (the same 150 examples every run), never
    show a traceback and get past verify's refusals to the frame-bound check
    at least 10 times."""
    calls = []
    real = gram.frame_bound_check
    monkeypatch.setattr(gram, "frame_bound_check", lambda *args: calls.append(args) or real(*args))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def run(data):
        _run_random_argv(_random_argv(data.draw, argv_files))

    assert [catalog.get(name).spec.m for name in TILINGS[:4]] == [1, 2, 3, 4]
    assert [len(config.split(";")) for config in CONFIGS[:4]] == [1, 2, 3, 4]
    run()
    assert len(calls) >= 10


@pytest.mark.parametrize("flags", [
    ("--tiling=square", "--config=0,0"),
    ("--tiling=honeycomb", "--config=0,0;1,0", "--support-radius=2"),
    ("--spec-file={root}/good.json", "--config=0,0", "--hole=0.1,0.1,0.3,0.3",
     "--witness-radii=0"),
    ("--tiling=snub_square", "--config=0,0;0,1;1,0;1,1", "--hole-fraction=0.25",
     "--hole-cell=1", "--witness-radii=0,1", "--csv={root}/out.csv"),
], ids=["plain", "support", "rect_hole", "fraction_hole"])
def test_random_argv_values_reach_the_frame_bound_check(capsys, monkeypatch, argv_files, flags):
    """verify argvs of the values drawn above, as the draws write them, get
    past every refusal to the frame-bound check and, given a hole, the
    removal witness."""
    for flag in flags:  # each a value the draws above may take
        name, value = flag[2:].split("=", 1)
        assert value in OPTIONS["verify"][name]
    calls = []
    for name in ("frame_bound_check", "removal_witness"):
        fn = getattr(gram, name)
        monkeypatch.setattr(gram, name, lambda *args, fn=fn, name=name: calls.append(name)
                            or fn(*args))
    argv = [flag.replace("{root}", str(argv_files)) for flag in flags]
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code in (0, 1) and json.loads(out)["config"]
    holed = any(flag.startswith("--hole") for flag in flags)
    assert calls == ["frame_bound_check", *(["removal_witness"] if holed else [])]


def _ingham(*argv):
    """The CLI as a command line that imports this package, with stdout
    block-buffered as in a shell."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    package_root = os.path.dirname(os.path.dirname(ingham.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return [sys.executable, "-c", "import sys; from ingham.cli import main; sys.exit(main())",
            *argv], env


def test_reader_closing_the_pipe_after_one_line_exits_141_quietly():
    # 118 kB of CSV, more than a pipe holds, so the command is still writing
    cmd, env = _ingham("survey", "--tiling", "snub_square", "--grid", "3",
                       "--csv", "/dev/stdout")
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert first == b"config,connected,a2,kappa1,kappa2,ratio\r\n"
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("argv", [
    ("catalog", "show", "truncated_trihexagonal"),
    ("constants", "--tiling", "snub_square", "--config", "0,0;1,0;0,1;1,1"),
], ids=lambda argv: argv[0])
def test_output_into_a_closed_pipe_exits_141_quietly(argv):
    # the whole output sits in stdout's buffer until main flushes it
    cmd, env = _ingham(*argv)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(cmd, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")

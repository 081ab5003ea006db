import csv
import io
import json
import warnings

import pytest

from ingham import catalog, search
from ingham.cli import main
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


def test_constants_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("INGHAM_TOL", "1e-2")
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
    ],
)
def test_catalog_show_and_hole_misuse_is_usage_error(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err and message in err


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


@pytest.mark.parametrize(
    "extra",
    [
        ("--support-radius", "1000000"),
        ("--hole-fraction", "0.25", "--witness-radii", "0,1000000"),
    ],
)
def test_oversized_support_is_usage_error(capsys, extra):
    code, _, err = run_cli(capsys, *HONEYCOMB_VERIFY, *extra)
    assert code == 2
    assert "usage error: support of" in err


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

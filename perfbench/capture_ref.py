"""Capture the reference data the benchmark checks outputs against.

Run once at the commit whose outputs are the reference, from the repo root:

    python3 perfbench/capture_ref.py

It writes perfbench/ref/{reproduce,surveys,certify,exact}.json.  Every
survey input the seeds can draw is captured, so any seed can be checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ingham import catalog, cli, gram, lattice, search  # noqa: E402
from ingham.spectral import A2_SWEEP  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
from workloads import REPORT_SURVEYS  # noqa: E402


def _write(name: str, data: dict) -> None:
    check.REF_DIR.mkdir(exist_ok=True)
    with open(check.REF_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def capture_reproduce() -> None:
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["reproduce", "--out", out])
        assert rc == 0, "reproduce must pass at the reference commit"
        with open(Path(out) / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        csvs = {label: check.csv_summary(Path(out) / f"survey_{label}.csv")
                for label, _, _ in REPORT_SURVEYS}
    _write("reproduce", {"report": report, "csv": csvs})


def _stable(result) -> None:
    """Refuse a survey whose verdicts move anywhere in the threshold sweep."""
    lo, hi = min(A2_SWEEP), max(A2_SWEEP)
    for r in result.records:
        assert r.det_abs < lo or r.det_abs > hi, f"{r.config}: |det| {r.det_abs} near threshold"


def _grid_ref(spec, grid: int) -> dict:
    res = search.classify_all(spec, grid, spec.m)
    _stable(res)
    side = grid + 1
    ranks = sorted(
        check.config_rank(sorted(a * side + b for a, b in r.config), side * side, spec.m)
        for r in res.records if not r.a2
    )
    return {"total": res.total, "failing_ranks": ranks}


def capture_surveys() -> None:
    surveys = {}
    for name, grid in inputs.SURVEY_GRIDS:
        surveys[f"{name}/grid{grid}"] = _grid_ref(catalog.get(name).spec, grid)
    for r, R in inputs.SURVEY_PAIRS:
        spec = catalog.get("two_square", r=r, R=R).spec
        surveys[f"two_square_r{r}_R{R}/grid{inputs.SURVEY_PAIR_GRID}"] = _grid_ref(
            spec, inputs.SURVEY_PAIR_GRID)
    for name in inputs.CONNECTED_TILINGS:
        res = search.connected_survey(catalog.get(name).spec)
        _stable(res)
        rows = search.survey_csv_rows(res)
        surveys[f"{name}/connected"] = {
            "total": res.total, "failing": sorted(r[0] for r in rows if r[2] == 0)}
    stated = []
    for name in catalog.names():
        for rec in catalog.expected_results(name):
            p = rec.params
            if rec.kind in ("survey_fail_count", "survey_pass_count"):
                label = f"two_square_r{p['r']}_R{p['R']}" if "r" in p else name
                what = "fail" if rec.kind == "survey_fail_count" else "pass"
                stated.append({"label": label, "grid": p["grid_max"], "what": what,
                               "count": rec.want})
            elif rec.kind == "connected_pass_count":
                stated.append({"label": name, "grid": None, "what": "pass", "count": rec.want})
    _write("surveys", {"surveys": surveys, "catalog_counts": stated})


def capture_certify() -> None:
    frames = {}
    for name, cfg, radius in (("truncated_trihexagonal", "block_6x2", 1),
                              ("snub_square", "square_block", 2)):
        entry = catalog.get(name)
        fb = gram.frame_bound_check(entry.spec, entry.default_configs[cfg],
                                    gram.SupportSet.centered(entry.spec, radius))
        assert fb.passed and fb.a2
        frames[f"{name}/{cfg}/r{radius}"] = {
            k: getattr(fb, k) for k in ("lambda_min", "lambda_max", "c1_full", "c2_full")}
    hc = catalog.get("honeycomb")
    config = hc.default_configs["right"]
    hole = gram.inscribed_hole(hc.spec, config, 0, inputs.HOLE_FRACTION)
    witness = gram.removal_witness(
        hc.spec, config, hole,
        [gram.SupportSet.centered(hc.spec, k) for k in inputs.WITNESS_RADII])
    _write("certify", {"frames": frames, "witness": witness})


def capture_exact() -> None:
    entries = [catalog.get(n) for n in inputs.FIXED_TILINGS]
    entries += [catalog.get("two_square", r=r, R=R) for r, R in inputs.EXACT_PAIRS]
    minimality = {
        e.spec.name: lattice.minimality_certificate(e.spec, catalog.minimality_witnesses(e))
        for e in entries
    }
    _write("exact", {"minimality": minimality})


if __name__ == "__main__":
    capture_reproduce()
    capture_surveys()
    capture_certify()
    capture_exact()

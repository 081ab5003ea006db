"""The four workloads as lists of timed operations, with checks and replays.

An operation's `run` is what a user calls; its `check` compares the output
with the references.  Where `run` is one opaque call (the reproduce command,
a frame-bound check, a removal witness), `replay` makes the same public
calls one by one so the traced run can put a span around each of them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from ingham import catalog, cli, geometry, gram, lattice, search, spectral
from ingham.lattice import mat_vec, qvec, vec_add, vec_sub

import check
import inputs

SURVEY_CALLS = ("search.classify_all", "search.connected_survey", "search.classify_configs")
CSV_HEADER = ["config", "connected", "a2", "kappa1", "kappa2", "ratio"]


@dataclass
class Op:
    label: str
    run: Callable  # (tracer) -> output
    check: Callable  # (output) -> list of failure messages
    weight: int = 1  # operations this output stands for in attempted/failed
    replay: Callable | None = None
    replay_check: Callable | None = None


# -- traced calls that also count work ---------------------------------------------


def survey_call(tr, name, fn, spec, *args):
    key = (name, spec.name, tuple(tuple(a) if isinstance(a, list) else a for a in args))
    seen = key in tr.keys.get("search.surveys", ())
    tr.count("search.surveys")
    tr.key("search.surveys", key)
    t0 = time.perf_counter()
    res = tr.call(name, fn, spec, *args)
    if seen:
        tr.count("search.repeat_s", time.perf_counter() - t0)
    tr.count("search.configs", res.total if hasattr(res, "total") else len(res))
    return res


def gram_call(tr, spec, config, support):
    tr.count("gram.entries", len(support) ** 2)
    tr.high("gram.max_support", len(support))
    return tr.call("gram.gram_matrix", gram.gram_matrix, spec, config, support)


# -- survey --------------------------------------------------------------------------


class Survey:
    """search.classify_all + survey_csv_rows, as `ingham survey --csv` runs them."""

    def __init__(self, seed: int, work_dir: Path):
        self.inputs = inputs.survey_inputs(seed)
        ref = check.load_ref("surveys")
        self.ops = []
        for name, grid in self.inputs["grids"]:
            self._grid_op(name, catalog.get(name).spec, grid, ref)
        for r, R in self.inputs["pairs"]:
            spec = catalog.get("two_square", r=r, R=R).spec
            self._grid_op(f"two_square_r{r}_R{R}", spec, self.inputs["pair_grid"], ref)
        for name in self.inputs["connected"]:
            self._connected_op(name, catalog.get(name).spec, ref)

    def _grid_op(self, label, spec, grid, ref):
        stated = [s for s in ref["catalog_counts"]
                  if s["label"] == label and s["grid"] is not None and s["grid"] <= grid]
        want = ref["surveys"][f"{label}/grid{grid}"]

        def run(tr):
            res = survey_call(tr, "search.classify_all", search.classify_all, spec, grid, spec.m)
            rows = tr.call("search.survey_csv_rows", search.survey_csv_rows, res)
            return res.total, res.failing, rows

        def chk(out):
            return check.check_grid_survey(*out, grid, spec.m, want, stated)

        self.ops.append(Op(f"survey {label} grid {grid}", run, chk))

    def _connected_op(self, name, spec, ref):
        stated = [s for s in ref["catalog_counts"] if s["label"] == name and s["grid"] is None]
        want = ref["surveys"][f"{name}/connected"]

        def run(tr):
            res = survey_call(tr, "search.connected_survey", search.connected_survey, spec)
            rows = tr.call("search.survey_csv_rows", search.survey_csv_rows, res)
            return res.total, res.failing, rows

        self.ops.append(Op(f"connected survey {name}", run,
                           lambda out: check.check_connected_survey(*out, want, stated)))

    def warm(self) -> None:
        res = search.classify_all(catalog.get("trihexagonal").spec, 1, 3)
        search.survey_csv_rows(res)


# -- certify ---------------------------------------------------------------------------


def frame_replay(tr, spec, config, support):
    """gram.frame_bound_check as its public calls, with the same verdict rule."""
    sr = tr.call("spectral.ingham_constants", spectral.ingham_constants, spec, config)
    g = gram_call(tr, spec, config, support)
    lam_min, lam_max = tr.call("spectral.hermitian_extremes", spectral.hermitian_extremes, g)
    eps = 1e-6 * sr.c2_full
    if sr.satisfies_a2:
        passed = sr.c1_full - eps <= lam_min and lam_max <= sr.c2_full + eps
    else:
        passed = lam_max <= sr.c2_full + eps
    return gram.FrameBoundReport(
        lambda_min=lam_min, lambda_max=lam_max,
        c1_full=sr.c1_full if sr.satisfies_a2 else 0.0, c2_full=sr.c2_full,
        a2=sr.satisfies_a2, passed=passed,
    )


class Certify:
    """Gram frame-bound checks on few large supports, and a removal witness."""

    def __init__(self, seed: int, work_dir: Path):
        self.inputs = inputs.certify_inputs(seed)
        ref = check.load_ref("certify")
        r, R = (Fraction(v) for v in self.inputs["two_square"])
        ts = catalog.get("two_square", r=r, R=R)
        frames = [
            ("truncated_trihexagonal", "block_6x2", 1),
            ("snub_square", "square_block", 2),
        ]
        self.ops = []
        for name, cfg, radius in frames:
            entry = catalog.get(name)
            label = f"{name}/{cfg}/r{radius}"
            self._frame_op(label, entry.spec, entry.default_configs[cfg], radius,
                           ref["frames"][label])
        self._frame_op(f"{ts.spec.name}/canonical/r2", ts.spec,
                       ts.default_configs["canonical"], 2, None)
        self._witness_op(catalog.get("honeycomb"), ref["witness"])

    def _frame_op(self, label, spec, config, radius, want):
        def run(tr):
            support = gram.SupportSet.centered(spec, radius)
            return tr.call("gram.frame_bound_check", gram.frame_bound_check,
                           spec, config, support)

        def replay(tr):
            return frame_replay(tr, spec, config, gram.SupportSet.centered(spec, radius))

        self.ops.append(Op(f"frame bounds {label}", run,
                           lambda fb: check.check_frame_report(fb, want), replay=replay))

    def _witness_op(self, entry, want):
        spec = entry.spec
        config = entry.default_configs["right"]
        radii = self.inputs["witness_radii"]
        fraction = self.inputs["hole_fraction"]

        def run(tr):
            hole = gram.inscribed_hole(spec, config, 0, fraction)
            supports = [gram.SupportSet.centered(spec, k) for k in radii]
            return tr.call("gram.removal_witness", gram.removal_witness,
                           spec, config, hole, supports)

        def replay(tr):
            hole = tr.call("gram.inscribed_hole", gram.inscribed_hole, spec, config, 0, fraction)
            out = []
            for k in radii:
                support = gram.SupportSet.centered(spec, k)
                g = gram_call(tr, spec, config, support)
                h = tr.call("gram.hole_gram_matrix", gram.hole_gram_matrix,
                            spec, config, support, hole)
                lam_min, _ = tr.call("spectral.hermitian_extremes",
                                     spectral.hermitian_extremes, g - h)
                out.append(float(lam_min))
            return out

        self.ops.append(Op("removal witness honeycomb/right", run,
                           lambda lams: check.check_witness(lams, want), replay=replay))

    def warm(self) -> None:
        sq = catalog.get("square")
        gram.frame_bound_check(sq.spec, sq.default_configs["base"],
                               gram.SupportSet.centered(sq.spec, 0))


# -- exact -------------------------------------------------------------------------------


def lattice_point(spec, j, m):
    return mat_vec(spec.l_star, vec_add(spec.us[j], qvec(*m)))


def line_oracle(spec, a, b, got) -> list[str]:
    """True needs a + k(b-a) in the lattice for sampled k; False needs a miss."""
    d = vec_sub(b, a)
    point = lambda k: (a[0] + d[0] * k, a[1] + d[1] * k)
    if got is True:
        if all(lattice.contains(spec, point(k)) is not None for k in (-3, -1, 2, 5, 7)):
            return []
        return ["line_lattice_subset True, but a sampled point is not in the lattice"]
    if got is False and any(lattice.contains(spec, point(k)) is None for k in range(2, 200)):
        return []
    return [f"line_lattice_subset returned {got!r}; no point off the lattice for k < 200"]


class Exact:
    """Exact membership, minimality, line lattices and spec JSON round trips."""

    def __init__(self, seed: int, work_dir: Path):
        entries = {name: catalog.get(name) for name in inputs.FIXED_TILINGS}
        m_counts = {k: e.spec.m for k, e in entries.items()} | {"two_square": 4}
        self.inputs = inputs.exact_inputs(seed, m_counts)
        r, R = self.inputs["two_square"]
        entries["two_square"] = catalog.get("two_square", r=r, R=R)
        ref = check.load_ref("exact")
        self.ops = []
        for label, j, m in self.inputs["points"]:
            spec = entries[label].spec
            self._contains_op(spec, lattice_point(spec, j, m), j, tuple(m))
        for label, entry in entries.items():
            self._minimality_op(entry, ref["minimality"][entry.spec.name])
        for label, j1, m1, j2, m2 in self.inputs["line_pairs"]:
            spec = entries[label].spec
            self._line_op(spec, lattice_point(spec, j1, m1), lattice_point(spec, j2, m2))
        for entry in entries.values():
            for _ in range(self.inputs["json_round_trips"]):
                self._json_op(entry.spec)

    def _contains_op(self, spec, p, j, m):
        self.ops.append(Op(
            f"contains {spec.name} j={j} m={m}",
            lambda tr: tr.call("lattice.contains", lattice.contains, spec, p),
            lambda got: check.check_contains(got, j, m),
        ))

    def _minimality_op(self, entry, want):
        def run(tr):
            w = tr.call("catalog.minimality_witnesses", catalog.minimality_witnesses, entry)
            return tr.call("lattice.minimality_certificate",
                           lattice.minimality_certificate, entry.spec, w)

        self.ops.append(Op(
            f"minimality {entry.spec.name}", run,
            lambda got: [] if got is want else [f"minimality {got!r} != {want!r}"],
        ))

    def _line_op(self, spec, a, b):
        self.ops.append(Op(
            f"line_lattice_subset {spec.name}",
            lambda tr: tr.call("lattice.line_lattice_subset", lattice.line_lattice_subset,
                               spec, a, b),
            lambda got: line_oracle(spec, a, b, got),
        ))

    def _json_op(self, spec):
        def run(tr):
            data = tr.call("catalog.spec_to_json", catalog.spec_to_json, spec)
            text = json.dumps(data, sort_keys=True)
            return tr.call("catalog.spec_from_json", catalog.spec_from_json, json.loads(text))

        self.ops.append(Op(
            f"json round trip {spec.name}", run,
            lambda got: [] if got == spec else [f"round trip of {spec.name} changed it"],
        ))

    def warm(self) -> None:
        sq = catalog.get("square").spec
        lattice.contains(sq, qvec(0, 0))


# -- reproduce --------------------------------------------------------------------------


def _acceptance_support(spec) -> gram.SupportSet:
    """Largest centered-box support with at most 50 exponentials."""
    best = max(
        (spec.m * nx * ny, -nx, -ny)
        for nx in range(1, 8) for ny in range(1, 8) if spec.m * nx * ny <= 50
    )
    nx, ny = -best[1], -best[2]
    xs = range(-(nx // 2), nx - nx // 2)
    ys = range(-(ny // 2), ny - ny // 2)
    return gram.SupportSet.box(spec, list(xs), list(ys))


def _cell_block(tr, spec):
    classes = tr.call("search.translation_classes", search.translation_classes,
                      combinations(((0, 0), (0, 1), (1, 0), (1, 1)), spec.m))
    return [survey_call(tr, "search.classify_configs", search.classify_configs,
                        spec, [c.representative])[0] for c in classes]


def _sweep_fails(res) -> set[int]:
    return {sum(1 for r in res.records if r.det_abs <= tol) for tol in spectral.A2_SWEEP}


def replay_record(tr, entry, rec):
    """The `computed` value of one expected record, from its public calls."""
    spec, kind, params = entry.spec, rec.kind, rec.params
    cfgs = entry.default_configs
    call = tr.call

    def geom(sp, config):
        return call("geometry.omega_cells", geometry.omega_cells, sp, config)

    if kind == "kappa_pair":
        sr = call("spectral.ingham_constants", spectral.ingham_constants,
                  spec, cfgs[params["config"]])
        return [sr.kappa1, sr.kappa2]
    if kind == "a2_verdict":
        return call("spectral.check_a2", spectral.check_a2, spec, cfgs[params["config"]])
    if kind == "area":
        g = geom(spec, cfgs[params["config"]])
        return call("geometry.area_check", geometry.area_check, g, spec)
    if kind in ("half_diameter", "radius_necessary"):
        b = call("geometry.disk_bounds", geometry.disk_bounds, geom(spec, cfgs[params["config"]]))
        return b.r_sufficient if kind == "half_diameter" else b.r_necessary
    if kind == "bessel_bound":
        return 2.0 * call("geometry.bessel_j0_root", geometry.bessel_j0_root)
    if kind == "minimality":
        w = call("catalog.minimality_witnesses", catalog.minimality_witnesses, entry)
        return call("lattice.minimality_certificate", lattice.minimality_certificate, spec, w)
    if kind == "density_ratio":
        tri = call("catalog.get", catalog.get, "triangular")
        return geom(tri.spec, tri.default_configs["base"]).area / geom(spec, cfgs["right"]).area
    if kind in ("survey_fail_count", "survey_pass_count", "survey_pass_kappas"):
        sub = entry
        if "r" in params:
            sub = call("catalog.get", catalog.get, "two_square", r=params["r"], R=params["R"])
        res = survey_call(tr, "search.classify_all", search.classify_all,
                          sub.spec, params["grid_max"], sub.spec.m)
        if params.get("sweep_stable"):
            _sweep_fails(res)
        if kind == "survey_fail_count":
            return res.failing
        if kind == "survey_pass_count":
            return res.passing
        k1s = [r.kappa1 for r in res.records if r.a2]
        k2s = [r.kappa2 for r in res.records if r.a2]
        return [min(k1s), max(k1s), min(k2s), max(k2s)]
    if kind in ("connected_pass_count", "connected_all_pass"):
        res = survey_call(tr, "search.connected_survey", search.connected_survey, spec)
        return res.passing if kind == "connected_pass_count" else res.failing == 0
    if kind == "polyomino_count":
        return len(call("geometry.fixed_polyominoes", geometry.fixed_polyominoes, params["size"]))
    if kind == "class_pairs":
        if rec.key == "cells-2x2":
            return [[list(r.config[0]), list(r.config[1]), round(r.kappa1, 7), round(r.kappa2, 7)]
                    for r in _cell_block(tr, spec)]
        res = survey_call(tr, "search.connected_survey", search.connected_survey, spec)
        return [list(p) for p in
                sorted({(round(r.kappa1, 7), round(r.kappa2, 7)) for r in res.records if r.a2})]
    if kind == "rank_order":
        records = _cell_block(tr, spec)
        passing = sum(1 for r in records if r.a2)
        result = search.SurveyResult(total=len(records), passing=passing,
                                     failing=len(records) - passing, records=tuple(records))
        ranked = call("search.rank_by_conditioning", search.rank_by_conditioning, result)
        return [[list(p) for p in r.config] for r in ranked]
    if kind == "delta_matches_det":
        diffs = []
        for r, R in params["pairs"]:
            sub = call("catalog.get", catalog.get, "two_square", r=r, R=R)
            e = call("spectral.build_e", spectral.build_e, sub.spec, sub.default_configs["canonical"])
            delta = call("spectral.two_square_delta", spectral.two_square_delta, r, R)
            diffs.append(abs(abs(np.linalg.det(e)) - abs(delta)))
        return max(diffs)
    if kind == "delta_nonzero":
        rng = np.random.default_rng(params["seed"])
        vals = []
        for _ in range(params["count"]):
            r = Fraction(int(rng.integers(1, 1000)), 100)
            R = r + Fraction(int(rng.integers(1, 1000)), 100)
            if R > 10:
                r, R = r / 2, R / 2
            vals.append(abs(call("spectral.two_square_delta", spectral.two_square_delta, r, R)))
        return min(vals)
    raise ValueError(f"no replay for record kind {kind!r}")


REPORT_SURVEYS = (
    ("two_square_r1_R2", "two_square", {"r": 1, "R": 2}),
    ("snub_square", "snub_square", {}),
    ("truncated_square", "truncated_square", {}),
    ("trihexagonal", "trihexagonal", {}),
)


def _check_csvs(out_dir: Path, want: dict) -> list[str]:
    bad = []
    for label, summary in want.items():
        path = out_dir / f"survey_{label}.csv"
        if not path.is_file():
            bad.append(f"{path.name}: missing")
            continue
        bad.extend(f"{path.name}: {m}" for m in check.check_csv_summary(check.csv_summary(path), summary))
    return bad


class Reproduce:
    """`ingham reproduce --out <dir>` in-process; the seed is recorded but unused."""

    def __init__(self, seed: int, work_dir: Path):
        self.inputs = {"seed_unused": seed}
        self.work_dir = work_dir
        self.ref = check.load_ref("reproduce")
        weight = len(self.ref["report"]["entries"]) + len(self.ref["csv"])
        self.ops = [Op("reproduce", self._run, self._check, weight,
                       self._replay, self._replay_check)]

    def _run(self, tr):
        out = tempfile.mkdtemp(prefix="reproduce-", dir=self.work_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tr.call("cli.main", cli.main, ["reproduce", "--out", out])
        return rc, Path(out)

    def _check(self, out):
        rc, out_dir = out
        try:
            bad = [] if rc == 0 else [f"reproduce exit code {rc}"]
            with open(out_dir / "report.json", encoding="utf-8") as fh:
                bad += check.check_report(json.load(fh), self.ref["report"])
            return bad + _check_csvs(out_dir, self.ref["csv"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _replay(self, tr):
        computed = {}
        names = tr.call("catalog.names", catalog.names)

        def get(name, **params):
            return tr.call("catalog.get", catalog.get, name, **params)

        for name in names:
            entry = get(name, r=1, R=2) if name == "two_square" else get(name)
            for rec in entry.expected:
                with tr.span(f"reproduce.kind.{rec.kind}"):
                    computed[f"{entry.spec.name}/{rec.kind}/{rec.key}"] = replay_record(tr, entry, rec)
        for name in names:
            with tr.span("reproduce.kind.frame_bounds"):
                entry = get(name, r=1, R=3) if name == "two_square" else get(name)
                support = _acceptance_support(entry.spec)
                config = entry.default_configs[entry.primary_config]
                fb = frame_replay(tr, entry.spec, config, support)
                key = f"{entry.spec.name}/frame_bounds/{entry.primary_config}/S{len(support)}"
                computed[key] = [fb.lambda_min, fb.lambda_max]
        with tr.span("reproduce.write"):
            out_dir = Path(tempfile.mkdtemp(prefix="replay-", dir=self.work_dir))
            (out_dir / "report.json").write_text(
                json.dumps(computed, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            for label, name, params in REPORT_SURVEYS:
                entry = get(name, **params)
                grid = 2 if entry.spec.m == 3 else 3
                res = survey_call(tr, "search.classify_all", search.classify_all,
                                  entry.spec, grid, entry.spec.m)
                rows = tr.call("search.survey_csv_rows", search.survey_csv_rows, res)
                with open(out_dir / f"survey_{label}.csv", "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(CSV_HEADER)
                    writer.writerows(rows)
        return computed, out_dir

    def _replay_check(self, out):
        computed, out_dir = out
        try:
            return check.check_computed(computed, self.ref["report"]) + _check_csvs(out_dir, self.ref["csv"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def warm(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["constants", "--tiling", "square", "--config", "0,0"])


WORKLOADS = {"reproduce": Reproduce, "survey": Survey, "certify": Certify, "exact": Exact}


# -- probes of single layers, run once after the traced passes ----------------------------


def _probe_specs():
    out = [catalog.get(n).spec for n in inputs.FIXED_TILINGS]
    r, R = inputs.EXACT_PAIRS[0]
    return out + [catalog.get("two_square", r=r, R=R).spec]


def qfield_probe(tr, reps: int = 15) -> tuple[float, float]:
    """Microseconds per QuadNumber x*y + z and per inverse, over catalog entries."""
    triples, nonzero = [], []
    for spec in _probe_specs():
        nums = [c for row in spec.l_star for c in row] + [c for u in spec.us for c in u]
        n = len(nums)
        triples += [(nums[i], nums[(i + 1) % n], nums[(i + 2) % n]) for i in range(n)]
        nonzero += [x for x in nums if not x.is_zero()]
    mul, inv = [], []
    for _ in range(reps):
        with tr.span("qfield.mul_add"):
            t0 = time.perf_counter()
            for x, y, z in triples:
                x * y + z
            mul.append((time.perf_counter() - t0) / len(triples))
        with tr.span("qfield.inverse"):
            t0 = time.perf_counter()
            for x in nonzero:
                x.inverse()
            inv.append((time.perf_counter() - t0) / len(nonzero))
    return median(mul) * 1e6, median(inv) * 1e6


def geometry_probe(tr, survey_keys) -> tuple[float, float]:
    """is_connected per configuration over the workload's surveys (us), and the
    time to enumerate each polyomino size its connected surveys use (ms)."""
    configs, sizes = [], set()
    for name, spec_name, args in survey_keys:
        if name == "search.classify_all":
            configs.extend(search.enumerate_configs(args[0], args[1]))
        elif name == "search.connected_survey":
            m = catalog.get(spec_name).spec.m
            sizes.add(m)
            configs.extend(s.cells for s in geometry.fixed_polyominoes(m))
    connected_us = poly_ms = 0.0
    if configs:
        with tr.span("geometry.is_connected"):
            t0 = time.perf_counter()
            for cfg in configs:
                geometry.is_connected(cfg)
            connected_us = (time.perf_counter() - t0) / len(configs) * 1e6
    for m in sorted(sizes):
        with tr.span("geometry.fixed_polyominoes"):
            t0 = time.perf_counter()
            geometry.fixed_polyominoes(m)
            poly_ms += (time.perf_counter() - t0) * 1e3
    return connected_us, poly_ms

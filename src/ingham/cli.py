"""Command-line front end.

Subcommands: catalog, constants, survey, verify, export, reproduce.
Outputs are byte-deterministic for fixed flags: JSON is emitted with sorted
keys, CSVs in a fixed column order, and nothing time- or path-dependent is
recorded.  Exit codes: 0 success, 1 computation mismatch, 2 usage error.

Only the exact layer is imported here, so `catalog` and `export --what
points` run without numpy; each command that computes in floats imports its
numeric modules when it runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext

from . import catalog
from .catalog import load_spec_file, minimality_witnesses, spec_to_json
from .errors import FieldMismatchError, HoleOutsideDomainError, InghamError, NotHermitianError
from .lattice import (LatticeSpec, TranslationConfig, mat_float, minimality_certificate,
                      realize_points)
from .qfield import rational


def _spec(args) -> LatticeSpec:
    if args.spec_file:
        given = [flag for flag, value in (("--tiling", args.tiling), ("--r", args.r),
                                          ("--R", args.R)) if value is not None]
        if given:
            raise ValueError(f"--spec-file takes no {', '.join(given)}")
        try:
            return load_spec_file(args.spec_file)
        except OSError as exc:
            raise ValueError(f"cannot read --spec-file: {exc}") from None
    if not args.tiling:
        raise ValueError("one of --tiling or --spec-file is required")
    return catalog.get(args.tiling, r=args.r, R=args.R).spec


def _box(text: str, flag: str) -> tuple[float, ...]:
    """The corners x0,y0,x1,y1 given to --hole or --bbox."""
    try:
        box = tuple(float(v) for v in text.split(","))
    except ValueError:
        box = ()
    if len(box) != 4:
        raise ValueError(f"{flag} needs 4 values x0,y0,x1,y1")
    return box


def _radii(text: str) -> list[int]:
    """The support radii k,k,... given to --witness-radii."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--witness-radii expects integers 'k,k,...', got {text!r}") from None


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _write_csv(path: str | None, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            if name == "two_square":
                print("two_square (parametric: --r and --R)")
            else:
                print(name)
        return 0
    if not args.name:
        raise ValueError("catalog show needs a tiling name")
    entry = catalog.get(args.name, r=args.r, R=args.R)
    try:
        data = spec_to_json(entry.spec)
    except ValueError:  # mixed radicals have no exact JSON form
        data = {
            "name": entry.spec.name,
            "l_star": mat_float(entry.spec.l_star),
            "us": [[float(c) for c in u] for u in entry.spec.us],
            "note": "mixed radicals; entries shown as floats",
        }
    data["m"] = entry.spec.m
    data["configs"] = {k: str(v) for k, v in sorted(entry.default_configs.items())}
    data["minimality_certified"] = _minimality_status(entry)
    _emit_json(data)
    return 0


def _minimality_status(entry) -> bool | None:
    try:
        return minimality_certificate(entry.spec, minimality_witnesses(entry))
    except InghamError:
        return None


def cmd_constants(args) -> int:
    from . import geometry, spectral

    spec = _spec(args)
    config = TranslationConfig.parse(args.config)
    sr = spectral.ingham_constants(spec, config)
    _emit_json(
        {
            "tiling": spec.name,
            "config": str(config),
            "a2": sr.satisfies_a2,
            "kappa1": sr.kappa1,
            "kappa2": sr.kappa2,
            "det_abs": sr.det_abs,
            "c1_full": sr.c1_full,
            "c2_full": sr.c2_full,
            "connected": geometry.is_connected(config.ns),
        }
    )
    return 0


def cmd_survey(args) -> int:
    from . import search

    spec = _spec(args)
    if args.connected_only:
        grid, result = None, search.connected_survey(spec)
    else:
        grid = 3 if args.grid is None else args.grid
        result = search.classify_all(spec, grid, spec.m)
    if args.csv:
        search.write_survey_csv(args.csv, result)
    _emit_json(
        {
            "tiling": spec.name,
            "grid_max": grid,
            "connected_only": bool(args.connected_only),
            "total": result.total,
            "passing": result.passing,
            "failing": result.failing,
        }
    )
    return 0


def cmd_verify(args) -> int:
    holed = args.hole is not None or args.hole_fraction is not None
    if args.csv and not holed:  # the CSV holds the removal witness
        raise ValueError("--csv needs --hole or --hole-fraction")
    if args.witness_radii is not None and not holed:
        raise ValueError("--witness-radii needs --hole or --hole-fraction")
    if args.hole_cell is not None and args.hole_fraction is None:
        raise ValueError("--hole-cell needs --hole-fraction")
    hole = None if args.hole is None else _box(args.hole, "--hole")
    from . import gram

    spec = _spec(args)
    config = TranslationConfig.parse(args.config)
    support = gram.SupportSet.centered(spec, args.support_radius)
    supports = None
    if holed:  # refused before the frame-bound work
        radii = "0,1,2,3" if args.witness_radii is None else args.witness_radii
        supports = [gram.SupportSet.centered(spec, k) for k in _radii(radii)]
        # the witness is taken at the origin; config and hole print as given
        origin, moved = gram._at_origin(spec, config, hole or (0.0,) * 4)
        try:
            if hole is not None:
                gram._cell_of_rect(spec, origin, moved)
            else:  # moved is the zero rectangle moved: minus the shift
                inner = gram.inscribed_hole(spec, origin, args.hole_cell or 0, args.hole_fraction)
                hole, moved = tuple(a - b for a, b in zip(inner, moved)), inner
        except HoleOutsideDomainError as exc:  # the user's hole
            raise ValueError(f"hole: {exc}") from None
    fb = gram.frame_bound_check(spec, config, support)
    data = {
        "tiling": spec.name,
        "config": str(config),
        "support_size": len(support),
        "a2": fb.a2,
        "lambda_min": fb.lambda_min,
        "lambda_max": fb.lambda_max,
        "c1_full": fb.c1_full,
        "c2_full": fb.c2_full,
        "frame_bounds_pass": fb.passed,
    }
    if supports is not None:
        try:
            lambdas = gram.removal_witness(spec, origin, moved, supports)
        except FieldMismatchError as exc:  # the user's spec
            raise ValueError(f"hole: {exc}") from None
        data["hole"] = list(hole)
        data["witness"] = [
            {"support_size": len(s), "lambda_min": lam}
            for s, lam in zip(supports, lambdas)
        ]
        if args.csv:
            rows = [(len(s), f"{lam:.12g}") for s, lam in zip(supports, lambdas)]
            _write_csv(args.csv, ["support_size", "lambda_min"], rows)
    _emit_json(data)
    return 0 if fb.passed else 1


def cmd_export(args) -> int:
    flag, value = {"points": ("--config", args.config), "domain": ("--bbox", args.bbox)}[args.what]
    if value is not None:
        raise ValueError(f"export --what {args.what} takes no {flag}")
    spec = _spec(args)
    if args.what == "points":
        bbox = _box("0,0,1,1" if args.bbox is None else args.bbox, "--bbox")
        rows = [
            (f"{p.x:.12g}", f"{p.y:.12g}", p.j, p.m[0], p.m[1])
            for p in realize_points(spec, bbox)
        ]
        _write_csv(args.csv, ["x", "y", "j", "m0", "m1"], rows)
        return 0
    if args.config:
        config = TranslationConfig.parse(args.config)
    elif args.spec_file:
        raise ValueError("export --what domain needs --config with --spec-file")
    else:
        entry = catalog.get(args.tiling, r=args.r, R=args.R)
        config = entry.default_configs[entry.primary_config]
    from . import geometry

    geom = geometry.omega_cells(spec, config)
    rows = [
        (cell, vertex, f"{x:.12g}", f"{y:.12g}")
        for cell, corners in enumerate(geom.cells.tolist())
        for vertex, (x, y) in enumerate(corners)
    ]
    _write_csv(args.csv, ["cell_index", "vertex_index", "x", "y"], rows)
    return 0


def cmd_reproduce(args) -> int:
    from .reproduce import build_report

    report = build_report(out_dir=args.out)
    summary = report["summary"]
    for entry in report["entries"]:
        status = "PASS" if entry["pass"] else "FAIL"
        extra = ""
        if "printed" in entry:
            extra = f"  [published value {entry['printed']!r} documented-discrepant]"
        print(f"{status}  {entry['tiling']}/{entry['kind']}/{entry['key']}{extra}")
    print(
        f"{summary['passed']}/{summary['total']} checks passed; "
        f"{len(summary['documented_discrepancies'])} documented discrepancies"
    )
    return 0 if summary["all_pass"] else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ingham",
        description="Two-sided estimate data for lattice tilings of the plane",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list tilings or show one")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--r", type=rational, default=None)
    p.add_argument("--R", type=rational, default=None)
    p.set_defaults(func=cmd_catalog)

    def common(p):
        p.add_argument("--tiling", required=False)
        p.add_argument("--spec-file", default=None)
        p.add_argument("--r", type=rational, default=None)
        p.add_argument("--R", type=rational, default=None)

    p = sub.add_parser("constants", help="spectral constants of one configuration")
    common(p)
    p.add_argument("--config", required=True, help="integer pairs 'a,b;a,b;...'")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("survey", help="exhaustive grid or connected-shape survey")
    common(p)
    # default None, not 3: argparse lets `--grid 3`, a value that is its
    # default, past a mutually exclusive group
    only = p.add_mutually_exclusive_group()
    only.add_argument("--grid", type=int, default=None, help="grid [0, GRID]^2 (default 3)")
    only.add_argument("--connected-only", action="store_true")
    p.add_argument("--csv", default=None, help="write per-config records to a CSV file")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("verify", help="frame-bound and removal-witness checks")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--support-radius", type=int, default=1)
    hole = p.add_mutually_exclusive_group()
    hole.add_argument("--hole", default=None, help="x0,y0,x1,y1")
    hole.add_argument("--hole-fraction", type=float, default=None)
    p.add_argument("--hole-cell", type=int, default=None, help="needs --hole-fraction (default 0)")
    p.add_argument("--witness-radii", default=None, help="needs a hole (default 0,1,2,3)")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="figure data as CSV")
    common(p)
    p.add_argument("--what", choices=["points", "domain"], required=True)
    p.add_argument("--bbox", default=None, help="x0,y0,x1,y1 for points (default 0,0,1,1)")
    p.add_argument("--config", default=None, help="for domain")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("reproduce", help="run the full expected-results table")
    p.add_argument("--out", default=None, help="directory for report.json and CSVs")
    p.set_defaults(func=cmd_reproduce)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "csv", None) == "":  # given empty, not left out
            raise ValueError("--csv needs a path")
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    # The one exception-to-exit-code rule: a command returns 1 only for a
    # failed check, and what it raises comes from its input, except a failed
    # internal numerical check and a failure while writing (a full disk),
    # which propagate.  The OSErrors caught are those of opening or creating
    # a path the user named.  A reader that closed stdout (`| head`) took
    # what it wanted: the command stops quietly with 141, the status of a
    # process ended by SIGPIPE, and stdout goes to os.devnull so that the
    # interpreter's final flush of it does not raise again.
    except NotHermitianError:
        raise
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 141
    except (InghamError, ValueError, KeyError, FileExistsError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Output checks against reference data captured from the seed commit.

Values are compared by tolerance, not by bytes, so a numerically equivalent
kernel passes: ints, bools and strings must match exactly, floats within
the entry's own `tol`, or within 1e-9 relative when `tol` is 0.  Every check
returns a list of failure messages; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
REL_TOL = 1e-9


def load_ref(name: str) -> dict:
    with open(REF_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def same(got, want, tol: float) -> bool:
    """Structural equality with float leaves compared within `tol`."""
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if _is_num(want) and _is_num(got):
        if tol > 0:
            return abs(got - want) <= tol
        return abs(got - want) <= REL_TOL * max(abs(got), abs(want))
    if isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(got) == len(want) and all(same(g, w, tol) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k], tol) for k in want)
    return got == want


def entry_key(e: dict) -> str:
    return f"{e['tiling']}/{e['kind']}/{e['key']}"


def check_report(got: dict, ref: dict) -> list[str]:
    """One message per report entry that is missing, extra or differs."""
    bad = []
    have = {entry_key(e): e for e in got.get("entries", [])}
    for w in ref["entries"]:
        k = entry_key(w)
        g = have.pop(k, None)
        if g is None:
            bad.append(f"{k}: missing")
        elif g.get("pass") is not w["pass"]:
            bad.append(f"{k}: pass {g.get('pass')} != {w['pass']}")
        elif not same(g.get("computed"), w["computed"], w["tol"]):
            bad.append(f"{k}: computed {g.get('computed')!r} != {w['computed']!r}")
        elif not same(g.get("want"), w["want"], w["tol"]):
            bad.append(f"{k}: want {g.get('want')!r} != {w['want']!r}")
    bad.extend(f"{k}: unexpected entry" for k in have)
    if not bad and got.get("summary", {}).get("all_pass") is not True:
        bad.append("summary.all_pass is not true")
    return bad


def check_computed(got: dict[str, object], ref: dict) -> list[str]:
    """Replayed `computed` values, keyed like entry_key, against the report."""
    bad = []
    for w in ref["entries"]:
        k = entry_key(w)
        if k not in got:
            bad.append(f"{k}: not replayed")
        elif not same(json.loads(json.dumps(got[k])), w["computed"], w["tol"]):
            bad.append(f"{k}: replayed {got[k]!r} != {w['computed']!r}")
    return bad


def csv_summary(path: Path) -> dict:
    """Row count, failing configs, connected count and kappa sums of a survey CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    return {
        "header": rows[0] if rows else [],
        "rows": len(body),
        "failing": sorted(r[0] for r in body if r[2] == "0"),
        "connected": sum(1 for r in body if r[1] == "1"),
        "kappa1_sum": math.fsum(float(r[3]) for r in body),
        "kappa2_sum": math.fsum(float(r[4]) for r in body),
    }


def check_csv_summary(got: dict, want: dict) -> list[str]:
    bad = []
    for k in ("header", "rows", "failing", "connected"):
        if got[k] != want[k]:
            bad.append(f"{k} differs")
    for k in ("kappa1_sum", "kappa2_sum"):
        if abs(got[k] - want[k]) > 1e-7 * max(1.0, abs(want[k])):
            bad.append(f"{k} {got[k]!r} != {want[k]!r}")
    return bad


# -- surveys --------------------------------------------------------------------


def config_rank(points: list[int], n: int, m: int) -> int:
    """Lexicographic rank of a sorted m-subset of range(n)."""
    rank = math.comb(n, m) - 1
    for i, c in enumerate(points):
        rank -= math.comb(n - 1 - c, m - i)
    return rank


def parse_config(text: str) -> list[tuple[int, int]]:
    return [tuple(int(v) for v in p.split(",")) for p in text.split(";")]


def check_grid_survey(
    total: int, failing: int, rows: list, grid: int, m: int, ref: dict,
    stated: list[dict],
) -> list[str]:
    """A grid survey against its reference verdicts, config by config.

    `rows` are survey_csv_rows output; `ref` holds the lexicographic ranks of
    the failing configurations; `stated` lists the catalog's counts for
    sub-grids [0, g]^2 of this survey.
    """
    bad = []
    side = grid + 1
    want_total = math.comb(side * side, m)
    if total != want_total or len(rows) != want_total:
        bad.append(f"total {total} ({len(rows)} rows) != C({side * side},{m}) = {want_total}")
    fail_cfgs = [parse_config(r[0]) for r in rows if int(r[2]) == 0]
    if failing != len(fail_cfgs):
        bad.append(f"failing {failing} != {len(fail_cfgs)} rows with a2 = 0")
    ranks = sorted(
        config_rank(sorted(a * side + b for a, b in cfg), side * side, m)
        for cfg in fail_cfgs
    )
    if ranks != ref["failing_ranks"]:
        diff = len(set(ranks) ^ set(ref["failing_ranks"]))
        bad.append(f"A2 verdicts differ on {diff} configurations")
    for s in stated:
        g = s["grid"]
        sub_fail = sum(1 for cfg in fail_cfgs if all(a <= g and b <= g for a, b in cfg))
        count = sub_fail if s["what"] == "fail" else math.comb((g + 1) ** 2, m) - sub_fail
        if count != s["count"]:
            bad.append(f"grid-0-{g} {s['what']} count {count} != catalog {s['count']}")
    return bad


def check_connected_survey(
    total: int, failing: int, rows: list, ref: dict, stated: list[dict]
) -> list[str]:
    bad = []
    if total != ref["total"] or len(rows) != ref["total"]:
        bad.append(f"total {total} ({len(rows)} rows) != {ref['total']}")
    fail_cfgs = sorted(r[0] for r in rows if int(r[2]) == 0)
    if fail_cfgs != ref["failing"] or failing != len(ref["failing"]):
        bad.append("A2 verdicts differ from the reference")
    for s in stated:
        if total - failing != s["count"]:
            bad.append(f"connected pass count {total - failing} != catalog {s['count']}")
    return bad


# -- certification ----------------------------------------------------------------


def close_rel(got: float, want: float, rel: float = 1e-8) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def check_frame_report(fb, ref: dict | None) -> list[str]:
    bad = []
    if not (fb.passed and fb.a2):
        bad.append(f"frame bounds passed={fb.passed} a2={fb.a2}")
    if not fb.lambda_min <= fb.lambda_max:
        bad.append("lambda_min > lambda_max")
    if ref is not None:
        for k in ("lambda_min", "lambda_max", "c1_full", "c2_full"):
            if not close_rel(getattr(fb, k), ref[k]):
                bad.append(f"{k} {getattr(fb, k)!r} != {ref[k]!r}")
    return bad


def check_witness(lams: list[float], ref: list[float]) -> list[str]:
    bad = []
    if any(b >= a for a, b in zip(lams, lams[1:])):
        bad.append(f"witness lambda_min does not strictly decrease: {lams}")
    if len(lams) != len(ref) or not all(close_rel(g, w) for g, w in zip(lams, ref)):
        bad.append(f"witness {lams} != reference {ref}")
    return bad


# -- exact arithmetic ---------------------------------------------------------------


def check_contains(got, j: int, m: tuple[int, int]) -> list[str]:
    if got is None or got.j != j or tuple(got.m) != tuple(m):
        return [f"contains returned {got!r}, point was built from j={j}, m={m}"]
    return []

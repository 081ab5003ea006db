"""Self-test of the output checker: injected faults must count as failures.

Each case feeds a correct output and a faulty one through the same
operation runner the benchmark uses; the correct one must count no failure
and the faulty one exactly one.  run.py refuses to measure when a fault
goes undetected, so the correctness gate cannot be vacuous.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ingham.lattice import LatticePoint  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402


def _perturbed_report() -> tuple[dict, dict, dict]:
    ref = check.load_ref("reproduce")["report"]
    bad = copy.deepcopy(ref)
    entry = next(e for e in bad["entries"] if e["kind"] == "kappa_pair" and e["tol"] <= 1e-6)
    entry["computed"][0] += 1e-3
    return ref, copy.deepcopy(ref), bad


def _survey_rows(label: str, grid: int, m: int) -> tuple[dict, list]:
    want = check.load_ref("surveys")["surveys"][f"{label}/grid{grid}"]
    failing = set(want["failing_ranks"])
    points = [(a, b) for a in range(grid + 1) for b in range(grid + 1)]
    rows = [
        (";".join(f"{a},{b}" for a, b in cfg), 1, int(i not in failing), "1", "1", "")
        for i, cfg in enumerate(combinations(points, m))
    ]
    return want, rows


def cases():
    """(name, check, correct output, faulty output) for each injected fault."""
    ref, good, bad = _perturbed_report()
    yield ("perturbed report entry", lambda rep: check.check_report(rep, ref), good, bad)

    want, rows = _survey_rows("trihexagonal", 4, 3)
    fails = sum(1 for r in rows if r[2] == 0)
    yield (
        "wrong survey count",
        lambda out: check.check_grid_survey(*out, 4, 3, want, []),
        (len(rows), fails, rows),
        (len(rows) - 1, fails, rows),
    )

    yield (
        "wrong contains index",
        lambda got: check.check_contains(got, 1, (2, -3)),
        LatticePoint(1, (2, -3)),
        LatticePoint(0, (2, -3)),
    )


def undetected_faults() -> list[str]:
    """Names of the cases where the checker did not count exactly as it should."""
    from run import execute
    from workloads import Op

    missed = []
    for name, chk, good, bad in cases():
        counts = []
        for out in (good, bad):
            op = Op(name, run=lambda tr, out=out: out, check=chk)
            counts.append(execute(op, tracing.NullTracer(), traced=False)[2])
        if counts != [0, 1]:
            missed.append(name)
    return missed


if __name__ == "__main__":
    missed = undetected_faults()
    for name, *_ in cases():
        print(f"{'MISSED' if name in missed else 'detected'}  {name}")
    sys.exit(1 if missed else 0)

"""Record a parent-versus-change benchmark comparison as a BENCH_*.json file.

    python3 scripts/bench_record.py --parent REV [--change REV] --out BENCH_name.json \
        [--workload W ...] [--seeds 11-20] [--traced-seeds 11-13]

Both sides are commits, each unpacked by `git archive` into its own
temporary directory, so neither runs from the working tree and both read
their files from the same kind of place; --change defaults to HEAD, and
uncommitted edits are not measured.  For every workload and seed,
perfbench/run.py runs once on each side, the two runs of a pair back to back
and the side that goes first alternating with the seed, so a drift of the
machine's speed falls on both sides alike.  Every run lasts BENCHMARK.json's
run_seconds.  Seeds in --traced-seeds are also run with --trace 1 on both
sides, for the per-layer metrics.

The file holds, per workload and side: the median and quartiles of each
end-to-end metric over the seeds and every run's value; the pairs in which
the change was better; peak_rss_mb per seed; the median of every per-layer
metric BENCHMARK.json lists, over the traced runs; and whether every run
matched the references.  The python and numpy versions, the machine, the
two commits and sys.flags.dont_write_bytecode are recorded beside them: the
runs inherit PYTHONDONTWRITEBYTECODE, and with it set every run compiles
ingham's sources afresh, inside its setup_s.  Progress goes to stderr, one
line per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    """'11-20' or '11,12,15' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result record perfbench/run.py prints last."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--out", required=True, help="file to write, relative to the repo root")
    ap.add_argument("--workload", action="append",
                    choices=["reproduce", "survey", "certify", "exact"])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("11-20"))
    ap.add_argument("--traced-seeds", type=seed_range, default=[])
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    import numpy as np

    traced_names = [spec["name"] for spec in bench["per_layer"]]
    record = {
        "command": ["python3", "scripts/bench_record.py", *(argv or sys.argv[1:])],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "commit": {side: git("rev-parse", rev)
                   for side, rev in (("parent", args.parent), ("change", args.change))},
        "seeds": args.seeds,
        "traced_seeds": args.traced_seeds,
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            unpack(record["commit"][side], tree)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            traced = {"parent": [], "change": []}
            for k, seed in enumerate(args.seeds):
                for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                    runs[side].append(run(trees[side], workload, seed, seconds, 0))
                    print(workload, seed, side, runs[side][-1]["metrics"]["pass_s"]["value"],
                          file=sys.stderr)
                if seed in args.traced_seeds:
                    for side in ("parent", "change"):
                        traced[side].append(run(trees[side], workload, seed, seconds, 1))
            metric = lambda side, name: [r["metrics"][name]["value"] for r in runs[side]]
            end_to_end = {}
            for spec in bench["end_to_end"]:
                name = spec["name"]
                lower = spec["better"] == "lower"
                pairs = zip(metric("parent", name), metric("change", name))
                end_to_end[name] = {
                    "unit": spec["unit"],
                    "better": spec["better"],
                    "parent": summary(metric("parent", name)),
                    "change": summary(metric("change", name)),
                    "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in pairs),
                    "pairs": len(args.seeds),
                }
            record["workloads"][workload] = {
                "end_to_end": end_to_end,
                "peak_rss_mb_per_seed": {
                    str(seed): {side: runs[side][k]["metrics"]["peak_rss_mb"]["value"]
                                for side in runs}
                    for k, seed in enumerate(args.seeds)
                },
                "traced_median": {
                    side: {name: median(r["metrics"][name]["value"] for r in traced[side])
                           for name in traced_names}
                    for side in traced if traced[side]
                },
                "correct": {side: all(r["correct"] is True for r in runs[side] + traced[side])
                            for side in runs},
            }
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

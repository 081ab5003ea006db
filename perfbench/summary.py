"""Print every metric of the benchmark by name and unit, for each workload.

    python3 perfbench/summary.py [--seconds 20] [--seed 1] [--workloads ...]

Runs perfbench/run.py untraced and then traced for each workload, each in a
process of its own, and prints the end-to-end table (with the error rate,
operation counts and pass counts), the traced per-layer table (including
trace.coverage and trace.overhead) and the environment record.  A dash
marks a per-layer metric that the workload never reaches.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reproduce", "survey", "certify", "exact")


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py --workload {workload} --trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return result, json.load(fh)


def _table(title: str, rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print(f"\n{title}")
    for k, row in enumerate(rows):
        print("  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(row, widths))))
        if k == 0:
            print("  ".join("-" * w for w in widths))


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args()

    plain, traced = {}, {}
    for w in args.workloads:
        plain[w] = _run(w, args.seed, args.seconds, 0)
        traced[w] = _run(w, args.seed, args.seconds, 1)

    head = ["metric [unit]"] + list(args.workloads)
    names = list(plain[args.workloads[0]][0]["metrics"])
    rows = [head]
    for n in names:
        unit = plain[args.workloads[0]][0]["metrics"][n]["unit"]
        rows.append([f"{n} [{unit}]"] + [_fmt(plain[w][0]["metrics"][n]["value"]) for w in args.workloads])
    rows.append(["error_rate [ratio]"] + [_fmt(plain[w][0]["failed"] / plain[w][0]["attempted"])
                                          for w in args.workloads])
    rows.append(["attempted [count]"] + [str(plain[w][0]["attempted"]) for w in args.workloads])
    rows.append(["failed [count]"] + [str(plain[w][0]["failed"]) for w in args.workloads])
    rows.append(["passes [count]"] + [str(plain[w][1]["environment"]["passes_untraced"])
                                      for w in args.workloads])
    _table(f"End to end (untraced, seed {args.seed}, {args.seconds:g} s per run)", rows)

    rows = [head]
    for n, cell in traced[args.workloads[0]][0]["metrics"].items():
        line = [f"{n} [{cell['unit']}]"]
        for w in args.workloads:
            result, record = traced[w]
            line.append("-" if n in record["absent"] else _fmt(result["metrics"][n]["value"]))
        rows.append(line)
    rows.append(["passes traced/untraced"] + [
        f"{traced[w][1]['environment']['passes_traced']}/{traced[w][1]['environment']['passes_untraced']}"
        for w in args.workloads])
    _table("Per layer (traced run; '-' = not reached on this workload)", rows)
    print("qfield is reached only through lattice, spectral and gram, so its busy/self/calls\n"
          "stay '-'; qfield.*_us, geometry.connected_us and geometry.polyominoes_ms come from\n"
          "probes run once after the traced passes.")

    env = plain[args.workloads[0]][1]["environment"]
    print("\nEnvironment: " + json.dumps({k: env[k] for k in (
        "python", "numpy", "blas", "blas_threads", "nproc", "cpu")}, sort_keys=True))
    ok = all(plain[w][0]["correct"] and traced[w][0]["correct"] for w in args.workloads)
    print("All outputs correct." if ok else "SOME OUTPUTS FAILED THEIR CHECKS (see perfbench/out/).")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

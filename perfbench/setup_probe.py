"""One fresh-interpreter set-up: import, first catalog build, one tiny call.

Prints one JSON line with its own breakdown as soon as the first result
exists; the parent times the whole thing from process start to that line.
Usage: python3 perfbench/setup_probe.py <workload>
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ingham  # noqa: E402
from ingham import catalog  # noqa: E402

t1 = time.perf_counter()
catalog.names()
t2 = time.perf_counter()

workload = sys.argv[1]
square = catalog.get("square")
if workload == "reproduce":
    from ingham import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["constants", "--tiling", "square", "--config", "0,0"])
elif workload == "survey":
    ingham.search.survey_csv_rows(ingham.classify_all(catalog.get("trihexagonal").spec, 1, 3))
elif workload == "certify":
    ingham.frame_bound_check(square.spec, square.default_configs["base"],
                             ingham.SupportSet.centered(square.spec, 0))
elif workload == "exact":
    ingham.contains(square.spec, ingham.lattice.qvec(0, 0))
else:
    raise SystemExit(f"unknown workload {workload!r}")
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1, "call_s": t3 - t2}), flush=True)

"""Benchmark of the ingham library, run the way its batch users run it.

    python3 perfbench/run.py --workload {reproduce,survey,certify,exact} \
        --seed N --seconds S --trace {0,1}

One process and a closed loop with one client: each operation starts only
after the previous one finished, and BLAS is pinned to one thread, so the
process uses one thread of the machine's nproc.  Inputs come from the seed;
their sizes never depend on it.  Every timed output is checked against the
references in perfbench/ref (captured with capture_ref.py); operations that
raise or fail their check count in `failed`.

--trace 0 reports the end-to-end metrics:
  setup_s      median, over fresh interpreters, of the time from process
               start to the first result (import, first catalog build, one
               tiny call into the workload's entry point)
  pass_s       median time of one pass over the workload's inputs
  peak_rss_mb  peak resident memory of this process
  ok_rate      operations that returned a correct result / attempted
               (1 - error rate; a metric that can be 0 cannot carry a bound)

Times are wall times rescaled to a reference speed.  Other tenants of a
shared machine change its speed by up to 2x for seconds at a time, so
while operations are timed a signal handler times a short fixed probe
every SAMPLE_EVERY seconds (see Probe and Sampler), and a pass's wall time
is multiplied by the mean sampled speed relative to PROBE_REF.  The
handler's own time is not counted.  The record keeps the raw times
too; the traced run reports them as process.raw_pass_s and their ratio as
process.slowdown.

--trace 1 spends half the time on untraced passes and half on traced ones,
and reports per-layer metrics from spans the benchmark records around its
own calls into each module.  The last stdout line is the JSON result; the
line before it is the environment record.  The full record, spans included,
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = "1"
SETUP_RUNS = 9
MAX_PASSES = 100
PROBE_REF = 0.00054  # seconds per Probe on a quiet Intel Xeon at 2.1 GHz, Python 3.11
CHECK_REPS = 10  # probes per speed check outside the passes
SAMPLE_EVERY = 0.025  # seconds between two speed samples inside the passes

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}

LAYERS = ("catalog", "qfield", "lattice", "spectral", "geometry", "search", "gram", "reproduce")
KINDS = (
    "a2_verdict", "area", "bessel_bound", "class_pairs", "connected_all_pass",
    "connected_pass_count", "delta_matches_det", "delta_nonzero", "density_ratio",
    "frame_bounds", "half_diameter", "kappa_pair", "minimality", "polyomino_count",
    "radius_necessary", "rank_order", "survey_fail_count", "survey_pass_count",
    "survey_pass_kappas",
)
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("busy_s", "s"), ("self_s", "s"), ("calls", "count"))},
    "catalog.build_s": "s",
    "qfield.mul_add_us": "us",
    "qfield.inverse_us": "us",
    "lattice.contains_us": "us",
    "lattice.minimality_ms": "ms",
    "spectral.constants_us": "us",
    "spectral.extremes_ms": "ms",
    "geometry.connected_us": "us",
    "geometry.polyominoes_ms": "ms",
    "search.classify_s": "s",
    "search.configs_per_s": "1/s",
    "search.csv_rows_s": "s",
    "search.surveys": "count",
    "search.surveys_distinct": "count",
    "search.repeat_s": "s",
    "gram.matrix_s": "s",
    "gram.hole_s": "s",
    "gram.entries": "count",
    "gram.entries_per_s": "1/s",
    "gram.max_support": "count",
    **{f"reproduce.kind.{k}_s": "s" for k in KINDS},
    "reproduce.write_s": "s",
    "process.cpu_s": "s",
    "process.raw_pass_s": "s",
    "process.slowdown": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def execute(op, tr, traced: bool, sampler=None):
    """Run one operation, time it, then check its output outside the timing.

    Returns (wall seconds, cpu seconds, operations failed, messages); time
    spent in the sampler's handler is not counted.
    """
    fn = op.replay if traced and op.replay else op.run
    chk = op.replay_check if traced and op.replay_check else op.check
    s0 = sampler.stolen if sampler else 0.0
    c0, t0 = time.process_time(), time.perf_counter()
    if sampler:
        sampler.timing = True
    try:
        out, err = fn(tr), None
    except Exception as exc:  # counted as a failed operation, never fatal
        out, err = None, exc
    finally:
        if sampler:
            sampler.timing = False
    lost = sampler.stolen - s0 if sampler else 0.0
    dt = time.perf_counter() - t0 - lost
    dc = time.process_time() - c0 - lost
    if err is not None:
        return dt, dc, op.weight, [f"{op.label}: raised {err!r}"]
    try:
        bad = [f"{op.label}: {m}" for m in chk(out)]
    except Exception as exc:
        bad = [f"{op.label}: check raised {exc!r}"]
    return dt, dc, min(len(bad), op.weight), bad


class Probe:
    """A fixed mix of exact-rational, dict/tuple/format and small batched
    LAPACK work, the three kinds of work the workloads do; its time tracks
    how fast this process runs at the moment."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 4, 4)) + 1j * rng.standard_normal((100, 4, 4))
        self._h = a @ a.conj().transpose(0, 2, 1)
        self._linalg = np.linalg

    def slowdown(self, reps: int = 1) -> float:
        """Time of `reps` probes over their time at the reference speed
        (1.0 at that speed, 2.0 when twice as slow)."""
        t0 = time.perf_counter()
        for _ in range(reps):
            acc = Fraction(0)
            for i in range(1, 100):
                acc += Fraction(1, i % 97 + 1)
            seen: dict = {}
            for i in range(300):
                key = (i % 37, i % 41)
                seen[key] = seen.get(key, 0) + 1
                f"{i:.3g}"
            self._linalg.eigvalsh(self._h)
            self._linalg.det(self._h)
        return (time.perf_counter() - t0) / (reps * PROBE_REF)


class Sampler:
    """Samples the process's speed while operations are being timed.

    A SIGALRM handler runs one probe every SAMPLE_EVERY seconds, between
    bytecodes of whatever the operation is doing.  Its own time is
    subtracted from the operation's, and the samples taken inside timed
    operations give the mean speed of the pass.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.timing = False
        # running totals, not a list: a sample kept alive would pin a memory
        # arena of the operation it interrupted and inflate peak_rss_mb
        self.speed_sum = 0.0  # of 1 / slowdown over the samples
        self.samples = 0
        self.stolen = 0.0  # seconds spent in the handler

    def _sample(self, signum, frame) -> None:
        if self.timing:
            t0 = time.perf_counter()
            self.speed_sum += 1.0 / self.probe.slowdown()
            self.samples += 1
            self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> tuple[float, int]:
        return self.speed_sum, self.samples

    def to_reference(self, raw: float, mark: tuple[float, int]) -> float:
        """`raw` seconds of work at the mean speed sampled since `mark`."""
        n = self.samples - mark[1]
        speed = (self.speed_sum - mark[0]) / n if n else 1.0 / self.probe.slowdown(CHECK_REPS)
        return raw * speed


class Passes:
    """Passes over a workload's operations until the time budget runs out."""

    def __init__(self) -> None:
        self.wall: list[float] = []  # rescaled to the reference speed
        self.raw: list[float] = []  # as measured
        self.cpu: list[float] = []
        self.tracers: list = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, wl, budget: float, traced: bool, probe: Probe) -> None:
        start = time.perf_counter()
        with Sampler(probe) as sampler:
            # another pass starts only if it is expected to end within budget
            while self._one(wl, traced, sampler) + time.perf_counter() - start <= budget:
                if len(self.wall) >= MAX_PASSES:
                    return

    def _one(self, wl, traced: bool, sampler: Sampler) -> float:
        """One pass; returns its raw wall time."""
        tr = tracing.Tracer() if traced else tracing.NullTracer()
        first = sampler.mark()
        raw = cpu = 0.0
        for op in wl.ops:
            dt, dc, failed, bad = execute(op, tr, traced, sampler)
            raw += dt
            cpu += dc
            self.attempted += op.weight
            self.failed += failed
            self.messages.extend(bad)
        self.raw.append(raw)
        self.wall.append(sampler.to_reference(raw, first))
        self.cpu.append(cpu)
        if traced:
            self.tracers.append(tr)
        return raw


def measure_setup(workload: str, probe: Probe) -> tuple[float, float]:
    """Median set-up time and first catalog build over fresh processes, both
    rescaled to the reference speed by probes around each process."""
    totals, builds = [], []
    before = probe.slowdown(CHECK_REPS)
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} exited with {rc}")
        after = probe.slowdown(CHECK_REPS)
        scale = 2.0 / (before + after)
        before = after
        totals.append((t1 - t0) * scale)
        builds.append(json.loads(line)["catalog_s"] * scale)
    return median(totals), median(builds)


def layer_metrics(untraced: Passes, traced: Passes, build_s: float, probes: dict) -> dict:
    from workloads import SURVEY_CALLS

    def total(spans, *names):
        return sum(t1 - t0 for n, t0, t1, _ in spans if n in names)

    per_pass = []
    for tr, raw, wall in zip(traced.tracers, traced.raw, traced.wall):
        spans = tr.spans
        stats = tracing.layer_stats(spans)
        m = {}
        for layer in LAYERS:
            for k, v in stats.get(layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0}).items():
                m[f"{layer}.{k}"] = v
        m["lattice.contains_us"] = tracing.span_mean(spans, "lattice.contains") * 1e6
        m["lattice.minimality_ms"] = tracing.span_mean(spans, "lattice.minimality_certificate") * 1e3
        m["spectral.constants_us"] = tracing.span_mean(spans, "spectral.ingham_constants") * 1e6
        m["spectral.extremes_ms"] = tracing.span_mean(spans, "spectral.hermitian_extremes") * 1e3
        classify = total(spans, *SURVEY_CALLS)
        m["search.classify_s"] = classify
        m["search.configs_per_s"] = tr.counts.get("search.configs", 0) / classify if classify else 0.0
        m["search.csv_rows_s"] = total(spans, "search.survey_csv_rows")
        m["search.surveys"] = tr.counts.get("search.surveys", 0)
        m["search.surveys_distinct"] = len(tr.keys.get("search.surveys", ()))
        m["search.repeat_s"] = tr.counts.get("search.repeat_s", 0.0)
        matrix = total(spans, "gram.gram_matrix")
        m["gram.matrix_s"] = matrix
        m["gram.hole_s"] = total(spans, "gram.hole_gram_matrix")
        m["gram.entries"] = tr.counts.get("gram.entries", 0)
        m["gram.entries_per_s"] = m["gram.entries"] / matrix if matrix else 0.0
        m["gram.max_support"] = tr.counts.get("gram.max_support", 0)
        for kind in KINDS:
            m[f"reproduce.kind.{kind}_s"] = total(spans, f"reproduce.kind.{kind}")
        m["reproduce.write_s"] = total(spans, "reproduce.write")
        m["trace.coverage"] = tracing.span_total(spans)
        factor = wall / raw  # to the reference speed, as for pass_s
        for k in m:
            unit = PER_LAYER[k]
            m[k] *= factor if unit in ("s", "ms", "us", "ratio") else 1 / factor if unit == "1/s" else 1
        per_pass.append(m)
    out = {k: median(p[k] for p in per_pass) for k in per_pass[0]}
    base = median(untraced.wall)
    out["trace.coverage"] /= base
    out["trace.overhead"] = median(traced.wall) / base - 1.0
    out["process.cpu_s"] = median(c * w / r for c, w, r in zip(untraced.cpu, untraced.wall, untraced.raw))
    out["process.raw_pass_s"] = median(untraced.raw)
    out["process.slowdown"] = median(r / w for w, r in zip(untraced.wall, untraced.raw))
    out["catalog.build_s"] = build_s
    out.update(probes)
    return out


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, untraced: Passes, traced: Passes) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "passes_untraced": len(untraced.wall),
        "passes_traced": len(traced.wall),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["reproduce", "survey", "certify", "exact"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ingham" / "__init__.py").is_file():
        print(f"error: no ingham sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]

    import selftest
    import workloads

    undetected = selftest.undetected_faults()
    if undetected:
        print(f"error: checker self-test missed {undetected}", file=sys.stderr)
        return 3

    probe = Probe()
    setup_s, build_s = measure_setup(args.workload, probe)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    untraced, traced = Passes(), Passes()
    probes, spans_out = {}, []
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        wl.warm()
        if args.trace:
            untraced.run(wl, args.seconds / 2, False, probe)
            traced.run(wl, args.seconds / 2, True, probe)
            ptr = tracing.Tracer()
            keys = set().union(*(t.keys.get("search.surveys", set()) for t in traced.tracers))
            before = probe.slowdown(CHECK_REPS)
            probes["qfield.mul_add_us"], probes["qfield.inverse_us"] = workloads.qfield_probe(ptr)
            probes["geometry.connected_us"], probes["geometry.polyominoes_ms"] = (
                workloads.geometry_probe(ptr, sorted(keys, key=repr)))
            scale = 2.0 / (before + probe.slowdown(CHECK_REPS))
            probes = {k: v * scale for k, v in probes.items()}
            spans_out = [t.spans for t in traced.tracers] + [ptr.spans]
        else:
            untraced.run(wl, args.seconds, False, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if args.trace:
        metrics = layer_metrics(untraced, traced, build_s, probes)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": median(untraced.wall),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END
    env = environment(args, untraced, traced)
    record = {
        "environment": env,
        "inputs": wl.inputs,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "absent": sorted(k for k in units if metrics[k] == 0),
        "pass_s": untraced.wall,
        "pass_raw_s": untraced.raw,
        "traced_pass_s": traced.wall,
        "traced_pass_raw_s": traced.raw,
        "failures": untraced.messages[:50] + traced.messages[:50],
        "spans": spans_out,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    for msg in (untraced.messages + traced.messages)[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

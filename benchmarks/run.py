"""Benchmark of the butterflies library: three closed-loop workloads.

    python3 benchmarks/run.py --workload classify-grid --seed 1 --seconds 35 --trace 0

One client runs one op at a time in this process.  With ``--trace 0`` the
workload runs as many whole passes over its seeded op list as take about
``--seconds`` seconds on the reference machine, and reports the end-to-end
metrics, every time taken as CPU time at the nominal machine speed (see
``speed``); with ``--trace 1`` it runs one fixed pass untraced, traced and
untraced again, and reports the per-layer metrics and the tracing overhead.
Every op's output is checked.  The last line of standard output is the
result as JSON; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402
from speed import SpeedProbe, cpu_time  # noqa: E402

# set-up is repeated and its median reported: one import and input build takes ~60 ms
SETUP_REPEATS = 9
# at least ten latencies beyond op_p90_ms
MIN_OPS = 100


def load_package():
    """Import ``butterflies`` afresh from ``src/``: new module objects, empty
    caches, no wrappers left over from an earlier trace."""
    for name in [m for m in sys.modules if m == "butterflies" or m.startswith("butterflies.")]:
        del sys.modules[name]
    pkg = importlib.import_module("butterflies")
    for layer in LAYERS:
        importlib.import_module(f"butterflies.{layer}")
    if Path(pkg.__file__).resolve().parent != SRC / "butterflies":
        raise RuntimeError(f"imported butterflies from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload, seed: int, work: Path, repeats: int):
    """Import plus input generation, ``repeats`` times; the last state is
    kept.  Returns it with the (start, end, CPU time) of each set-up."""
    spans = []
    for _ in range(repeats):
        start, cpu = perf_counter(), cpu_time()
        pkg = load_package()
        state = workload.setup(pkg, seed, work)
        spans.append((start, perf_counter(), cpu_time() - cpu))
    return state, spans


def quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-quantile: a mean of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density over (0, 1).

    A plain median or percentile is one order statistic: when the ops fall
    into groups of different cost (bound 8 against bound 16 fixtures, say)
    and it sits in the gap between two groups, it jumps with the edges of
    both.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule within each 1/n slice
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_ops(ops, records: list, tracer=None, spans=None) -> float:
    """Run ops back to back; append (op, seconds, verdict), and the op's
    (start, end, CPU time) to ``spans`` if given; return wall time."""
    start = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        t0, c0 = perf_counter(), cpu_time()
        result, exc = None, None
        try:
            result = op.run()
        except Exception as e:  # an op that raises is a failed op, not a crash
            exc = e
        t1, c1 = perf_counter(), cpu_time()
        elapsed = t1 - t0
        if spans is not None:
            spans.append((t0, t1, c1 - c0))
        try:
            verdict = op.check(result, exc)
        except Exception as e:  # a malformed output fails its check
            verdict = f"check raised {type(e).__name__}: {e}"
        records.append((op, elapsed, verdict))
    return perf_counter() - start


def tally(records) -> tuple[int, int, int, list[str]]:
    failed = [f"{op.label}: {v}" for op, _, v in records if v not in (workloads.OK, workloads.KNOWN)]
    known = sum(1 for _, _, v in records if v == workloads.KNOWN)
    return len(records), len(failed), known, failed


def timed_run(workload, seed: int, seconds: float, work: Path):
    """End-to-end metrics as {name: (value, samples)}, the records, a header.

    Every time is CPU time at the nominal machine speed (see ``speed``);
    the wall time appears only in the header.
    """
    with SpeedProbe() as probe:
        state, setup_spans = set_up(workload, seed, work, SETUP_REPEATS)
        ops = workload.pass_ops(state, 0)
        # a fixed number of passes, not a deadline: a deadline lets the share of
        # the cold first pass vary with machine speed and with the code measured
        passes = max(1, round(seconds / workload.pass_seconds), math.ceil(MIN_OPS / len(ops)))
        records, pass_spans, busy = [], [], 0.0
        for k in range(passes):
            if k:
                ops = workload.pass_ops(state, k)  # input generation stays outside the timed region
            pass_spans.append([])
            busy += run_ops(ops, records, spans=pass_spans[-1])
    # normalized once the probe has its samples on both sides of every span
    setup_times = [probe.normalize(*span) for span in setup_spans]
    pass_times = [[probe.normalize(*span) for span in spans] for spans in pass_spans]
    rates = [len(times) / sum(times) for times in pass_times]
    records = [(op, t, v) for (op, _, v), t in zip(records, itertools.chain(*pass_times))]

    def ms(kind=None):
        return [1000 * t for op, t, _ in records if kind is None or op.kind == kind]

    lat = ms()
    samples = {
        "setup_s": setup_times,
        "ops_per_s": rates,
        "op_p50_ms": lat,
        "read_p50_ms": ms("read"),
        "write_p50_ms": ms("write"),
    }
    metrics = {name: (quantile(values, 0.5), values) for name, values in samples.items()}
    metrics["op_p90_ms"] = (quantile(lat, 0.9), lat)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, [])
    header = (
        f"{workload.name}: seed {seed}, {len(rates)} pass(es), {len(records)} ops in {busy:.2f} s of wall time, "
        f"{sum(map(sum, pass_times)):.2f} s of CPU time at nominal speed (mean slowdown {probe.slowdown():.3f} "
        f"over {len(probe.durations)} probes)"
    )
    return metrics, records, header


def traced_run(workload, seed: int, work: Path):
    """Per-layer metrics as {name: value}, the records, a header.

    The same fixed pass runs untraced, traced and untraced again, each from
    a fresh import, so that drift and first-pass costs fall on both sides.
    """
    plain, traced_records, walls = [], [], []
    tracer = Tracer()
    for traced in (False, True, False):
        state, _ = set_up(workload, seed, work, 1)
        if traced:
            tracer.install(state["pkg"])
        records = traced_records if traced else plain
        walls.append(run_ops(workload.trace_ops(state), records, tracer if traced else None))
    untraced, traced = (walls[0] + walls[2]) / 2, walls[1]

    metrics = tracer.analyse()
    attempted, failed, known, _ = tally(plain)
    metrics["fail_ratio"] = (failed + known) / attempted
    metrics["known_defects"] = known
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = traced / untraced - 1
    metrics["trace.spans"] = len(tracer.spans)
    route = {op.label: t for op, t, _ in plain[len(plain) // 2 :]}  # the second untraced pass
    metrics["extension.route_ratio"] = (
        route["classify V4 by V4"] / route["oracle V4 by V4"] if "oracle V4 by V4" in route else 0.0
    )
    spans_path = ROOT / ".bench_out" / f"spans-{workload.name}.tsv.gz"
    tracer.write(spans_path)
    header = (
        f"{workload.name}: traced pass of {len(traced_records)} ops, {untraced:.2f} s untraced (mean of two), "
        f"{traced:.2f} s traced, {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    )
    return metrics, plain + traced_records, header


def summary_line(name: str, unit: str, value: float, values=()) -> str:
    line = f"  {name:<36} {value:14.6g} {unit:<5}"
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        line += f" n={len(values)}  q1 {q1:.4g}  q3 {q3:.4g}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "butterflies" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'butterflies'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            measured, records, header = traced_run(workload, args.seed, work)
            measured = {name: (value, []) for name, value in measured.items()}
        else:
            measured, records, header = timed_run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    lines = [header] + [summary_line(m["name"], m["unit"], *measured[m["name"]]) for m in wanted]
    attempted, failed, known, failures = tally(records)
    lines.append(
        f"  ops {attempted}, failed {failed}, known defects {known}, "
        f"fail_ratio {(failed + known) / attempted:.4f} (known defects count as failures here)"
    )
    lines += [f"  FAILED {line}" for line in failures[:20]]
    print("\n".join(lines))
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

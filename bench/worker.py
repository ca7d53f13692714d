"""One fresh benchmark process: a set-up sample, or a whole workload run.

    python3 bench/worker.py setup --workload NAME
    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1 [--size small]

``bench/run.py`` starts it with the environment pinned (PYTHONPATH, BLAS
threads, PAIRCOMP_THREADS).  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spec import PROBES, WORKLOADS

BENCH = Path(__file__).resolve().parent
#: Generated inputs live in a per-run directory under here; trace files stay.
WORK = BENCH / "work"


def setup(catalog: tuple[int, ...]) -> tuple[float, float]:
    """Seconds to import the CLI and build the workload's structure catalogs,
    raw and scaled to the reference speed (``speed.py``).  Everything that
    imports the package (``workloads``, ``tracing`` users) is imported after
    this has been timed."""
    start = time.perf_counter()
    import paircomp.cli  # noqa: F401
    from paircomp.graphs import enumerate_connected

    for n in catalog:
        enumerate_connected(n)
    raw = time.perf_counter() - start
    import speed

    return raw, raw * speed.factor()


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line for line in handle if line.startswith("model name"))
            cpu = model.split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def checked(workload, op, run_record) -> tuple[list[str], int]:
    """Output checks of one op: (problems, excluded replications)."""
    if any(code != 0 for code in run_record["codes"]):
        return [f"exit {run_record['codes'][-1]}: {run_record['stderr']}"], 0
    try:
        return workload.check(op)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], 0


class Tally:
    """Attempted and failed ops.  An op fails on a nonzero exit, a failed
    output check or an excluded replication; only the first two make the
    run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str], excluded: int = 0) -> None:
        self.attempted += 1
        self.failed += bool(problems or excluded)
        self.problems += problems

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:10],
        }


def warm_up(workload, seed: int, workdir: Path, tally: Tally) -> int:
    """One untimed op so lazy imports and caches settle, then the workload's
    extra per-run check.  Returns the op's chunk count."""
    import workloads

    op = workload.make_op(seed, workloads.WARMUP, 0, workdir)
    record = workloads.run_op(workload, op)
    tally.add(*checked(workload, op, record))
    tally.add(workload.extra_check(seed, workdir))
    return record["chunks"]


def timed_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    import speed
    import workloads

    tally = Tally()
    chunks = warm_up(workload, seed, workdir, tally)
    speed.kernel()
    latencies, ref_ms, commands = [], [], 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        op = workload.make_op(seed, workloads.OPS, k, workdir)
        ref_ms.append(speed.kernel_ms())
        record = workloads.run_op(workload, op)
        latencies.append(record["ms"])
        commands += len(record["codes"])
        tally.add(*checked(workload, op, record))
        k += 1
    ref_ms.append(speed.kernel_ms())
    factors = speed.local_factors(ref_ms, len(latencies))
    scaled = [ms * f for ms, f in zip(latencies, factors)]
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (self_kib + child_kib) / 1024.0

    def summary(ms: list[float]) -> dict:
        return {
            "reps_per_s": workload.units_per_op * len(ms) / (sum(ms) / 1e3),
            "evals_per_s": commands / (sum(ms) / 1e3),
            "call_ms_p50": quantile(sorted(ms), 0.5),
            "call_ms_p90": quantile(sorted(ms), 0.9),
            "peak_rss_mb": peak_rss_mb,
        }

    return {**tally.result(), "metrics": summary(scaled), "raw_metrics": summary(latencies),
            "speed_factor": statistics.median(factors),
            "samples": len(latencies), "chunks": chunks}


def quantile(ordered: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def traced_ops(workload, seed: int, workdir: Path, tally: Tally, label: str):
    """Run ``trace_ops`` ops untraced, each followed by its traced replay."""
    import workloads
    from tracing import Tracer

    tracer, runs, infos = Tracer(), [], []
    for k in range(workload.trace_ops):
        op = workload.make_op(seed, workloads.OPS, k, workdir)
        record = workloads.run_op(workload, op)
        problems, excluded = checked(workload, op, record)
        tracer.op = record["op"] = f"{label}/{k}"
        if not problems:
            replay_problems, info = workload.replay(op, tracer)
            problems += replay_problems
            infos.append(info)
        tally.add(problems, excluded)
        runs.append(record)
    return tracer, runs, infos


def span_cost_us(repeats: int = 20000) -> float:
    """Cost of recording one empty span."""
    from tracing import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / repeats * 1e6


def traced_run(name: str, workload, seed: int, workdir: Path, size: str) -> dict:
    """Per-layer metrics from the workload's own replays.  A layer this
    workload never reaches is measured on small ops of the first other
    workload or probe that reaches it, and the trace file says so."""
    import workloads

    tally = Tally()
    warm_up(workload, seed, workdir, tally)
    tracer, runs, infos = traced_ops(workload, seed, workdir, tally, name)
    metrics = workload.layer_metrics(tracer, runs, infos)
    source = dict.fromkeys(metrics, name)
    traces = {name: tracer}
    tables = {name: workloads.iteration_table([c for i in infos for c in i.get("cells", [])])}
    for other, spec in {**WORKLOADS, **PROBES}.items():
        if other == name:
            continue
        probe = workloads.build(spec, "small")
        saved = os.environ.get("PAIRCOMP_THREADS")
        os.environ["PAIRCOMP_THREADS"] = str(spec["threads"])
        try:
            p_tracer, p_runs, p_infos = traced_ops(probe, seed, workdir, tally, f"probe:{other}")
            found = probe.layer_metrics(p_tracer, p_runs, p_infos)
        finally:
            if saved is None:
                os.environ.pop("PAIRCOMP_THREADS")
            else:
                os.environ["PAIRCOMP_THREADS"] = saved
        traces[f"probe:{other}"] = p_tracer
        tables[f"probe:{other}"] = workloads.iteration_table(
            [c for i in p_infos for c in i.get("cells", [])]
        )
        for key, value in found.items():
            if key not in metrics:
                metrics[key] = value
                source[key] = f"probe:{other}"
    per_span = span_cost_us()
    spans_per_op = len(tracer.spans) / max(1, len(runs))
    trace = {
        "workload": name,
        "seed": seed,
        "size": size,
        "environment": environment(),
        "metrics": metrics,
        "metric_source": source,
        "iterations_by_class": tables,
        "op_ms": [r["ms"] for r in runs],
        "span_cost_us": per_span,
        "spans_per_op": spans_per_op,
        "self_times": {label: t.self_ms() for label, t in traces.items()},
        "spans": {label: t.spans for label, t in traces.items()},
    }
    if workload.kind in ("league", "em"):
        # Only these replays make the same calls as the op.
        trace["trace_overhead_ms_per_op"] = per_span * spans_per_op / 1e3
    path = WORK / f"trace-{name}-s{seed}.json"
    path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return {**tally.result(), "metrics": metrics, "samples": len(runs), "trace_file": str(path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    raw_setup_s, setup_s = setup(spec["catalog"])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    import workloads

    workload = workloads.build(spec, args.size)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            result = traced_run(args.workload, workload, args.seed, workdir, args.size)
        else:
            result = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["raw_setup_s"] = raw_setup_s
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""paircomp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, and
it writes the spans to ``bench/work/trace-NAME-sSEED.json``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Each workload runs in a fresh worker process that drives
``paircomp.cli.main`` in-process on generated inputs.  Set-up time is the
median over several fresh processes.  End-to-end timings are scaled to a
fixed reference speed of the host (``bench/speed.py``); the unscaled values
are printed on the line before them.  Exits 2 without a result when the
package source is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import PINNED_ENV, SETUP_SAMPLES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A run must end within this many seconds of its start.
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run bench/worker.py in its own process group; return its last line."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker {args[:3]} timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"worker {args[:3]} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "paircomp" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    spec = WORKLOADS[args.workload]
    env = dict(os.environ, **PINNED_ENV)
    env["PAIRCOMP_THREADS"] = str(spec["threads"])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    common = ["--workload", args.workload]
    try:
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [worker(["setup", *common], env, deadline) for _ in range(extra // 2)]
        result = worker(
            ["run", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            env, deadline,
        )
        setups += [worker(["setup", *common], env, deadline)
                   for _ in range(extra - extra // 2)]
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setups.append(result)

    environment = result["environment"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    print(f"workload {args.workload}, seed {args.seed}, {result['samples']} ops")
    if result.get("chunks"):
        print(f"simulate hands out {result['chunks']} chunks per op")
    values = dict(result["metrics"])
    if args.trace:
        print(f"trace: {result['trace_file']}")
    else:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        raw = dict(result["raw_metrics"], setup_s=statistics.median(s["raw_setup_s"] for s in setups))
        print(f"timings scaled to the reference speed (bench/speed.py), median scale "
              f"factor of the ops {result['speed_factor']:.4f}")
        print("unscaled: " + json.dumps(raw, sort_keys=True))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    for name, m in sorted(metrics.items()):
        samples = {
            "setup_s": f" (median of {len(setups)} processes)",
            "call_ms_p50": f" ({result['samples']} samples)",
            "call_ms_p90": f" ({result['samples']} samples)",
        }.get(name, "")
        print(f"{name} = {m['value']:.6g} {m['unit']}{samples}")
    print(f"fail_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

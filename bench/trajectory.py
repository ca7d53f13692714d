"""Run the benchmark over several seeds and summarize it as one trajectory point.

    python3 bench/trajectory.py --label NAME [--seeds 1-10] [--workloads a,b] [--trace]

Runs ``bench/run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound.  Writes every
run's values (with the unscaled timings, see ``bench/speed.py``) and the
summary to ``bench/results/NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    point = {"label": args.label, "run_seconds": declared["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                "--trace", "1" if args.trace else "0",
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            environment = next(l for l in lines if l.startswith("environment: "))
            point["environment"] = environment.removeprefix("environment: ")
            unscaled = next((l for l in lines if l.startswith("unscaled: ")), None)
            if unscaled:
                result["unscaled"] = json.loads(unscaled.removeprefix("unscaled: "))
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = dict(summarize(values), unit=m["unit"], bound=bounds[m["name"]])
        point["workloads"][name] = {"summary": summary, "runs": runs}
        for metric, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {metric:40s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g}  spread {spread}  bound {s['bound']}")
    out = BENCH / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself, at small sizes and with no timing gates.

    python3 bench/smoke.py

Checks that BENCHMARK.json keeps to its schema, that every workload prints
exactly the declared metrics with their units in both modes (and the
unscaled timings next to them), that op times scale with the reference
kernel of ``speed.py``, that the traced
run writes spans and the per-class iteration table, that the output checks
flag corrupted outputs, and that the benchmark refuses to run without the
package source.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from spec import PINNED_ENV, PROBES, WORKLOADS  # noqa: E402

os.environ.update(PINNED_ENV)

class SmokeFailure(Exception):
    pass


def require(ok, message="check failed") -> None:
    if not ok:
        raise SmokeFailure(message)


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_schema(declared: dict) -> None:
    require(set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(declared))
    require(declared["paths"] == ["bench"])
    require(isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60)
    names = [w["name"] for w in declared["workloads"]]
    require(names == list(WORKLOADS), names)
    for w in declared["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"])
    seen = set(names)
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in declared[section]:
            require(set(m) == keys, m)
            require(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m)
            require(m["better"] in ("lower", "higher"), m)
            require(m["name"] not in seen, f"{m['name']} used twice")
            seen.add(m["name"])
            if "bound" in m:
                require(0 < m["bound"] <= 0.25, m)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    require(setup["unit"] == "s" and setup["better"] == "lower")
    require(setup["bound"] == max(m["bound"] for m in declared["end_to_end"]))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_scaling() -> None:
    """An op timed while the kernel ran at the reference speed keeps its
    time; one timed while the kernel took twice as long counts half."""
    import speed

    refs = [speed.REF_MS] * 4 + [2 * speed.REF_MS] * 8
    factors = speed.local_factors(refs, len(refs) - 1)
    require(factors[0] == 1.0 and factors[-1] == 0.5, factors)


def check_runs(declared: dict) -> None:
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            require(proc.returncode == 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            require(result["correct"] is True and result["failed"] == 0, proc.stdout)
            require(result["attempted"] >= 1)
            expected = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(got == expected, (workload, trace, set(got) ^ set(expected)))
            for name, m in result["metrics"].items():
                require(isinstance(m["value"], (int, float)) and m["value"] == m["value"], name)
            if not trace:
                require("unscaled:" in proc.stdout, "unscaled timings not printed")
            if not trace and WORKLOADS[workload]["kind"] == "sim":
                found = re.search(r"hands out (\d+) chunks", proc.stdout)
                sims = WORKLOADS[workload]["small"]["sims"]
                require(found and sims >= 2 * int(found.group(1)), "chunks of one row")
            if trace:
                path = BENCH / "work" / f"trace-{workload}-s7.json"
                trace_file = json.loads(path.read_text(encoding="utf-8"))
                require(trace_file["spans"][workload], "no spans recorded")
                require(trace_file["iterations_by_class"][workload] or workload == "em-partial")
                probes = [trace_file["spans"][f"probe:{p}"] for p in PROBES]
                require(all(probes), "a probe recorded no spans")
                require(set(trace_file["metric_source"]) == set(expected))
            print(f"ok  {workload} trace={trace}: {len(expected)} metrics", flush=True)


def check_output_checks() -> None:
    """Each workload's checks must flag a corrupted output."""
    import numpy as np
    import workloads

    def corrupt_one(path: str, old: str, new: str) -> None:
        text = Path(path).read_text(encoding="utf-8")
        require(old in text, (path, old))
        Path(path).write_text(text.replace(old, new, 1), encoding="utf-8")

    with tempfile.TemporaryDirectory(dir=BENCH / "work") as tmp:
        workdir = Path(tmp)
        for name, spec in {**WORKLOADS, **PROBES}.items():
            os.environ["PAIRCOMP_THREADS"] = str(spec["threads"])
            workload = workloads.build(spec, "small")
            op = workload.make_op(7, workloads.OPS, 0, workdir)
            record = workloads.run_op(workload, op)
            require(record["codes"] == [0] * len(record["codes"]), record)
            require(workload.check(op) == ([], 0), workload.check(op))
            if workload.kind == "sim":
                require(workload.replay_replications(op, workloads.Tracer())[0] == [])
                row = workloads.read_csv(op["csv"])[10]  # pe_w of structure g2
                corrupt_one(op["csv"], row[7], repr(float(row[7]) * (1 + 1e-6)))
                problems = workload.replay_replications(op, workloads.Tracer())[0]
            elif workload.kind == "league":
                payload = json.loads(Path(op["out"]["bt"]).read_text(encoding="utf-8"))
                m = np.asarray(payload["m"]) + np.eye(len(payload["m"]))[1] * 1e-3
                payload["m"], payload["weights"] = list(m), list(np.exp(m) / np.exp(m).sum())
                Path(op["out"]["bt"]).write_text(json.dumps(payload), encoding="utf-8")
                problems = workload.check(op)[0]
            else:
                payload = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
                payload["lambda_max"] = op["n"] - 1e-3
                Path(op["out"]).write_text(json.dumps(payload), encoding="utf-8")
                problems = workload.check(op)[0]
            require(problems, f"{name}: corrupted output passed its checks")
            require(workload.extra_check(7, workdir) == [], name)
            print(f"ok  {name}: checks flag a corrupted output ({problems[0]})", flush=True)


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH / "work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("work"))
        proc = run_bench(next(iter(WORKLOADS)), 0, cwd=Path(tmp))
        require(proc.returncode != 0 and '"correct"' not in proc.stdout
                and "no package source" in proc.stderr, proc.stdout + proc.stderr)
    print("ok  refuses to run without the package source", flush=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (BENCH / "work").mkdir(exist_ok=True)
    try:
        check_schema(declared)
        print("ok  BENCHMARK.json schema", flush=True)
        check_scaling()
        print("ok  timings scale with the reference kernel", flush=True)
        check_output_checks()
        check_runs(declared)
        check_refuses_without_source()
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

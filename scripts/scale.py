"""Scale run of the simulate experiment: wall time per replication, peak
memory and Newton iterations for n = 4, 5 and 6 under both models, and the
single-call latency and Newton steps of em on partial matrices.

    python3 scripts/scale.py                # 10^5 replications per configuration
    python3 scripts/scale.py --sims 1000000 # the paper's scale

Each configuration runs ``paircomp.run`` in a fresh process on one worker
(PAIRCOMP_THREADS=1), in blocks of BATCH_ROWS // classes replications, at
perturbation 0.15 and seed 1.  Peak memory is that process's
maximum resident set size.  A second fresh process makes a fifth of the
replications, so the file shows whether peak memory grows with the
replication count.  Iterations are the Newton steps of every
(replication, structure) row, complete structure included.

The em section times ``paircomp.em`` on EM_MATRICES partial matrices for
each of n = 4, 5 and 6, in a fresh process each: the incomplete catalog
structures in turn, integer weights 1..9 and each known ratio w_i / w_j
times exp(U(-EM_NOISE, EM_NOISE)), drawn from seed 1.  It reports the
median wall time of one call and how many calls took each number of
Newton steps of the eigenvalue-minimal completion.  The result is written
as JSON to BENCH_scale.json at the repository root.

Not part of the test suite: the default run takes about four and a half
minutes on one core (the committed BENCH_scale.json sums to 4.3 minutes,
fifth-size runs included, on a 2-core Xeon).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [(n, model) for n in (4, 5, 6) for model in ("logistic", "normal")]
PERTURB, SEED = 0.15, 1
EM_NS, EM_MATRICES, EM_NOISE = (4, 5, 6), 2000, 0.3


def measure(n: int, model: str, sims: int) -> dict:
    """One configuration, in this process: time the run and count the
    iterations of every batch solve it makes."""
    import numpy as np

    from paircomp import ModelKind, SimulationConfig, run
    from paircomp import simulation

    counts = np.zeros(1, dtype=np.int64)
    solve = simulation._newton_rows

    def counted(*args):
        nonlocal counts
        m, iterations, converged = solve(*args)
        tally = np.bincount(iterations)
        counts = np.pad(counts, (0, max(0, len(tally) - len(counts))))
        counts[: len(tally)] += tally
        return m, iterations, converged

    simulation._newton_rows = counted
    config = SimulationConfig(n=n, perturb=PERTURB, num_sims=sims, seed=SEED,
                              model=ModelKind(model))
    start = time.perf_counter()
    summary = run(config)
    wall = time.perf_counter() - start
    cumulative = np.cumsum(counts)
    return {
        "n": n,
        "model": model,
        "sims": sims,
        "wall_s": round(wall, 3),
        "ms_per_rep": round(1e3 * wall / sims, 4),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "excluded_reps": len(summary.failures),
        "iterations": {
            "rows": int(cumulative[-1]),
            "p50": int(np.searchsorted(cumulative, 0.5 * cumulative[-1])),
            "max": int(np.flatnonzero(counts)[-1]),
        },
    }


def measure_em(n: int, count: int) -> dict:
    """The em section for n items, in this process."""
    import numpy as np

    from paircomp import IPCM, em, enumerate_connected

    rng = np.random.default_rng([SEED, n])
    classes = [c for c in enumerate_connected(n) if c.edge_count < n * (n - 1) // 2]
    pcms = []
    for k in range(count):
        weights = rng.integers(1, 10, size=n).astype(float)
        pcms.append(IPCM.from_upper(n, {
            (i, j): weights[i] / weights[j] * math.exp(rng.uniform(-EM_NOISE, EM_NOISE))
            for i, j in classes[k % len(classes)].member().sorted_edges()
        }))
    em(pcms[0])  # first-call costs stay out of the timings
    times, steps = [], []
    for pcm in pcms:
        start = time.perf_counter()
        steps.append(em(pcm).iterations)
        times.append(time.perf_counter() - start)
    return {
        "n": n,
        "matrices": count,
        "structures": len(classes),
        "call_us_p50": round(1e6 * float(np.median(times)), 1),
        "newton_steps": {str(k): int(c) for k, c in enumerate(np.bincount(steps)) if c},
        "newton_steps_mean": round(float(np.mean(steps)), 3),
    }


def cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fresh_process(n: int, model: str, sims: int) -> dict:
    env = dict(os.environ, PAIRCOMP_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__, "--child", str(n), model, str(sims)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sims", type=int, default=100_000)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--child", nargs=3, metavar=("N", "MODEL", "SIMS"),
                        help=argparse.SUPPRESS)  # MODEL "em": the em section
    args = parser.parse_args(argv)
    if args.child:
        n, model, sims = args.child
        print(json.dumps(measure_em(int(n), int(sims)) if model == "em"
                         else measure(int(n), model, int(sims))))
        return 0
    if args.sims < 5:
        parser.error("--sims must be at least 5")

    import numpy
    import scipy

    runs = []
    for n, model in CONFIGS:
        record = fresh_process(n, model, args.sims)
        probe = fresh_process(n, model, args.sims // 5)
        record["fifth"] = {key: probe[key] for key in ("sims", "ms_per_rep", "peak_rss_mib")}
        runs.append(record)
        print(f"n={n} {model}: {record['ms_per_rep']} ms/rep, peak {record['peak_rss_mib']} MiB "
              f"({probe['peak_rss_mib']} MiB at {probe['sims']}), iterations p50 "
              f"{record['iterations']['p50']} max {record['iterations']['max']}", file=sys.stderr)
    em_runs = []
    for n in EM_NS:
        em_runs.append(fresh_process(n, "em", EM_MATRICES))
        print(f"em n={n}: {em_runs[-1]['call_us_p50']} us/call, Newton steps "
              f"{em_runs[-1]['newton_steps']}", file=sys.stderr)
    payload = {
        "command": f"python3 scripts/scale.py --sims {args.sims}",
        "settings": {"perturb": PERTURB, "seed": SEED, "workers": 1},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu": cpu_name(),
            "nproc": os.cpu_count(),
        },
        "runs": runs,
        "em": {"settings": {"noise": EM_NOISE, "seed": SEED}, "runs": em_runs},
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scale run of the simulate experiment: wall time per replication, peak
memory and Newton iterations for n = 4, 5 and 6 under both models, and the
single-call latency and Newton steps of em on partial matrices.

    python3 scripts/scale.py                # 10^5 replications per configuration
    python3 scripts/scale.py --sims 1000000 # the paper's scale

Each configuration runs ``paircomp.run`` in REPEATS fresh processes on one
worker (PAIRCOMP_THREADS=1), in blocks of BATCH_ROWS // classes
replications, at perturbation 0.15 and seed 1; its row gives the median of
their wall times and peak memory (each process's maximum resident set size),
and lists every process's time per replication.  REPEATS more fresh
processes make a fifth of the replications, so the file shows whether peak
memory grows with the replication count.  Iterations are the Newton steps of
every (replication, structure) row, complete structure included; they are
the same in every process.

The em section times ``paircomp.em`` on EM_MATRICES partial matrices for
each of n = 4, 5 and 6, in REPEATS fresh processes each: the incomplete
catalog structures in turn, integer weights 1..9 and each known ratio
w_i / w_j times exp(U(-EM_NOISE, EM_NOISE)), drawn from seed 1.  It reports
the median over the processes of each one's median wall time of a call, and
how many calls took each number of Newton steps of the eigenvalue-minimal
completion.

The startup section times cold starts: for each of STARTUP_COMMANDS, the
median wall time and peak memory of STARTUP_PROCESSES fresh processes,
after one untimed one, and whether scipy was loaded when it ended.  Each
process imports ``paircomp.cli`` and runs ``main`` on the command's
arguments, as the console script does, on inputs written to a temporary
directory: a 5-item partial matrix, a seeded 6-item league and a seeded
1,000-item league (:func:`league_csv`).  No bytecode is written when
PYTHONDONTWRITEBYTECODE is set, and each process then compiles the package.

The result is written as JSON to BENCH_scale.json at the repository root.
Not part of the test suite: the default run takes about a quarter of an
hour on one core.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [(n, model) for n in (4, 5, 6) for model in ("logistic", "normal")]
PERTURB, SEED = 0.15, 1
EM_NS, EM_MATRICES, EM_NOISE = (4, 5, 6), 2000, 0.3
STARTUP_PROCESSES = 7
#: Fresh processes per simulate and em row; the row is their median.
REPEATS = 3
#: Label -> arguments of ``paircomp.cli.main`` (None: the import alone);
#: {pcm}, {league} and {league1000} name the generated inputs.
STARTUP_COMMANDS = {
    "import paircomp.cli": None,
    "rank --format pcm --method em": ["rank", "--input", "{pcm}", "--format", "pcm",
                                      "--method", "em"],
    "rank --method bt": ["rank", "--input", "{league}", "--method", "bt"],
    "graphs enumerate --n 6": ["graphs", "enumerate", "--n", "6"],
    "rank --method llsm, 1,000 items": ["rank", "--input", "{league1000}", "--method", "llsm"],
}
# Writes the CLI's output to stdout and, last on stderr, whether scipy was
# loaded and the peak resident set size in KiB.
_STARTUP_PROBE = """import resource, sys
import paircomp.cli
code = paircomp.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("scipy" in sys.modules, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


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


def league_csv(n: int, seed: int) -> str:
    """A league of n items in the CLI's pairs format: pairs (i, i + 1) and
    each other pair with probability 4 / n, each with two amounts from 1 to
    9, drawn from ``default_rng(seed)``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if j == i + 1 or rng.random() < 4 / n]
    rows = [f"{i + 1},{j + 1},{a},{b}" for i, j in pairs for a, b in [rng.integers(1, 10, 2)]]
    return "\n".join(["i,j,worse,better", *rows]) + "\n"


def startup_inputs(directory: Path) -> dict:
    """The startup section's inputs, written to ``directory`` in the CLI's
    formats: a partial 5-item ratio matrix (a 5-cycle and one chord), a
    6-item league of counts and :func:`league_csv` of 1,000 items, seed
    1000."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    w = rng.integers(1, 10, size=5)
    rows = [["1" if i == j else "*" for j in range(5)] for i in range(5)]
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]:
        ratio = w[i] / w[j] * math.exp(rng.uniform(-EM_NOISE, EM_NOISE))
        rows[i][j], rows[j][i] = f"{ratio:.17g}", f"{1.0 / ratio:.17g}"
    league = ["i,j,worse,better"] + [
        f"{i + 1},{j + 1},{rng.integers(1, 10)},{rng.integers(1, 10)}"
        for i in range(6) for j in range(i + 1, 6) if j == i + 1 or rng.random() < 0.5
    ]
    paths = {"pcm": directory / "partial5.pcm", "league": directory / "league6.csv",
             "league1000": directory / "league1000.csv"}
    paths["pcm"].write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    paths["league"].write_text("\n".join(league) + "\n", encoding="utf-8")
    paths["league1000"].write_text(league_csv(1000, 1000), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


def measure_startup(env: dict) -> list[dict]:
    """The startup section: cold processes of each of STARTUP_COMMANDS."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = startup_inputs(Path(tmp))
        for label, argv in STARTUP_COMMANDS.items():
            command = [sys.executable, "-c", _STARTUP_PROBE,
                       *(arg.format(**inputs) for arg in argv or ())]
            walls, peaks = [], []
            for _ in range(1 + STARTUP_PROCESSES):  # the first is untimed
                start = time.perf_counter()
                result = subprocess.run(command, env=env, capture_output=True, text=True,
                                        check=True)
                walls.append(time.perf_counter() - start)
                scipy_loaded, peak_kib = result.stderr.split()[-2:]
                peaks.append(int(peak_kib) / 1024)
            runs.append({
                "command": label,
                "wall_s_p50": round(statistics.median(walls[1:]), 3),
                "peak_rss_mib_p50": round(statistics.median(peaks[1:]), 1),
                "scipy_loaded": scipy_loaded == "True",
            })
    return runs


def cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def child_env() -> dict:
    """This environment, on one worker, with the package importable from src/."""
    env = dict(os.environ, PAIRCOMP_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def fresh_process(n: int, model: str, sims: int) -> dict:
    result = subprocess.run(
        [sys.executable, __file__, "--child", str(n), model, str(sims)],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


#: The fields of a row that vary between processes: a row gives their medians.
TIMED = ("wall_s", "ms_per_rep", "peak_rss_mib", "call_us_p50")


def median_row(n: int, model: str, sims: int) -> dict:
    """The row of REPEATS fresh processes, whose counts must agree: their
    record with each timed field replaced by the median over all of them;
    ``runs_ms`` or ``runs_us`` lists every process's time."""
    records = [fresh_process(n, model, sims) for _ in range(REPEATS)]
    counts = [{key: value for key, value in r.items() if key not in TIMED} for r in records]
    if any(c != counts[0] for c in counts):
        raise RuntimeError(f"fresh processes of n={n} {model} disagree: {counts}")
    row = dict(records[0])
    for key in TIMED:
        if key in row:
            row[key] = round(statistics.median(r[key] for r in records), 4)
    per_process = "call_us_p50" if model == "em" else "ms_per_rep"
    row["runs_us" if model == "em" else "runs_ms"] = [r[per_process] for r in records]
    return row


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
        record = median_row(n, model, args.sims)
        probe = median_row(n, model, args.sims // 5)
        record["fifth"] = {key: probe[key] for key in ("sims", "ms_per_rep", "peak_rss_mib")}
        runs.append(record)
        print(f"n={n} {model}: {record['ms_per_rep']} ms/rep, peak {record['peak_rss_mib']} MiB "
              f"({probe['peak_rss_mib']} MiB at {probe['sims']}), iterations p50 "
              f"{record['iterations']['p50']} max {record['iterations']['max']}", file=sys.stderr)
    em_runs = []
    for n in EM_NS:
        em_runs.append(median_row(n, "em", EM_MATRICES))
        print(f"em n={n}: {em_runs[-1]['call_us_p50']} us/call, Newton steps "
              f"{em_runs[-1]['newton_steps']}", file=sys.stderr)
    startup = measure_startup(child_env())
    for record in startup:
        print(f"startup {record['command']}: {record['wall_s_p50']} s, "
              f"peak {record['peak_rss_mib_p50']} MiB, scipy "
              f"{'loaded' if record['scipy_loaded'] else 'not loaded'}", file=sys.stderr)
    payload = {
        "command": f"python3 scripts/scale.py --sims {args.sims}",
        "settings": {"perturb": PERTURB, "seed": SEED, "workers": 1, "processes": REPEATS},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu": cpu_name(),
            "nproc": os.cpu_count(),
        },
        "runs": runs,
        "em": {"settings": {"noise": EM_NOISE, "seed": SEED}, "runs": em_runs},
        "startup": {"settings": {"processes": STARTUP_PROCESSES}, "runs": startup},
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

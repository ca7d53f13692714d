"""Workload parameters, shared by the orchestrator and the worker.

Standard library only: the orchestrator reads this table before any process
has imported numpy.  Each workload's reason for existing is in
``BENCHMARK.json``; ``bench/README.md`` explains the parameters.

``full`` is what the benchmark measures.  ``small`` is what the smoke test
runs, and what a traced run uses to probe layers its own workload never
reaches.  ``trace_ops`` fixes how many ops a traced run replays, so the
iteration counts it reports repeat exactly for a given seed.
"""

WORKLOADS = {
    "sim-n4-normal": {
        "kind": "sim",
        "threads": 1,
        "catalog": (4,),
        "full": {"n": 4, "model": "normal", "perturb": 0.15, "sims": 64, "trace_ops": 4},
        "small": {"n": 4, "model": "normal", "perturb": 0.15, "sims": 16, "trace_ops": 1},
    },
    "em-partial": {
        "kind": "em",
        "threads": 1,
        "catalog": (5, 6),
        "full": {"ns": (5, 5, 5, 6), "noise": 0.3, "trace_ops": 24},
        "small": {"ns": (5,), "noise": 0.3, "trace_ops": 1},
    },
}

#: Paths neither workload reaches, probed by every traced run: MM on the
#: multi-worker path (whose slowest rows the trace file's iteration table
#: keeps in view), and ranking a league.  They were timed workloads once;
#: bench/README.md says why they are probes now.
PROBES = {
    "sim-n5-logistic": {
        "kind": "sim",
        "threads": 2,
        "catalog": (5,),
        "small": {"n": 5, "model": "logistic", "perturb": 0.15, "sims": 16, "trace_ops": 1},
    },
    "rank-league": {
        "kind": "league",
        "threads": 1,
        "catalog": (),
        "small": {"teams": 40, "opponents": 10, "games": 6, "spread": 0.6, "trace_ops": 3},
    },
}

#: Fresh processes whose set-up time is sampled in one untraced run; the
#: workload's own process is one of them.  The others run half before and
#: half after the workload, so a burst of host load meets only some of them.
SETUP_SAMPLES = 7

#: Environment the orchestrator pins for every child process.  numpy links a
#: threaded BLAS; two pool workers each running a multi-threaded BLAS would
#: oversubscribe a two-core machine.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

"""The benchmark workloads: seeded input generators, the CLI op each one
times, output checks, and traced replays through the public API.

An op is a short sequence of ``paircomp.cli.main`` calls made in-process on
generated files.  Checks recompute what they can with plain numpy (gradients,
normal-equation residuals, completions) instead of trusting the package.
A replay feeds the same inputs to the package's public functions under a
:class:`tracing.Tracer`; it attributes time to layers, and for the sim
workloads it also rebuilds every replication as single calls and compares
the per-class means with the op's results file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import time
from pathlib import Path

import numpy as np
from scipy.special import expit, log_ndtr

from paircomp import (
    DEFAULT_CYCLE_TOL,
    ComparisonGraph,
    ModelKind,
    NoConvergence,
    SimulationConfig,
    bt_mle,
    data_consistency,
    draw_initial_weights,
    em,
    enumerate_connected,
    exact_probabilities,
    ford_condition,
    llsm,
    log_likelihood_gradient,
    m_from_weights,
    pcm_consistency,
    pcm_from_data,
    perturb_data,
    run,
    similarity,
    weights_from_m,
)
from paircomp import cli, fileio, report

from tracing import Tracer, median, percentile_exact

MEASURES = ("eu_m", "eu_w", "pe_m", "pe_w", "rho", "tau")
#: Connected graphs on n unlabeled vertices (OEIS A001349).
CATALOG_SIZE = {4: 6, 5: 21, 6: 112}
RESULTS_HEADER = [
    "n", "perturb", "model", "graph_id", "edges", "canonical_code",
    "measure", "mean", "stddev", "num_sims", "excluded",
]
REPORT_HEADER = ["n", "perturb", "model", "edges", "measure", "mean", "classes"]

# Stated tolerances of the output checks.
#: Results-file mean against the replayed single-call mean (relative, plus 1e-12 absolute).
REPLAY_RTOL = 1e-9
#: Largest |d loglik / d m_i| accepted at a returned maximum likelihood estimate.
#: Thurstone fits of the league reach 8.3e-7 (2,500 leagues, seeds 20-29).
GRAD_BOUND = 1e-5
#: LLSM normal-equation residual, relative to max(1, max |right-hand side|).
LLSM_RESIDUAL = 1e-9
#: Weights must sum to 1 within this.
WEIGHT_SUM_TOL = 1e-9
#: em against llsm weights on a consistent partial matrix.
EM_AGREE = 1e-6

# Seed streams: the timed ops, the warm-up op, the per-run extra check, and
# where em-partial's cycles over the catalog's structures start.
OPS, WARMUP, EXTRA, ORDER = 0, 1, 2, 3
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def rng_for(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, k])


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one command through the CLI entry point; (exit code, ms, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = (time.perf_counter() - start) * 1e3
    return code, elapsed, err.getvalue()


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_op(workload, op) -> dict:
    """Run the op's commands in order; stop at the first nonzero exit.
    ``chunks`` counts the progress lines ``simulate`` prints, one per chunk
    of replications it hands out."""
    record = {"ms": 0.0, "command_ms": [], "codes": [], "child_cpu_s": 0.0, "stderr": "",
              "chunks": 0}
    for argv in workload.commands(op):
        cpu = child_cpu_s()
        code, ms, err = call_cli(argv)
        record["child_cpu_s"] += child_cpu_s() - cpu
        record["chunks"] += err.count(" replications\n")
        record["ms"] += ms
        record["command_ms"].append(ms)
        record["codes"].append(code)
        if code != 0:
            record["stderr"] = err.strip()[-300:]
            break
    return record


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12


def check_weights(payload: dict, n: int) -> list[str]:
    w = np.asarray(payload.get("weights", []), dtype=float)
    problems = []
    if payload.get("n") != n or w.shape != (n,) or len(payload.get("ranks", [])) != n:
        problems.append(f"expected {n} weights and ranks")
    elif not (np.all(np.isfinite(w)) and np.all(w > 0)):
        problems.append("weights not positive and finite")
    elif abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"weights sum to {float(w.sum())!r}")
    if payload.get("connected") is not True:
        problems.append("comparison graph reported disconnected")
    return problems


def grad_max(data, m, model: ModelKind) -> float:
    return float(np.max(np.abs(log_likelihood_gradient(data, m, model))))


def cold_catalog_ms(tracer: Tracer, n: int, repeats: int = 3) -> float:
    """Median time to build the n-vertex catalog with its cache cleared."""
    tracer.op = f"catalog-n{n}"
    for _ in range(repeats):
        enumerate_connected.cache_clear()
        with tracer.span("graphs.enumerate_connected.cold"):
            enumerate_connected(n)
    return median(tracer.ms("graphs.enumerate_connected.cold"))


def self_ms(tracer: Tracer, runs: list[dict], names: tuple[str, ...]) -> float:
    """Median over ops of the untraced op time minus the replayed spans that
    mirror the CLI's own calls on the same input."""
    return median(r["ms"] - tracer.roots_ms(r["op"], names) for r in runs)


def iteration_metrics(iters: list[int], grads: list[float]) -> dict:
    return {
        "estimators.bt_mle.iters_p50": percentile_exact(iters, 50),
        "estimators.bt_mle.iters_p99": percentile_exact(iters, 99),
        "estimators.bt_mle.iters_max": max(iters),
        "estimators.bt_mle.grad_max": max(grads),
    }


def iteration_table(cells: list[tuple[str, int]]) -> dict:
    """p50 / p99 / max iterations per structure class (or method)."""
    by_label: dict[str, list[int]] = {}
    for label, count in cells:
        by_label.setdefault(label, []).append(count)
    return {
        label: {
            "cells": len(v),
            "p50": percentile_exact(v, 50),
            "p99": percentile_exact(v, 99),
            "max": max(v),
        }
        for label, v in by_label.items()
    }


# ---------------------------------------------------------------------------
# Monte-Carlo experiment: simulate + report


class SimWorkload:
    kind = "sim"
    #: Spans that mirror the CLI's calls for one op (simulate, then report).
    CLI_CALLS = (
        "simulation.run",
        "fileio.write_results",
        "fileio.read_results",
        "report.build_figure",
    )

    def __init__(self, threads, n, model, perturb, sims, trace_ops, epsilon=1e-6):
        self.threads = threads
        self.n = n
        self.model = model
        self.perturb = perturb
        self.sims = sims
        self.trace_ops = trace_ops
        self.epsilon = epsilon
        self.units_per_op = sims

    def make_op(self, seed: int, stream: int, k: int, workdir: Path) -> dict:
        sim_seed = np.random.SeedSequence([seed, stream, k]).generate_state(1, np.uint64)[0]
        return {
            "seed": int(sim_seed),
            "csv": str(workdir / "results.csv"),
            "report": str(workdir / "figure.csv"),
        }

    def commands(self, op) -> list[list[str]]:
        return [
            ["simulate", "--n", str(self.n), "--perturb", repr(self.perturb),
             "--model", self.model, "--sims", str(self.sims),
             "--seed", str(op["seed"]), "--out", op["csv"]],
            ["report", "--results", op["csv"], "--figure", "averages-by-edges",
             "--out", op["report"]],
        ]

    def check(self, op) -> tuple[list[str], int]:
        """Results-file and figure checks; returns (problems, excluded
        replications)."""
        rows = read_csv(op["csv"])
        if not rows or rows[0] != RESULTS_HEADER:
            return ["results header mismatch"], 0
        body = rows[1:]
        classes = CATALOG_SIZE[self.n]
        problems = []
        if len(body) != classes * len(MEASURES):
            problems.append(f"{len(body)} result rows, expected {classes * len(MEASURES)}")
        pairs = self.n * (self.n - 1) // 2
        excluded_reps = 0
        seen: dict[str, list[str]] = {}
        for row in body:
            n, perturb, model, label, edges, _, measure, mean, stddev, sims, excluded = row
            mean, stddev, excluded = float(mean), float(stddev), int(excluded)
            seen.setdefault(label, []).append(measure)
            if (int(n), float(perturb), model, int(sims)) != (
                self.n, self.perturb, self.model, self.sims
            ):
                problems.append(f"{label} {measure}: config columns wrong")
            if not 0 <= excluded <= self.sims:
                problems.append(f"{label} {measure}: excluded {excluded} out of range")
                continue
            if measure == "eu_m":
                excluded_reps = max(excluded_reps, excluded)
            if excluded == self.sims:
                continue
            if not (math.isfinite(mean) and stddev >= 0.0):
                problems.append(f"{label} {measure}: mean {mean!r} stddev {stddev!r}")
            elif measure == "eu_m" and mean < 0.0:
                problems.append(f"{label} eu_m negative")
            elif measure == "eu_w" and not 0.0 <= mean <= math.sqrt(2.0) + 1e-9:
                problems.append(f"{label} eu_w out of range")
            elif measure not in ("eu_m", "eu_w") and abs(mean) > 1.0 + 1e-9:
                problems.append(f"{label} {measure} out of [-1, 1]")
            elif int(edges) == pairs and not close(mean, float(not measure.startswith("eu")), 0):
                # The complete structure is scored against itself.
                problems.append(f"complete structure {measure} = {mean!r}")
        expected_labels = {f"g{i}" for i in range(1, classes + 1)}
        if set(seen) != expected_labels or any(tuple(v) != MEASURES for v in seen.values()):
            problems.append("structure ids or measure order wrong")
        return problems + self._check_figure(op, body), excluded_reps

    def _check_figure(self, op, body) -> list[str]:
        rows = read_csv(op["report"])
        if not rows or rows[0] != REPORT_HEADER:
            return ["figure header mismatch"]
        groups: dict[tuple[int, str], list[float]] = {}
        for row in body:
            groups.setdefault((int(row[4]), row[6]), []).append(float(row[7]))
        problems = []
        if len(rows) - 1 != len(groups):
            problems.append(f"figure has {len(rows) - 1} rows, expected {len(groups)}")
        for row in rows[1:]:
            means = groups.get((int(row[3]), row[4]))
            if means is None or int(row[6]) != len(means):
                problems.append(f"figure row {row[3]},{row[4]} has no matching structures")
            elif not close(float(row[5]), sum(means) / len(means), 1e-12):
                problems.append(f"figure mean {row[3]},{row[4]} != average of structure means")
        return problems

    def extra_check(self, seed: int, workdir: Path) -> list[str]:
        """Run one more op and compare it with its single-call replay."""
        op = self.make_op(seed, EXTRA, 0, workdir)
        record = run_op(self, op)
        if record["codes"] != [0, 0]:
            return [f"exit {record['codes'][-1]}: {record['stderr']}"]
        return self.replay_replications(op, Tracer())[0]

    def replay(self, op, tracer: Tracer) -> tuple[list[str], dict]:
        """Mirror the CLI's public calls, then rebuild every replication."""
        config = SimulationConfig(
            n=self.n, perturb=self.perturb, num_sims=self.sims, seed=op["seed"],
            model=ModelKind(self.model), epsilon=self.epsilon,
        )
        with tracer.span("simulation.run"):
            summary = run(config)
        with tracer.span("fileio.write_results"):
            with open(op["csv"] + ".replay", "w", encoding="utf-8", newline="") as handle:
                fileio.write_results(summary, handle)
        with tracer.span("fileio.read_results"):
            rows = fileio.read_results(op["csv"])
        with tracer.span("report.build_figure"):
            report.build_figure("averages-by-edges", rows, None)
        return self.replay_replications(op, tracer)

    def replay_replications(self, op, tracer: Tracer) -> tuple[list[str], dict]:
        """Rebuild each replication from its (seed, r) substream with public
        single calls: draw, complete fit, then restrict -> fit -> similarity
        per structure class.  Compares per-class means and cell counts with
        the op's results file."""
        n, model = self.n, ModelKind(self.model)
        complete = ComparisonGraph.complete(n)
        members = [(cls.label, cls.member()) for cls in enumerate_connected(n)]
        values = np.full((self.sims, len(members), len(MEASURES)), np.nan)
        included = np.ones(self.sims, dtype=bool)
        cells: list[tuple[str, int]] = []
        grads: list[float] = []
        for r in range(self.sims):
            with tracer.span("simulation.replication"):
                rng = np.random.default_rng([op["seed"], r])
                with tracer.span("simulation.draw"):
                    m0 = m_from_weights(draw_initial_weights(rng, n))
                    exact = exact_probabilities(m0, complete, model)
                    data = perturb_data(exact, self.perturb, rng, self.epsilon)
                try:
                    with tracer.span("estimators.bt_mle.complete"):
                        full = bt_mle(data, model)
                except NoConvergence:
                    included[r] = False
                    continue
                cells.append(("complete", full.iterations))
                grads.append(grad_max(data, full.m, model))
                w_full = weights_from_m(full.m)
                for g, (label, member) in enumerate(members):
                    part = full
                    if member.edge_count < complete.edge_count:
                        with tracer.span("core.restrict"):
                            sub = data.restrict(member)
                        try:
                            with tracer.span("estimators.bt_mle.structure"):
                                part = bt_mle(sub, model)
                        except NoConvergence:
                            included[r] = False
                            break
                        cells.append((label, part.iterations))
                        grads.append(grad_max(sub, part.m, model))
                    with tracer.span("simulation.similarity"):
                        measures = similarity(full.m, w_full, part.m, weights_from_m(part.m))
                    values[r, g] = measures.as_tuple()

        problems = []
        index = {label: g for g, (label, _) in enumerate(members)}
        for row in read_csv(op["csv"])[1:]:
            g, k = index[row[3]], MEASURES.index(row[6])
            column = values[included, g, k]
            kept = column[np.isfinite(column)]
            if self.sims - int(row[10]) != kept.size:
                problems.append(f"{row[3]} {row[6]}: {kept.size} cells, file says "
                                f"{self.sims} - {row[10]}")
            elif kept.size and not close(float(row[7]), float(kept.mean()), REPLAY_RTOL):
                replayed = float(kept.mean())
                problems.append(f"{row[3]} {row[6]}: mean {row[7]} != replayed {replayed!r}")
        return problems, {"cells": cells, "grads": grads}

    def layer_metrics(self, tracer: Tracer, runs: list[dict], infos: list[dict]) -> dict:
        iters = [c for info in infos for _, c in info["cells"]]
        grads = [g for info in infos for g in info["grads"]]
        fits = tracer.ms("estimators.bt_mle.complete") + tracer.ms("estimators.bt_mle.structure")
        per_rep = {}
        parent_of = {s["id"]: s["parent"] for s in tracer.spans}
        for s in tracer.spans:
            if s["name"] == "estimators.bt_mle.structure":
                rep = parent_of[s["id"]]
                per_rep[rep] = per_rep.get(rep, 0.0) + (s["end"] - s["start"]) * 1e3
        metrics = {
            "simulation.draw.us_per_rep": median(tracer.ms("simulation.draw")) * 1e3,
            "core.restrict.us_per_cell": median(tracer.ms("core.restrict")) * 1e3,
            "simulation.similarity.us_per_cell": median(tracer.ms("simulation.similarity")) * 1e3,
            "estimators.bt_mle.complete_ms": median(tracer.ms("estimators.bt_mle.complete")),
            "estimators.bt_mle.structures_ms": median(per_rep.values()),
            f"estimators.bt_mle.{self.model}_ms": median(fits),
            f"estimators.bt_mle.{self.model}_iters": percentile_exact(iters, 50),
            "fileio.write_results.ms": median(tracer.ms("fileio.write_results")),
            "fileio.read_results.ms": median(tracer.ms("fileio.read_results")),
            "report.build_figure.ms": median(tracer.ms("report.build_figure")),
            "cli.self_ms": self_ms(tracer, runs, self.CLI_CALLS),
            "graphs.enumerate_connected.cold_ms": cold_catalog_ms(tracer, self.n),
        }
        metrics.update(iteration_metrics(iters, grads))
        if self.threads > 1:
            # Child CPU over the simulate command's wall time and the workers.
            metrics["simulation.pool.util"] = median(
                r["child_cpu_s"] / (r["command_ms"][0] / 1e3 * self.threads) for r in runs
            )
        return metrics


# ---------------------------------------------------------------------------
# League ranking: rank --format pairs with bt, thurstone and llsm


def _reaches_all(n: int, arcs: list[tuple[int, int]]) -> bool:
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for a, b in arcs:
        adjacent[a].append(b)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def make_league(rng, teams: int, opponents: int, games: int, spread: float):
    """A round of games between ``teams`` teams with Bradley-Terry merits drawn
    from N(0, spread^2).  The schedule is a random Hamiltonian cycle plus
    random extra pairs up to teams * opponents / 2 pairs; each pair plays
    ``games`` games and i's wins are Binomial(games, expit(m_i - m_j)).
    Redrawn until the Ford condition holds (the directed win graph is
    strongly connected) and the pairs won both ways connect every team, so
    all three methods are defined.  Returns (i, j, worse, better) arrays."""
    while True:
        merit = rng.normal(0.0, spread, teams)
        order = rng.permutation(teams)
        pairs = {tuple(sorted((int(order[k]), int(order[(k + 1) % teams])))) for k in range(teams)}
        while len(pairs) < teams * opponents // 2:
            a, b = rng.choice(teams, 2, replace=False)
            pairs.add((int(min(a, b)), int(max(a, b))))
        ii, jj = (np.array(v) for v in zip(*sorted(pairs)))
        better = rng.binomial(games, expit(merit[ii] - merit[jj])).astype(float)
        worse = games - better
        arcs = [(i, j) for i, j, b in zip(ii, jj, better) if b > 0]
        arcs += [(j, i) for i, j, w in zip(ii, jj, worse) if w > 0]
        both = (better > 0) & (worse > 0)
        two_way = [(i, j) for i, j in zip(ii[both], jj[both])]
        two_way += [(j, i) for i, j in two_way]
        reverse = [(b, a) for a, b in arcs]
        if _reaches_all(teams, arcs) and _reaches_all(teams, reverse) and _reaches_all(
            teams, two_way
        ):
            return ii, jj, worse, better


def _mills(x):
    """phi(x) / Phi(x)."""
    return np.exp(-0.5 * x * x - 0.5 * math.log(2.0 * math.pi) - log_ndtr(x))


def league_gradient(league, m: np.ndarray, model: str) -> np.ndarray:
    """Gradient of the paired-comparison log-likelihood at m, from the
    league arrays alone."""
    ii, jj, worse, better = league
    delta = m[ii] - m[jj]
    if model == "logistic":
        g = better * expit(-delta) - worse * expit(delta)
    else:
        g = better * _mills(delta) - worse * _mills(-delta)
    n = len(m)
    return np.bincount(ii, g, n) - np.bincount(jj, g, n)


def llsm_residual(league, weights: np.ndarray) -> float:
    """max |L y - b| / max(1, max |b|) for y = log weights, over the pairs won
    both ways (the ratio matrix's known entries)."""
    ii, jj, worse, better = league
    both = (better > 0) & (worse > 0)
    i, j = ii[both], jj[both]
    log_ratio = np.log(better[both] / worse[both])
    n = len(weights)
    y = np.log(weights)
    diff = y[i] - y[j]
    lhs = np.bincount(i, diff, n) - np.bincount(j, diff, n)
    rhs = np.bincount(i, log_ratio, n) - np.bincount(j, log_ratio, n)
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, float(np.max(np.abs(rhs)))))


class LeagueWorkload:
    kind = "league"
    METHODS = ("bt", "thurstone", "llsm")
    CLI_CALLS = (
        "fileio.parse_pairs",
        "estimators.bt_mle.logistic",
        "estimators.bt_mle.normal",
        "estimators.weights_from_m",
        "core.pcm_from_data",
        "estimators.llsm",
        "core.comparison_graph",
        "core.ford_condition",
        "core.data_consistency",
    )

    def __init__(self, threads, teams, opponents, games, spread, trace_ops):
        self.threads = threads
        self.teams = teams
        self.opponents = opponents
        self.games = games
        self.spread = spread
        self.trace_ops = trace_ops
        self.units_per_op = 1

    def make_op(self, seed: int, stream: int, k: int, workdir: Path) -> dict:
        league = make_league(
            rng_for(seed, stream, k), self.teams, self.opponents, self.games, self.spread
        )
        path = workdir / "league.csv"
        lines = ["i,j,worse,better"]
        lines += [f"{i + 1},{j + 1},{w:g},{b:g}" for i, j, w, b in zip(*league)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {
            "input": str(path),
            "league": league,
            "out": {m: str(workdir / f"{m}.json") for m in self.METHODS},
        }

    def commands(self, op) -> list[list[str]]:
        return [
            ["rank", "--input", op["input"], "--format", "pairs", "--method", method,
             "--json", "--out", op["out"][method]]
            for method in self.METHODS
        ]

    def check(self, op) -> tuple[list[str], int]:
        problems = []
        for method in self.METHODS:
            payload = json.loads(Path(op["out"][method]).read_text(encoding="utf-8"))
            found = check_weights(payload, self.teams)
            if payload.get("ford_condition") is not True:
                found.append("Ford condition reported false")
            if not found and method != "llsm":
                m = np.asarray(payload["m"], dtype=float)
                model = "logistic" if method == "bt" else "normal"
                w = np.exp(m - m.max())
                gradient = float(np.max(np.abs(league_gradient(op["league"], m, model))))
                if m[0] != 0.0:
                    found.append("m is not gauged to m_1 = 0")
                elif np.max(np.abs(w / w.sum() - payload["weights"])) > 1e-12:
                    found.append("weights are not softmax(m)")
                elif gradient > GRAD_BOUND:
                    found.append(f"|gradient| {gradient:.3g} above {GRAD_BOUND:g}")
            elif not found:
                residual = llsm_residual(op["league"], np.asarray(payload["weights"]))
                if residual > LLSM_RESIDUAL:
                    found.append(f"normal-equation residual {residual:.3g}")
            problems += [f"{method}: {p}" for p in found]
        return problems, 0

    def extra_check(self, seed: int, workdir: Path) -> list[str]:
        return []

    def replay(self, op, tracer: Tracer) -> tuple[list[str], dict]:
        """The public calls ``rank`` makes, once per method."""
        cells, grads = [], []
        for method in self.METHODS:
            with tracer.span("fileio.parse_pairs"):
                data = fileio.parse_pairs(op["input"])
            if method == "llsm":
                with tracer.span("core.pcm_from_data"):
                    pcm = pcm_from_data(data)
                with tracer.span("estimators.llsm"):
                    llsm(pcm)
            else:
                model = ModelKind.LOGISTIC if method == "bt" else ModelKind.NORMAL
                with tracer.span(f"estimators.bt_mle.{model.value}"):
                    fit = bt_mle(data, model)
                with tracer.span("estimators.weights_from_m"):
                    weights_from_m(fit.m)
                cells.append((model.value, fit.iterations))
                grads.append(grad_max(data, fit.m, model))
            with tracer.span("core.comparison_graph"):
                connected = data.comparison_graph().is_connected()
            with tracer.span("core.ford_condition"):
                ford_condition(data)
            if connected:
                with tracer.span("core.data_consistency"):
                    data_consistency(data, DEFAULT_CYCLE_TOL)
        return [], {"cells": cells, "grads": grads}

    def layer_metrics(self, tracer: Tracer, runs: list[dict], infos: list[dict]) -> dict:
        cells = [c for info in infos for c in info["cells"]]
        grads = [g for info in infos for g in info["grads"]]
        metrics = {
            "estimators.bt_mle.logistic_ms": median(tracer.ms("estimators.bt_mle.logistic")),
            "estimators.bt_mle.normal_ms": median(tracer.ms("estimators.bt_mle.normal")),
            "estimators.bt_mle.logistic_iters": percentile_exact(
                [c for label, c in cells if label == "logistic"], 50
            ),
            "estimators.bt_mle.normal_iters": percentile_exact(
                [c for label, c in cells if label == "normal"], 50
            ),
            "estimators.llsm.ms": median(tracer.ms("estimators.llsm")),
            "core.data_consistency.ms": median(tracer.ms("core.data_consistency")),
            "core.ford_condition.ms": median(tracer.ms("core.ford_condition")),
            "core.pcm_from_data.ms": median(tracer.ms("core.pcm_from_data")),
            "fileio.parse_pairs.ms": median(tracer.ms("fileio.parse_pairs")),
            "cli.self_ms": self_ms(tracer, runs, self.CLI_CALLS),
        }
        metrics.update(iteration_metrics([c for _, c in cells], grads))
        return metrics


# ---------------------------------------------------------------------------
# Eigenvector method on partial ratio matrices: rank --format pcm --method em


def incomplete_classes(n: int) -> list:
    return [c for c in enumerate_connected(n) if c.edge_count < n * (n - 1) // 2]


def make_partial(rng, cls, noise: float) -> dict:
    """A ratio matrix restricted to the structure ``cls``, relabeled by a
    random permutation.  Weights are uniform integers 1..9; each known ratio
    w_i / w_j is multiplied by exp(U(-noise, noise))."""
    n = cls.n
    perm = rng.permutation(n)
    weights = rng.integers(1, 10, size=n).astype(float)
    upper = {}
    for a, b in cls.member().sorted_edges():
        i, j = sorted((int(perm[a]), int(perm[b])))
        upper[(i, j)] = weights[i] / weights[j] * math.exp(rng.uniform(-noise, noise))
    return {"n": n, "upper": upper, "structure": cls.label}


def emit_partial(path: Path, n: int, upper: dict) -> None:
    grid = [["1" if i == j else "*" for j in range(n)] for i in range(n)]
    for (i, j), a in upper.items():
        grid[i][j] = format(a, ".17g")
        grid[j][i] = format(1.0 / a, ".17g")
    path.write_text("\n".join(",".join(row) for row in grid) + "\n", encoding="utf-8")


def llsm_completion_lambda(n: int, upper: dict) -> float:
    """Principal eigenvalue of the matrix completed by least squares; the
    eigenvalue-minimal completion can only be lower."""
    laplacian, rhs = np.zeros((n, n)), np.zeros(n)
    for (i, j), a in upper.items():
        laplacian[[i, j], [i, j]] += 1.0
        laplacian[i, j] -= 1.0
        laplacian[j, i] -= 1.0
        rhs[i] += math.log(a)
        rhs[j] -= math.log(a)
    y = np.zeros(n)
    y[1:] = np.linalg.solve(laplacian[1:, 1:], rhs[1:])
    matrix = np.exp(y[:, None] - y[None, :])
    for (i, j), a in upper.items():
        matrix[i, j], matrix[j, i] = a, 1.0 / a
    return float(np.max(np.linalg.eigvals(matrix).real))


class EmWorkload:
    kind = "em"
    CLI_CALLS = (
        "fileio.parse_pcm",
        "estimators.em",
        "core.representing_graph",
        "core.pcm_consistency",
    )

    def __init__(self, threads, ns, noise, trace_ops):
        self.threads = threads
        self.ns = ns
        self.noise = noise
        self.trace_ops = trace_ops
        self.units_per_op = 1
        self._orders: dict[tuple[int, int, int], list] = {}

    def structure(self, seed: int, stream: int, k: int):
        """Op k's structure.  Ops of each n walk the incomplete catalog
        structures, which the catalog sorts by edge count, in a cycle with a
        fixed stride near count / golden ratio.  Every stretch of such a
        cycle spreads evenly over the catalog (the three-gap theorem), so
        every run meets each edge count, and with it each cost level of the
        completion, in its catalog share, however many ops it runs.  The
        seed picks where the cycle starts."""
        cycle = len(self.ns)
        n = self.ns[k % cycle]
        visit = (k // cycle) * self.ns.count(n) + self.ns[: k % cycle].count(n)
        key = (seed, stream, n)
        if key not in self._orders:
            classes = incomplete_classes(n)
            count = len(classes)
            stride = min(range(1, count + 1), key=lambda s: (
                math.gcd(s, count) != 1, abs(s - count / GOLDEN)))
            start = int(rng_for(seed, ORDER, stream * 100 + n).integers(count))
            self._orders[key] = [classes[(start + i * stride) % count] for i in range(count)]
        order = self._orders[key]
        return order[visit % len(order)]

    def make_op(self, seed: int, stream: int, k: int, workdir: Path, noise=None) -> dict:
        cls = self.structure(seed, stream, k)
        n = cls.n
        op = make_partial(rng_for(seed, stream, k), cls, self.noise if noise is None else noise)
        op["input"] = str(workdir / "ratios.pcm")
        op["out"] = str(workdir / "em.json")
        emit_partial(Path(op["input"]), n, op["upper"])
        return op

    def commands(self, op, method: str = "em") -> list[list[str]]:
        return [["rank", "--input", op["input"], "--format", "pcm", "--method", method,
                 "--json", "--out", op["out"]]]

    def check(self, op) -> tuple[list[str], int]:
        payload = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
        n = op["n"]
        problems = check_weights(payload, n)
        lam = payload.get("lambda_max", float("nan"))
        if not lam >= n - 1e-9 * n:
            problems.append(f"lambda_max {lam!r} below n = {n}")
        elif lam > llsm_completion_lambda(n, op["upper"]) * (1.0 + 1e-9):
            problems.append("lambda_max above that of the least-squares completion")
        return problems, 0

    def extra_check(self, seed: int, workdir: Path) -> list[str]:
        """On a consistent partial matrix em and llsm give the same weights
        and lambda_max equals n."""
        op = self.make_op(seed, EXTRA, 0, workdir, noise=0.0)
        payloads = {}
        for method in ("em", "llsm"):
            code, _, err = call_cli(self.commands(op, method)[0])
            if code != 0:
                return [f"consistent matrix, {method}: exit {code}: {err.strip()[-200:]}"]
            payloads[method] = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
        problems = []
        gap = float(np.max(np.abs(
            np.subtract(payloads["em"]["weights"], payloads["llsm"]["weights"])
        )))
        if gap > EM_AGREE:
            problems.append(f"consistent matrix: em and llsm weights differ by {gap:.3g}")
        if not close(payloads["em"]["lambda_max"], op["n"], 1e-9):
            problems.append(f"consistent matrix: lambda_max {payloads['em']['lambda_max']!r}")
        return problems

    def replay(self, op, tracer: Tracer) -> tuple[list[str], dict]:
        with tracer.span("fileio.parse_pcm"):
            pcm = fileio.parse_pcm(op["input"])
        with tracer.span("estimators.em"):
            result = em(pcm)
        with tracer.span("core.representing_graph"):
            connected = pcm.representing_graph().is_connected()
        if connected:
            with tracer.span("core.pcm_consistency"):
                pcm_consistency(pcm, DEFAULT_CYCLE_TOL)
        return [], {"lambda_max": result.lambda_max, "n": op["n"]}

    def layer_metrics(self, tracer: Tracer, runs: list[dict], infos: list[dict]) -> dict:
        em_ms = tracer.ms("estimators.em")
        return {
            "estimators.em.ms_p50": median(em_ms),
            "estimators.em.ms_max": max(em_ms),
            "estimators.em.lambda_max_sum": sum(info["lambda_max"] for info in infos),
            "fileio.parse_pcm.ms": median(tracer.ms("fileio.parse_pcm")),
            "core.pcm_consistency.ms": median(tracer.ms("core.pcm_consistency")),
            "cli.self_ms": self_ms(tracer, runs, self.CLI_CALLS),
            "graphs.enumerate_connected.cold_ms": cold_catalog_ms(tracer, max(self.ns)),
        }


KINDS = {"sim": SimWorkload, "league": LeagueWorkload, "em": EmWorkload}


def build(spec: dict, size: str):
    params = dict(spec[size])
    return KINDS[spec["kind"]](threads=spec["threads"], **params)

"""Command line: rank, consistency, graphs enumerate, simulate, report."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fileio, report
from .core import (
    DEFAULT_CYCLE_TOL,
    ModelKind,
    check_cycle_tolerance,
    data_consistency,
    ford_condition,
    pcm_consistency,
    pcm_from_data,
)
from .errors import (
    DisconnectedGraph,
    FordViolation,
    MissingSlice,
    NoConvergence,
    ParseError,
    TooLarge,
)
from .estimators import bt_mle, em, llsm, weights_from_m
from .graphs import MAX_CATALOG_N, enumerate_connected
from .simulation import DEFAULT_EPSILON, SimulationConfig, _pair_signs, run


#: Likelihood method of ``rank`` -> its model; the other methods read ratios.
_LIKELIHOOD_METHODS = {"bt": ModelKind.LOGISTIC, "thurstone": ModelKind.NORMAL}


def _ranks_descending(weights: np.ndarray) -> np.ndarray:
    """Rank 1 = largest weight; ties share the average rank."""
    return 0.5 * (len(weights) + 1 - _pair_signs(weights).sum(axis=-1))


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _float_list(values) -> str:
    return " ".join(format(v, ".6f") for v in values)


def _load_input(args):
    if args.format == "pairs":
        return fileio.parse_pairs(args.input, n=args.n), None
    return None, fileio.parse_pcm(args.input)


def _consistency_payload(data, pcm, tol):
    """Verdict and diagnostics for whichever representation was supplied;
    only pair data has a Ford condition.  The tolerance is checked even
    where no cycle check runs."""
    check_cycle_tolerance(tol)
    graph = data.comparison_graph() if data is not None else pcm.representing_graph()
    payload = {"connected": graph.is_connected()}
    if data is not None:
        payload["ford_condition"] = ford_condition(data)
    payload["consistent"] = None
    if payload["connected"]:
        report_ = data_consistency(data, tol) if data is not None else pcm_consistency(pcm, tol)
        witness = report_.witness
        payload["consistent"] = report_.consistent
        payload["max_cycle_deviation"] = report_.max_cycle_deviation
        payload["witness"] = [v + 1 for v in witness] if witness is not None else None
    return payload


def _cmd_rank(args) -> int:
    if args.method in _LIKELIHOOD_METHODS and args.format != "pairs":
        build_parser().error(f"methods {' and '.join(_LIKELIHOOD_METHODS)} need --format pairs")
    data, pcm = _load_input(args)

    payload: dict = {"method": args.method}
    if args.method in _LIKELIHOOD_METHODS:
        result = bt_mle(data, _LIKELIHOOD_METHODS[args.method])
        weights = weights_from_m(result.m)
        payload["m"] = list(result.m.values)
        payload["log_likelihood"] = result.loglik
        payload["iterations"] = result.iterations
    else:
        evaluated = pcm if pcm is not None else pcm_from_data(data)
        if args.method == "llsm":
            weights = llsm(evaluated)
        else:
            result = em(evaluated)
            weights = result.weights
            payload["lambda_max"] = result.lambda_max
            payload["iterations"] = result.iterations
    payload["n"] = len(weights)
    payload["weights"] = list(weights.values)
    payload["ranks"] = list(_ranks_descending(weights.values))
    payload.update(_consistency_payload(data, pcm, args.tol))

    if args.json:
        _write_output(fileio.format_json(payload), args.out)
        return 0
    lines = [f"method: {payload['method']}", f"items: {payload['n']}"]
    lines.append(f"weights: {_float_list(payload['weights'])}")
    lines.append(f"ranks: {' '.join(format(r, 'g') for r in payload['ranks'])}")
    if "m" in payload:
        lines.append(f"m: {_float_list(payload['m'])}")
        lines.append(f"log_likelihood: {payload['log_likelihood']:.6f}")
    if "lambda_max" in payload:
        lines.append(f"lambda_max: {payload['lambda_max']:.9f}")
    lines.extend(_consistency_lines(payload))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _consistency_lines(payload) -> list[str]:
    lines = [f"{key}: {str(payload[key]).lower()}" for key in ("connected", "ford_condition")
             if key in payload]
    if payload["consistent"] is None:
        return [*lines, "consistency: undefined (graph not connected)"]
    verdict = "consistent" if payload["consistent"] else "inconsistent"
    deviation = payload["max_cycle_deviation"]
    lines.append(f"consistency: {verdict} (max cycle deviation {deviation:.6g})")
    if not payload["consistent"]:
        lines.append(f"witness: {'-'.join(map(str, payload['witness']))}")
    return lines


def _cmd_consistency(args) -> int:
    payload = _consistency_payload(*_load_input(args), args.tol)
    lines = _consistency_lines(payload)
    _write_output(fileio.format_json(payload) if args.json else "\n".join(lines) + "\n", args.out)
    return 0


def _cmd_graphs(args) -> int:
    classes = enumerate_connected(args.n)
    if args.edges is not None:
        classes = tuple(c for c in classes if c.edge_count == args.edges)
    _write_output(fileio.graphs_json(classes), args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = SimulationConfig(
        n=args.n,
        perturb=args.perturb,
        num_sims=args.sims,
        seed=args.seed,
        model=ModelKind(args.model),
        epsilon=args.epsilon,
    )

    def progress(done: int, total: int) -> None:
        print(f"paircomp: {done}/{total} replications", file=sys.stderr)

    summary = run(config, progress=progress)
    _write_output(fileio.results_table(summary, args.json), args.out)
    if summary.failures:
        print(f"paircomp: {len(summary.failures)} replications excluded", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.results:
        rows.extend(fileio.read_results(path))
    header, table = report.build_figure(args.figure, rows, args.graph)
    _write_output(fileio.format_table(header, table, args.json), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paircomp",
        description="Evaluate pairwise comparison data and comparison structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--input", required=True, help="input file")
        p.add_argument("--format", choices=("pairs", "pcm"), default="pairs")
        p.add_argument("--n", type=int, default=None, help="item count override (pairs)")
        p.add_argument("--tol", type=float, default=DEFAULT_CYCLE_TOL,
                       help="cycle tolerance for the consistency check")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_rank = sub.add_parser("rank", help="evaluate weights with one method")
    add_input_flags(p_rank)
    p_rank.add_argument("--method", choices=("llsm", "em", *_LIKELIHOOD_METHODS), default="bt")
    p_rank.set_defaults(func=_cmd_rank)

    p_cons = sub.add_parser("consistency", help="cycle-product consistency check")
    add_input_flags(p_cons)
    p_cons.set_defaults(func=_cmd_consistency)

    p_graphs = sub.add_parser("graphs", help="comparison structure catalog")
    graphs_sub = p_graphs.add_subparsers(dest="graphs_command", required=True)
    p_enum = graphs_sub.add_parser("enumerate", help="list connected structures")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--edges", type=int, default=None, help="filter by edge count")
    p_enum.add_argument("--out", default=None, help="output file (default stdout)")
    p_enum.set_defaults(func=_cmd_graphs)

    p_sim = sub.add_parser("simulate", help="run the information-retrieval experiment")
    p_sim.add_argument("--n", type=int, choices=range(4, MAX_CATALOG_N + 1), required=True)
    p_sim.add_argument("--perturb", type=float, required=True)
    p_sim.add_argument("--sims", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--model", choices=[kind.value for kind in ModelKind],
                       default=ModelKind.LOGISTIC.value)
    p_sim.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_sim.add_argument("--out", required=True, help="summary table destination")
    p_sim.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("report", help="plot-ready tables from simulate output")
    p_rep.add_argument("--results", nargs="+", required=True, help="results file(s)")
    p_rep.add_argument("--figure", choices=report.FIGURES, required=True)
    p_rep.add_argument("--graph", default=None, help="structure label for perturb-sweep")
    p_rep.add_argument("--json", action="store_true")
    p_rep.add_argument("--out", default=None, help="output file (default stdout)")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FordViolation, DisconnectedGraph, NoConvergence) as exc:
        print(f"paircomp: {exc}", file=sys.stderr)
        return 2
    except (ParseError, MissingSlice, TooLarge, ValueError, OSError) as exc:
        print(f"paircomp: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

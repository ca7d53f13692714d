"""Plot-ready tables derived from simulation result files.

Each builder filters and aggregates :class:`~paircomp.fileio.ResultRow`
records into a tidy (header, rows) pair for :func:`~paircomp.fileio.format_table`
to render.  Builders are pure functions of the result rows; the by-edges
tables share one grouping.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .errors import MissingSlice
from .fileio import ResultRow
from .graphs import format_label, parse_label, star_class
from .simulation import HIGHER_IS_BETTER, MEASURE_NAMES


def _context(rows: list[ResultRow]) -> tuple[int, str]:
    if not rows:
        raise MissingSlice("no result rows to report on")
    ns = {r.n for r in rows}
    models = {r.model for r in rows}
    if len(ns) > 1 or len(models) > 1:
        raise ValueError("results mix different n or model; report on one run family")
    cells = set()
    for r in rows:
        cell = (r.perturb, r.graph_id, r.measure)
        if cell in cells:
            raise ValueError(
                f"results repeat perturb {r.perturb:g}, {format_label(r.graph_id)}, {r.measure}; "
                "report on one run per perturbation level"
            )
        cells.add(cell)
    return ns.pop(), models.pop()


def _measure_key(measure: str) -> int:
    return MEASURE_NAMES.index(measure)


def _by_edges(rows: list[ResultRow]):
    """Rows grouped by (perturb, edges, measure), sorted on that key with
    measures in canonical order."""
    groups: dict[tuple[float, int, str], list[ResultRow]] = defaultdict(list)
    for r in rows:
        groups[(r.perturb, r.edges, r.measure)].append(r)
    return sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1], _measure_key(kv[0][2])))


def averages_by_edges(rows: list[ResultRow]):
    """Mean of the per-structure means, grouped by edge count."""
    n, model = _context(rows)
    header = ("n", "perturb", "model", "edges", "measure", "mean", "classes")
    table = [
        (n, perturb, model, edges, measure, sum(r.mean for r in members) / len(members),
         len(members))
        for (perturb, edges, measure), members in _by_edges(rows)
    ]
    return header, table


def best_by_edges(rows: list[ResultRow]):
    """Best and worst structure per edge count for every measure; lets a
    k-edge best be compared against a (k+1)-edge worst directly.  A NaN mean
    (every replication excluded) competes only where no mean is finite."""
    n, model = _context(rows)
    header = (
        "n",
        "perturb",
        "model",
        "edges",
        "measure",
        "best_graph",
        "best_mean",
        "worst_graph",
        "worst_mean",
    )
    table = []
    for (perturb, edges, measure), members in _by_edges(rows):
        scored = [r for r in members if math.isfinite(r.mean)] or members
        ordered = sorted(scored, key=lambda r: r.mean, reverse=HIGHER_IS_BETTER[measure])
        best, worst = ordered[0], ordered[-1]
        table.append(
            (n, perturb, model, edges, measure,
             format_label(best.graph_id), best.mean, format_label(worst.graph_id), worst.mean)
        )
    return header, table


def _is_star_row(row: ResultRow) -> bool:
    # read_results guarantees that a row's code is its class's code.
    return row.graph_id == star_class(row.n).id


def spanning_trees(rows: list[ResultRow]):
    """All spanning-tree structures (e = n - 1) with the star flagged."""
    n, model = _context(rows)
    trees = [r for r in rows if r.edges == n - 1]
    if not trees:
        raise MissingSlice("results contain no spanning-tree structures")
    header = ("n", "perturb", "model", "graph_id", "is_star", "measure", "mean", "stddev")
    table = [
        (n, r.perturb, model, format_label(r.graph_id), _is_star_row(r), r.measure, r.mean,
         r.stddev)
        for r in sorted(trees, key=lambda r: (r.perturb, r.graph_id, _measure_key(r.measure)))
    ]
    return header, table


def perturb_sweep(rows: list[ResultRow], graph_label: str | None = None):
    """One structure's measures across the perturbation levels present.

    Defaults to the star spanning tree when no structure is named.
    """
    n, model = _context(rows)
    if graph_label is None:
        stars = sorted(
            {r.graph_id for r in rows if r.edges == n - 1 and _is_star_row(r)}
        )
        if not stars:
            raise MissingSlice("results contain no star spanning tree to sweep")
        graph_id = stars[0]
    else:
        graph_id = parse_label(graph_label)
    mine = [r for r in rows if r.graph_id == graph_id]
    if not mine:
        raise MissingSlice(f"results contain no rows for structure {format_label(graph_id)}")
    header = ("n", "model", "graph_id", "perturb", "measure", "mean", "stddev")
    table = [
        (n, model, format_label(graph_id), r.perturb, r.measure, r.mean, r.stddev)
        for r in sorted(mine, key=lambda r: (r.perturb, _measure_key(r.measure)))
    ]
    return header, table


#: Figure name -> builder of its table from the rows and an optional structure label.
_BUILDERS = {
    "averages-by-edges": lambda rows, _: averages_by_edges(rows),
    "best-by-edges": lambda rows, _: best_by_edges(rows),
    "spanning-trees": lambda rows, _: spanning_trees(rows),
    "perturb-sweep": perturb_sweep,
}
FIGURES = tuple(_BUILDERS)


def build_figure(figure: str, rows: list[ResultRow], graph_label: str | None = None):
    if figure not in _BUILDERS:
        raise ValueError(f"unknown figure {figure!r}")
    return _BUILDERS[figure](rows, graph_label)

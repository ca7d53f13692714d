"""Figure tables built from result rows."""

from __future__ import annotations

import io

import pytest

from paircomp import MissingSlice, SimulationConfig, run
from paircomp.fileio import read_results, write_results
from paircomp.report import (
    averages_by_edges,
    best_by_edges,
    build_figure,
    perturb_sweep,
    spanning_trees,
)


@pytest.fixture(scope="module")
def rows():
    collected = []
    for perturb in (0.1, 0.2):
        summary = run(SimulationConfig(n=4, perturb=perturb, num_sims=6, seed=31))
        buffer = io.StringIO()
        write_results(summary, buffer)
        collected.extend(read_results(io.StringIO(buffer.getvalue())))
    return collected


def test_averages_by_edges(rows):
    header, table = averages_by_edges(rows)
    assert header[:4] == ("n", "perturb", "model", "edges")
    # 2 perturb levels x 4 edge counts x 6 measures.
    assert len(table) == 2 * 4 * 6
    classes_column = header.index("classes")
    by_edges = {row[3]: row[classes_column] for row in table}
    assert by_edges == {3: 2, 4: 2, 5: 1, 6: 1}


def test_best_by_edges_orientation(rows):
    header, table = best_by_edges(rows)
    idx = {name: k for k, name in enumerate(header)}
    for row in table:
        measure = row[idx["measure"]]
        best, worst = row[idx["best_mean"]], row[idx["worst_mean"]]
        if measure in ("eu_m", "eu_w"):
            assert best <= worst
        else:
            assert best >= worst


def test_spanning_trees_flags_the_star(rows):
    header, table = spanning_trees(rows)
    idx = {name: k for k, name in enumerate(header)}
    stars = {row[idx["graph_id"]] for row in table if row[idx["is_star"]]}
    others = {row[idx["graph_id"]] for row in table if not row[idx["is_star"]]}
    assert len(stars) == 1
    assert len(others) == 1


def test_perturb_sweep_defaults_to_the_star(rows):
    header, table = perturb_sweep(rows)
    idx = {name: k for k, name in enumerate(header)}
    perturbs = sorted({row[idx["perturb"]] for row in table})
    assert perturbs == [0.1, 0.2]
    assert len(table) == 2 * 6

    named = perturb_sweep(rows, "g6")
    assert all(row[idx["graph_id"]] == "g6" for row in named[1])


def test_missing_slices(rows):
    with pytest.raises(MissingSlice):
        build_figure("averages-by-edges", [])
    with pytest.raises(MissingSlice):
        perturb_sweep(rows, "g99")
    no_trees = [r for r in rows if r.edges > 3]
    with pytest.raises(MissingSlice):
        spanning_trees(no_trees)


@pytest.mark.parametrize("label", ["g\u00b2", "g\u0663", "6", "gg6"])
def test_perturb_sweep_label_needs_ascii_digits(rows, label):
    with pytest.raises(ValueError, match="must look like g12"):
        perturb_sweep(rows, label)


def test_mixed_runs_are_rejected(rows):
    doctored = list(rows)
    clone = rows[0].__class__(**{**rows[0].__dict__, "n": 5})
    doctored.append(clone)
    with pytest.raises(ValueError):
        averages_by_edges(doctored)


def test_unknown_figure(rows):
    with pytest.raises(ValueError):
        build_figure("no-such-figure", rows)


def test_builders_are_pure(rows):
    for figure in ("averages-by-edges", "best-by-edges", "spanning-trees", "perturb-sweep"):
        assert build_figure(figure, rows) == build_figure(figure, list(rows))

"""Figure tables built from result rows."""

from __future__ import annotations

import hashlib
import io

import pytest

from paircomp import MissingSlice, SimulationConfig, enumerate_connected, run
from paircomp.cli import main
from paircomp.fileio import read_results, write_results
from paircomp.report import (
    FIGURES,
    averages_by_edges,
    best_by_edges,
    build_figure,
    perturb_sweep,
    spanning_trees,
)
from paircomp.simulation import MEASURE_NAMES, MeasureStats, SimulationSummary


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


def _fixed_summary(level: int) -> SimulationSummary:
    """n = 4 results with hand-set statistics, distinct within every
    (edges, measure) group, at perturbation 0.1 (level 0) or 0.25 (level 1)."""
    classes = enumerate_connected(4)
    stats = {
        (cls.id, measure): MeasureStats(
            mean=((7 * cls.id + 3 * k + 5 * level) % 11 + 1) / 13,
            stddev=(cls.id + k) / 17,
            count=10 - cls.id % 3,
        )
        for cls in classes
        for k, measure in enumerate(MEASURE_NAMES)
    }
    config = SimulationConfig(n=4, perturb=(0.1, 0.25)[level], num_sims=10, seed=1)
    return SimulationSummary(config, classes, stats)


SPANNING_TREES_CSV = """n,perturb,model,graph_id,is_star,measure,mean,stddev
4,0.10000000000000001,logistic,g1,true,eu_m,0.61538461538461542,0.058823529411764705
4,0.10000000000000001,logistic,g1,true,eu_w,0.84615384615384615,0.11764705882352941
4,0.10000000000000001,logistic,g1,true,pe_m,0.23076923076923078,0.17647058823529413
4,0.10000000000000001,logistic,g1,true,pe_w,0.46153846153846156,0.23529411764705882
4,0.10000000000000001,logistic,g1,true,rho,0.69230769230769229,0.29411764705882354
4,0.10000000000000001,logistic,g1,true,tau,0.076923076923076927,0.35294117647058826
4,0.10000000000000001,logistic,g2,false,eu_m,0.30769230769230771,0.11764705882352941
4,0.10000000000000001,logistic,g2,false,eu_w,0.53846153846153844,0.17647058823529413
4,0.10000000000000001,logistic,g2,false,pe_m,0.76923076923076927,0.23529411764705882
4,0.10000000000000001,logistic,g2,false,pe_w,0.15384615384615385,0.29411764705882354
4,0.10000000000000001,logistic,g2,false,rho,0.38461538461538464,0.35294117647058826
4,0.10000000000000001,logistic,g2,false,tau,0.61538461538461542,0.41176470588235292
4,0.25,logistic,g1,true,eu_m,0.15384615384615385,0.058823529411764705
4,0.25,logistic,g1,true,eu_w,0.38461538461538464,0.11764705882352941
4,0.25,logistic,g1,true,pe_m,0.61538461538461542,0.17647058823529413
4,0.25,logistic,g1,true,pe_w,0.84615384615384615,0.23529411764705882
4,0.25,logistic,g1,true,rho,0.23076923076923078,0.29411764705882354
4,0.25,logistic,g1,true,tau,0.46153846153846156,0.35294117647058826
4,0.25,logistic,g2,false,eu_m,0.69230769230769229,0.11764705882352941
4,0.25,logistic,g2,false,eu_w,0.076923076923076927,0.17647058823529413
4,0.25,logistic,g2,false,pe_m,0.30769230769230771,0.23529411764705882
4,0.25,logistic,g2,false,pe_w,0.53846153846153844,0.29411764705882354
4,0.25,logistic,g2,false,rho,0.76923076923076927,0.35294117647058826
4,0.25,logistic,g2,false,tau,0.15384615384615385,0.41176470588235292
"""

#: SHA-256 of the ``report`` output for every figure, as (CSV, JSON).
REPORT_DIGESTS = {
    "averages-by-edges": (
        "54afbbeed0a009b353e99279d16bef153aeac68377dfd4f5a0c1d5fb9d144ab0",
        "cf1f2c4d6aec2202a6e8df56d36208928257981241f8280dc39c8a9d45da1b93",
    ),
    "best-by-edges": (
        "9b3776ce8718adb2c6bea034efe92afc04cdb7463fcfa03c558661444f121919",
        "5e21b0525f01de03053ef1c6a6f987a0053eeeee1faa05f3d373fb34258a0a5f",
    ),
    "spanning-trees": (
        "cf9689a36da3618a6453a6e17252cff600c7ebcb8d531694dcf1d5a3816f13cc",
        "27d43b3623b548b5ef7b7e3b0a1bc2e563fdcdd8314c2496eb2335a7c56210af",
    ),
    "perturb-sweep": (
        "5b65fb0d5fde3d5c060e134735d26eb903abe5f5bc0ced3f86e8ae48800ae12a",
        "257582c5bc1342ae7348e133e0050736bf445a49b9877c21f2473885dade42bc",
    ),
}


class TestReportBytes:
    """The ``report`` command's files, byte for byte, on two hand-set runs."""

    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        paths = []
        for level in (1, 0):
            path = tmp_path_factory.mktemp("results") / "results.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                write_results(_fixed_summary(level), handle)
            paths.append(str(path))
        return paths

    def _report(self, results, tmp_path, figure, *flags) -> bytes:
        out = tmp_path / "figure.out"
        argv = ["report", "--results", *results, "--figure", figure, "--out", str(out)]
        assert main([*argv, *flags]) == 0
        return out.read_bytes()

    def test_spanning_trees_csv(self, results, tmp_path):
        assert self._report(results, tmp_path, "spanning-trees") == SPANNING_TREES_CSV.encode()

    @pytest.mark.parametrize("figure", FIGURES)
    def test_digests(self, results, tmp_path, figure):
        digests = tuple(
            hashlib.sha256(self._report(results, tmp_path, figure, *flags)).hexdigest()
            for flags in ((), ("--json",))
        )
        assert digests == REPORT_DIGESTS[figure]

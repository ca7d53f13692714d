"""Command-line surface: subcommands, formats, and exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import paircomp
from paircomp import IPCM, ModelKind
from paircomp.cli import _ranks_descending, build_parser, main
from paircomp.graphs import MAX_CATALOG_N
from paircomp.simulation import DEFAULT_EPSILON
from paircomp.fileio import emit_pcm, read_results
from tests.conftest import GOLDEN_TOL

PAIRS_MODIFIED = """i,j,worse,better
1,2,0.562,0.438
1,3,0.679,0.321
1,4,0.852,0.148
2,3,0.622,0.378
2,4,0.818,0.182
3,4,0.531,0.469
"""

SPORTS_PAIRS = """i,j,worse,better
1,2,1,2
1,3,1,2
1,4,1,1
2,3,1,1
2,4,2,1
3,4,2,1
"""


@pytest.fixture
def pairs_file(tmp_path):
    target = tmp_path / "modified.csv"
    target.write_text(PAIRS_MODIFIED, encoding="utf-8")
    return str(target)


@pytest.fixture
def pcm_file(tmp_path, ratios_modified):
    target = tmp_path / "modified.pcm"
    target.write_text(emit_pcm(ratios_modified), encoding="utf-8")
    return str(target)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def run_cli_subprocess(*args, threads=None, timeout=None):
    """Run ``python [args]`` with the package importable, optionally with a
    worker count, capturing text output."""
    env = dict(os.environ)
    package_root = str(Path(paircomp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if threads is not None:
        env["PAIRCOMP_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestRank:
    def test_ranks_are_scipy_average_ranks_reversed(self):
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            for weights in (rng.integers(1, 4, n) / 10.0, rng.dirichlet(np.ones(n))):
                expected = n + 1.0 - rankdata(weights, method="average")
                assert np.array_equal(_ranks_descending(weights), expected)

    def test_bt_on_pairs_matches_reference(self, capsys, pairs_file):
        payload = run_json(capsys, ["rank", "--input", pairs_file, "--method", "bt", "--json"])
        expected = [0.109, 0.140, 0.284, 0.466]
        assert all(
            abs(w - e) < GOLDEN_TOL for w, e in zip(payload["weights"], expected)
        )
        assert payload["ranks"] == [4.0, 3.0, 2.0, 1.0]
        assert payload["consistent"] is False
        assert payload["ford_condition"] is True
        assert payload["m"][0] == 0.0

    def test_llsm_on_pcm_matches_reference(self, capsys, pcm_file):
        payload = run_json(
            capsys,
            ["rank", "--input", pcm_file, "--format", "pcm", "--method", "llsm", "--json"],
        )
        expected = [0.105, 0.135, 0.276, 0.484]
        assert all(
            abs(w - e) < GOLDEN_TOL for w, e in zip(payload["weights"], expected)
        )

    def test_em_reports_lambda_max(self, capsys, pcm_file):
        payload = run_json(
            capsys,
            ["rank", "--input", pcm_file, "--format", "pcm", "--method", "em", "--json"],
        )
        assert payload["lambda_max"] > 4.0

    def test_em_reports_newton_iterations(self, capsys, pcm_file, tmp_path, ratios_incomplete):
        argv = ["rank", "--format", "pcm", "--method", "em", "--json", "--input"]
        assert run_json(capsys, argv + [pcm_file])["iterations"] == 0
        partial = tmp_path / "incomplete.pcm"
        partial.write_text(emit_pcm(ratios_incomplete), encoding="utf-8")
        assert run_json(capsys, argv + [str(partial)])["iterations"] >= 1

    def test_em_json_is_the_same_under_python_O(self, capsys, tmp_path):
        # The residual check and the invariants are code, not asserts, so an
        # optimized interpreter computes the same report.
        upper = {(0, 1): 2.0, (0, 3): 0.4, (1, 2): 3.5, (2, 4): 1.7, (3, 4): 0.9,
                 (3, 5): 6.0, (4, 5): 2.2}
        source = tmp_path / "partial6.pcm"
        source.write_text(emit_pcm(IPCM.from_upper(6, upper)), encoding="utf-8")
        argv = ["rank", "--input", str(source), "--format", "pcm", "--method", "em", "--json"]
        optimized = run_cli_subprocess("-O", "-m", "paircomp.cli", *argv)
        optimized.check_returncode()
        assert json.loads(optimized.stdout) == run_json(capsys, argv)

    def test_text_output_mentions_weights(self, capsys, pairs_file):
        assert main(["rank", "--input", pairs_file]) == 0
        out = capsys.readouterr().out
        assert "weights:" in out and "consistency: inconsistent" in out

    def test_ford_violation_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "isolated.csv"
        bad.write_text("i,j,worse,better\n1,2,1,1\n", encoding="utf-8")
        code = main(["rank", "--input", str(bad), "--n", "3", "--method", "bt"])
        assert code == 2
        assert "strongly connected" in capsys.readouterr().err

    def test_bt_needs_pairs_format(self, pcm_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rank", "--input", pcm_file, "--format", "pcm", "--method", "bt"])
        assert info.value.code == 2

    def test_bt_on_a_matrix_is_a_usage_error(self, pcm_file):
        result = run_cli_subprocess(
            "-m", "paircomp.cli", "rank", "--input", pcm_file, "--format", "pcm", "--method", "bt"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            "paircomp: error: methods bt and thurstone need --format pairs"
        )

    def test_weights_sum_to_one(self, capsys, pairs_file):
        for method in ("bt", "thurstone", "llsm", "em"):
            payload = run_json(
                capsys, ["rank", "--input", pairs_file, "--method", method, "--json"]
            )
            assert abs(sum(payload["weights"]) - 1.0) < 1e-9
            assert all(w > 0 for w in payload["weights"])

    def test_out_flag_writes_a_file(self, tmp_path, pairs_file):
        target = tmp_path / "report.json"
        assert main(
            ["rank", "--input", pairs_file, "--json", "--out", str(target)]
        ) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["method"] == "bt"

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_item_count_below_one_is_named(self, capsys, pairs_file, n):
        assert main(["rank", "--input", pairs_file, "--n", n]) == 1
        assert capsys.readouterr().err == f"paircomp: item count must be at least 1, got {n}\n"


class TestConsistency:
    def test_consistent_input(self, capsys, tmp_path):
        source = tmp_path / "sports.csv"
        source.write_text(SPORTS_PAIRS, encoding="utf-8")
        payload = run_json(capsys, ["consistency", "--input", str(source), "--json"])
        assert payload["consistent"] is True
        assert payload["witness"] is None

    def test_inconsistent_input_names_a_witness(self, capsys, pairs_file):
        payload = run_json(capsys, ["consistency", "--input", pairs_file, "--json"])
        assert payload["consistent"] is False
        assert payload["witness"] == [1, 3, 4]
        assert payload["max_cycle_deviation"] == pytest.approx(0.877, abs=1e-3)

    def test_parse_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n", encoding="utf-8")
        assert main(["consistency", "--input", str(bad)]) == 1

    def test_infinite_amount_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "inf.csv"
        bad.write_text("i,j,worse,better\n1,2,1,inf\n", encoding="utf-8")
        assert main(["consistency", "--input", str(bad)]) == 1
        assert "row 2: " in capsys.readouterr().err

    def test_pcm_format(self, capsys, tmp_path, sports_ratios):
        source = tmp_path / "sports.pcm"
        source.write_text(emit_pcm(sports_ratios), encoding="utf-8")
        payload = run_json(
            capsys, ["consistency", "--input", str(source), "--format", "pcm", "--json"]
        )
        assert payload["consistent"] is True

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    @pytest.mark.parametrize("command", [["consistency"], ["rank", "--json"]])
    def test_bad_tolerance_exits_one(self, capsys, tmp_path, command, tol):
        tree = tmp_path / "tree.csv"
        tree.write_text("i,j,worse,better\n1,2,0.3,0.7\n2,3,0.6,0.4\n", encoding="utf-8")
        assert main([command[0], "--input", str(tree), "--tol", tol, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"paircomp: cycle tolerance must be nonnegative, got {float(tol)}\n"
        )

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    @pytest.mark.parametrize("name", ["split.csv", "split.pcm"])
    def test_bad_tolerance_exits_one_on_a_disconnected_input(self, capsys, tmp_path, name, tol):
        # No cycle check runs on a disconnected graph; the flag is still refused.
        source = tmp_path / name
        source.write_text(PINNED_INPUTS[name], encoding="utf-8")
        fmt = "pcm" if name.endswith(".pcm") else "pairs"
        assert main(["consistency", "--input", str(source), "--format", fmt, "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"paircomp: cycle tolerance must be nonnegative, got {float(tol)}\n"
        )

    def test_disconnected_input_reports_undefined(self, capsys, tmp_path):
        source = tmp_path / "split.csv"
        source.write_text("i,j,worse,better\n1,2,1,1\n3,4,1,1\n", encoding="utf-8")
        payload = run_json(capsys, ["consistency", "--input", str(source), "--json"])
        assert payload["connected"] is False
        assert payload["consistent"] is None


class TestGraphs:
    def test_enumerate_to_file(self, tmp_path):
        out = tmp_path / "graphs.json"
        assert main(["graphs", "enumerate", "--n", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload) == 6

    def test_edges_filter(self, capsys):
        assert main(["graphs", "enumerate", "--n", "5", "--edges", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        assert any(entry["properties"]["is_star"] for entry in payload)

    def test_catalog_bound_exits_one(self, capsys):
        assert main(["graphs", "enumerate", "--n", "7"]) == 1
        assert "catalog" in capsys.readouterr().err


@pytest.fixture(scope="module")
def results_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "results.csv"
    code = main(
        [
            "simulate", "--n", "4", "--perturb", "0.15", "--sims", "8",
            "--seed", "42", "--out", str(out),
        ]
    )
    assert code == 0
    return str(out)


class TestSimulateAndReport:
    def test_results_schema(self, results_file):
        rows = read_results(results_file)
        assert len(rows) == 36
        assert {r.measure for r in rows} == {"eu_m", "eu_w", "pe_m", "pe_w", "rho", "tau"}
        assert all(r.num_sims == 8 for r in rows)

    def test_progress_on_stderr(self, capsys, tmp_path):
        out = tmp_path / "tiny.csv"
        main(
            [
                "simulate", "--n", "4", "--perturb", "0.1", "--sims", "4",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert "replications" in capsys.readouterr().err

    def test_report_figures(self, capsys, results_file):
        for figure in ("averages-by-edges", "best-by-edges", "spanning-trees"):
            assert main(["report", "--results", results_file, "--figure", figure]) == 0
            out = capsys.readouterr().out
            assert out.count("\n") > 1

    def test_report_sweep_over_two_files(self, capsys, tmp_path, results_file):
        second = tmp_path / "results2.csv"
        assert (
            main(
                [
                    "simulate", "--n", "4", "--perturb", "0.3", "--sims", "8",
                    "--seed", "42", "--out", str(second),
                ]
            )
            == 0
        )
        code = main(
            [
                "report", "--results", results_file, str(second),
                "--figure", "perturb-sweep", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        perturbs = sorted({row["perturb"] for row in payload})
        assert perturbs == [0.15, 0.3]

    @pytest.mark.parametrize("figure", ["averages-by-edges", "perturb-sweep"])
    def test_report_refuses_a_cell_given_twice(self, capsys, results_file, figure):
        code = main(["report", "--results", results_file, results_file, "--figure", figure])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "results repeat perturb 0.15, g1, eu_m" in captured.err

    def test_simulate_options_come_from_their_owners(self):
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        options = {action.dest: action for action in commands.choices["simulate"]._actions}
        assert options["n"].choices == range(4, MAX_CATALOG_N + 1)
        assert options["model"].choices == [kind.value for kind in ModelKind]
        assert options["epsilon"].default == DEFAULT_EPSILON

    def test_best_by_edges_skips_classes_without_data(self, capsys, tmp_path, results_file):
        # Every replication of g1, the first 3-edge class, and of g6, the only
        # 6-edge class, excluded: their means are NaN.
        lines = Path(results_file).read_text(encoding="utf-8").splitlines(keepends=True)
        for k, line in enumerate(lines):
            cells = line.split(",")
            if cells[3] in ("g1", "g6"):
                cells[7:] = ["nan", "nan", "8", "8\n"]
                lines[k] = ",".join(cells)
        emptied = tmp_path / "emptied.csv"
        emptied.write_text("".join(lines), encoding="utf-8")
        table = run_json(capsys, ["report", "--results", str(emptied),
                                  "--figure", "best-by-edges", "--json"])
        full = {(r["edges"], r["measure"]): r for r in run_json(
            capsys, ["report", "--results", results_file, "--figure", "best-by-edges", "--json"])}
        means = {(r.graph_id, r.measure): r.mean for r in read_results(results_file)}
        for row in table:
            key = (row["edges"], row["measure"])
            if row["edges"] == 3:
                # g2 alone has data, so it is both best and worst.
                assert (row["best_graph"], row["worst_graph"]) == ("g2", "g2")
                assert row["best_mean"] == row["worst_mean"] == means[(2, row["measure"])]
            elif row["edges"] == 6:
                # No class has data: the row stays as it was, naming g6 with NaN.
                assert (row["best_graph"], row["worst_graph"]) == ("g6", "g6")
                assert np.isnan(row["best_mean"]) and np.isnan(row["worst_mean"])
            else:
                assert row == full[key]

    def test_missing_slice_exits_one(self, capsys, results_file):
        code = main(
            [
                "report", "--results", results_file,
                "--figure", "perturb-sweep", "--graph", "g99",
            ]
        )
        assert code == 1

    def test_unreachable_epsilon_window_exits_one(self, tmp_path):
        # No perturbed draw can land in (0.45, 0.55) from 0.9 at level 0.1; the
        # run is refused up front instead of redrawing forever.
        out = tmp_path / "never.csv"
        result = run_cli_subprocess(
            "-m", "paircomp.cli", "simulate", "--n", "4", "--perturb", "0.1",
            "--epsilon", "0.45", "--sims", "5", "--seed", "1", "--out", str(out),
            threads=1, timeout=60,
        )
        assert result.returncode == 1
        assert "cannot reach" in result.stderr
        assert not out.exists()

    def test_sliver_epsilon_window_exits_one(self, tmp_path):
        # From 0.9 at level 0.1, only (0.8, 0.80000000001) is inside the
        # window: about 5e-11 of the draws, so redrawing would not end.
        out = tmp_path / "never.csv"
        result = run_cli_subprocess(
            "-m", "paircomp.cli", "simulate", "--n", "4", "--perturb", "0.1",
            "--epsilon", "0.19999999999", "--sims", "300", "--seed", "1", "--out", str(out),
            threads=1, timeout=60,
        )
        assert result.returncode == 1
        assert "cannot reach" in result.stderr
        assert not out.exists()

    def test_results_are_the_same_under_python_O_and_two_workers(
        self, monkeypatch, tmp_path
    ):
        # Perturb 0.6 rejects many block draws, so the scalar redraw path runs;
        # it must not rely on asserts, nor on which worker draws a chunk.
        argv = ["simulate", "--n", "5", "--perturb", "0.6", "--sims", "40", "--seed", "3"]
        optimized = tmp_path / "optimized.csv"
        result = run_cli_subprocess(
            "-O", "-m", "paircomp.cli", *argv, "--out", str(optimized), threads=2,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        monkeypatch.setenv("PAIRCOMP_THREADS", "1")
        plain = tmp_path / "plain.csv"
        assert main([*argv, "--out", str(plain)]) == 0
        assert optimized.read_bytes() == plain.read_bytes()

    def test_json_results_mirror_the_csv(self, tmp_path, results_file):
        target = tmp_path / "results.json"
        assert (
            main(
                [
                    "simulate", "--n", "4", "--perturb", "0.15", "--sims", "8",
                    "--seed", "42", "--json", "--out", str(target),
                ]
            )
            == 0
        )
        payload = json.loads(target.read_text(encoding="utf-8"))
        csv_rows = {(r.graph_id, r.measure): r for r in read_results(results_file)}
        assert len(payload) == len(csv_rows)
        for entry in payload:
            row = csv_rows[(int(entry["graph_id"][1:]), entry["measure"])]
            assert entry["mean"] == row.mean
            assert entry["stddev"] == row.stddev

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_dash_out_prints_to_stdout(self, capsys, monkeypatch, tmp_path, flags):
        argv = ["simulate", "--n", "4", "--perturb", "0.1", "--sims", "4", "--seed", "7", *flags]
        target = tmp_path / "results.out"
        assert main([*argv, "--out", str(target)]) == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == target.read_text(encoding="utf-8")
        assert not (tmp_path / "-").exists()


# ---------------------------------------------------------------------------
# Byte pins: the JSON and text formats the commands write


#: Input files of the byte pins below, by name.
PINNED_INPUTS = {
    "tri.csv": "i,j,worse,better\n1,2,0.562,0.438\n1,3,0.679,0.321\n2,3,0.622,0.378\n",
    "tri.pcm": "1,2,4\n0.5,1,3\n0.25,0.33333333333333331,1\n",
    "split.csv": "i,j,worse,better\n1,2,1,1\n3,4,1,1\n",
    "split.pcm": "1,2,*,*\n0.5,1,*,*\n*,*,1,3\n*,*,0.33333333333333331,1\n",
}

#: argv -> (exit code, stdout, stderr), byte for byte.
PINNED_OUTPUTS = {
    "consistency --input tri.csv": (
        0,
        """\
connected: true
ford_condition: true
consistency: inconsistent (max cycle deviation 0.00185117)
witness: 1-2-3
""",
        "",
    ),
    "consistency --input tri.csv --json": (
        0,
        """\
{
  "connected": true,
  "ford_condition": true,
  "consistent": false,
  "max_cycle_deviation": 0.0018511677918435776,
  "witness": [
    1,
    2,
    3
  ]
}
""",
        "",
    ),
    "rank --input tri.csv --json": (
        0,
        """\
{
  "method": "bt",
  "m": [
    0.0,
    0.2498657660118929,
    0.7485218799400954
  ],
  "log_likelihood": -1.976136957581186,
  "iterations": 3,
  "n": 3,
  "weights": [
    0.22739023550057924,
    0.29193565157229634,
    0.48067411292712425
  ],
  "ranks": [
    3.0,
    2.0,
    1.0
  ],
  "connected": true,
  "ford_condition": true,
  "consistent": false,
  "max_cycle_deviation": 0.0018511677918435776,
  "witness": [
    1,
    2,
    3
  ]
}
""",
        "",
    ),
    "consistency --input tri.pcm --format pcm": (
        0,
        """\
connected: true
consistency: inconsistent (max cycle deviation 0.405465)
witness: 1-2-3
""",
        "",
    ),
    "consistency --input tri.pcm --format pcm --json": (
        0,
        """\
{
  "connected": true,
  "consistent": false,
  "max_cycle_deviation": 0.4054651081081645,
  "witness": [
    1,
    2,
    3
  ]
}
""",
        "",
    ),
    "rank --input tri.pcm --format pcm --method llsm --json": (
        0,
        """\
{
  "method": "llsm",
  "n": 3,
  "weights": [
    0.5584245430947973,
    0.31961826393597564,
    0.12195719296922711
  ],
  "ranks": [
    1.0,
    2.0,
    3.0
  ],
  "connected": true,
  "consistent": false,
  "max_cycle_deviation": 0.4054651081081645,
  "witness": [
    1,
    2,
    3
  ]
}
""",
        "",
    ),
    "consistency --input split.csv": (
        0,
        """\
connected: false
ford_condition: false
consistency: undefined (graph not connected)
""",
        "",
    ),
    "consistency --input split.csv --json": (
        0,
        """\
{
  "connected": false,
  "ford_condition": false,
  "consistent": null
}
""",
        "",
    ),
    "rank --input split.csv --method llsm --json": (
        2,
        "",
        """\
paircomp: logarithmic least squares needs a connected graph
""",
    ),
    "consistency --input split.pcm --format pcm": (
        0,
        """\
connected: false
consistency: undefined (graph not connected)
""",
        "",
    ),
    "consistency --input split.pcm --format pcm --json": (
        0,
        """\
{
  "connected": false,
  "consistent": null
}
""",
        "",
    ),
}

#: SHA-256 of `graphs enumerate --n N` for the catalog sizes not pinned verbatim.
CATALOG_SHA256 = {
    2: "47c14d7f378634f26baefa2928b7d06183f9edd34b38a94cf06ce90f6252e655",
    3: "f43647bfc6619f591c0bf1fde442a69ff1329a119d6c1011ba5b9969b49eda81",
    5: "b1f50a4ed2a7f01d1a571f058f24c7c0d702844cb78b53dba6aa267cb035b60a",
    6: "9f8ee74f2e8e5a6b3087df8a36147e3144b36f723921ed697a8fc20223622cf0",
}

#: `graphs enumerate --n 4`, verbatim.
CATALOG_N4 = """\
[
  {
    "id": "g1",
    "n": 4,
    "edge_count": 3,
    "canonical_code": "0b",
    "edges": [
      [
        1,
        4
      ],
      [
        2,
        4
      ],
      [
        3,
        4
      ]
    ],
    "properties": {
      "degree_sequence": [
        3,
        1,
        1,
        1
      ],
      "is_regular": false,
      "is_bipartite": true,
      "is_star": true,
      "is_spanning_tree": true,
      "diameter": 2
    }
  },
  {
    "id": "g2",
    "n": 4,
    "edge_count": 3,
    "canonical_code": "0d",
    "edges": [
      [
        1,
        4
      ],
      [
        2,
        3
      ],
      [
        3,
        4
      ]
    ],
    "properties": {
      "degree_sequence": [
        2,
        2,
        1,
        1
      ],
      "is_regular": false,
      "is_bipartite": true,
      "is_star": false,
      "is_spanning_tree": true,
      "diameter": 3
    }
  },
  {
    "id": "g3",
    "n": 4,
    "edge_count": 4,
    "canonical_code": "0f",
    "edges": [
      [
        1,
        4
      ],
      [
        2,
        3
      ],
      [
        2,
        4
      ],
      [
        3,
        4
      ]
    ],
    "properties": {
      "degree_sequence": [
        3,
        2,
        2,
        1
      ],
      "is_regular": false,
      "is_bipartite": false,
      "is_star": false,
      "is_spanning_tree": false,
      "diameter": 2
    }
  },
  {
    "id": "g4",
    "n": 4,
    "edge_count": 4,
    "canonical_code": "1e",
    "edges": [
      [
        1,
        3
      ],
      [
        1,
        4
      ],
      [
        2,
        3
      ],
      [
        2,
        4
      ]
    ],
    "properties": {
      "degree_sequence": [
        2,
        2,
        2,
        2
      ],
      "is_regular": true,
      "is_bipartite": true,
      "is_star": false,
      "is_spanning_tree": false,
      "diameter": 2
    }
  },
  {
    "id": "g5",
    "n": 4,
    "edge_count": 5,
    "canonical_code": "1f",
    "edges": [
      [
        1,
        3
      ],
      [
        1,
        4
      ],
      [
        2,
        3
      ],
      [
        2,
        4
      ],
      [
        3,
        4
      ]
    ],
    "properties": {
      "degree_sequence": [
        3,
        3,
        2,
        2
      ],
      "is_regular": false,
      "is_bipartite": false,
      "is_star": false,
      "is_spanning_tree": false,
      "diameter": 2
    }
  },
  {
    "id": "g6",
    "n": 4,
    "edge_count": 6,
    "canonical_code": "3f",
    "edges": [
      [
        1,
        2
      ],
      [
        1,
        3
      ],
      [
        1,
        4
      ],
      [
        2,
        3
      ],
      [
        2,
        4
      ],
      [
        3,
        4
      ]
    ],
    "properties": {
      "degree_sequence": [
        3,
        3,
        3,
        3
      ],
      "is_regular": true,
      "is_bipartite": false,
      "is_star": false,
      "is_spanning_tree": false,
      "diameter": 1
    }
  }
]
"""


class TestOutputBytes:
    def test_catalog_n4_is_pinned_verbatim(self, capsys):
        assert main(["graphs", "enumerate", "--n", "4"]) == 0
        assert capsys.readouterr().out == CATALOG_N4

    @pytest.mark.parametrize("n", sorted(CATALOG_SHA256))
    def test_catalog_digest_is_pinned(self, capsys, n):
        assert main(["graphs", "enumerate", "--n", str(n)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == CATALOG_SHA256[n]

    @pytest.mark.parametrize("argv", sorted(PINNED_OUTPUTS))
    def test_consistency_and_rank_bytes_are_pinned(self, capsys, monkeypatch, tmp_path, argv):
        for name, text in PINNED_INPUTS.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == PINNED_OUTPUTS[argv]

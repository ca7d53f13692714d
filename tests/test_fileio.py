"""Parsers, emitters, and the results table round trip."""

from __future__ import annotations

import io
import json
import math
import re

import numpy as np
import pytest

from paircomp import (
    BadDiagonal,
    BadHeader,
    DataMatrix,
    DuplicatePair,
    IPCM,
    NegativeCount,
    NonPositiveEntry,
    NotReciprocal,
    ParseError,
    ModelKind,
    SimulationConfig,
    enumerate_connected,
    ford_condition,
    pcm_consistency,
    run,
)
from paircomp.fileio import (
    emit_pairs,
    emit_pcm,
    format_table,
    graphs_json,
    parse_pairs,
    parse_pcm,
    read_results,
    results_table,
    write_results,
)
from paircomp.simulation import MEASURE_NAMES, MeasureStats, SimulationSummary
from tests.conftest import SPORTS_COUNTS

SPORTS_FILE = """i,j,worse,better
1,2,1,2
1,3,1,2
1,4,1,1
2,3,1,1
2,4,2,1
3,4,2,1
"""


class TestParsePairs:
    def test_sports_file(self):
        data = parse_pairs(io.StringIO(SPORTS_FILE))
        assert data.n == 4
        assert data.entries == SPORTS_COUNTS
        assert data.entries[(1, 3)] == (2.0, 1.0)

    def test_empty_body_with_override(self):
        data = parse_pairs(io.StringIO("i,j,worse,better\n"), n=3)
        assert data.n == 3
        assert data.comparison_pairs == ()
        assert not ford_condition(data)

    def test_empty_body_without_override(self):
        with pytest.raises(ParseError):
            parse_pairs(io.StringIO("i,j,worse,better\n"))

    def test_empty_body_without_override_asks_for_n(self):
        with pytest.raises(ParseError, match="^cannot infer the item count from an empty file"):
            parse_pairs(io.StringIO("i,j,worse,better\n"))

    @pytest.mark.parametrize("n", [0, -2])
    def test_item_count_below_one_is_named(self, n):
        for text in (SPORTS_FILE, "i,j,worse,better\n"):
            with pytest.raises(ParseError, match=f"^item count must be at least 1, got {n}$"):
                parse_pairs(io.StringIO(text), n=n)

    def test_probability_rows_are_accepted(self):
        data = parse_pairs(io.StringIO("i,j,worse,better\n1,2,0.562,0.438\n"))
        assert data.entries[(0, 1)] == (0.562, 0.438)

    def test_bad_header(self):
        with pytest.raises(BadHeader):
            parse_pairs(io.StringIO("a,b,c,d\n1,2,1,1\n"))

    def test_duplicate_pair(self):
        with pytest.raises(DuplicatePair):
            parse_pairs(io.StringIO("i,j,worse,better\n1,2,1,1\n1,2,2,2\n"))

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            parse_pairs(io.StringIO("i,j,worse,better\n1,2,-1,1\n"))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
    def test_infinite_amount_names_the_file_row(self, cell):
        text = f"i,j,worse,better\n1,2,1,1\n2,3,1,{cell}\n"
        with pytest.raises(ParseError, match="^row 3: "):
            parse_pairs(io.StringIO(text))

    def test_bad_indices(self):
        with pytest.raises(ParseError):
            parse_pairs(io.StringIO("i,j,worse,better\n2,2,1,1\n"))
        with pytest.raises(ParseError):
            parse_pairs(io.StringIO("i,j,worse,better\n1,5,1,1\n"), n=3)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1,1_0,1,2", "+1,2,1_0,\u0663"], "row 2: indices must be integers in ASCII digits"),
            (["+1,2,1,2"], "row 2: indices must be integers in ASCII digits"),
            (["1,2,1_0,3"], "row 2: cannot parse '1_0' as a number"),
            (["1,2,1,\u0663"], "row 2: cannot parse '\u0663' as a number"),
        ],
        ids=["index-underscore", "index-sign", "amount-underscore", "amount-arabic-indic"],
    )
    def test_numbers_need_ascii(self, rows, message):
        # int() and float() read "1_0" as 10 and an Arabic-Indic three as 3,
        # and int() takes signs: the first file would parse as n = 10.
        with pytest.raises(ParseError) as raised:
            parse_pairs(io.StringIO("\n".join(["i,j,worse,better", *rows]) + "\n"))
        assert str(raised.value) == message

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(13)
        entries = {
            (i, j): (float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
            for i in range(5)
            for j in range(i + 1, 5)
        }
        data = DataMatrix(5, entries)
        again = parse_pairs(io.StringIO(emit_pairs(data)))
        assert again.entries == data.entries

    def test_reads_from_path(self, tmp_path):
        target = tmp_path / "pairs.csv"
        target.write_text(SPORTS_FILE, encoding="utf-8")
        assert parse_pairs(target).n == 4

    def test_emitted_bytes_are_pinned(self):
        # Whole amounts print as integers, fractions with 17 digits.
        data = DataMatrix(
            4,
            {(2, 3): (0.0, 1e-20), (0, 1): (3.0, 0.5), (0, 2): (1 / 3, 7.0), (1, 3): (12.0, 2 / 3)},
        )
        assert emit_pairs(data) == (
            "i,j,worse,better\n"
            "1,2,3,0.5\n"
            "1,3,0.33333333333333331,7\n"
            "2,4,12,0.66666666666666663\n"
            "3,4,0,9.9999999999999995e-21\n"
        )


def pcm_text(pcm: IPCM) -> str:
    return emit_pcm(pcm)


class TestParsePcm:
    def test_consistent_grid(self, sports_ratios):
        parsed = parse_pcm(io.StringIO(pcm_text(sports_ratios)))
        assert parsed.is_complete
        assert pcm_consistency(parsed).consistent
        assert parsed.value(0, 1) == 2.0

    def test_incomplete_grid_with_stars(self, ratios_incomplete):
        text = pcm_text(ratios_incomplete)
        assert "*" in text
        parsed = parse_pcm(io.StringIO(text))
        assert parsed.known_pairs() == ((0, 1), (0, 2), (0, 3), (2, 3))
        assert not pcm_consistency(parsed).consistent

    def test_not_reciprocal(self):
        with pytest.raises(NotReciprocal):
            parse_pcm(io.StringIO("1,2\n3,1\n"))

    def test_one_sided_entry(self):
        with pytest.raises(NotReciprocal):
            parse_pcm(io.StringIO("1,2,*\n0.5,1,3\n*,*,1\n"))

    def test_bad_diagonal(self):
        with pytest.raises(BadDiagonal):
            parse_pcm(io.StringIO("2,1\n1,1\n"))
        with pytest.raises(BadDiagonal):
            parse_pcm(io.StringIO("*,2\n0.5,1\n"))

    def test_non_positive_entry(self):
        with pytest.raises(NonPositiveEntry):
            parse_pcm(io.StringIO("1,0\n0,1\n"))
        with pytest.raises(NonPositiveEntry):
            parse_pcm(io.StringIO("1,-2\n-0.5,1\n"))

    @pytest.mark.parametrize("cell", ["1_0", "\u0663"])
    def test_ratios_need_ascii(self, cell):
        # float() reads "1_0" as 10 and an Arabic-Indic three as 3.
        with pytest.raises(ParseError) as raised:
            parse_pcm(io.StringIO(f"1,{cell}\n0.5,1\n"))
        assert str(raised.value) == f"cell (1, 2): cannot parse {cell!r} as a number"

    def test_ragged_grid(self):
        with pytest.raises(ParseError):
            parse_pcm(io.StringIO("1,2\n0.5,1,3\n"))

    def test_round_trip_is_bit_exact(self, ratios_modified, ratios_incomplete):
        for pcm in (ratios_modified, ratios_incomplete):
            again = parse_pcm(io.StringIO(pcm_text(pcm)))
            assert again.entries == pcm.entries

    def test_printed_precision_reciprocals_are_repaired(self):
        # A file printed at low precision passes the loose file tolerance;
        # the in-memory matrix then carries exact reciprocals.
        text = "1,0.779\n1.2837,1\n"
        parsed = parse_pcm(io.StringIO(text), reciprocity_tol=1e-3)
        assert parsed.value(0, 1) == 0.779
        assert parsed.value(1, 0) == 1.0 / 0.779


@pytest.fixture(scope="module")
def summary():
    return run(SimulationConfig(n=4, perturb=0.2, num_sims=5, seed=21))


class TestResultsTable:
    def test_round_trip(self, summary):
        buffer = io.StringIO()
        write_results(summary, buffer)
        rows = read_results(io.StringIO(buffer.getvalue()))
        assert len(rows) == len(summary.classes) * 6
        by_key = {(r.graph_id, r.measure): r for r in rows}
        for (graph_id, measure), cell in summary.stats.items():
            row = by_key[(graph_id, measure)]
            assert row.mean == cell.mean
            assert row.stddev == cell.stddev
            assert row.num_sims == 5
            assert row.excluded == 5 - cell.count

    def test_rows_carry_structure_metadata(self, summary):
        for row in read_results(io.StringIO(results_table(summary))):
            cls = enumerate_connected(row.n)[row.graph_id - 1]
            assert cls.edge_count == row.edges
            assert cls.member().edge_count == row.edges
            assert row.model == "logistic"
            assert row.n == 4

    def test_header_is_validated(self):
        with pytest.raises(BadHeader):
            read_results(io.StringIO("a,b\n1,2\n"))

    @pytest.mark.parametrize("code", ["zz", "-1", "ff", "1ff", "0f", ""])
    def test_canonical_code_must_match_n_and_edges(self, summary, code):
        # Row 3 is the n = 4 star (code 0b, three edges); ff would read as K4
        # and 0f has four edges.
        buffer = io.StringIO()
        write_results(summary, buffer)
        lines = buffer.getvalue().splitlines()
        cells = lines[2].split(",")
        assert (cells[0], cells[4], cells[5]) == ("4", "3", "0b")
        cells[5] = code
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError, match=f"^row 3: canonical_code {code!r} is not a code"):
            read_results(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("graph_id", ["g7", "g0"])
    def test_graph_id_must_be_in_the_catalog(self, summary, graph_id):
        # n = 4 has six connected classes, g1 to g6.
        buffer = io.StringIO()
        write_results(summary, buffer)
        lines = buffer.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[3] = graph_id
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError, match=f"^row 3: {graph_id} is not in the catalog"):
            read_results(io.StringIO("\n".join(lines) + "\n"))

    def test_canonical_code_must_be_that_of_its_class(self, summary):
        # 0d fits n = 4 and three edges, but it is the path, not the star g1:
        # report would then call g1 no star.
        buffer = io.StringIO()
        write_results(summary, buffer)
        lines = buffer.getvalue().splitlines()
        cells = lines[2].split(",")
        assert (cells[3], cells[5]) == ("g1", "0b")
        cells[5] = "0d"
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError, match="^row 3: canonical_code '0d' is not the code of g1"):
            read_results(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize(
        "column, cell",
        [("n", "\u0664"), ("excluded", "4_0"), ("num_sims", "-1"), ("edges", "+3")],
    )
    def test_integer_cells_need_ascii_digits(self, summary, column, cell):
        # int() reads an Arabic-Indic four as 4, "4_0" as 40 and takes signs.
        buffer = io.StringIO()
        write_results(summary, buffer)
        lines = buffer.getvalue().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        cells[header.index(column)] = cell
        lines[2] = ",".join(cells)
        message = f"row 3: cannot parse {cell!r} as an integer"
        with pytest.raises(ParseError, match="^" + re.escape(message)):
            read_results(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            ("model", "foo", "unknown model 'foo'"),
            ("perturb", "-5", "perturb -5.0 is not in [0, 1)"),
            ("perturb", "1", "perturb 1.0 is not in [0, 1)"),
            ("num_sims", "0", "num_sims must be at least 1, got 0"),
            ("excluded", "999", "excluded 999 exceeds num_sims 5"),
        ],
        ids=["model", "perturb-negative", "perturb-one", "num_sims", "excluded"],
    )
    def test_cells_no_run_can_write_are_refused(self, summary, column, cell, message):
        buffer = io.StringIO()
        write_results(summary, buffer)
        lines = buffer.getvalue().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        cells[header.index(column)] = cell
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError, match="^" + re.escape(f"row 3: {message}") + "$"):
            read_results(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("column", ["n", "edges", "num_sims", "excluded"])
    def test_malformed_integer_cell_names_the_row(self, summary, column):
        buffer = io.StringIO()
        write_results(summary, buffer)
        lines = buffer.getvalue().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        cells[header.index(column)] = "4.5x"
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError, match="^row 3: "):
            read_results(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("label", ["g\u00b2", "g\u0663", "g", "2", "g1x"])
    def test_graph_label_needs_ascii_digits(self, summary, label):
        # str.isdigit() accepts a superscript two, and int() reads an
        # Arabic-Indic three as 3; neither is a label this program writes.
        buffer = io.StringIO()
        write_results(summary, buffer)
        lines = buffer.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[3] = label
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError, match="^row 3: graph_id must look like g12"):
            read_results(io.StringIO("\n".join(lines) + "\n"))


def _fixed_summary() -> SimulationSummary:
    """One n = 3 class with hand-set statistics, one cell fully excluded."""
    cls = enumerate_connected(3)[1]
    stats = {
        (cls.id, measure): MeasureStats(mean=1 / (k + 3), stddev=0.1 * k, count=4 - k % 2)
        for k, measure in enumerate(MEASURE_NAMES)
    }
    stats[(cls.id, "pe_m")] = MeasureStats(mean=math.nan, stddev=math.nan, count=0)
    config = SimulationConfig(n=3, perturb=0.15, num_sims=4, seed=1, model=ModelKind.NORMAL)
    return SimulationSummary(config, (cls,), stats)


FIXED_CSV = """n,perturb,model,graph_id,edges,canonical_code,measure,mean,stddev,num_sims,excluded
3,0.14999999999999999,normal,g2,3,7,eu_m,0.33333333333333331,0,4,0
3,0.14999999999999999,normal,g2,3,7,eu_w,0.25,0.10000000000000001,4,1
3,0.14999999999999999,normal,g2,3,7,pe_m,nan,nan,4,4
3,0.14999999999999999,normal,g2,3,7,pe_w,0.16666666666666666,0.30000000000000004,4,1
3,0.14999999999999999,normal,g2,3,7,rho,0.14285714285714285,0.40000000000000002,4,0
3,0.14999999999999999,normal,g2,3,7,tau,0.125,0.5,4,1
"""

FIXED_JSON_ROW = """  {
    "n": 3,
    "perturb": 0.15,
    "model": "normal",
    "graph_id": "g2",
    "edges": 3,
    "canonical_code": "7",
    "measure": "%s",
    "mean": %s,
    "stddev": %s,
    "num_sims": 4,
    "excluded": %s
  }"""

FIXED_JSON = (
    "[\n"
    + ",\n".join(
        FIXED_JSON_ROW % cells
        for cells in [
            ("eu_m", "0.3333333333333333", "0.0", "0"),
            ("eu_w", "0.25", "0.1", "1"),
            ("pe_m", "NaN", "NaN", "4"),
            ("pe_w", "0.16666666666666666", "0.30000000000000004", "1"),
            ("rho", "0.14285714285714285", "0.4", "0"),
            ("tau", "0.125", "0.5", "1"),
        ]
    )
    + "\n]\n"
)


#: A table with a column of each type the package writes (bool, int, str,
#: float) and its bytes.  The CSV gives 1e16 17 significant digits, where str
#: would spell it 1e+16.
MIXED_HEADER = ("flag", "count", "name", "value")
MIXED_TABLE = [(True, 3, "g1", 0.1), (False, -2, "x y", math.nan), (True, 0, "", 1e16),
               (False, 12, "tau", -0.0)]
MIXED_CSV = """\
flag,count,name,value
true,3,g1,0.10000000000000001
false,-2,x y,nan
true,0,,10000000000000000
false,12,tau,-0
"""
MIXED_JSON = """\
[
  {
    "flag": true,
    "count": 3,
    "name": "g1",
    "value": 0.1
  },
  {
    "flag": false,
    "count": -2,
    "name": "x y",
    "value": NaN
  },
  {
    "flag": true,
    "count": 0,
    "name": "",
    "value": 1e+16
  },
  {
    "flag": false,
    "count": 12,
    "name": "tau",
    "value": -0.0
  }
]
"""


class TestResultsBytes:
    def test_csv_bytes_are_pinned(self):
        buffer = io.StringIO()
        write_results(_fixed_summary(), buffer)
        assert buffer.getvalue() == FIXED_CSV

    def test_json_bytes_are_pinned(self):
        assert results_table(_fixed_summary(), as_json=True) == FIXED_JSON

    @pytest.mark.parametrize(
        "table, csv_text, json_text",
        [([], "flag,count,name,value\n", "[]\n"), (MIXED_TABLE, MIXED_CSV, MIXED_JSON)],
        ids=["empty", "mixed"],
    )
    def test_table_bytes_are_pinned(self, table, csv_text, json_text):
        assert format_table(MIXED_HEADER, table) == csv_text
        assert format_table(MIXED_HEADER, table, as_json=True) == json_text

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            ("n", "4.5x", "row 3: cannot parse '4.5x' as an integer"),
            ("perturb", " x ", "row 3: cannot parse 'x' as a number"),
            ("perturb", "nan", "row 3: NaN is not a valid value"),
            ("graph_id", " h2", "row 3: graph_id must look like g12, got 'h2'"),
            ("measure", "mad", "row 3: unknown measure 'mad'"),
            ("mean", "0.2.5", "row 3: cannot parse '0.2.5' as a number"),
            # float() reads "1_0" as 10 and an Arabic-Indic three as 3.
            ("perturb", "1_0", "row 3: cannot parse '1_0' as a number"),
            ("mean", "\u0663", "row 3: cannot parse '\u0663' as a number"),
            (None, "extra", "row 3: expected 11 fields"),
        ],
        ids=["integer", "float", "float-nan", "label", "measure", "statistic", "float-underscore",
             "statistic-arabic-indic", "width"],
    )
    def test_malformed_cell_message_is_pinned(self, column, cell, message):
        lines = FIXED_CSV.splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        if column is None:
            cells.append(cell)
        else:
            cells[header.index(column)] = cell
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError) as raised:
            read_results(io.StringIO("\n".join(lines) + "\n"))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"measure": "mad", "graph_id": "h2"}, "row 3: graph_id must look like g12, got 'h2'"),
            # Every cell is parsed before the checks across cells.
            ({"perturb": "1.5", "mean": "x"}, "row 3: cannot parse 'x' as a number"),
            ({"perturb": "1.5", "excluded": "99"}, "row 3: perturb 1.5 is not in [0, 1)"),
        ],
        ids=["columns", "parse-before-range", "range-order"],
    )
    def test_first_bad_cell_in_column_order_is_reported(self, edits, message):
        lines = FIXED_CSV.splitlines()
        header, cells = lines[0].split(","), lines[2].split(",")
        for column, cell in edits.items():
            cells[header.index(column)] = cell
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError) as raised:
            read_results(io.StringIO("\n".join(lines) + "\n"))
        assert str(raised.value) == message


@pytest.mark.parametrize(
    "reader, text",
    [
        (parse_pairs, SPORTS_FILE),
        (parse_pcm, "1,2,*\n0.5,1,4\n*,0.25,1\n"),
        (read_results, FIXED_CSV),
    ],
    ids=["pairs", "pcm", "results"],
)
@pytest.mark.parametrize("via", ["path", "stream"])
def test_leading_byte_order_mark_is_ignored(tmp_path, reader, text, via):
    # Spreadsheet programs save "CSV UTF-8" with a byte-order mark.
    if via == "path":
        target = tmp_path / "input.csv"
        target.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        source = target
    else:
        source = io.StringIO("\ufeff" + text)
    # Compared as text: a results table holds NaN cells, which compare unequal.
    assert repr(reader(source)) == repr(reader(io.StringIO(text)))


class TestGraphsJson:
    def test_catalog_entries(self):
        payload = json.loads(graphs_json(enumerate_connected(4)))
        assert len(payload) == 6
        assert [entry["id"] for entry in payload] == [f"g{k}" for k in range(1, 7)]
        star = payload[0]
        assert star["properties"]["is_star"]
        assert star["edge_count"] == 3
        # 1-based vertex labels in files.
        flat = [v for edge in star["edges"] for v in edge]
        assert min(flat) >= 1 and max(flat) <= 4
        complete = payload[-1]
        assert complete["edge_count"] == 6
        assert complete["properties"]["is_regular"]

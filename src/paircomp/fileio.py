"""File formats: comparison pair lists, ratio matrix grids, result tables.

All files are UTF-8 CSV with dot decimal separators and LF newlines; a
leading byte-order mark is skipped on reading.  Floats are written with 17
significant digits so that emit(parse(file)) reproduces the numbers bit for
bit.  Item indices are 1-based in files and 0-based in memory.  Owners:
:func:`format_table` writes every table and :func:`format_json` every JSON
document; the fields of :class:`ResultRow` give the results header, and
those of :class:`~paircomp.graphs.GraphProperties` a catalog entry's
properties; :mod:`paircomp.graphs` spells labels and hex codes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import string
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Iterable, TextIO

from .core import IPCM, DataMatrix, ModelKind, RECIPROCITY_TOL, pair_order
from .errors import (
    BadDiagonal,
    BadHeader,
    DuplicatePair,
    NegativeCount,
    NonPositiveEntry,
    NotReciprocal,
    ParseError,
)
from .graphs import (
    MAX_CATALOG_N,
    GraphClass,
    enumerate_connected,
    format_label,
    is_ascii_digits,
    parse_label,
    properties,
)
from .simulation import MEASURE_NAMES, SimulationSummary

PAIRS_HEADER = ("i", "j", "worse", "better")

#: Reciprocity tolerance applied when loading ratio matrices from files.
FILE_RECIPROCITY_TOL = 1e-9


def format_json(payload) -> str:
    """A JSON document: indented by two spaces, ending in a newline."""
    return json.dumps(payload, indent=2) + "\n"


def _speller(cell):
    """The formatter of a CSV column whose first cell is ``cell``."""
    if isinstance(cell, bool):
        return ("false", "true").__getitem__
    return "%.17g".__mod__ if isinstance(cell, float) else str


def format_table(header, table, as_json: bool = False) -> str:
    """A table as CSV or as a JSON list of one object per row.

    A CSV column is spelled by the type of its first cell, as every table
    of the package has one type per column: floats with 17 significant
    digits, booleans in lower case, anything else by str."""
    if as_json:
        return format_json([dict(zip(header, row)) for row in table])
    columns = [map(_speller(column[0]), column) for column in zip(*table)]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*columns)])


def _rows_of(source: str | Path | TextIO) -> list[list[str]]:
    """The non-empty rows of a CSV file, blanks around each cell stripped."""
    # A leading byte-order mark, as spreadsheet programs write, is not data.
    if hasattr(source, "read"):
        text = source.read().removeprefix("\ufeff")
    else:
        text = Path(source).read_text(encoding="utf-8-sig")
    return [[cell.strip() for cell in row] for row in csv.reader(io.StringIO(text)) if row]


def _parse_float(cell: str, where: str, nan_ok: bool = False) -> float:
    try:
        # float() also takes "1_0" and non-ASCII digits such as "٣"; files do not.
        if not cell.isascii() or "_" in cell:
            raise ValueError(cell)
        value = float(cell)
    except ValueError:
        raise ParseError(f"{where}: cannot parse {cell!r} as a number") from None
    if math.isnan(value) and not nan_ok:
        raise ParseError(f"{where}: NaN is not a valid value")
    return value


def parse_pairs(source: str | Path | TextIO, n: int | None = None) -> DataMatrix:
    """Read a comparison list with header ``i,j,worse,better``; one row per
    pair with 1-based indices i < j.  The item count is the largest index
    seen unless ``n`` overrides it."""
    if n is not None and n < 1:
        raise ParseError(f"item count must be at least 1, got {n}")
    rows = _rows_of(source)
    if not rows or tuple(c.lower() for c in rows[0]) != PAIRS_HEADER:
        raise BadHeader(f"expected header {','.join(PAIRS_HEADER)!r}")
    entries: dict[tuple[int, int], tuple[float, float]] = {}
    highest = 0
    for number, row in enumerate(rows[1:], start=2):
        where = f"row {number}"
        if len(row) != 4:
            raise ParseError(f"{where}: expected 4 fields, got {len(row)}")
        if not (is_ascii_digits(row[0]) and is_ascii_digits(row[1])):
            raise ParseError(f"{where}: indices must be integers in ASCII digits")
        i, j = int(row[0]), int(row[1])
        if not 1 <= i < j:
            raise ParseError(f"{where}: indices must satisfy 1 <= i < j, got ({i}, {j})")
        worse = _parse_float(row[2], where)
        better = _parse_float(row[3], where)
        if worse < 0 or better < 0:
            raise NegativeCount(f"{where}: comparison amounts must be nonnegative")
        if math.isinf(worse) or math.isinf(better):
            raise ParseError(f"{where}: comparison amounts must be finite")
        pair = (i - 1, j - 1)
        if pair in entries:
            raise DuplicatePair(f"{where}: pair ({i}, {j}) appears twice")
        entries[pair] = (worse, better)
        highest = max(highest, j)
    count = n if n is not None else highest
    if count < 1:
        raise ParseError("cannot infer the item count from an empty file; pass n")
    if highest > count:
        raise ParseError(f"index {highest} exceeds the declared item count {count}")
    return DataMatrix(count, entries)


def emit_pairs(data: DataMatrix) -> str:
    table = [(i + 1, j + 1, *amounts) for (i, j), amounts in sorted(data.entries.items())]
    return format_table(PAIRS_HEADER, table)


def parse_pcm(
    source: str | Path | TextIO, reciprocity_tol: float = FILE_RECIPROCITY_TOL
) -> IPCM:
    """Read an n-by-n grid of positive ratios; ``*`` marks an unknown entry,
    the diagonal must be 1, and a_ji must equal 1/a_ij within
    ``reciprocity_tol`` (relative).  Entries are kept exactly as printed
    unless they satisfy the file tolerance but not the stricter in-memory
    one, in which case the lower triangle is recomputed from the upper."""
    rows = _rows_of(source)
    n = len(rows)
    if n == 0:
        raise ParseError("empty matrix file")
    raw: dict[tuple[int, int], float] = {}
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"row {i + 1}: expected {n} cells, got {len(row)}")
        for j, cell in enumerate(row):
            where = f"cell ({i + 1}, {j + 1})"
            if i == j:
                if cell == "*" or abs(_parse_float(cell, where) - 1.0) > 1e-12:
                    raise BadDiagonal(f"{where}: diagonal entries must be 1")
                continue
            if cell == "*":
                continue
            value = _parse_float(cell, where)
            if not (value > 0 and math.isfinite(value)):
                raise NonPositiveEntry(f"{where}: ratios must be positive and finite")
            raw[(i, j)] = value
    entries: dict[tuple[int, int], float] = {}
    for i, j in pair_order(n):
        upper, lower = raw.get((i, j)), raw.get((j, i))
        if upper is None and lower is None:
            continue
        if upper is None or lower is None:
            raise NotReciprocal(
                f"cells ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}): one side is missing"
            )
        if abs(upper * lower - 1.0) > reciprocity_tol:
            raise NotReciprocal(
                f"cells ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) are not reciprocal"
            )
        if abs(upper * lower - 1.0) > RECIPROCITY_TOL:
            lower = 1.0 / upper
        entries[(i, j)] = upper
        entries[(j, i)] = lower
    return IPCM(n, entries)


def emit_pcm(pcm: IPCM) -> str:
    """The matrix as :func:`parse_pcm` reads it, ``*`` for a missing entry."""
    return "".join(",".join("*" if math.isnan(v) else "%.17g" % v for v in row) + "\n"
                   for row in pcm.as_array())


# ---------------------------------------------------------------------------
# Simulation result tables


@dataclass(frozen=True)
class ResultRow:
    """One (structure, measure) line of a results table."""

    n: int
    perturb: float
    model: str
    graph_id: int
    edges: int
    canonical_code: str
    measure: str
    mean: float
    stddev: float
    num_sims: int
    excluded: int


RESULTS_HEADER = tuple(f.name for f in fields(ResultRow))
_MODELS = frozenset(kind.value for kind in ModelKind)
_HEX_DIGITS = frozenset(string.hexdigits)


def results_table(summary: SimulationSummary, as_json: bool = False) -> str:
    """The results table of a run, graph ids written as labels (g12)."""
    config = summary.config
    table = []
    for cls in summary.classes:
        structure = (config.n, config.perturb, config.model.value, cls.label,
                     cls.edge_count, cls.code_hex)
        for measure in MEASURE_NAMES:
            stats = summary.stats[(cls.id, measure)]
            table.append((*structure, measure, stats.mean, stats.stddev, config.num_sims,
                          config.num_sims - stats.count))
    return format_table(RESULTS_HEADER, table, as_json)


def write_results(summary: SimulationSummary, out: TextIO) -> None:
    out.write(results_table(summary))


def _parse_int(cell: str, where: str) -> int:
    if not is_ascii_digits(cell):
        raise ParseError(f"{where}: cannot parse {cell!r} as an integer")
    return int(cell)


def _parse_name(cell: str, where: str, what: str, names) -> str:
    if cell not in names:
        raise ParseError(f"{where}: unknown {what} {cell!r}")
    return cell


def _parse_graph_id(cell: str, where: str) -> int:
    try:
        return parse_label(cell, "graph_id")
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


#: The parser of each results column, called as parse(cell, where).  NaN is
#: legitimate in a statistic: a cell whose every replication was excluded.
_RESULT_PARSERS = (
    _parse_int, _parse_float, partial(_parse_name, what="model", names=_MODELS),
    _parse_graph_id, _parse_int, lambda cell, where: cell,
    partial(_parse_name, what="measure", names=MEASURE_NAMES),
    partial(_parse_float, nan_ok=True), partial(_parse_float, nan_ok=True),
    _parse_int, _parse_int,
)


def read_results(source: str | Path | TextIO) -> list[ResultRow]:
    rows = _rows_of(source)
    if not rows or tuple(rows[0]) != RESULTS_HEADER:
        raise BadHeader(f"expected header {','.join(RESULTS_HEADER)!r}")
    parsed = []
    for number, row in enumerate(rows[1:], start=2):
        where = f"row {number}"
        if len(row) != len(RESULTS_HEADER):
            raise ParseError(f"{where}: expected {len(RESULTS_HEADER)} fields")
        # In column order, so a row reports its first bad cell.
        cells = [parse(cell, where) for parse, cell in zip(_RESULT_PARSERS, row)]
        n, perturb, _, graph_id, edges, code, _, _, _, num_sims, excluded = cells
        # A run perturbs by a level in [0, 1) and excludes at most all of its replications.
        if not 0.0 <= perturb < 1.0:
            raise ParseError(f"{where}: perturb {perturb!r} is not in [0, 1)")
        if num_sims < 1:
            raise ParseError(f"{where}: num_sims must be at least 1, got {num_sims}")
        if excluded > num_sims:
            raise ParseError(f"{where}: excluded {excluded} exceeds num_sims {num_sims}")
        # The code must be hex and name a graph on n vertices with `edges` edges.
        value = int(code, 16) if code and _HEX_DIGITS.issuperset(code) else -1
        if value < 0 or value.bit_length() > n * (n - 1) // 2 or value.bit_count() != edges:
            raise ParseError(f"{where}: canonical_code {code!r} is not a code of a graph "
                             f"on {n} vertices with {edges} edges")
        # ... and be the code of the catalog class that graph_id names.
        catalog = enumerate_connected(n) if 2 <= n <= MAX_CATALOG_N else ()
        if not 1 <= graph_id <= len(catalog):
            raise ParseError(f"{where}: {format_label(graph_id)} is not in the catalog of "
                             f"connected graphs on {n} vertices")
        entry = catalog[graph_id - 1]
        if value != entry.canonical_code:
            raise ParseError(f"{where}: canonical_code {code!r} is not the code of "
                             f"{format_label(graph_id)} ({entry.code_hex})")
        parsed.append(ResultRow(*cells))
    return parsed


def graphs_json(classes: Iterable[GraphClass]) -> str:
    """Catalog entries with 1-based edge lists and structural properties."""
    payload = []
    for cls in classes:
        member = cls.member()
        payload.append(
            {
                "id": cls.label,
                "n": cls.n,
                "edge_count": cls.edge_count,
                "canonical_code": cls.code_hex,
                "edges": [[i + 1, j + 1] for i, j in member.sorted_edges()],
                "properties": asdict(properties(member)),
            }
        )
    return format_json(payload)

"""Flow-table ingestion: CSV parsing, validation, and synthetic substrates."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np
from scipy import sparse

FLOWS_COLUMNS = ("year", "src_country", "src_sector", "dst_country", "dst_sector", "value")
ROW_USE_COLUMNS = ("year", "country", "sector", "gross_use")

DEFAULT_MEAN_LEAKAGE = 0.373
DEFAULT_SYNTH_DENSITY = 0.1
# Concentration of the Beta draw for per-node leak shares in synth_substrate.
_LEAKAGE_KAPPA = 60.0
_WEIGHT_SIGMA = 2.0

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Rows per chunk when reading or writing a CSV, and per block of
# synth_substrate's random draws; bounds what one step holds in memory.
_CHUNK_ROWS = 1 << 14
_SYNTH_BLOCK_ROWS = 256
# Columns whose cells are numbers; the others repeat from row to row.
_VALUE_COLUMNS = ("value", "gross_use")
_LABEL_COLUMNS = FLOWS_COLUMNS[1:5]


class TableError(ValueError):
    """An input table violates the flows/row-use contract."""


@dataclass(frozen=True)
class NodeId:
    """One country-sector production node."""

    country: str
    sector: str

    @property
    def label(self) -> str:
        return f"{self.country}_{self.sector}"


@dataclass(frozen=True)
class IOTable:
    """Year-stamped sparse intermediate-flow matrix with node metadata.

    Z[i, j] is the flow from node i to node j. row_use_total[i] is the gross
    row-use proxy for node i and bounds its intermediate outflows from above.
    Node i is nodes[i], in lexicographic (country, sector) order.
    """

    year: int
    Z: sparse.csr_matrix
    row_use_total: np.ndarray
    nodes: tuple[NodeId, ...]

    def __post_init__(self):
        # operators and exposure scale Z's stored entries, one per flow in
        # column order, so a table holds Z in canonical CSR form
        Z = self.Z
        if not (isinstance(Z, sparse.csr_matrix) and Z.has_canonical_format):
            Z = sparse.csr_matrix(Z, copy=True)
            Z.sum_duplicates()
            object.__setattr__(self, "Z", Z)
        # every flow is finite, but their totals can pass the float range
        with np.errstate(over="ignore"):
            if not math.isfinite(Z.data.sum()):
                self._refuse_total()

    def _refuse_total(self):
        """Raise TableError naming the first node whose outflows or inflows
        sum past the float range, else the row at which the total does."""
        for totals, what in (
            (self.outflow_totals(), "outflows"),
            (self.inflow_totals(), "inflows"),
            (np.cumsum(self.outflow_totals()), "the flows of all rows up to its own"),
        ):
            bad = np.flatnonzero(~np.isfinite(totals))
            if bad.size:
                raise TableError(f"node {self.nodes[bad[0]].label}: {what} sum past the float range")

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    def outflow_totals(self) -> np.ndarray:
        return np.asarray(self.Z.sum(axis=1)).ravel()

    def inflow_totals(self) -> np.ndarray:
        return np.asarray(self.Z.sum(axis=0)).ravel()

    def total_flow(self) -> float:
        return float(self.Z.sum())


class _Rows:
    """The required columns of one CSV, read once.

    A value column is an object array of its cells. Every other column
    repeats from row to row, so it is coded: an np.intp array of one code
    per row, into an object array of the column's distinct cells in
    first-seen order. A row is what csv.DictReader yields for it: blank
    lines are skipped, a short row reads None in its missing cells, extra
    cells are dropped, and of repeated header names the last one counts.
    """

    def __init__(self, path: Path, cells: dict[str, np.ndarray], coded: dict[str, tuple]):
        self.path = path
        self.cells = cells
        self.coded = coded

    def __len__(self) -> int:
        # every table read has a coded column (year, or a series' S), not always a value column
        return len(next(iter(self.coded.values()))[0])

    def at(self, column: str, rows):
        """The cells of one column at the given rows (or row)."""
        if column in self.coded:
            codes, distinct = self.coded[column]
            return distinct[codes[rows]]
        return self.cells[column][rows]

    def line(self, row: int) -> int:
        """The line number csv.DictReader reports for data row `row`.

        Only error messages need it, so the file is read again then, by the
        reader whose count the messages have always named (after blank lines
        it names the first of them).
        """
        with open(self.path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            for _ in islice(reader, row + 1):
                pass
            return reader.line_num


class _Codes(dict):
    """Hands out a code per distinct cell, in first-seen order."""

    def __missing__(self, cell) -> int:
        code = self[cell] = len(self)
        return code


def _read_rows(path: Path, required: tuple[str, ...]) -> _Rows:
    """Read the required columns of a CSV in one pass, checking the header."""
    if not path.exists():
        raise TableError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise TableError(f"{path}: empty file, expected header {','.join(required)}")
            missing = [c for c in required if c not in header]
            if missing:
                raise TableError(f"{path}: missing column(s) {', '.join(missing)}")
            at = {name: k for k, name in enumerate(header)}
            cells: dict[str, list] = {c: [] for c in required if c in _VALUE_COLUMNS}
            parts: dict[str, list] = {c: [] for c in required if c not in _VALUE_COLUMNS}
            distinct = {c: _Codes() for c in parts}
            for chunk in _chunks(fh, len(header), [at[c] for c in required]):
                for c, column in zip(required, chunk):
                    if c in cells:
                        cells[c].extend(column)
                    else:
                        codes = map(distinct[c].__getitem__, column)
                        parts[c].append(np.fromiter(codes, np.intp, len(column)))
    except csv.Error as err:  # such as a cell longer than csv.field_size_limit()
        raise TableError(f"{path}: {err}") from None
    # join one column's chunks at a time, so that at most one is held twice
    coded = {}
    for c in list(parts):
        codes = np.concatenate([np.empty(0, np.intp), *parts.pop(c)])
        coded[c] = (codes, np.array(list(distinct[c]), dtype=object))
    return _Rows(path, {c: np.array(out, dtype=object) for c, out in cells.items()}, coded)


def _chunks(fh, width: int, picks: list[int]):
    """The rows after the header, _CHUNK_ROWS at a time, as the picked columns' cells.

    A chunk is split at commas when it is plain: no quote, CR or NUL, one
    comma fewer than width on every line, no blank line, and no line
    longer than the csv field limit. A blank line has no comma, so only a
    one-column header needs the blank-line test. From the first chunk that
    is not plain, csv.reader reads the rest of the file, so quoted fields,
    blank lines and short or long rows come out as csv.reader gives them.
    """
    limit = csv.field_size_limit()
    while lines := list(islice(fh, _CHUNK_ROWS)):
        text = "".join(lines)
        if (
            '"' in text
            or "\r" in text
            or "\0" in text
            or set(map(str.count, lines, repeat(","))) != {width - 1}
            or (width == 1 and "\n" in lines)
            or max(map(len, lines)) > limit
        ):
            break
        flat = text.replace("\n", ",").split(",")
        stop = width * len(lines)  # a final line end leaves one more, empty, cell
        yield [flat[k:stop:width] for k in picks]
    else:
        return
    reader = csv.reader(chain(lines, fh))
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        if set(map(len, chunk)) != {width}:
            chunk = [row + [None] * (width - len(row)) for row in chunk if row]
        columns = list(zip(*chunk))
        yield [columns[k] if columns else () for k in picks]


def _value_fault(raw, column: str) -> str:
    """What is wrong with a value cell that float() refuses, or that is non-finite or negative."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return f"non-numeric {column} {raw!r}"
    if not math.isfinite(value):
        return f"non-finite {column} {raw!r}"
    return f"negative {column} {value}"


def _floats(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells as floats, and where each one fails the value checks.

    A cell float() refuses reads NaN, so it fails them too; _value_fault
    tells the three failures apart for the message.
    """
    cells = cells.tolist()
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except (TypeError, ValueError):
        values = np.array([_float_or_nan(c) for c in cells], dtype=np.float64)
    return values, ~(np.isfinite(values) & (values >= 0))


def _float_or_nan(cell) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def _int_or_none(cell) -> int | None:
    try:
        return int(cell)
    except (TypeError, ValueError):
        return None


class _Converted:
    """A coded column, converted once per distinct cell.

    convert returns None for a cell it refuses.
    """

    def __init__(self, codes: np.ndarray, distinct: np.ndarray, convert=_int_or_none):
        self.codes = codes
        self.values = [convert(cell) for cell in distinct.tolist()]
        bad = np.flatnonzero(self._of([v is None for v in self.values]))
        # the first row whose cell convert refuses, len(codes) if none
        self.first_bad = int(bad[0]) if bad.size else len(codes)

    def _of(self, per_distinct: list[bool]) -> np.ndarray:
        return np.array(per_distinct, dtype=bool)[self.codes]

    def rows(self, value) -> np.ndarray:
        """The rows whose cell converts to value, ascending."""
        return np.flatnonzero(self._of([v is not None and v == value for v in self.values]))


def _refuse_first(table: _Rows, path, years: _Converted, rows: np.ndarray, checks: list) -> None:
    """Raise TableError naming a table's first bad row, if it has one.

    A bad year fails on any row of the file. checks is an ordered list of
    (flags, fault): flags marks bad rows among rows, and fault(k) says what
    is wrong with rows[k]. The first row flagged is named, with the fault of
    the first check that flags it.
    """
    flagged = [int(rows[np.argmax(flags)]) for flags, _ in checks if flags.any()]
    first = min([years.first_bad, *flagged])
    if first == len(table):
        return
    if first == years.first_bad:
        fault = f"bad year {table.at('year', first)!r}"
    else:
        k = int(np.searchsorted(rows, first))
        fault = next(say for flags, say in checks if flags[k])(k)
    raise TableError(f"{path} row {table.line(first)}: {fault}")


def _missing(table: _Rows, column: str, rows: np.ndarray) -> np.ndarray:
    """Where a label column is None at rows: a short row reads None in its missing cells."""
    codes, distinct = table.coded[column]
    return np.equal(distinct, None)[codes[rows]]


class FlowPanel:
    """A flows CSV and its row-use companion, each read at most once.

    Every year's IOTable comes from that one read, with the checks, error
    messages and row numbers of parsing the year on its own. The row-use
    file is read when the first table is built. When row_use_path is None, a
    sibling row_use.csv is used if present.
    """

    def __init__(self, path: str | Path, row_use_path: str | Path | None = None):
        self.path = Path(path)
        self._flows = _read_rows(self.path, FLOWS_COLUMNS)
        self._years = _Converted(*self._flows.coded["year"])
        if row_use_path is None:
            sibling = self.path.with_name("row_use.csv")
            row_use_path = sibling if sibling.exists() else None
        self.row_use_path = None if row_use_path is None else Path(row_use_path)
        self._row_use: tuple[_Rows, _Converted] | None = None

    def years(self) -> list[int]:
        """Distinct years present, ascending."""
        _refuse_first(self._flows, self.path, self._years, np.empty(0, np.intp), [])
        return sorted(set(self._years.values))

    def table(self, year: int) -> IOTable:
        """One year as an IOTable; raises TableError as parse_io_table documents."""
        path, flows = self.path, self._flows
        rows = self._years.rows(year)
        values, bad = _floats(flows.cells["value"][rows])
        checks = [(bad, lambda k: _value_fault(flows.at("value", rows[k]), "value"))]
        checks += [(_missing(flows, c, rows), lambda k, c=c: f"missing {c}") for c in _LABEL_COLUMNS]
        _refuse_first(flows, path, self._years, rows, checks)
        if not rows.size:
            raise TableError(f"{path}: no edges for year {year}")

        src, dst, countries, sectors = _node_keys(flows, rows)
        keys = np.unique(np.concatenate([src, dst]))
        n = len(keys)
        i = np.searchsorted(keys, src)
        j = np.searchsorted(keys, dst)
        country, sector = np.divmod(keys, len(sectors))
        nodes = tuple(map(NodeId, countries[country].tolist(), sectors[sector].tolist()))
        _refuse_first(flows, path, self._years, rows, [
            (_repeats(i * n + j), lambda k: f"duplicate flow {nodes[i[k]].label} -> "
                                            f"{nodes[j[k]].label} for year {year}"),
        ])

        Z = sparse.coo_matrix((values, (i, j)), shape=(n, n)).tocsr()
        Z.sort_indices()
        with np.errstate(over="ignore"):  # IOTable refuses totals past the float range
            outflows = np.asarray(Z.sum(axis=1)).ravel()
        if self.row_use_path is None:
            row_use = outflows.copy()
        else:
            row_use = self._row_use_totals(year, nodes, outflows)
        return IOTable(year=year, Z=Z, row_use_total=row_use, nodes=nodes)

    def _row_use_totals(self, year: int, nodes: tuple, outflows: np.ndarray) -> np.ndarray:
        """Gross row use per node from the row-use file; nodes it leaves out keep their outflows."""
        if self._row_use is None:
            table = _read_rows(self.row_use_path, ROW_USE_COLUMNS)
            self._row_use = (table, _Converted(*table.coded["year"]))
        table, years = self._row_use
        path = self.row_use_path
        rows = years.rows(year)
        index = {(nd.country, nd.sector): i for i, nd in enumerate(nodes)}
        keys = list(zip(table.at("country", rows).tolist(), table.at("sector", rows).tolist()))
        node = np.fromiter(map(index.get, keys, repeat(-1)), np.intp, len(keys))
        unknown = node < 0
        duplicate = _repeats(node) & ~unknown
        gross, bad_value = _floats(table.cells["gross_use"][rows])
        out = outflows[np.maximum(node, 0)]
        # Gross row use bounds intermediate outflows from above; allow float fuzz.
        below = gross < out * (1.0 - 1e-12) - 1e-12
        label = "{}_{}".format
        # a missing country or sector names no node, so its row is unknown too
        _refuse_first(table, path, years, rows, [
            (_missing(table, "country", rows), lambda k: "missing country"),
            (_missing(table, "sector", rows), lambda k: "missing sector"),
            (unknown, lambda k: f"unknown node {label(*keys[k])} for year {year}"),
            (duplicate, lambda k: f"duplicate row-use entry for {label(*keys[k])}"),
            (bad_value, lambda k: _value_fault(table.at("gross_use", rows[k]), "gross_use")),
            (below, lambda k: f"gross_use {float(gross[k])} below outflow total "
                              f"{outflows[node[k]]} for {label(*keys[k])}"),
        ])
        row_use = outflows.copy()
        # max(gross, outflow), keeping gross on a tie
        row_use[node] = np.where(out > gross, out, gross)
        return row_use


def _node_keys(flows: _Rows, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's source and destination node key, and the countries and sectors the keys rank.

    A key is country_rank * len(sectors) + sector_rank, so keys order
    nodes as sorted((country, sector)) does. The per-row rank arrays live
    only in this call, which keeps them out of the table's peak memory.
    """
    (src_country, dst_country), countries = _ranks(flows, rows, "src_country", "dst_country")
    (src_sector, dst_sector), sectors = _ranks(flows, rows, "src_sector", "dst_sector")
    src_country *= len(sectors)
    src_country += src_sector
    dst_country *= len(sectors)
    dst_country += dst_sector
    return src_country, dst_country, countries, sectors


def _ranks(flows: _Rows, rows: np.ndarray, *columns: str) -> tuple[list[np.ndarray], np.ndarray]:
    """The given label columns' cells at rows as ranks among the cells those rows use.

    The ranks of each column, and the used cells in ascending order (an
    object array, which the ranks index). Only the used cells are compared,
    so a cell no row uses is never ranked.
    """
    coded = [flows.coded[c] for c in columns]
    used = [np.flatnonzero(np.bincount(codes[rows], minlength=len(d))) for codes, d in coded]
    names = sorted(set().union(*(distinct[u].tolist() for u, (_, distinct) in zip(used, coded))))
    rank = {name: r for r, name in enumerate(names)}
    ranks = []
    for u, (codes, distinct) in zip(used, coded):
        of_code = np.zeros(len(distinct), dtype=np.intp)
        of_code[u] = [rank[name] for name in distinct[u].tolist()]
        ranks.append(of_code[codes[rows]])
    return ranks, np.array(names, dtype=object)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Where a key equals one earlier in the array."""
    later = np.ones(len(keys), dtype=bool)
    later[np.unique(keys, return_index=True)[1]] = False
    return later


def list_years(path: str | Path) -> list[int]:
    """Distinct years present in a flows CSV, ascending."""
    return FlowPanel(path).years()


def parse_io_table(
    path: str | Path,
    year: int,
    row_use_path: str | Path | None = None,
) -> IOTable:
    """Parse one year of a long-format flows CSV into an IOTable.

    The optional companion row-use file supplies gross row-use totals per
    node; nodes absent from it get their outflow sum (leak share 1). When
    row_use_path is None, a sibling row_use.csv is used if present.

    Raises TableError on negative or non-numeric values (naming the row),
    duplicate (src, dst) pairs within the year, unknown nodes in the row-use
    file, row-use below the node's outflow sum, or an empty year. The first
    offending row is named: a bad year on any row, a bad value on a row of
    this year, then an empty year, then duplicates, then the row-use rows in
    their file order.
    """
    return FlowPanel(path, row_use_path).table(year)


def _synthetic_label(i: int) -> tuple[str, str]:
    a, rem = divmod(i, 26 * 26)
    b, c = divmod(rem, 26)
    return _ALPHABET[a] + _ALPHABET[b] + _ALPHABET[c], "ALL"


def synth_substrate(
    n: int,
    density: float = DEFAULT_SYNTH_DENSITY,
    seed: int = 0,
    year: int = 2014,
    mean_leakage: float = DEFAULT_MEAN_LEAKAGE,
) -> IOTable:
    """Generate a deterministic random substrate with calibration-like texture.

    Directed edges are drawn Bernoulli(density) over off-diagonal pairs with
    heavy-tailed lognormal weights, so flow shares and concentration indices
    come out skewed the way observed production networks are. Row use is set
    from per-node Beta leak shares with the given mean (default 0.373).

    Args:
        n: node count, 2 <= n <= 17576.
        density: edge probability in (0, 1] (default 0.1).
        seed: RNG seed (default 0); same arguments always give a bit-identical table.
    """
    if not 2 <= n <= 26**3:
        raise ValueError(f"n must be in [2, {26**3}], got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if not 0.0 < mean_leakage < 1.0:
        raise ValueError(f"mean_leakage must be in (0, 1), got {mean_leakage}")

    rng = np.random.default_rng(seed)
    # Row blocks draw the stream of one n x n draw in the same order, so no
    # dense n x n float array is ever held: the uniforms become the edge
    # mask, and of each block of weights only the masked entries are kept.
    blocks = [slice(lo, min(lo + _SYNTH_BLOCK_ROWS, n)) for lo in range(0, n, _SYNTH_BLOCK_ROWS)]
    mask = np.empty((n, n), dtype=bool)
    for rows in blocks:
        np.less(rng.random((rows.stop - rows.start, n)), density, out=mask[rows])
    np.fill_diagonal(mask, False)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    data = np.empty(indptr[-1], dtype=np.float64)
    indices = np.empty(indptr[-1], dtype=np.int32)
    for rows in blocks:
        weights = rng.lognormal(mean=0.0, sigma=_WEIGHT_SIGMA, size=(rows.stop - rows.start, n))
        part = slice(indptr[rows.start], indptr[rows.stop])
        flat = np.flatnonzero(mask[rows])
        np.take(weights, flat, out=data[part])
        np.remainder(flat, n, out=indices[part], casting="unsafe")
    if not data.size:
        # keep the table non-empty at extreme sparsity
        data, indices = np.array([1.0]), np.array([1], dtype=np.int32)
        indptr[1:] = 1

    a = mean_leakage * _LEAKAGE_KAPPA
    b = (1.0 - mean_leakage) * _LEAKAGE_KAPPA
    leak = rng.beta(a, b, size=n)

    Z = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    Z.sort_indices()
    outflows = np.asarray(Z.sum(axis=1)).ravel()
    row_use = np.where(outflows > 0, outflows / leak, 0.0)

    nodes = tuple(NodeId(*_synthetic_label(i)) for i in range(n))
    return IOTable(year=year, Z=Z, row_use_total=row_use, nodes=nodes)


def write_io_table(
    table: IOTable,
    flows_path: str | Path,
    row_use_path: str | Path | None = None,
) -> None:
    """Write a table back to flows/row-use CSVs, round-trip exact.

    Floats are written with repr so re-parsing reproduces the sparse
    structure bit for bit. The flows format names a node only through its
    flows, so a node without any raises TableError before either file is
    opened, or a missing directory made.
    """
    has_flow = np.diff(table.Z.indptr) > 0
    has_flow[table.Z.indices] = True
    if not has_flow.all():
        node = table.nodes[int(np.argmin(has_flow))]
        raise TableError(f"node {node.label} has no flows; the flows format cannot carry it")
    for path in (flows_path, row_use_path):
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    # each node's country,sector cells go through csv.writer once, so quoting
    # stays exact; floats are written with repr
    year = _csv_lines([(table.year,)])[0]
    cells = _csv_lines((nd.country, nd.sector) for nd in table.nodes)
    # Z is canonical CSR, so its stored order is (row, col) order
    Z = table.Z
    flows = zip(
        np.repeat(np.arange(table.n), np.diff(Z.indptr)).tolist(),
        Z.indices.tolist(),
        np.asarray(Z.data, dtype=np.float64).tolist(),
    )
    with open(Path(flows_path), "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(FLOWS_COLUMNS) + "\n")
        while chunk := list(islice(flows, _CHUNK_ROWS)):
            fh.write("".join([f"{year},{cells[i]},{cells[j]},{v!r}\n" for i, j, v in chunk]))
    if row_use_path is not None:
        totals = np.asarray(table.row_use_total, dtype=np.float64).tolist()
        with open(Path(row_use_path), "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(ROW_USE_COLUMNS) + "\n")
            fh.write("".join([f"{year},{c},{v!r}\n" for c, v in zip(cells, totals)]))


def _csv_lines(rows) -> list[str]:
    """Each row as csv.writer writes it, without the line end."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    lines = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        lines.append(buf.getvalue()[:-1])
    return lines

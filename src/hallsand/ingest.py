"""Flow-table ingestion: CSV parsing, validation, and synthetic substrates."""

from __future__ import annotations

import csv
import io
import math
from array import array
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

# Lines per chunk when reading or writing a CSV; bounds what one step
# holds in memory beyond the columns read.
_CHUNK_ROWS = 1 << 10
# synth_substrate draws a block of whole rows at a time, of about this many
# entries: a block's draws stay small beside the table it builds
_SYNTH_BLOCK_ENTRIES = 1 << 16
# Columns whose cells are numbers; the others repeat from row to row.
_VALUE_COLUMNS = ("value", "gross_use")
_LABEL_COLUMNS = FLOWS_COLUMNS[1:5]


class TableError(ValueError):
    """An input file violates its contract: a flows or row-use table, or a
    series file of cascade sizes."""


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
    row-use proxy for node i, finite and non-negative, and bounds its
    intermediate outflows from above. Node i is nodes[i], in lexicographic
    (country, sector) order.
    """

    year: int
    Z: sparse.csr_matrix
    row_use_total: np.ndarray
    nodes: tuple[NodeId, ...]

    def __post_init__(self):
        # operators and exposure scale Z's stored entries, one per flow in
        # column order, so a table holds Z in canonical float64 CSR form
        Z = self.Z
        if not (isinstance(Z, sparse.csr_matrix) and Z.has_canonical_format and Z.dtype == np.float64):
            Z = sparse.csr_matrix(Z, dtype=np.float64, copy=True)
            Z.sum_duplicates()
            object.__setattr__(self, "Z", Z)
        # every flow is finite, but their totals can pass the float range
        with np.errstate(over="ignore"):
            if not math.isfinite(Z.data.sum()):
                self._refuse_total()
        # after the totals, since a table read without row use takes its outflow totals
        row_use = np.asarray(self.row_use_total)
        if row_use.shape != (self.n,):
            raise TableError(f"row_use_total must hold one value for each of the {self.n} nodes, "
                             f"got shape {row_use.shape}")
        bad = np.flatnonzero(_faulty(row_use))
        if bad.size:
            raise TableError(f"node {self.nodes[bad[0]].label}: row_use_total must be finite "
                             f"and non-negative, got {row_use[bad[0]]}")

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

    A value column is a float64 array of its cells, read with float(): a
    cell that float() refuses reads NaN. Every other column repeats from
    row to row, so it is coded: an array of one code per row, of the
    narrowest type _code_type gives for the column's count of distinct
    cells, into an object array of those cells in first-seen order. No
    value cell's text is kept, so a message that names one reads its row
    again from the file (reread). A row is what csv.DictReader yields for
    it: blank lines are skipped, a short row reads None in its missing
    cells, extra cells are dropped, and of repeated header names the last
    one counts.
    """

    def __init__(self, path: Path, values: dict[str, np.ndarray], coded: dict[str, tuple]):
        self.path = path
        self.values = values
        self.coded = coded

    def __len__(self) -> int:
        # every table read has a coded column (year, or a series' S), not always a value column
        return len(next(iter(self.coded.values()))[0])

    def at(self, column: str, rows):
        """The cells of one coded column at the given rows (or row)."""
        codes, distinct = self.coded[column]
        return distinct[codes[rows]]

    def reread(self, row: int) -> tuple[int, dict]:
        """The line number csv.DictReader reports for data row `row`, and its cells.

        Only error messages need them, so the file is read again then, by the
        reader whose count the messages have always named (after blank lines
        it names the first of them).
        """
        with open(self.path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            cells = next(islice(reader, row, None))
            return reader.line_num, cells


class _Codes(dict):
    """Hands out a code per distinct cell, in first-seen order."""

    def __missing__(self, cell) -> int:
        code = self[cell] = len(self)
        return code


def _code_type(cells: int) -> type:
    """The narrowest integer type that numbers this many distinct cells."""
    return np.uint8 if cells <= 1 << 8 else np.uint16 if cells <= 1 << 16 else np.int32


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
            distinct = {c: _Codes() for c in required if c not in _VALUE_COLUMNS}
            width = {c: _code_type(0) for c in distinct}
            # each column's bytes, grown by realloc with at most 1/16 spare
            # room, so that no column is ever held twice, as joining per-chunk
            # parts would hold it
            raw = {c: array("B") for c in required}
            for chunk in _chunks(fh, len(header), [at[c] for c in required]):
                for c, column in zip(required, chunk):
                    if c in distinct:
                        part = np.fromiter(map(distinct[c].__getitem__, column), np.int32, len(column))
                        if (wider := _code_type(len(distinct[c]))) is not width[c]:
                            # the column's codes so far, widened once
                            held = array("B")
                            held.frombytes(np.frombuffer(raw[c], width[c]).astype(wider).view(np.uint8))
                            raw[c], width[c] = held, wider
                        part = part.astype(width[c], copy=False)
                    else:
                        part = _floats(column)
                    raw[c].frombytes(part.view(np.uint8))
    except csv.Error as err:  # such as a cell longer than csv.field_size_limit()
        raise TableError(f"{path}: {err}") from None
    values = {c: np.frombuffer(raw[c], np.float64) for c in required if c not in distinct}
    coded = {c: (np.frombuffer(raw[c], width[c]), np.array(list(d), dtype=object)) for c, d in distinct.items()}
    return _Rows(path, values, coded)


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


def _floats(cells) -> np.ndarray:
    """Cells as float64, NaN where float() refuses a cell."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except (TypeError, ValueError):
        return np.array([_float_or_nan(c) for c in cells], dtype=np.float64)


def _faulty(values: np.ndarray) -> np.ndarray:
    """Where values fail the value checks: a NaN read from a cell float()
    refuses fails them too, and _value_fault tells the three failures apart."""
    return ~(np.isfinite(values) & (values >= 0))


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


def _refuse_first(table: _Rows, years: _Converted, rows: np.ndarray, checks: list) -> None:
    """Raise TableError naming a table's first bad row, if it has one.

    A bad year fails on any row of the file. checks is an ordered list of
    (flags, fault): flags marks bad rows among rows, and fault(k, cells)
    says what is wrong with rows[k], whose cells the file is read again for.
    The first row flagged is named, with the fault of the first check that
    flags it.
    """
    flagged = [int(rows[np.argmax(flags)]) for flags, _ in checks if flags.any()]
    first = min([years.first_bad, *flagged])
    if first == len(table):
        return
    line, cells = table.reread(first)
    if first == years.first_bad:
        fault = f"bad year {table.at('year', first)!r}"
    else:
        k = int(np.searchsorted(rows, first))
        fault = next(say for flags, say in checks if flags[k])(k, cells)
    raise TableError(f"{table.path} row {line}: {fault}")


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
        _refuse_first(self._flows, self._years, np.empty(0, np.intp), [])
        return sorted(set(self._years.values))

    def table(self, year: int) -> IOTable:
        """One year as an IOTable; raises TableError as parse_io_table documents."""
        flows = self._flows
        rows = self._years.rows(year)
        values = flows.values["value"][rows]
        _refuse_first(flows, self._years, rows, [
            (_faulty(values), lambda _, cells: _value_fault(cells["value"], "value")),
            *[(_missing(flows, c, rows), lambda k, _, c=c: f"missing {c}") for c in _LABEL_COLUMNS],
        ])
        if not rows.size:
            raise TableError(f"{self.path}: no edges for year {year}")

        # node k is the k-th (country, sector) pair in sorted order
        src, i = _pairs(flows, rows, "src_country", "src_sector")
        dst, j = _pairs(flows, rows, "dst_country", "dst_sector")
        pairs = sorted(set(src) | set(dst))
        index = {pair: k for k, pair in enumerate(pairs)}
        n = len(pairs)
        # int32 node numbers, which coo_matrix keeps without a copy
        i = np.array([index[pair] for pair in src], dtype=np.int32)[i]
        j = np.array([index[pair] for pair in dst], dtype=np.int32)[j]
        nodes = tuple(NodeId(*pair) for pair in pairs)
        Z = sparse.coo_matrix((values, (i, j)), shape=(n, n)).tocsr()
        if Z.nnz < rows.size:  # tocsr adds up repeated entries and keeps explicit zeros
            _refuse_first(flows, self._years, rows, [
                (_repeats(i.astype(np.int64) * n + j), lambda k, _: f"duplicate flow {nodes[i[k]].label} -> "
                                                f"{nodes[j[k]].label} for year {year}"),
            ])
        with np.errstate(over="ignore"):  # IOTable refuses totals past the float range
            outflows = np.asarray(Z.sum(axis=1)).ravel()
        if self.row_use_path is None:
            row_use = outflows.copy()
        else:
            row_use = self._row_use_totals(year, index, outflows)
        return IOTable(year=year, Z=Z, row_use_total=row_use, nodes=nodes)

    def _row_use_totals(self, year: int, index: dict, outflows: np.ndarray) -> np.ndarray:
        """Gross row use per node (index maps a (country, sector) pair to its
        node) from the row-use file; nodes it leaves out keep their outflows."""
        if self._row_use is None:
            table = _read_rows(self.row_use_path, ROW_USE_COLUMNS)
            self._row_use = (table, _Converted(*table.coded["year"]))
        table, years = self._row_use
        rows = years.rows(year)
        pairs, at = _pairs(table, rows, "country", "sector")
        node = np.array([index.get(pair, -1) for pair in pairs], dtype=np.intp)[at]
        unknown = node < 0
        duplicate = _repeats(node) & ~unknown
        gross = table.values["gross_use"][rows]
        out = outflows[np.maximum(node, 0)]
        # Gross row use bounds intermediate outflows from above; allow float fuzz.
        below = gross < out * (1.0 - 1e-12) - 1e-12
        # a missing country or sector names no node, so its row is unknown too
        _refuse_first(table, years, rows, [
            (_missing(table, "country", rows), lambda k, _: "missing country"),
            (_missing(table, "sector", rows), lambda k, _: "missing sector"),
            (unknown, lambda k, _: f"unknown node {NodeId(*pairs[at[k]]).label} for year {year}"),
            (duplicate, lambda k, _: f"duplicate row-use entry for {NodeId(*pairs[at[k]]).label}"),
            (_faulty(gross), lambda _, cells: _value_fault(cells["gross_use"], "gross_use")),
            (below, lambda k, _: f"gross_use {float(gross[k])} below outflow total "
                              f"{outflows[node[k]]} for {NodeId(*pairs[at[k]]).label}"),
        ])
        row_use = outflows.copy()
        # max(gross, outflow), keeping gross on a tie
        row_use[node] = np.where(out > gross, out, gross)
        return row_use


def _pairs(table: _Rows, rows: np.ndarray, country_col: str, sector_col: str) -> tuple[list, np.ndarray]:
    """The distinct (country, sector) cells of two coded columns at rows, and
    each row's index among them, as int32. Only the cells the rows use are
    looked up."""
    country, countries = table.coded[country_col]
    sector, sectors = table.coded[sector_col]
    key = country[rows].astype(np.int64)
    key *= len(sectors)
    key += sector[rows]
    # used is sorted, so searching it gives np.unique's inverse
    used = np.unique(key)
    at = np.searchsorted(used, key).astype(np.int32)
    country, sector = np.divmod(used, len(sectors))
    return list(zip(countries[country].tolist(), sectors[sector].tolist())), at


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Where a key equals one earlier in the array."""
    later = np.ones(len(keys), dtype=bool)
    later[np.unique(keys, return_index=True)[1]] = False
    return later


def _size_or_none(cell) -> int | None:
    """Integer text as written; a float cell such as 7.0 or 1e3 only below
    2**53, from where float() may have rounded it."""
    value = _int_or_none(cell)
    if value is None:
        number = _float_or_nan(cell)  # a cell float() refuses, nan and inf all fail is_integer()
        value = int(number) if number.is_integer() and abs(number) < 2**53 else None
    return value if value is not None and abs(value) < 2**63 else None


def read_sizes(path: str | Path) -> np.ndarray:
    """The S column of a series file as int64, read with the rules of flows.csv.

    Raises TableError naming the first row, in file order, whose size is not
    a 64-bit integer or is negative. Zero sizes are kept.
    """
    path = Path(path)
    table = _read_rows(path, ("S",))
    sizes = _Converted(*table.coded["S"], convert=_size_or_none)
    refused = sizes._of([v is None or v < 0 for v in sizes.values])
    if refused.any():
        k = int(np.argmax(refused))
        cell = table.at("S", k)
        fault = f"bad S value {cell!r}, not a 64-bit integer" if k == sizes.first_bad else f"negative S value {cell!r}"
        raise TableError(f"{path} row {table.reread(k)[0]}: {fault}")
    if not len(table):
        raise TableError(f"{path}: no rows")
    return np.array(sizes.values, dtype=np.int64)[sizes.codes]


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
        seed: non-negative integer RNG seed (default 0); same arguments always give a bit-identical table.
    """
    if not 2 <= n <= 26**3:
        raise ValueError(f"n must be in [2, {26**3}], got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if not 0.0 < mean_leakage < 1.0:
        raise ValueError(f"mean_leakage must be in (0, 1), got {mean_leakage}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")

    rng = np.random.default_rng(seed)
    # Blocks of whole rows draw the stream of one n x n draw in the same
    # order, so no n x n array is ever held: the uniforms become the edge
    # mask, one bit per entry, and of each block of weights only the masked
    # entries are kept.
    step = max(1, _SYNTH_BLOCK_ENTRIES // n)
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    mask = np.empty((n, -(-n // 8)), dtype=np.uint8)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for rows in blocks:
        edges = rng.random((rows.stop - rows.start, n)) < density
        np.fill_diagonal(edges[:, rows], False)
        indptr[rows.start + 1 : rows.stop + 1] = edges.sum(axis=1)
        mask[rows] = np.packbits(edges, axis=1)
    np.cumsum(indptr, out=indptr)
    data = np.empty(indptr[-1], dtype=np.float64)
    indices = np.empty(indptr[-1], dtype=np.int32)
    for rows in blocks:
        weights = rng.lognormal(mean=0.0, sigma=_WEIGHT_SIGMA, size=(rows.stop - rows.start, n))
        part = slice(indptr[rows.start], indptr[rows.stop])
        flat = np.flatnonzero(np.unpackbits(mask[rows], axis=1, count=n))
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
    data = np.asarray(Z.data, dtype=np.float64)
    with open(Path(flows_path), "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(FLOWS_COLUMNS) + "\n")
        for lo in range(0, len(data), _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, len(data))
            # stored flow k leaves the row r with indptr[r] <= k < indptr[r + 1]
            src = np.searchsorted(Z.indptr, np.arange(lo, hi), side="right") - 1
            chunk = zip(src.tolist(), Z.indices[lo:hi].tolist(), data[lo:hi].tolist())
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

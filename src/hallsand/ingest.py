"""Flow-table ingestion: CSV parsing, validation, and synthetic substrates."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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


class TableError(ValueError):
    """An input table violates the flows/row-use contract."""


@dataclass(frozen=True)
class NodeId:
    """One country-sector production node, with its row/column index."""

    country: str
    sector: str
    index: int

    @property
    def label(self) -> str:
        return f"{self.country}_{self.sector}"


@dataclass(frozen=True)
class IOTable:
    """Year-stamped sparse intermediate-flow matrix with node metadata.

    Z[i, j] is the flow from node i to node j. row_use_total[i] is the gross
    row-use proxy for node i and bounds its intermediate outflows from above.
    Node indices are assigned lexicographically by (country, sector).
    """

    year: int
    n: int
    Z: sparse.csr_matrix
    row_use_total: np.ndarray
    nodes: tuple[NodeId, ...]

    def index_of(self, country: str, sector: str) -> int:
        key = (country, sector)
        try:
            return self._index[key]
        except AttributeError:
            lookup = {(nd.country, nd.sector): nd.index for nd in self.nodes}
            object.__setattr__(self, "_index", lookup)
            return self._index[key]

    def outflow_totals(self) -> np.ndarray:
        return np.asarray(self.Z.sum(axis=1)).ravel()

    def inflow_totals(self) -> np.ndarray:
        return np.asarray(self.Z.sum(axis=0)).ravel()

    def total_flow(self) -> float:
        return float(self.Z.sum())


def _read_rows(path: Path, required: tuple[str, ...]) -> list[tuple[int, dict]]:
    """Read a CSV into (line_number, row) pairs, checking the header."""
    if not path.exists():
        raise TableError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise TableError(f"{path}: empty file, expected header {','.join(required)}")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise TableError(f"{path}: missing column(s) {', '.join(missing)}")
        rows = []
        for row in reader:
            rows.append((reader.line_num, row))
    return rows


def _parse_value(raw: str, path: Path, line: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise TableError(f"{path} row {line}: non-numeric {column} {raw!r}") from None
    if not math.isfinite(value):
        raise TableError(f"{path} row {line}: non-finite {column} {raw!r}")
    if value < 0:
        raise TableError(f"{path} row {line}: negative {column} {value}")
    return value


def list_years(path: str | Path) -> list[int]:
    """Distinct years present in a flows CSV, ascending."""
    rows = _read_rows(Path(path), FLOWS_COLUMNS)
    years = set()
    for line, row in rows:
        try:
            years.add(int(row["year"]))
        except (TypeError, ValueError):
            raise TableError(f"{path} row {line}: bad year {row['year']!r}") from None
    return sorted(years)


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
    file, row-use below the node's outflow sum, or an empty year.
    """
    path = Path(path)
    rows = _read_rows(path, FLOWS_COLUMNS)

    edges: list[tuple[str, str, str, str, float, int]] = []
    for line, row in rows:
        try:
            row_year = int(row["year"])
        except (TypeError, ValueError):
            raise TableError(f"{path} row {line}: bad year {row['year']!r}") from None
        if row_year != year:
            continue
        value = _parse_value(row["value"], path, line, "value")
        edges.append(
            (row["src_country"], row["src_sector"], row["dst_country"], row["dst_sector"], value, line)
        )
    if not edges:
        raise TableError(f"{path}: no edges for year {year}")

    labels = sorted(
        {(c, s) for c, s, _, _, _, _ in edges} | {(c, s) for _, _, c, s, _, _ in edges}
    )
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    seen: set[tuple[int, int]] = set()
    src_idx, dst_idx, values = [], [], []
    for sc, ss, dc, ds, value, line in edges:
        i, j = index[(sc, ss)], index[(dc, ds)]
        if (i, j) in seen:
            raise TableError(
                f"{path} row {line}: duplicate flow {sc}_{ss} -> {dc}_{ds} for year {year}"
            )
        seen.add((i, j))
        src_idx.append(i)
        dst_idx.append(j)
        values.append(value)

    Z = sparse.coo_matrix(
        (np.asarray(values, dtype=np.float64), (src_idx, dst_idx)), shape=(n, n)
    ).tocsr()
    Z.sort_indices()

    outflows = np.asarray(Z.sum(axis=1)).ravel()
    row_use = outflows.copy()

    if row_use_path is None:
        sibling = path.with_name("row_use.csv")
        row_use_path = sibling if sibling.exists() else None
    if row_use_path is not None:
        row_use_path = Path(row_use_path)
        seen_nodes: set[int] = set()
        for line, row in _read_rows(row_use_path, ROW_USE_COLUMNS):
            try:
                row_year = int(row["year"])
            except (TypeError, ValueError):
                raise TableError(f"{row_use_path} row {line}: bad year {row['year']!r}") from None
            if row_year != year:
                continue
            key = (row["country"], row["sector"])
            if key not in index:
                raise TableError(
                    f"{row_use_path} row {line}: unknown node {key[0]}_{key[1]} for year {year}"
                )
            i = index[key]
            if i in seen_nodes:
                raise TableError(
                    f"{row_use_path} row {line}: duplicate row-use entry for {key[0]}_{key[1]}"
                )
            seen_nodes.add(i)
            gross = _parse_value(row["gross_use"], row_use_path, line, "gross_use")
            # Gross row use bounds intermediate outflows from above; allow float fuzz.
            if gross < outflows[i] * (1.0 - 1e-12) - 1e-12:
                raise TableError(
                    f"{row_use_path} row {line}: gross_use {gross} below outflow total "
                    f"{outflows[i]} for {key[0]}_{key[1]}"
                )
            row_use[i] = max(gross, outflows[i])

    nodes = tuple(NodeId(c, s, i) for i, (c, s) in enumerate(labels))
    return IOTable(year=year, n=n, Z=Z, row_use_total=row_use, nodes=nodes)


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
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    weights = rng.lognormal(mean=0.0, sigma=_WEIGHT_SIGMA, size=(n, n))
    dense = np.where(mask, weights, 0.0)
    if not mask.any():
        dense[0, 1] = 1.0  # keep the table non-empty at extreme sparsity

    a = mean_leakage * _LEAKAGE_KAPPA
    b = (1.0 - mean_leakage) * _LEAKAGE_KAPPA
    leak = rng.beta(a, b, size=n)

    Z = sparse.csr_matrix(dense)
    Z.sort_indices()
    outflows = np.asarray(Z.sum(axis=1)).ravel()
    row_use = np.where(outflows > 0, outflows / leak, 0.0)

    nodes = tuple(NodeId(*_synthetic_label(i), i) for i in range(n))
    return IOTable(year=year, n=n, Z=Z, row_use_total=row_use, nodes=nodes)


def write_io_table(
    table: IOTable,
    flows_path: str | Path,
    row_use_path: str | Path | None = None,
) -> None:
    """Write a table back to flows/row-use CSVs, round-trip exact.

    Floats are written with repr so re-parsing reproduces the sparse
    structure bit for bit. The flows format names a node only through its
    flows, so a node without any raises TableError before either file is
    opened.
    """
    has_flow = np.diff(table.Z.indptr) > 0
    has_flow[table.Z.indices] = True
    if not has_flow.all():
        node = table.nodes[int(np.argmin(has_flow))]
        raise TableError(f"node {node.label} has no flows; the flows format cannot carry it")
    flows_path = Path(flows_path)
    coo = table.Z.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(flows_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FLOWS_COLUMNS)
        for k in order:
            src = table.nodes[coo.row[k]]
            dst = table.nodes[coo.col[k]]
            writer.writerow(
                [table.year, src.country, src.sector, dst.country, dst.sector, repr(float(coo.data[k]))]
            )
    if row_use_path is not None:
        with open(Path(row_use_path), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ROW_USE_COLUMNS)
            for nd in table.nodes:
                writer.writerow(
                    [table.year, nd.country, nd.sector, repr(float(table.row_use_total[nd.index]))]
                )

"""Reference flow-table parser built from a row-by-row csv.DictReader loop.

The package reads a flows CSV once into columns and validates it with array
comparisons. This module keeps the loop it replaced: one dict per row, each
check in row order, the first offending row named in the error. The
differential test in test_table_oracle.py requires the package to return a
bit-identical IOTable or to raise TableError with this module's message.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import sparse

from hallsand.ingest import FLOWS_COLUMNS, ROW_USE_COLUMNS, IOTable, NodeId, TableError


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
    path = Path(path)
    rows = _read_rows(path, FLOWS_COLUMNS)
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
    """Parse one year of a long-format flows CSV into an IOTable."""
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
        for column in FLOWS_COLUMNS[1:5]:
            if row[column] is None:  # a short row
                raise TableError(f"{path} row {line}: missing {column}")
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
            for column in ("country", "sector"):
                if row[column] is None:  # a short row
                    raise TableError(f"{row_use_path} row {line}: missing {column}")
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

    nodes = tuple(NodeId(c, s) for c, s in labels)
    return IOTable(year=year, Z=Z, row_use_total=row_use, nodes=nodes)

"""tail-fit's series reader, ingest.read_sizes, against the loop it replaced.

Generated series files carry a BOM, blank lines (also under a header that is
only S), quoted cells, \\r\\n line ends, short rows and extra cells, a
repeated S header, and bad sizes (2.7, nan, 1e19, empty, missing, -2). Both
readers must return the same sizes, or raise the same message.
"""

import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hallsand import ingest  # noqa: E402
from hallsand.ingest import TableError  # noqa: E402


def old_read_sizes(path: Path) -> np.ndarray:
    """The csv.reader loop the columnar reader replaced, kept as its reference."""
    if not path.exists():
        raise TableError(f"series file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or "S" not in header:
                raise TableError(f"{path}: missing S column")
            # of repeated header names the last counts, and blank lines are
            # skipped, as csv.DictReader reads them; a row is named by the
            # line the reader has reached, as flows.csv's errors name it
            col = len(header) - 1 - header[::-1].index("S")
            values = []
            for row in filter(None, reader):
                text = row[col] if col < len(row) else None  # a short row reads None
                try:
                    value = float(text)
                    if not value.is_integer() or abs(value) >= 2**63:  # also rejects nan and inf
                        raise ValueError
                except (TypeError, ValueError):
                    raise TableError(f"{path} row {reader.line_num}: bad S value {text!r}, not a 64-bit integer") from None
                if value < 0:
                    raise TableError(f"{path} row {reader.line_num}: negative S value {text!r}")
                values.append(int(value))
    except csv.Error as err:  # such as a cell longer than csv.field_size_limit()
        raise TableError(f"{path}: {err}") from None
    if not values:
        raise TableError(f"{path}: no rows")
    return np.asarray(values, dtype=np.int64)


HEADERS = [["S"], ["replication", "period", "S"], ["S", "x"], ["S", "period", "S"], ["a,b", "S"]]
GOOD = ["0", "3", "12", "7.0", "1e3", " 4 ", "9223372036854774784"]
BAD = ["2.7", "nan", "inf", "1e19", "", "x", "-2"]
# each bad size is one cell in many; hypothesis favours the ends of a range
SIZE = st.sampled_from(GOOD * 6 + BAD + GOOD * 6)
OTHER = st.sampled_from(["0", "0", "0", "1.5", "a,b", 'say "x"'])
# how a row is written: cells kept (all, one fewer, one extra; None for a
# blank line), and whether every cell is quoted; one draw per row
SHAPES = st.sampled_from([(0, False)] * 6 + [(0, True)] * 2 + [(-1, False), (1, False), (-1, True), (None, False)])


@st.composite
def series_files(draw):
    header = draw(st.sampled_from(HEADERS))
    other = draw(OTHER)  # the cell of every column but S
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        keep, quote = draw(SHAPES)
        if keep is None:
            lines.append("")
            continue
        row = [draw(SIZE) if name == "S" else other for name in header] + ["extra"]
        row = row[: max(1, len(header) + keep)]  # a short row, or one extra cell
        lines.append(",".join(_quoted(cell, quote) for cell in row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    text = bom + end.join([",".join(_quoted(name, False) for name in header), *lines])
    return text + (end if draw(st.booleans()) else "")


def _quoted(cell: str, always: bool) -> str:
    if always or any(c in cell for c in ',"'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _outcome(read, path: Path):
    try:
        sizes = read(path)
    except TableError as err:
        return str(err)
    assert sizes.dtype == np.int64
    return sizes.tolist()


@given(series_files(), st.integers(1, 4))
@example("S\n3\n\n4\n", 8)  # blank lines in a plain one-column chunk
@example("S\n3\n\n4\n", 1)
@example("S\n\n\n", 8)
@example("S,period,S\n1,0,2\n2\n", 8)
@example('S,x\n1,0\n\n2,"a\nb"\n\nx,0\n', 8)  # blank lines and a two-line cell before a bad size
@example('S\n1\n"2\n"\nx\n', 1)
@example("S\n3\n-2\nx\n", 1)  # a negative size, then a bad one: the first is named
@example("S\n3\nx\n-2\n", 1)
def test_series_reader_matches_the_old_loop(text, chunk_rows):
    with tempfile.TemporaryDirectory() as d, mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        path = Path(d) / "avalanches_x.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(ingest.read_sizes, path) == _outcome(old_read_sizes, path)

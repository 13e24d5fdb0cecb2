"""The columnar flow-table reader against the row-by-row one in table_oracle.py.

Generated flows and row-use files carry injected faults: bad, blank or
missing years; non-numeric, non-finite and negative values in the requested
year and in another; duplicate flows; short rows, extra cells and blank
lines; labels with commas, quotes and line breaks; a BOM, extra columns and
reordered headers; and unknown, duplicate, bad-year and below-outflow
row-use rows. parse_io_table and FlowPanel must return
bit-identical results or raise the same error with the same message.
"""

import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import table_oracle  # noqa: E402
from hallsand import ingest  # noqa: E402
from hallsand.ingest import (  # noqa: E402
    FLOWS_COLUMNS,
    ROW_USE_COLUMNS,
    FlowPanel,
    IOTable,
    NodeId,
    parse_io_table,
    write_io_table,
)

COUNTRIES = ["DEU", "USA", "A,B", 'Q"T', "X\nY", "L\r\nM", "é", ""]
SECTORS = ["AGR", "MAN", "S,1", 'S"2', "S\n3"]
# six nodes come up most, so that flows repeat
NODES = [(c, s) for c in COUNTRIES for s in SECTORS] + [(c, s) for c in COUNTRIES[:3] for s in SECTORS[:2]] * 3
NODE = st.sampled_from(NODES)
# nodes whose labels csv.writer writes unquoted
PLAIN_NODES = [(c, s) for c in ("DEU", "USA", "é", "") for s in SECTORS[:2]]


def pool(good, faults, k):
    """Cells in which each fault is one entry in many: k copies of good on either side.

    The faults sit in the middle because hypothesis favours the ends of a range.
    """
    return st.sampled_from(good * k + faults + good * k)


MOSTLY_PLAIN_NODE = pool(PLAIN_NODES, sorted(set(NODES) - set(PLAIN_NODES)), 8)
YEAR = pool(["2013", "2014"], ["x", "", "2014.0", " 2014 ", "2_014", "99999999999999999999"], 50)
VALUE = pool(
    [repr(v) for v in (1.5, 0.1, 0.2, 3e-5, 123456.789, 0.0, 2.0, 1e-300, 7.25, 1e6 / 3)],
    ["abc", "nan", "inf", "-inf", "-1.5", "-0.0", "", "1e400", " 2.5 "],
    6,
)
# 1.0 lies below most outflows, 1e9 above all of them
GROSS = pool(["1.0", "1e9", "123456789.5"], ["0.0", "-0.0", "abc", "nan", "-1", "1e-300"], 4)


def chance(k):
    """True about one time in k (a middle value: hypothesis favours the ends of a range)."""
    return st.integers(0, k - 1).map(lambda v: v == k // 2)


@st.composite
def header(draw, columns):
    names = draw(st.permutations(columns))
    if draw(chance(4)):
        names.insert(draw(st.integers(0, len(names))), "note")
    if draw(chance(6)):  # a repeated name: the last one counts
        names.append(draw(st.sampled_from(columns)))
    if draw(chance(40)):
        names.remove(draw(st.sampled_from(columns)))
    return names


@st.composite
def csv_text(draw, columns, rows):
    """A CSV of rows under a drawn header; rows may come out short, long or blank."""
    names = draw(header(columns))
    if draw(chance(40)):
        return ""  # an empty file
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(names)
    last = {name: k for k, name in enumerate(names)}
    for row in rows:
        row = {**row, "note": "n"}
        line = [row.get(name, "") if last[name] == k else "shadowed" for k, name in enumerate(names)]
        shape = draw(st.integers(0, 39))  # one row in 40 is short, one is long
        if shape == 20:  # an empty row is a blank line
            line = line[: draw(st.integers(0, len(line) - 1))]
        elif shape == 21:
            line.append("extra")
        writer.writerow(line)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + out.getvalue()


def flow_rows(node):
    return st.tuples(YEAR, node, node, VALUE).map(lambda r: dict(zip(FLOWS_COLUMNS, (r[0], *r[1], *r[2], r[3]))))


@st.composite
def tables(draw):
    """A flows CSV, and a row-use CSV (or None) whose rows mostly name a node of a flow, in its year."""
    # one file in two names mostly plain nodes, so that the reader's plain
    # chunks meet a quoted, blank or ragged one in the middle of the file
    node = draw(st.sampled_from([NODE, MOSTLY_PLAIN_NODE]))
    flows = draw(st.lists(flow_rows(node), min_size=1, max_size=8))
    row_use = []
    for k, end, gross in draw(
        st.lists(st.tuples(st.integers(0, len(flows) - 1), pool(["src", "dst"], ["FRA"], 3), GROSS), max_size=6)
    ):
        flow = flows[k]
        country, sector = ("FRA", "AGR") if end == "FRA" else (flow[f"{end}_country"], flow[f"{end}_sector"])
        row_use.append({"year": flow["year"], "country": country, "sector": sector, "gross_use": gross})
    return (
        draw(csv_text(FLOWS_COLUMNS, flows)),
        draw(st.one_of(csv_text(ROW_USE_COLUMNS, row_use), st.none())),
    )


def outcome(fn, *args, **kwargs):
    """What a call gives: a comparable image of its result, or its error type and message."""
    try:
        result = fn(*args, **kwargs)
    except (ValueError, TypeError) as err:
        return type(err).__name__, str(err)
    if not isinstance(result, IOTable):
        return result
    Z = result.Z
    return (
        result.year,
        result.n,
        result.nodes,
        Z.shape,
        *((a.dtype.str, a.tobytes()) for a in (Z.indptr, Z.indices, Z.data, result.row_use_total)),
    )


# no shrinking: a reader that diverges fails on its first generated
# counterexample in seconds, where shrinking these files takes minutes
@settings(max_examples=150, phases=[phase for phase in Phase if phase is not Phase.shrink])
@example(  # a row-use row below its node's outflow, after one at a zero outflow
    files=(
        "year,src_country,src_sector,dst_country,dst_sector,value\n2014,USA,AGR,DEU,MAN,3.0\n",
        "year,country,sector,gross_use\n2014,DEU,MAN,-0.0\n2014,USA,AGR,2.0\n",
    ),
    sibling=True,
    year=2014,
    chunk_rows=ingest._CHUNK_ROWS,
)
@given(
    files=tables(),
    sibling=st.booleans(),
    year=st.sampled_from([2013, 2014] * 3 + [2015] + [2013, 2014] * 3),  # 2015: no edges
    # small chunks let a read switch from split chunks to csv.reader mid-file
    chunk_rows=st.sampled_from([1, 2, 3, ingest._CHUNK_ROWS]),
)
def test_columnar_reader_matches_row_by_row_oracle(files, sibling, year, chunk_rows):
    flows, row_use = files
    with tempfile.TemporaryDirectory() as d, mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        flows_path = Path(d) / "flows.csv"
        flows_path.write_text(flows, encoding="utf-8", newline="")
        row_use_path = Path(d) / ("row_use.csv" if sibling else "uses.csv")
        if row_use is not None:
            row_use_path.write_text(row_use, encoding="utf-8", newline="")
        # no file and no sibling: an explicit path that names no file
        given_path = None if sibling else row_use_path
        years = outcome(lambda p: FlowPanel(p).years(), str(flows_path))
        assert years == outcome(table_oracle.list_years, str(flows_path))
        expected = {
            y: outcome(table_oracle.parse_io_table, flows_path, y, row_use_path=given_path)
            for y in (2013, 2014, year)
        }
        assert outcome(parse_io_table, flows_path, year, row_use_path=given_path) == expected[year]
        # network-panel's path: one read serves every year, in any order
        try:
            panel = FlowPanel(flows_path, row_use_path=given_path)
        except ValueError as err:
            assert ("TableError", str(err)) == expected[year]
            return
        for y in (2014, year, 2013):
            assert outcome(panel.table, y) == expected[y]


def test_node_order_matches_the_oracle_on_a_two_year_table(tmp_path):
    # 2014: first-seen, source-then-destination and sorted node orders all
    # differ; "" and ZZZ are countries only destinations name; DE is a prefix
    # of DEU; AGR and DEU are a country in one row and a sector in another.
    # 2013's nodes are a strict subset of 2014's.
    flows = tmp_path / "flows.csv"
    flows.write_text(
        "year,src_country,src_sector,dst_country,dst_sector,value\n"
        "2014,USA,MAN,DEU,AGR,1.0\n"
        "2013,DEU,AGR,USA,MAN,1.5\n"
        "2014,DEU,MAN,,AGR,2.0\n"
        "2014,DE,AGR,USA,MAN,3.0\n"
        "2013,USA,MAN,DEU,AGR,2.5\n"
        "2014,AGR,DEU,ZZZ,X,4.0\n"
        "2014,DEU,AGR,DE,AGR,0.5\n"
    )
    (tmp_path / "row_use.csv").write_text(
        "year,country,sector,gross_use\n2014,,AGR,10.0\n2014,AGR,DEU,10.0\n2013,USA,MAN,5.0\n"
    )
    expected = {year: outcome(table_oracle.parse_io_table, flows, year) for year in (2013, 2014)}
    assert expected[2014][2] == tuple(
        NodeId(c, s)
        for c, s in [("", "AGR"), ("AGR", "DEU"), ("DE", "AGR"), ("DEU", "AGR"), ("DEU", "MAN"), ("USA", "MAN"), ("ZZZ", "X")]
    )
    assert expected[2013][2] == (NodeId("DEU", "AGR"), NodeId("USA", "MAN"))
    panel = FlowPanel(flows)
    for year in (2014, 2013):
        assert outcome(parse_io_table, flows, year) == expected[year]
        assert outcome(panel.table, year) == expected[year]


def _row_by_row_write(table, flows_path, row_use_path):
    """The writer before columnar output: csv.writer per row, repr per float."""
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
    with open(row_use_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_USE_COLUMNS)
        for nd, total in zip(table.nodes, table.row_use_total):
            writer.writerow([table.year, nd.country, nd.sector, repr(float(total))])


def test_writer_quotes_labels_like_csv_writer(tmp_path):
    labels = sorted(
        [("A,B", "x"), ('Q"T', "y,z"), ("X\nY", 'S"1'), ("L\r\nM", ""), ("plain", "AGR"), ("é", "\n")]
    )
    n = len(labels)
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, (i + 1) % n] = 1.5 * (i + 1)
        dense[i, (i + 3) % n] = 1e-300 * (i + 1)
    dense[2, 2] = 0.1 + 0.2
    Z = sparse.csr_matrix(dense)
    row_use = np.asarray(Z.sum(axis=1)).ravel() * (1.0 + 1 / 3)
    nodes = tuple(NodeId(c, s) for c, s in labels)
    table = IOTable(year=2014, Z=Z, row_use_total=row_use, nodes=nodes)

    write_io_table(table, tmp_path / "flows.csv", tmp_path / "row_use.csv")
    _row_by_row_write(table, tmp_path / "old_flows.csv", tmp_path / "old_row_use.csv")
    assert (tmp_path / "flows.csv").read_bytes() == (tmp_path / "old_flows.csv").read_bytes()
    assert (tmp_path / "row_use.csv").read_bytes() == (tmp_path / "old_row_use.csv").read_bytes()

    back = parse_io_table(tmp_path / "flows.csv", 2014, row_use_path=tmp_path / "row_use.csv")
    assert back.nodes == nodes
    for a, b in ((back.Z.indptr, Z.indptr), (back.Z.indices, Z.indices), (back.Z.data, Z.data)):
        assert a.tobytes() == b.tobytes()
    assert back.row_use_total.tobytes() == row_use.tobytes()

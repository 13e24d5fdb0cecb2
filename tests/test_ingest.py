import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

import table_oracle
from hallsand import ingest
from hallsand.ingest import (
    _LEAKAGE_KAPPA,
    _WEIGHT_SIGMA,
    DEFAULT_MEAN_LEAKAGE,
    FlowPanel,
    IOTable,
    NodeId,
    TableError,
    parse_io_table,
    synth_substrate,
    write_io_table,
)

FLOWS_HEADER = "year,src_country,src_sector,dst_country,dst_sector,value\n"
ROW_USE_HEADER = "year,country,sector,gross_use\n"


def write_flows(tmp_path, body, name="flows.csv", header=FLOWS_HEADER):
    p = tmp_path / name
    p.write_text(header + body)
    return p


def test_parse_basic_two_node(tmp_path):
    p = write_flows(
        tmp_path,
        "2014,USA,AGR,DEU,MAN,3.0\n2014,DEU,MAN,USA,AGR,1.5\n",
    )
    table = parse_io_table(p, 2014)
    assert table.n == 2
    assert table.year == 2014
    # lexicographic (country, sector) ordering puts DEU before USA
    assert [nd.label for nd in table.nodes] == ["DEU_MAN", "USA_AGR"]
    Z = table.Z.toarray()
    at = {(nd.country, nd.sector): i for i, nd in enumerate(table.nodes)}
    assert Z[at["USA", "AGR"], at["DEU", "MAN"]] == 3.0
    assert Z[at["DEU", "MAN"], at["USA", "AGR"]] == 1.5
    # no row-use file: gross use defaults to the outflow sums
    np.testing.assert_array_equal(table.row_use_total, table.outflow_totals())


def test_parse_filters_year(tmp_path):
    p = write_flows(
        tmp_path,
        "2013,USA,AGR,DEU,MAN,9.0\n2014,USA,AGR,DEU,MAN,3.0\n",
    )
    table = parse_io_table(p, 2014)
    assert table.total_flow() == 3.0
    assert FlowPanel(p).years() == [2013, 2014]


def test_parse_missing_column(tmp_path):
    p = tmp_path / "flows.csv"
    p.write_text("year,src_country,value\n2014,USA,1.0\n")
    with pytest.raises(TableError):
        parse_io_table(p, 2014)


def test_parse_rejects_negative_value(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,-2.0\n")
    with pytest.raises(TableError, match="row 2"):
        parse_io_table(p, 2014)


def test_parse_rejects_non_numeric_value(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,abc\n")
    with pytest.raises(TableError, match="row 2"):
        parse_io_table(p, 2014)


def test_parse_rejects_non_finite_value(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,inf\n")
    with pytest.raises(TableError):
        parse_io_table(p, 2014)


def test_parse_rejects_duplicate_edge(tmp_path):
    p = write_flows(
        tmp_path,
        "2014,USA,AGR,DEU,MAN,1.0\n2014,USA,AGR,DEU,MAN,2.0\n",
    )
    with pytest.raises(TableError, match="duplicate"):
        parse_io_table(p, 2014)


def test_parse_refuses_a_repeated_zero_flow(tmp_path):
    # the CSR build keeps a lone zero flow stored, and both repeats as one
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,1.0\n2014,DEU,MAN,USA,AGR,0.0\n")
    assert parse_io_table(p, 2014).Z.nnz == 2
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,1.0\n2014,DEU,MAN,USA,AGR,0.0\n2014,DEU,MAN,USA,AGR,0.0\n")
    with pytest.raises(TableError, match=r"flows\.csv row 4: duplicate flow DEU_MAN -> USA_AGR for year 2014$"):
        parse_io_table(p, 2014)


def test_parse_empty_year(tmp_path):
    p = write_flows(tmp_path, "2013,USA,AGR,DEU,MAN,1.0\n")
    with pytest.raises(TableError, match="no edges"):
        parse_io_table(p, 2013 + 1)


# value first, so a short row can end before its labels do
VALUE_FIRST_HEADER = "year,value,src_country,src_sector,dst_country,dst_sector\n"


@pytest.mark.parametrize(
    "extra",
    ["", "2014,2.0,USA,AGR,DEU,AGR\n", "2014,2.0,FRA,AGR,DEU,AGR\n"],
    ids=["renamed-node", "second-usa-sector", "second-fra-sector"],
)
def test_parse_refuses_a_missing_label(tmp_path, extra):
    body = "2014,1.5,DEU,AGR,FRA\n2014,2.0,USA,MAN,DEU,AGR\n" + extra
    p = write_flows(tmp_path, body, header=VALUE_FIRST_HEADER)
    with pytest.raises(TableError, match=r"flows\.csv row 2: missing dst_sector$"):
        parse_io_table(p, 2014)


def test_parse_leaves_a_missing_label_in_another_year_unchecked(tmp_path):
    p = write_flows(tmp_path, "2013,1.5,DEU,AGR,FRA\n2014,2.0,USA,MAN,DEU,AGR\n", header=VALUE_FIRST_HEADER)
    table = parse_io_table(p, 2014)
    assert [nd.label for nd in table.nodes] == ["DEU_AGR", "USA_MAN"]
    assert FlowPanel(p).years() == [2013, 2014]
    with pytest.raises(TableError, match="row 2: missing dst_sector"):
        parse_io_table(p, 2013)


def test_parse_tolerates_utf8_bom(tmp_path):
    p = tmp_path / "flows.csv"
    p.write_bytes(b"\xef\xbb\xbf" + (FLOWS_HEADER + "2014,USA,AGR,DEU,MAN,1.0\n").encode())
    table = parse_io_table(p, 2014)
    assert table.n == 2


def test_row_use_companion(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,3.0\n2014,DEU,MAN,USA,AGR,1.5\n")
    r = tmp_path / "row_use.csv"
    r.write_text(ROW_USE_HEADER + "2014,USA,AGR,12.0\n2014,DEU,MAN,3.0\n")
    # sibling row_use.csv is discovered without being named explicitly
    table = parse_io_table(p, 2014)
    at = {(nd.country, nd.sector): i for i, nd in enumerate(table.nodes)}
    assert table.row_use_total[at["USA", "AGR"]] == 12.0
    assert table.row_use_total[at["DEU", "MAN"]] == 3.0


def test_row_use_unknown_node(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,3.0\n")
    r = tmp_path / "uses.csv"
    r.write_text(ROW_USE_HEADER + "2014,FRA,AGR,5.0\n")
    with pytest.raises(TableError, match="unknown node"):
        parse_io_table(p, 2014, row_use_path=r)


def test_row_use_below_outflow(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,3.0\n")
    r = tmp_path / "uses.csv"
    r.write_text(ROW_USE_HEADER + "2014,USA,AGR,2.0\n")
    with pytest.raises(TableError, match="below outflow"):
        parse_io_table(p, 2014, row_use_path=r)


def test_row_use_duplicate_entry(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,3.0\n")
    r = tmp_path / "uses.csv"
    r.write_text(ROW_USE_HEADER + "2014,USA,AGR,5.0\n2014,USA,AGR,6.0\n")
    with pytest.raises(TableError, match="duplicate row-use"):
        parse_io_table(p, 2014, row_use_path=r)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_synth_round_trip_exact(tmp_path, seed):
    table = synth_substrate(12, 0.3, seed)
    fp = tmp_path / "flows.csv"
    rp = tmp_path / "uses.csv"
    write_io_table(table, fp, rp)
    back = parse_io_table(fp, table.year, row_use_path=rp)
    assert back.n == table.n
    assert (back.Z != table.Z).nnz == 0
    np.testing.assert_array_equal(back.row_use_total, table.row_use_total)
    assert [nd.label for nd in back.nodes] == [nd.label for nd in table.nodes]


def test_writer_output_is_read_without_csv_reader(tmp_path):
    # LF line ends and unquoted codes keep every data row off csv.reader;
    # seven-row chunks make the read cross many chunk boundaries
    table = synth_substrate(40, 0.2, 3)
    write_io_table(table, tmp_path / "flows.csv", tmp_path / "row_use.csv")
    real_reader = csv.reader
    read = []

    def counting_reader(lines, *args, **kwargs):
        for row in real_reader(lines, *args, **kwargs):
            read.append(row)
            yield row

    with mock.patch.object(ingest.csv, "reader", counting_reader), mock.patch.object(ingest, "_CHUNK_ROWS", 7):
        back = parse_io_table(tmp_path / "flows.csv", table.year)
    assert read == [list(ingest.FLOWS_COLUMNS), list(ingest.ROW_USE_COLUMNS)]
    assert back.nodes == table.nodes
    for a, b in ((back.Z.indptr, table.Z.indptr), (back.Z.indices, table.Z.indices), (back.Z.data, table.Z.data)):
        assert a.tobytes() == b.tobytes()
    assert back.row_use_total.tobytes() == table.row_use_total.tobytes()


def _traced_panel(path):
    """A FlowPanel of path, and the traced bytes it holds and its read's peak beyond them."""
    tracemalloc.start()
    try:
        panel = FlowPanel(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return panel, held, peak - held


def test_reader_holds_tens_of_bytes_per_row_and_a_chunk_of_text(tmp_path):
    # equal-width cells give every chunk the same text, so what the read
    # holds beyond its result is the same at any row count; 53,248 and
    # 12,288 rows are whole chunks of 1,024 lines
    held, spare = {}, {}
    for rows in (53_248, 12_288):
        body = "".join(f"2014,C{i % 256:03d},S,C{i // 256:03d},S,{i + 10**5}.25\n" for i in range(rows))
        panel, held[rows], spare[rows] = _traced_panel(write_flows(tmp_path, body))
        assert len(panel._flows) == rows
    # a float and five codes per row, and the spare capacity of their growth
    assert held[53_248] <= 32 * 53_248
    # a column joined from per-chunk parts would add 4-8 bytes per row here
    assert spare[53_248] - spare[12_288] < 53_248 - 12_288
    assert panel.table(2014).total_flow() == sum(i + 10**5 + 0.25 for i in range(12_288))


def test_table_build_makes_under_90_bytes_per_flow(tmp_path):
    # about 100k flows on 2,464 nodes, a tenth of the flows a WIOD year's
    # table can have; the peak counts Z and every temporary of the build
    table = synth_substrate(2464, 0.0165, 3)
    write_io_table(table, tmp_path / "flows.csv")
    panel = FlowPanel(tmp_path / "flows.csv")
    tracemalloc.start()
    try:
        built = panel.table(table.year)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.Z.nnz == table.Z.nnz > 95_000
    assert peak <= 90 * built.Z.nnz


@pytest.fixture(scope="module")
def table_99k(tmp_path_factory):
    """synth_substrate's 99,533-flow table on 2,464 nodes, and its flows file."""
    table = synth_substrate(2464, 0.0165, 3)
    path = tmp_path_factory.mktemp("table_99k") / "flows.csv"
    write_io_table(table, path)
    return table, path


def test_reader_holds_a_wiod_like_row_in_15_bytes(tmp_path):
    # WIOD's 44 countries, 56 sectors and 15 years fit one-byte codes: a
    # float and five bytes of codes per row, and the spare room of their growth
    body = "".join(
        f"{2000 + k % 15},C{k % 44:02d},S{k // 44 % 56:02d},C{k // 7 % 44:02d},S{k % 56:02d},{k}.5\n"
        for k in range(61_440)
    )
    panel, held, _ = _traced_panel(write_flows(tmp_path, body))
    assert len(panel._flows) == 61_440
    assert held <= 15 * 61_440


def test_table_build_makes_under_50_bytes_per_flow(table_99k):
    table, path = table_99k
    panel = FlowPanel(path)
    tracemalloc.start()
    try:
        built = panel.table(table.year)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.Z.nnz == table.Z.nnz
    assert peak <= 50 * built.Z.nnz


def test_codes_widen_where_a_column_outgrows_its_type(tmp_path):
    # seven-line chunks: src_country's 300 labels pass 256 inside a chunk
    body = [f"2014,C{k:03d},S,D{k % 5},S,{k}.5\n" for k in range(300)]
    good = write_flows(tmp_path, "".join(body), name="good.csv")
    body[280] = "2014,C280,S,D0,S,x\n"
    bad = write_flows(tmp_path, "".join(body), name="bad.csv")
    with mock.patch.object(ingest, "_CHUNK_ROWS", 7):
        assert FlowPanel(good)._flows.coded["src_country"][0].dtype == np.uint16
        back, expected = parse_io_table(good, 2014), table_oracle.parse_io_table(good, 2014)
        with pytest.raises(TableError, match=r"bad\.csv row 282: non-numeric value 'x'$"):
            parse_io_table(bad, 2014)
    assert back.nodes == expected.nodes
    for a, b in ((back.Z.indptr, expected.Z.indptr), (back.Z.indices, expected.Z.indices), (back.Z.data, expected.Z.data)):
        assert a.tobytes() == b.tobytes()


def test_sizes_come_back_exact_past_65536_distinct(tmp_path):
    # thousand-line chunks: the 65,537th distinct size arrives inside a chunk
    sizes = [str(k) for k in range(70_000)]
    good = tmp_path / "avalanches_good.csv"
    good.write_text("S\n" + "\n".join(sizes) + "\n")
    sizes[69_000] = "x"
    bad = tmp_path / "avalanches_bad.csv"
    bad.write_text("S\n" + "\n".join(sizes) + "\n")
    with mock.patch.object(ingest, "_CHUNK_ROWS", 1000):
        assert ingest._read_rows(good, ("S",)).coded["S"][0].dtype == np.int32
        np.testing.assert_array_equal(ingest.read_sizes(good), np.arange(70_000))
        with pytest.raises(TableError, match=r"avalanches_bad\.csv row 69002: bad S value 'x', not a 64-bit integer$"):
            ingest.read_sizes(bad)


def test_writer_holds_no_array_as_long_as_the_flows(table_99k):
    # beside a ring of 2,464 flows on the same nodes, the 99k-flow table may
    # raise the writer's traced peak by under a byte per added flow
    table, path = table_99k
    n = table.n
    ring = IOTable(
        year=table.year,
        Z=sparse.csr_matrix((table.Z.data[:n], (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n)),
        row_use_total=table.row_use_total,
        nodes=table.nodes,
    )
    peaks = {}
    for t in (table, ring):
        tracemalloc.start()
        try:
            write_io_table(t, path.with_name(f"written_{t.Z.nnz}.csv"))
            peaks[t.Z.nnz] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[table.Z.nnz] - peaks[n] < table.Z.nnz - n


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["split", "csv-reader"])
@pytest.mark.parametrize(
    "cell, fault",
    [("x", "non-numeric value 'x'"), ("inf", "non-finite value 'inf'"), ("-1", "negative value -1.0")],
    ids=["non-numeric", "non-finite", "negative"],
)
def test_bad_value_after_a_chunk_boundary_names_its_line_and_text(tmp_path, line_end, cell, fault):
    # a CR sends the whole file through csv.reader; the bad cell opens the second chunk
    lines = [f"2014,C{i},S,D,S,{cell if i == 7 else i}" for i in range(10)]
    p = tmp_path / "flows.csv"
    p.write_bytes(line_end.join([FLOWS_HEADER.rstrip("\n"), *lines, ""]).encode())
    with mock.patch.object(ingest, "_CHUNK_ROWS", 7):
        panel = FlowPanel(p)
        with pytest.raises(TableError, match=rf"flows\.csv row 9: {fault}$"):
            panel.table(2014)


def test_line_beyond_the_csv_field_limit_fails_as_csv_reader_does(tmp_path):
    p = write_flows(tmp_path, "2014,USA,AGR,DEU,MAN,1.0\n2014," + "X" * 40 + ",AGR,DEU,MAN,1.0\n")
    limit = csv.field_size_limit(30)
    try:
        with pytest.raises(TableError, match=r"flows\.csv: field larger than field limit"):
            parse_io_table(p, 2014)
    finally:
        csv.field_size_limit(limit)


def test_synth_deterministic():
    a = synth_substrate(30, 0.2, 42)
    b = synth_substrate(30, 0.2, 42)
    assert (a.Z != b.Z).nnz == 0
    np.testing.assert_array_equal(a.row_use_total, b.row_use_total)


def test_synth_leakage_mean_near_target():
    table = synth_substrate(400, 0.1, 3)
    out = table.outflow_totals()
    pos = out > 0
    leak = out[pos] / table.row_use_total[pos]
    assert abs(leak.mean() - DEFAULT_MEAN_LEAKAGE) < 0.03
    assert leak.max() <= 1.0 + 1e-12


def test_synth_custom_leakage_mean():
    table = synth_substrate(400, 0.1, 3, mean_leakage=0.22)
    out = table.outflow_totals()
    pos = out > 0
    leak = out[pos] / table.row_use_total[pos]
    assert abs(leak.mean() - 0.22) < 0.03


def test_synth_row_use_bounds_outflow():
    table = synth_substrate(50, 0.2, 9)
    out = table.outflow_totals()
    assert np.all(table.row_use_total >= out - 1e-12)


def test_synth_rejects_bad_args():
    with pytest.raises(ValueError):
        synth_substrate(1, 0.5, 0)
    with pytest.raises(ValueError):
        synth_substrate(10, 0.0, 0)
    with pytest.raises(ValueError):
        synth_substrate(10, 0.5, 0, mean_leakage=1.0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        synth_substrate(10, 0.5, -1)


def _dense_synth(n, density, seed, mean_leakage=DEFAULT_MEAN_LEAKAGE):
    """synth_substrate's former formula, with every n x n draw held at once."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    weights = rng.lognormal(mean=0.0, sigma=_WEIGHT_SIGMA, size=(n, n))
    dense = np.where(mask, weights, 0.0)
    if not mask.any():
        dense[0, 1] = 1.0
    leak = rng.beta(mean_leakage * _LEAKAGE_KAPPA, (1.0 - mean_leakage) * _LEAKAGE_KAPPA, size=n)
    Z = sparse.csr_matrix(dense)
    Z.sort_indices()
    outflows = np.asarray(Z.sum(axis=1)).ravel()
    return Z, np.where(outflows > 0, outflows / leak, 0.0)


@pytest.mark.parametrize(
    "n, density, seed",
    [
        (300, 0.3, 3),  # a last block shorter than the others
        (512, 0.05, 4),  # blocks of equal rows
        (300, 1.0, 5),
        (9, 1.0, 6),
        (2, 1e-12, 0),  # an empty mask: the table keeps one unit flow
        (40, 1e-12, 1),
    ],
)
def test_synth_blocks_match_the_dense_formula(n, density, seed):
    table = synth_substrate(n, density, seed)
    Z, row_use = _dense_synth(n, density, seed)
    for got, want in ((table.Z.indptr, Z.indptr), (table.Z.indices, Z.indices), (table.Z.data, Z.data)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert table.row_use_total.tobytes() == row_use.tobytes()


def test_table_holds_z_in_canonical_form():
    # unsorted columns and a repeated entry, which the operators and the HHIs
    # would otherwise scale and square one stored entry at a time
    Z = sparse.csr_matrix((np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), np.array([0, 3, 3])), shape=(2, 2))
    nodes = (NodeId("A", "S"), NodeId("B", "S"))
    table = IOTable(year=2014, Z=Z, row_use_total=np.array([6.0, 0.0]), nodes=nodes)
    assert table.Z.has_canonical_format
    assert table.Z.indices.tolist() == [0, 1]
    assert table.Z.data.tolist() == [2.0, 4.0]
    assert Z.indices.tolist() == [1, 0, 1]  # the caller's matrix is left as it was
    canonical = synth_substrate(5, 0.5, 1)
    assert IOTable(2014, canonical.Z, canonical.row_use_total, canonical.nodes).Z is canonical.Z


@pytest.mark.parametrize(
    "row_use, message",
    [
        ([1.0, np.nan], "node B_S: row_use_total must be finite and non-negative, got nan"),
        ([np.inf, 1.0], "node A_S: row_use_total must be finite and non-negative, got inf"),
        ([1.0, -2.0], "node B_S: row_use_total must be finite and non-negative, got -2.0"),
        ([1.0], "row_use_total must hold one value for each of the 2 nodes, got shape (1,)"),
        ([[1.0, 1.0]], "row_use_total must hold one value for each of the 2 nodes, got shape (1, 2)"),
    ],
    ids=["nan", "inf", "negative", "short", "2-d"],
)
def test_table_refuses_a_row_use_total_that_is_not_one_finite_value_per_node(row_use, message):
    Z = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
        IOTable(2014, Z, np.array(row_use), (NodeId("A", "S"), NodeId("B", "S")))

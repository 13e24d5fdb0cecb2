"""Generated-input round trip of the flows/row-use writer and parser.

write_io_table either refuses a table with a node that has no flows, before
it writes anything, or writes files that parse_io_table reads back bit for
bit.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hallsand.ingest import TableError, parse_io_table, synth_substrate, write_io_table  # noqa: E402


@given(
    n=st.integers(2, 40),
    density=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    mean_leakage=st.floats(0.01, 0.99),
    year=st.integers(1900, 2100),
)
def test_write_parse_round_trip_or_refusal(n, density, seed, mean_leakage, year):
    table = synth_substrate(n, density, seed, year=year, mean_leakage=mean_leakage)
    Z = table.Z
    has_flow = [Z[i].nnz > 0 or Z[:, i].nnz > 0 for i in range(n)]
    with tempfile.TemporaryDirectory() as d:
        flows, row_use = Path(d) / "flows.csv", Path(d) / "row_use.csv"
        try:
            write_io_table(table, flows, row_use)
        except TableError as err:
            m = re.search(r"node (\S+) has no flows", str(err))
            assert m is not None, str(err)
            assert m.group(1) == table.nodes[has_flow.index(False)].label
            assert not flows.exists() and not row_use.exists()
            return
        assert all(has_flow)
        back = parse_io_table(flows, year, row_use_path=row_use)
    assert back.n == n
    assert [nd.label for nd in back.nodes] == [nd.label for nd in table.nodes]
    np.testing.assert_array_equal(back.Z.indptr, Z.indptr)
    np.testing.assert_array_equal(back.Z.indices, Z.indices)
    assert back.Z.data.tobytes() == Z.data.tobytes()
    assert back.row_use_total.tobytes() == table.row_use_total.tobytes()

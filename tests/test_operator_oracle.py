"""The operator and exposure constructions against the ones they replaced.

build_operator scales Z's stored values row by row on Z's own structure,
prepare_substrate does so in Z's own arrays and gives the same bytes, compute_exposure sums their squares a block of rows at a time and derives D
and C in one pass, and _cyclic_components decides a strongly connected
matrix by two reachability sweeps. Each must give the same bytes as its
reference, kept here: diags(scale) @ Z (row-share, leakage-adjusted) and
Z * c (max-row) with sorted indices, the sums of Z.multiply(Z), the
stand-alone redundancy and capacity formulas, and scipy.sparse.csgraph's
strong components.

The drawn tables have explicit zero flows, rows without outflows, and flows
so small that their scaled or squared values underflow to 0; the drawn
structures are strongly connected or reducible, a lone node with and
without a self-loop, a source or sink node hung on a strongly connected
core, with stored zeros and with inf and nan weights. The matrices for the
square sums add flows whose squares overflow, full rows and columns, and
empty ones, summed in blocks of a few entries.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hallsand.experiments import prepare_substrate  # noqa: E402
from hallsand.exposure import DEFAULT_FLOOR, ExposureProfile, compute_exposure  # noqa: E402
from hallsand.ingest import IOTable, NodeId  # noqa: E402
from hallsand import exposure, operators  # noqa: E402
from hallsand.operators import OperatorKind, _cyclic_components, build_operator, leakage_profile  # noqa: E402

from conftest import table_from_dense  # noqa: E402


def reference_cyclic_components(matrix):
    """_cyclic_components as it was: every matrix through csgraph."""
    struct = matrix
    if (matrix.data == 0).any():
        struct = matrix.copy()
        struct.eliminate_zeros()
    if struct.nnz == 0:
        return []
    n_comp, labels = csgraph.connected_components(struct, directed=True, connection="strong")
    loops = np.bincount(labels, weights=struct.diagonal() != 0, minlength=n_comp)
    cyclic = (np.bincount(labels, minlength=n_comp) > 1) | (loops > 0)
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(cyclic)]


def reference_operator_matrix(table, kind):
    """build_operator's matrix as it was: a sparse product or a scalar multiple."""
    Z = table.Z
    row_totals = table.outflow_totals()
    if kind is OperatorKind.ROW_SHARE:
        scale = np.divide(1.0, row_totals, out=np.zeros(table.n), where=row_totals > 0)
        matrix = sparse.diags(scale) @ Z
    elif kind is OperatorKind.LEAKAGE_ADJUSTED:
        leak = leakage_profile(table)
        scale = np.divide(leak, row_totals, out=np.zeros(table.n), where=row_totals > 0)
        matrix = sparse.diags(scale) @ Z
    else:
        max_row = row_totals.max()
        matrix = Z * (1.0 / max_row) if max_row > 0 else Z * 0.0
    matrix = sparse.csr_matrix(matrix)
    matrix.sort_indices()
    return matrix


def reference_square_sums(Z, axis):
    """The sums of Z's squared flows as they were: from Z.multiply(Z)."""
    return np.asarray(Z.multiply(Z).sum(axis=axis)).ravel()


def reference_hhi(totals, Z, axis):
    """The HHIs as they were: from Z.multiply(Z)."""
    sq = reference_square_sums(Z, axis)
    hhi = np.zeros(totals.size)
    pos = totals > 0
    hhi[pos] = sq[pos] / (totals[pos] * totals[pos])
    return hhi


def reference_redundancy(hhi, pos, floor=DEFAULT_FLOOR):
    """D as it was computed on its own: min-max scaled (1 - HHI) / HHI."""
    D = np.full(hhi.size, floor)
    if not pos.any():
        return D
    raw = (1.0 - hhi[pos]) / hhi[pos]
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        D[pos] = floor + (1.0 - floor) * (raw - lo) / (hi - lo)
    return D


def reference_capacity(hhi, pos, floor=DEFAULT_FLOOR):
    """C as it was computed on its own: 1 - HHI, floored."""
    C = np.full(hhi.size, floor)
    C[pos] = np.maximum(floor, 1.0 - hhi[pos])
    return C


def same_csr(got, want):
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# 5e-324 and 1e-320 underflow to 0 once scaled by a share; 1e-170 once squared
FLOW = st.sampled_from([0.0, 5e-324, 1e-320, 1e-170, 1e-9, 0.25, 1.0, 3.7, 1e6, 2.5e140])


@st.composite
def tables(draw):
    n = draw(st.integers(1, 20))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), FLOW, max_size=4 * n))
    # full rows: scipy sums a row of more than 8 terms in 8 interleaved partial
    # sums, so there a stored 0 moves the later terms to other partial sums
    full = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    for row in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        cells.update({(row, j): draw(full) for j in range(n)})
    # rows without outflows: no stored entry, or only stored zeros
    for row in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        cells = {(i, j): (0.0 if i == row else v) for (i, j), v in cells.items()}
    # a tiny flow sits in a row and a column with a flow of 1e-9 or more: a
    # total that is itself subnormal gives a row share of inf, and one that
    # squares to 0 a reference HHI of nan
    big = [cell for cell, v in cells.items() if v >= 1e-9]
    big_rows, big_cols = {i for i, _ in big}, {j for _, j in big}
    cells = {(i, j): (v if v >= 1e-9 or (i in big_rows and j in big_cols) else 0.0) for (i, j), v in cells.items()}
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    Z = sparse.csr_matrix((list(cells.values()), (rows, cols)), shape=(n, n))
    outflows = np.asarray(Z.sum(axis=1)).ravel()
    headroom = np.array(draw(st.lists(st.sampled_from([1.0, 1.25, 3.0]), min_size=n, max_size=n)))
    nodes = tuple(NodeId(f"C{i}", "S") for i in range(n))
    return IOTable(year=2014, Z=Z, row_use_total=outflows * headroom, nodes=nodes)


def z_bytes(table):
    return [a.tobytes() for a in (table.Z.data, table.Z.indices, table.Z.indptr)]


# blocks of a few entries: a table spans many, and a row longer than a block
# is a block of its own
BLOCK = st.integers(1, 8)


@settings(max_examples=100)
@given(tables(), BLOCK)
def test_operators_and_exposure_match_reference_constructions(table, block):
    before = z_bytes(table)
    # The radius is a function of the matrix's bytes, and on these badly scaled
    # tables power iteration can take millions of steps, so it is not computed.
    with mock.patch.object(operators, "spectral_radius", lambda matrix: 0.0), \
            mock.patch.object(exposure, "_BLOCK_ENTRIES", block):
        ops = {kind: build_operator(table, kind) for kind in OperatorKind}
        for kind, op in ops.items():
            same_csr(op.matrix, reference_operator_matrix(table, kind))
        if table.total_flow() <= 0:
            return  # no flow shares: compute_exposure and prepare_substrate refuse the table
        prof = compute_exposure(table)
        # prepare_substrate takes its table and scales the flows in its arrays
        for kind, op in ops.items():
            sub = prepare_substrate(dataclasses.replace(table, Z=table.Z.copy()), kind)
            same_csr(sub.operator.matrix, op.matrix)
            for field in dataclasses.fields(ExposureProfile):
                assert getattr(sub.exposure, field.name).tobytes() == getattr(prof, field.name).tobytes()
    # the operators share Z's index arrays, and nothing writes to them
    assert z_bytes(table) == before
    outflows, inflows = table.outflow_totals(), table.inflow_totals()
    hhi_out, hhi_in = reference_hhi(outflows, table.Z, 1), reference_hhi(inflows, table.Z, 0)
    assert prof.HHI_out.tobytes() == hhi_out.tobytes()
    assert prof.HHI_in.tobytes() == hhi_in.tobytes()
    assert prof.D.tobytes() == reference_redundancy(hhi_out, outflows > 0).tobytes()
    assert prof.C.tobytes() == reference_capacity(hhi_in, inflows > 0).tobytes()


# squares of 0 (stored zeros, subnormal and tiny flows), normal squares, and
# squares of inf (flows above 1e154)
SQUARED = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-170, 1e-9, 0.25, 1.0, 3.7, 1e6, 1e155, 1e200]),
    st.floats(1e-3, 1e3),
)


@st.composite
def flow_matrices(draw):
    n = draw(st.integers(1, 20))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), SQUARED, max_size=4 * n))
    # full rows of more than 8 terms, which np.add.reduceat sums pairwise, and
    # full columns, whose order of summation shows in the bits
    for row in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        cells.update({(row, j): draw(SQUARED) for j in range(n)})
    for col in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        cells.update({(i, col): draw(SQUARED) for i in range(n)})
    # empty rows and columns: no stored entry
    lines = st.sets(st.integers(0, n - 1), max_size=2)
    empty_rows, empty_cols = draw(lines), draw(lines)
    cells = {(i, j): v for (i, j), v in cells.items() if i not in empty_rows and j not in empty_cols}
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    Z = sparse.csr_matrix((list(cells.values()), (rows, cols)), shape=(n, n))
    assert Z.has_canonical_format  # as IOTable holds it
    return Z


@settings(max_examples=100)
@given(flow_matrices(), BLOCK)
def test_square_sums_match_the_squared_matrix(Z, block):
    with mock.patch.object(exposure, "_BLOCK_ENTRIES", block):
        rows, cols = exposure._square_sums(Z)
    assert rows.tobytes() == reference_square_sums(Z, 1).tobytes()
    assert cols.tobytes() == reference_square_sums(Z, 0).tobytes()


def test_operator_copies_z_structure_only_to_drop_a_zero():
    # node 0's leak share 1e-300 / 1e100 underflows to 0: its leakage-adjusted
    # row is all zeros and is dropped, on copies of Z's index arrays
    dense = np.array([[0.0, 1e-300, 0.0], [1.0, 0.0, 2.0], [3.0, 1.0, 0.0]])
    table = table_from_dense(dense, row_use=[1e100, 3.0, 4.0])
    before = z_bytes(table)
    assert leakage_profile(table)[0] == 0.0
    for kind in OperatorKind:
        matrix = build_operator(table, kind).matrix
        shared = np.shares_memory(matrix.indices, table.Z.indices)
        assert shared == (kind is not OperatorKind.LEAKAGE_ADJUSTED)
        assert shared == (matrix.nnz == table.Z.nnz)
    assert z_bytes(table) == before


WEIGHT = st.sampled_from([1.0, 0.5, 2.0, np.inf, np.nan])


def ring(nodes):
    """Edges of one cycle through nodes; a lone node gets a self-loop."""
    return list(zip(nodes, nodes[1:] + nodes[:1]))


@st.composite
def structures(draw):
    kind = draw(st.sampled_from(["strong", "reducible", "single", "hung", "random"]))
    pair = st.tuples(st.integers(0, 7), st.integers(0, 7))
    if kind == "strong":
        n = draw(st.integers(1, 8))
        edges = ring(list(range(n))) + [(a % n, b % n) for a, b in draw(st.lists(pair, max_size=2 * n))]
    elif kind == "reducible":
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        n = sum(sizes) + draw(st.integers(0, 2))
        first, second = list(range(sizes[0])), list(range(sizes[0], sum(sizes)))
        forward = [tuple(sorted((a % n, b % n))) for a, b in draw(st.lists(pair, max_size=6))]
        edges = ring(first) + ring(second) + [(first[0], second[0])] + [(a, b) for a, b in forward if a != b]
    elif kind == "single":
        n = 1
        edges = [(0, 0)] if draw(st.booleans()) else []
    elif kind == "hung":
        core = draw(st.integers(1, 5))
        n = core + 1
        edges = ring(list(range(core))) + [(a % core, b % core) for a, b in draw(st.lists(pair, max_size=4))]
        anchor = draw(st.integers(0, core - 1))
        # a source feeds the core, a sink drains it
        edges.append((core, anchor) if draw(st.booleans()) else (anchor, core))
    else:
        n = draw(st.integers(1, 8))
        edges = [(a % n, b % n) for a, b in draw(st.lists(pair, max_size=3 * n))]
    weights = {edge: draw(WEIGHT) for edge in edges}
    # stored zeros, in any direction: they carry nothing and close no cycle
    for a, b in draw(st.lists(pair, max_size=3)):
        weights.setdefault((a % n, b % n), 0.0)
    order = draw(st.permutations(range(n)))  # hide the block order
    rows = [order[a] for a, _ in weights]
    cols = [order[b] for _, b in weights]
    return sparse.csr_matrix((list(weights.values()), (rows, cols)), shape=(n, n))


@settings(max_examples=100)
@given(structures())
def test_cyclic_components_match_csgraph(matrix):
    got, want = _cyclic_components(matrix), reference_cyclic_components(matrix)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()

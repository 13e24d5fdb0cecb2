import csv
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hallsand import exposure
from hallsand.cli import main
from hallsand.experiments import prepare_substrate
from hallsand.exposure import (
    DEFAULT_EPSILON,
    DEFAULT_FLOOR,
    compute_exposure,
)
from hallsand.ingest import synth_substrate, write_io_table
from hallsand.operators import OperatorKind, build_operator

from conftest import table_from_dense


def star_table(k=4, w=1.0):
    # hub node 0 ships w to each of k spokes, nothing comes back
    dense = np.zeros((k + 1, k + 1))
    dense[0, 1:] = w
    return table_from_dense(dense)


def test_flow_share_star_hub():
    table = star_table(k=4)
    share = compute_exposure(table).I
    # hub carries half of all endpoint involvement
    assert share[0] == pytest.approx(0.5)
    np.testing.assert_allclose(share[1:], 0.125)
    assert share.sum() == pytest.approx(1.0)


def test_flow_share_sums_to_one_random():
    table = synth_substrate(60, 0.2, 11)
    assert compute_exposure(table).I.sum() == pytest.approx(1.0, abs=1e-12)


def test_flow_share_empty_table_rejected():
    with pytest.raises(ValueError):
        compute_exposure(table_from_dense(np.zeros((3, 3))))


@pytest.mark.parametrize(
    "dense, want",
    [([[1e308, 0], [1, 0]], [1.0, 5e-309]), ([[0, 8e307], [8e307, 0]], [0.5, 0.5])],
    ids=["self-loop", "two-cycle"],
)
def test_flow_share_of_a_total_past_half_the_float_range(dense, want):
    # 2 * total overflows, and in the self-loop a node's two totals as well;
    # the shares stay finite and sum to one, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = compute_exposure(table_from_dense(np.array(dense)))
    assert prof.I.tolist() == want
    assert prof.I.sum() == 1.0
    for name in ("I", "HHI_out", "HHI_in", "D", "C", "R", "H", "H_rel"):
        assert np.isfinite(getattr(prof, name)).all(), name


def test_substrate_build_makes_no_array_the_size_of_z():
    # the exposure holds a block of squares at a time, and an operator its
    # values on Z's own index arrays; the table spans many blocks.
    # prepare_substrate scales a copy's flows in place, and synth_substrate
    # holds its table's values and columns, an edge bit per pair, and a block
    # of draws.
    table = synth_substrate(1000, 0.3, 3)
    assert table.Z.nnz >= 16 * exposure._BLOCK_ENTRIES
    builds = [(lambda: compute_exposure(table), 0.5)]
    builds += [(lambda kind=kind: build_operator(table, kind), 1.3) for kind in OperatorKind]
    builds += [
        (lambda kind=kind, copy=replace(table, Z=table.Z.copy()): prepare_substrate(copy, kind), 0.5)
        for kind in OperatorKind
    ]
    builds.append((lambda: synth_substrate(1000, 0.3, 3), 2.4))
    for build, bound in builds:
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * table.Z.data.nbytes


def test_hhi_oracle_small():
    dense = np.array(
        [
            [0.0, 3.0, 1.0],
            [2.0, 0.0, 2.0],
            [0.0, 0.0, 0.0],
        ]
    )
    table = table_from_dense(dense)
    prof = compute_exposure(table)
    for i in range(3):
        row = dense[i]
        tot = row.sum()
        want = sum((v / tot) ** 2 for v in row) if tot > 0 else 0.0
        assert prof.HHI_out[i] == pytest.approx(want, abs=1e-15)
    for j in range(3):
        col = dense[:, j]
        tot = col.sum()
        want = sum((v / tot) ** 2 for v in col) if tot > 0 else 0.0
        assert prof.HHI_in[j] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize(
    "dense, axis, line",
    [
        *(([[0, x, x], [1, 0, 2], [3, 1, 0]], 1, 0) for x in (1e-170, 1e160, 1e200)),
        ([[0, 1, 1e-170], [1, 0, 1e-170], [3, 1, 0]], 0, 2),
    ],
    ids=["row-1e-170", "row-1e160", "row-1e200", "column-1e-170"],
)
def test_hhi_where_a_total_squares_out_of_the_normal_range(dense, axis, line):
    # a total of 2e-170 squares to 0 and one of 2e160 to inf; the node's
    # shares are squared instead, and every array stays finite
    prof = compute_exposure(table_from_dense(np.array(dense, dtype=float)))
    assert (prof.HHI_out if axis == 1 else prof.HHI_in)[line] == 0.5
    for name in ("I", "HHI_out", "HHI_in", "D", "C", "R", "H", "H_rel"):
        assert np.isfinite(getattr(prof, name)).all(), name
    if axis == 1:
        np.testing.assert_allclose(prof.D, [1.0, 0.525, DEFAULT_FLOOR])


def test_redundancy_floor_and_scale():
    # node 0 fully concentrated (one destination), node 1 perfectly spread
    dense = np.array(
        [
            [0.0, 5.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 2.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    table = table_from_dense(dense)
    D = compute_exposure(table).D
    assert D[0] == pytest.approx(DEFAULT_FLOOR)
    assert D[1] == pytest.approx(1.0)
    assert DEFAULT_FLOOR < D[2] < 1.0
    # zero-outflow node sits at the floor rather than entering the scaling
    assert D[3] == pytest.approx(DEFAULT_FLOOR)


def test_redundancy_degenerate_all_equal():
    dense = np.array([[0.0, 1.0], [1.0, 0.0]])
    D = compute_exposure(table_from_dense(dense)).D
    np.testing.assert_allclose(D, DEFAULT_FLOOR)


def test_capacity_bounds():
    dense = np.array(
        [
            [0.0, 5.0, 1.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ]
    )
    C = compute_exposure(table_from_dense(dense)).C
    # node 0 receives nothing: floor
    assert C[0] == pytest.approx(DEFAULT_FLOOR)
    # node 1 has a single supplier: HHI_in = 1, capacity floors out
    assert C[1] == pytest.approx(DEFAULT_FLOOR)
    # node 2 splits inflow 1:2 across two suppliers
    hhi = (0.5) ** 2 + (0.5) ** 2
    assert C[2] == pytest.approx(1.0 - hhi)


def test_compute_exposure_H_closed_form():
    prof = compute_exposure(star_table(k=4), B=1.0)
    for i in range(prof.n):
        want = 1.0 * prof.I[i] / (prof.D[i] * prof.C[i] + DEFAULT_EPSILON)
        assert prof.H[i] == pytest.approx(want, rel=1e-15)
    assert prof.H_rel.sum() == pytest.approx(1.0, abs=1e-12)
    # no field, no loading, and no share of one
    still = compute_exposure(star_table(k=4), B=0.0)
    assert not still.H.any() and not still.H_rel.any()


def test_exposure_at_another_field():
    # H scales with B; neither H_rel nor I changes with it
    table = synth_substrate(25, 0.3, 2)
    prof = compute_exposure(table, B=1.0)
    prof2 = compute_exposure(table, B=2.5)
    np.testing.assert_allclose(prof2.H, 2.5 * prof.H / 1.0, rtol=1e-15)
    np.testing.assert_allclose(prof2.H_rel, prof.H_rel, rtol=1e-12)
    np.testing.assert_allclose(prof2.I, prof.I)


def test_compute_exposure_custom_floors():
    table = synth_substrate(25, 0.3, 2)
    prof = compute_exposure(table, d_floor=0.10, c_floor=0.20)
    assert prof.D.min() >= 0.10 - 1e-15
    assert prof.C.min() >= 0.20 - 1e-15


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_exposure(tmp_path, table, top):
    data, out = tmp_path / "data", tmp_path / "expo"
    write_io_table(table, data / "flows.csv", data / "row_use.csv")
    argv = ["exposure", "--flows", str(data / "flows.csv"), "--year", "2014", "--top", str(top), "--out-dir", str(out)]
    assert main(argv) == 0
    return read_rows(out / "exposure.csv"), read_rows(out / "top_nodes.csv")


def test_top_nodes_order_and_ties(tmp_path):
    # node 2 ships one unit to each other node, so the four spokes tie on H_rel
    dense = np.zeros((5, 5))
    dense[2, [0, 1, 3, 4]] = 1.0
    rows, top = run_exposure(tmp_path, table_from_dense(dense), 5)
    # top_nodes.csv runs by H_rel, descending, with ties in ascending node index
    assert [r["rank"] for r in top] == ["1", "2", "3", "4", "5"]
    assert [r["node"] for r in top] == ["2", "0", "1", "3", "4"]
    hrel = [float(r["H_rel"]) for r in top]
    assert hrel[0] > hrel[1] == hrel[2] == hrel[3] == hrel[4]
    # each row holds the node's own cells of exposure.csv
    cells = ("node", "country", "sector", "I", "R", "H_rel")
    assert [{c: r[c] for c in cells} for r in top] == [{c: rows[i][c] for c in cells} for i in (2, 0, 1, 3, 4)]


def test_top_nodes_clamped_to_the_node_count(tmp_path):
    # --top past the node count writes one row per node
    rows, top = run_exposure(tmp_path, star_table(k=4), 99)
    assert len(rows) == 5
    assert sorted(r["node"] for r in top) == [r["node"] for r in rows]

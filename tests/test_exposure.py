import numpy as np
import pytest

from hallsand.exposure import (
    DEFAULT_EPSILON,
    DEFAULT_FLOOR,
    compute_exposure,
    hall_stress,
    rank_exposure,
)
from hallsand.ingest import synth_substrate

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


def test_hall_stress_closed_form():
    table = star_table(k=4)
    prof = compute_exposure(table, B=1.0)
    H, H_rel = hall_stress(1.0, prof)
    for i in range(prof.n):
        want = 1.0 * prof.I[i] / (prof.D[i] * prof.C[i] + DEFAULT_EPSILON)
        assert H[i] == pytest.approx(want, rel=1e-15)
    assert H_rel.sum() == pytest.approx(1.0, abs=1e-12)


def test_hall_stress_scales_with_field():
    table = synth_substrate(25, 0.3, 2)
    prof = compute_exposure(table, B=1.0)
    H1, rel1 = hall_stress(1.0, prof)
    H3, rel3 = hall_stress(3.0, prof)
    np.testing.assert_allclose(H3, 3.0 * H1, rtol=1e-15)
    np.testing.assert_allclose(rel3, rel1, rtol=1e-12)


def test_exposure_at_another_field():
    table = synth_substrate(25, 0.3, 2)
    prof = compute_exposure(table, B=1.0)
    prof2 = compute_exposure(table, B=2.5)
    assert prof2.B == 2.5
    np.testing.assert_allclose(prof2.H, 2.5 * prof.H / 1.0, rtol=1e-15)
    np.testing.assert_allclose(prof2.I, prof.I)


def test_compute_exposure_custom_floors():
    table = synth_substrate(25, 0.3, 2)
    prof = compute_exposure(table, d_floor=0.10, c_floor=0.20)
    assert prof.D.min() >= 0.10 - 1e-15
    assert prof.C.min() >= 0.20 - 1e-15
    assert prof.d_floor == 0.10
    assert prof.c_floor == 0.20


def test_rank_exposure_order_and_ties():
    table = synth_substrate(40, 0.25, 6)
    prof = compute_exposure(table)
    top = rank_exposure(prof, 10)
    values = [r.H_rel for r in top]
    assert values == sorted(values, reverse=True)
    assert [r.H_rel for r in top][0] == pytest.approx(prof.H_rel.max())
    idx = [r.index for r in top]
    assert len(set(idx)) == len(idx)
    # ties break toward the smaller node index
    for a, b in zip(top, top[1:]):
        if a.H_rel == b.H_rel:
            assert a.index < b.index


def test_rank_exposure_k_clamped():
    table = synth_substrate(10, 0.4, 1)
    prof = compute_exposure(table)
    assert len(rank_exposure(prof, 99)) == 10

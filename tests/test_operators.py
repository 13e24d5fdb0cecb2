import numpy as np
import pytest
import scipy.linalg

from hallsand.ingest import TableError, synth_substrate
from hallsand.operators import (
    OperatorKind,
    SpectralConvergenceError,
    build_operator,
    leakage_profile,
    spectral_radius,
)

from conftest import table_from_dense

seed = 20240517
rng = np.random.default_rng(seed)
random_tables = [synth_substrate(int(n), 0.3, int(s)) for n, s in zip(rng.integers(2, 40, 25), rng.integers(0, 10_000, 25))]


def test_leakage_profile_basic():
    table = table_from_dense([[0.0, 2.0], [2.0, 0.0]], row_use=[4.0, 8.0])
    leak = leakage_profile(table)
    np.testing.assert_allclose(leak, [0.5, 0.25])
    assert leak.mean() == pytest.approx(0.375)


def test_leakage_profile_zero_outflow_node():
    table = table_from_dense([[0.0, 1.0], [0.0, 0.0]], row_use=[2.0, 0.0])
    np.testing.assert_allclose(leakage_profile(table), [0.5, 0.0])


def test_leakage_profile_zero_row_use_rejected():
    table = table_from_dense([[0.0, 1.0], [1.0, 0.0]], row_use=[2.0, 0.0])
    with pytest.raises(TableError, match="zero row use"):
        leakage_profile(table)


def test_row_share_two_cycle():
    table = table_from_dense([[0.0, 2.0], [5.0, 0.0]])
    op = build_operator(table, OperatorKind.ROW_SHARE)
    np.testing.assert_array_equal(op.matrix.toarray(), [[0.0, 1.0], [1.0, 0.0]])
    assert op.spectral_radius == pytest.approx(1.0, abs=1e-10)


def test_leakage_adjusted_two_cycle():
    table = table_from_dense([[0.0, 2.0], [5.0, 0.0]], row_use=[4.0, 10.0])
    op = build_operator(table, OperatorKind.LEAKAGE_ADJUSTED)
    np.testing.assert_allclose(op.matrix.toarray(), [[0.0, 0.5], [0.5, 0.0]])
    assert op.spectral_radius == pytest.approx(0.5, abs=1e-10)


def test_max_row_normalisation():
    table = table_from_dense([[0.0, 4.0], [1.0, 0.0]])
    op = build_operator(table, OperatorKind.MAX_ROW)
    np.testing.assert_allclose(op.matrix.toarray(), [[0.0, 1.0], [0.25, 0.0]])
    rows = op.matrix.sum(axis=1)
    assert float(np.max(rows)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_diagonal():
    m = table_from_dense(0.7 * np.eye(3)).Z
    assert spectral_radius(m) == pytest.approx(0.7, abs=1e-9)


def test_spectral_radius_dag_is_zero():
    # strictly upper triangular: nilpotent, exact zero without iteration
    dense = np.triu(np.arange(1.0, 26.0).reshape(5, 5), k=1)
    assert spectral_radius(table_from_dense(dense).Z) == 0.0


def test_spectral_radius_zero_matrix():
    assert spectral_radius(table_from_dense(np.zeros((4, 4))).Z) == 0.0


def test_spectral_radius_validation():
    m = table_from_dense(np.eye(2)).Z
    with pytest.raises(ValueError):
        spectral_radius(m, tol=0.0)
    with pytest.raises(ValueError):
        spectral_radius(m, max_iter=1)
    with pytest.raises(ValueError):
        spectral_radius(table_from_dense([[0.0, 1.0], [1.0, 0.0]]).Z[:1, :])
    neg = table_from_dense([[0.0, 1.0], [1.0, 0.0]]).Z.copy()
    neg.data[0] = -1.0
    with pytest.raises(ValueError):
        spectral_radius(neg)


def test_spectral_radius_budget_error_carries_estimates():
    rng_local = np.random.default_rng(0)
    m = table_from_dense(rng_local.random((12, 12))).Z
    with pytest.raises(SpectralConvergenceError) as exc:
        spectral_radius(m, tol=1e-16, max_iter=2)
    assert exc.value.max_iter == 2
    assert len(exc.value.last_estimates) == 2


@pytest.mark.parametrize("k", range(0, 25, 3))
def test_power_iteration_matches_dense_eig(k):
    table = random_tables[k]
    op = build_operator(table, OperatorKind.LEAKAGE_ADJUSTED)
    dense = np.abs(np.linalg.eigvals(op.matrix.toarray())).max()
    assert op.spectral_radius == pytest.approx(float(dense), abs=1e-8)


@pytest.mark.parametrize("k", range(len(random_tables)))
def test_operator_invariants_random_tables(k):
    table = random_tables[k]
    share = build_operator(table, OperatorKind.ROW_SHARE)
    leak_op = build_operator(table, OperatorKind.LEAKAGE_ADJUSTED)
    maxrow = build_operator(table, OperatorKind.MAX_ROW)
    out = table.outflow_totals()
    pos = out > 0

    share_rows = np.asarray(share.matrix.sum(axis=1)).ravel()
    np.testing.assert_allclose(share_rows[pos], 1.0, atol=1e-12)
    assert np.all(share_rows[~pos] == 0.0)

    leak = leakage_profile(table)
    leak_rows = np.asarray(leak_op.matrix.sum(axis=1)).ravel()
    np.testing.assert_allclose(leak_rows, leak, atol=1e-12)

    max_rows = np.asarray(maxrow.matrix.sum(axis=1)).ravel()
    assert float(max_rows.max()) == pytest.approx(1.0, abs=1e-12)

    assert leak_op.spectral_radius <= share.spectral_radius + 1e-10


def test_operator_metadata():
    table = synth_substrate(8, 0.4, 5, year=2011)
    op = build_operator(table, OperatorKind.ROW_SHARE)
    assert op.year == 2011
    assert op.n == 8
    assert op.kind is OperatorKind.ROW_SHARE


@pytest.mark.parametrize(
    "dense,kind",
    [
        ([[0, 1e-310, 1e-310], [1, 0, 2], [3, 1, 0]], OperatorKind.ROW_SHARE),
        ([[0, 1e-310, 1e-310], [1, 0, 2], [3, 1, 0]], OperatorKind.LEAKAGE_ADJUSTED),
        ([[0, 1e-310], [2e-310, 0]], OperatorKind.MAX_ROW),
    ],
    ids=["row-share", "leakage-adjusted", "max-row"],
)
def test_rows_whose_total_has_no_finite_reciprocal(dense, kind):
    # 1 / 2e-310 overflows; numpy's warnings fail the test (pyproject.toml)
    op = build_operator(table_from_dense(dense), kind)
    matrix = op.matrix.toarray()
    assert np.isfinite(matrix).all()
    if kind is not OperatorKind.MAX_ROW:  # every leak share is 1 here
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=1e-15)
    else:
        np.testing.assert_array_equal(matrix, [[0, 0.5], [1, 0]])
    assert op.spectral_radius == pytest.approx(np.abs(scipy.linalg.eigvals(matrix)).max(), rel=1e-9)

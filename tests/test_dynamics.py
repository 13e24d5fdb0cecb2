import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hallsand

from hallsand.dynamics import (
    FieldModel,
    Params,
    RelaxationBudgetError,
    _hall_denominator,
    _relax_block,
    _update,
    _validate_run,
    activation_gap,
    contraction_check,
    gap_field_sensitivity,
    gap_redundancy_sensitivity,
    hall_adjusted_threshold,
    run_batch,
)
from hallsand.experiments import ScenarioSpec, prepare_substrate, run_scenarios
from hallsand.exposure import compute_exposure
from hallsand.ingest import synth_substrate
from hallsand.operators import OperatorKind, build_operator

from conftest import FORCE_FULL, FORCE_SLICED, relaxation_products, settled_stress, table_from_dense
from scalar_oracle import ScalarLoopEngine


def make_pair(table, kind=OperatorKind.LEAKAGE_ADJUSTED):
    return build_operator(table, kind), compute_exposure(table)


@pytest.mark.parametrize("count_unique", [False, True])
@pytest.mark.parametrize("kind", [OperatorKind.LEAKAGE_ADJUSTED, OperatorKind.ROW_SHARE])
def test_both_relaxation_products_give_the_same_bytes(kind, count_unique):
    # a dense 300-node operator whose rounds topple few of its rows, so the
    # product over the toppled rows skips most of A; theta_reset > 0 leaves
    # the toppled rows' stress nonzero
    operator, exposure = make_pair(synth_substrate(300, 0.5, 6), kind)
    params = Params(theta_reset=0.2, redistribution_fraction=0.9, count_unique=count_unique)
    columns = [(FieldModel(1.2), 1.0, 11), (FieldModel(1.6), 2.0, 12), (FieldModel(0.9), 0.6, 13)]
    runs = []
    for threshold in (FORCE_SLICED, FORCE_FULL):
        with relaxation_products(threshold):
            runs.append(run_batch(operator, exposure, params, columns, 12, keep_from=2))
    sliced, full = runs
    for got, want in zip(sliced, full, strict=True):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    sizes, _, rounds = full
    assert sizes.max() > 0 and rounds.max() > 1  # cascades that spread over rounds
    # the settled stress itself, from a block with about half its nodes over
    # threshold, whose products add many terms per entry
    S = np.random.default_rng(3).uniform(0.0, 2.0, (operator.n, 2))
    settled = []
    for threshold in (FORCE_SLICED, FORCE_FULL):
        block = S.copy()
        with relaxation_products(threshold):
            _relax_block(block, operator.matrix, operator.matrix.T, params.thresholds(operator.n), params, 3000)
        settled.append(block.tobytes())
    assert settled[0] == settled[1]


def test_public_names_are_pinned():
    # in a fresh interpreter, so no test's own imports add to the namespaces;
    # run_batch is the one engine entry point, and no other comes back unseen
    env = {**os.environ, "PYTHONPATH": str(Path(hallsand.__file__).parent.parent)}
    code = (
        "import hallsand, hallsand.dynamics as d;"
        "print(' '.join(sorted(k for k in vars(hallsand) if not k.startswith('_'))));"
        "print(' '.join(sorted(k for k, v in vars(d).items()"
        " if not k.startswith('_') and getattr(v, '__module__', None) == d.__name__)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, dynamics = (line.split() for line in proc.stdout.splitlines())
    assert package == sorted(PACKAGE_NAMES.split())
    assert dynamics == sorted(DYNAMICS_NAMES.split())


DYNAMICS_NAMES = """
    ContractionCheck FieldModel Params RelaxationBudgetError activation_gap contraction_check
    gap_field_sensitivity gap_redundancy_sensitivity hall_adjusted_threshold run_batch
"""
PACKAGE_NAMES = DYNAMICS_NAMES + """
    config dynamics experiments exposure ingest operators tail
    ConfigError load_config section_for
    PRESETS CellDiagnostics CellStats PhaseGridResult PhaseGridSpec RegimeLabel ScenarioResult
    ScenarioSpec SimulationError Substrate child_seed convergence_report default_phase_grid
    make_cell_stats prepare_substrate preset_scenarios run_phase_grid run_scenario run_scenarios
    ExposureProfile ExposureRank compute_exposure hall_stress rank_exposure
    FlowPanel IOTable NodeId TableError list_years parse_io_table synth_substrate write_io_table
    LeakageProfile OperatorKind PropagationOperator SpectralConvergenceError build_operator
    leakage_profile spectral_radius
    TailError TailFit ccdf fit_alpha hill_alpha scan_xmin select_xmin
"""


def test_params_defaults_match_calibration():
    p = Params()
    assert (p.delta, p.alpha, p.beta, p.gamma) == (0.20, 0.30, 0.40, 0.50)
    assert p.theta == 1.00
    assert p.epsilon == 1e-6
    assert p.sigma_x == 0.20
    assert p.redistribution_fraction == 0.5


@pytest.mark.parametrize(
    "bad",
    [
        dict(delta=0.0),
        dict(delta=1.0),
        dict(alpha=-0.1),
        dict(beta=-1.0),
        dict(gamma=-0.5),
        dict(theta=0.0),
        dict(epsilon=0.0),
        dict(sigma_x=0.0),
        dict(redistribution_fraction=1.5),
        dict(theta_reset=1.0),
        dict(max_relax_rounds=0),
    ],
)
def test_params_validation_rejects(bad):
    with pytest.raises(ValueError):
        Params(**bad).validate(4)


def test_params_theta_broadcast():
    p = Params(theta=2.0)
    np.testing.assert_array_equal(p.thresholds(3), [2.0, 2.0, 2.0])
    p = Params(theta=np.array([1.0, 2.0]))
    np.testing.assert_array_equal(p.thresholds(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        Params(theta=np.array([1.0, 2.0])).validate(3)


def test_fieldmodel_default_volatility():
    fm = FieldModel(B_bar=1.35)
    assert fm.sigma_B == pytest.approx(0.135)
    assert FieldModel(B_bar=1.0, sigma_B=0.3).sigma_B == 0.3


@pytest.mark.parametrize(
    "B_bar,sigma_B,name",
    [
        (float("nan"), None, "B_bar"),
        (float("inf"), None, "B_bar"),
        (-0.5, None, "B_bar"),
        (1.0, float("nan"), "sigma_B"),
        (1.0, float("inf"), "sigma_B"),
        (1.0, -0.1, "sigma_B"),
    ],
)
def test_fieldmodel_rejects_non_finite_or_negative(B_bar, sigma_B, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
        FieldModel(B_bar, sigma_B)


def test_contraction_check_cases():
    p = Params()
    ok = contraction_check(p, 0.334)
    assert ok.passed and ok.bound == pytest.approx(0.20 / 0.334)
    assert ok.margin == pytest.approx(ok.bound - 0.40)
    bad = contraction_check(p, 0.9)
    assert not bad.passed
    free = contraction_check(p, 0.0)
    assert free.passed and free.bound == float("inf")
    with pytest.raises(ValueError):
        contraction_check(p, -0.1)


def test_round_budget_defaults_to_ten_n():
    table = synth_substrate(12, 0.3, 4)
    op, prof = make_pair(table)
    assert _validate_run(op, prof, Params(), 1.0) == 120
    assert _validate_run(op, prof, Params(max_relax_rounds=7), 1.0) == 7
    # no periods: nothing drawn, nothing recorded
    sizes, fields, rounds = run_batch(op, prof, Params(), [(FieldModel(1.0), 1.0, 9)], 0)
    assert sizes.shape == fields.shape == rounds.shape == (1, 0)


def test_run_scenarios_warns_once_on_contraction_failure():
    table = table_from_dense([[0.0, 2.0], [5.0, 0.0]])  # row-share radius 1
    sub = prepare_substrate(table, kind=OperatorKind.ROW_SHARE)
    specs = [ScenarioSpec(name, 0.5, 1.0, master_seed=3, T_burn=0, T_stat=2, replications=2) for name in "ab"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        list(run_scenarios(specs, sub, Params()))
    assert [str(w.message).startswith("contraction check failed") for w in caught] == [True]
    assert caught[0].category is RuntimeWarning


def test_run_batch_validation():
    table = synth_substrate(6, 0.4, 0)
    op, prof = make_pair(table)
    with pytest.raises(ValueError):
        run_batch(op, prof, Params(), [(FieldModel(1.0), 0.0, 0)], 5)
    other = compute_exposure(synth_substrate(7, 0.4, 0))
    with pytest.raises(ValueError):
        run_batch(op, other, Params(), [(FieldModel(1.0), 1.0, 0)], 5)


def test_half_normal_shock_mean():
    table = synth_substrate(100, 0.2, 1)
    op, prof = make_pair(table)
    # no stress to carry or propagate and no loading: the update is the shocks
    p = Params(alpha=1.0, gamma=0.0)
    S = np.zeros((op.n, 100))
    denom = _hall_denominator(prof, np.ones(100), p.epsilon)
    rngs = np.random.default_rng(123).spawn(100)
    draws = np.concatenate(
        [_update(S, rngs, 1.0, 0.1, op.matrix.T, prof.I, denom, p)[0].ravel() for _ in range(100)]
    )
    assert draws.size == 1_000_000
    # E|N(0, sigma^2)| = sigma * sqrt(2/pi)
    want = 0.20 * np.sqrt(2.0 / np.pi)
    assert abs(draws.mean() - want) < 1e-3
    assert draws.min() >= 0.0


def test_hall_loading_unit_dispersion_matches_static():
    table = synth_substrate(30, 0.3, 8)
    op, prof = make_pair(table)
    H = prof.B * prof.I / _hall_denominator(prof, np.array([1.0]), Params().epsilon)[:, 0]
    np.testing.assert_array_equal(H, prof.H)


def test_hall_loading_dispersion_rescales_redundancy():
    table = synth_substrate(30, 0.3, 8)
    op, prof = make_pair(table)
    H = 1.0 * prof.I / _hall_denominator(prof, np.array([2.0]), Params().epsilon)[:, 0]
    want = 1.0 * prof.I / ((prof.D / 2.0) * prof.C + 1e-6)
    np.testing.assert_array_equal(H, want)


def test_relax_chain_trace():
    # node 0 feeds node 1 only; one topple triggers exactly one more
    table = table_from_dense([[0.0, 1.0], [0.0, 0.0]])
    op, prof = make_pair(table, OperatorKind.ROW_SHARE)
    params = Params()
    S = np.array([[2.0], [0.9]])
    toppled = np.zeros(S.shape, dtype=bool)
    events, rounds, failed = _relax_block(
        S, op.matrix, op.matrix.T, params.thresholds(2), params, 20, toppled
    )
    assert failed is None
    assert events.tolist() == [2]
    assert set(np.flatnonzero(toppled).tolist()) == {0, 1}
    assert rounds.tolist() == [2]
    np.testing.assert_array_equal(S[:, 0], [0.0, 0.0])


def test_relax_budget_error():
    # full return with share-1 cycle keeps both nodes over threshold forever;
    # the loading of the first period puts both far over it
    table = table_from_dense([[0.0, 3.0], [3.0, 0.0]])
    op, prof = make_pair(table, OperatorKind.ROW_SHARE)
    params = Params(redistribution_fraction=1.0, max_relax_rounds=25)
    assert not contraction_check(params, op.spectral_radius).passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # run_batch itself never warns
        with pytest.raises(RelaxationBudgetError) as exc:
            run_batch(op, prof, params, [(FieldModel(1.0), 1.0, 0)], 3)
    assert exc.value.rounds == 25
    assert exc.value.still_over == 2
    assert (exc.value.column, exc.value.period) == (0, 0)


def test_step_records_period_and_field():
    table = synth_substrate(10, 0.3, 3)
    op, prof = make_pair(table)
    sizes, fields, rounds = run_batch(op, prof, Params(), [(FieldModel(B_bar=1.0), 1.0, 5)], 1)
    assert sizes.shape == fields.shape == rounds.shape == (1, 1)
    assert fields[0, 0] >= 0.0
    assert sizes[0, 0] >= 0


def test_field_clamped_at_zero():
    table = synth_substrate(10, 0.3, 3)
    op, prof = make_pair(table)
    _, fields, _ = run_batch(op, prof, Params(), [(FieldModel(B_bar=0.01, sigma_B=5.0), 1.0, 5)], 200)
    assert fields.min() == 0.0


def test_run_rejects_negative_periods():
    table = synth_substrate(6, 0.4, 2)
    op, prof = make_pair(table)
    with pytest.raises(ValueError):
        run_batch(op, prof, Params(), [(FieldModel(B_bar=1.0), 1.0, 0)], -1)


def run_one(op, prof, params, fieldmodel, periods, sigma_D, seed):
    """One replication as a one-column run_batch: its cascade sizes and final stress."""
    with settled_stress() as blocks:
        sizes, _, _ = run_batch(op, prof, params, [(fieldmodel, sigma_D, seed)], periods)
    return sizes[0].tolist(), blocks[-1][:, 0]


def test_run_deterministic_given_seed():
    table = synth_substrate(20, 0.3, 14)
    op, prof = make_pair(table)
    fm = FieldModel(B_bar=1.2)
    ra, sa = run_one(op, prof, Params(), fm, 80, 1.5, 77)
    rb, sb = run_one(op, prof, Params(), fm, 80, 1.5, 77)
    assert ra == rb
    np.testing.assert_array_equal(sa, sb)
    rc, _ = run_one(op, prof, Params(), fm, 80, 1.5, 78)
    assert ra != rc


oracle_cases = []
_rng = np.random.default_rng(915)
for _k in range(10):
    oracle_cases.append(
        (
            int(_rng.integers(2, 7)),
            float(_rng.uniform(0.3, 0.9)),
            int(_rng.integers(0, 10_000)),
            int(_rng.integers(0, 10_000)),
        )
    )


@pytest.mark.parametrize("n,density,table_seed,run_seed", oracle_cases)
def test_engine_matches_scalar_oracle(n, density, table_seed, run_seed):
    table = synth_substrate(n, density, table_seed)
    op, prof = make_pair(table)
    params = Params()
    fm = FieldModel(B_bar=1.1)
    sizes, s = run_one(op, prof, params, fm, 50, 1.3, run_seed)
    oracle = ScalarLoopEngine(op, prof, params, sigma_D=1.3, seed=run_seed)
    want = oracle.run(fm.B_bar, fm.sigma_B, 50)
    assert sizes == want
    np.testing.assert_array_equal(s, np.array(oracle.s))


def test_engine_matches_oracle_variant_params():
    # unique-node counting, partial redistribution, raised reset level
    table = synth_substrate(5, 0.6, 31)
    op, prof = make_pair(table)
    params = Params(
        count_unique=True,
        redistribution_fraction=0.8,
        theta_reset=0.25,
        theta=np.array([0.8, 1.0, 1.2, 0.9, 1.1]),
    )
    fm = FieldModel(B_bar=1.4, sigma_B=0.2)
    sizes, s = run_one(op, prof, params, fm, 50, 0.7, 5)
    oracle = ScalarLoopEngine(op, prof, params, sigma_D=0.7, seed=5)
    want = oracle.run(fm.B_bar, fm.sigma_B, 50)
    assert sizes == want
    np.testing.assert_array_equal(s, np.array(oracle.s))


def test_threshold_shift_identity():
    # toppling decisions are invariant to moving the loading across the
    # inequality, bit for bit, on shared floats
    rng_local = np.random.default_rng(4242)
    m = 100_000
    s = rng_local.uniform(0.0, 2.0, m)
    theta = rng_local.uniform(0.5, 1.5, m)
    gH = 0.5 * rng_local.uniform(0.0, 1.0, m)
    lhs = s >= theta
    rhs = (s - gH) >= hall_adjusted_threshold(theta, 1.0, gH)
    np.testing.assert_array_equal(lhs, rhs)


def test_activation_gap_sign_agrees_with_toppling():
    rng_local = np.random.default_rng(77)
    m = 10_000
    s_tilde = rng_local.uniform(0.0, 2.0, m)
    theta = rng_local.uniform(0.5, 1.5, m)
    H_prev = rng_local.uniform(0.0, 1.0, m)
    g = activation_gap(theta, 0.5, H_prev, s_tilde)
    topples = (s_tilde + 0.5 * H_prev) >= theta
    np.testing.assert_array_equal(g <= 0.0, topples)


def gap(B, D, C, I, theta, gamma, s_tilde, eps=1e-6):
    return theta - gamma * B * I / (D * C + eps) - s_tilde


def test_gap_derivatives_match_finite_differences():
    rng_local = np.random.default_rng(2024)
    for _ in range(200):
        B = rng_local.uniform(0.2, 2.0)
        D = rng_local.uniform(0.05, 1.0)
        C = rng_local.uniform(0.05, 1.0)
        I = rng_local.uniform(0.001, 0.05)
        theta = 1.0
        gamma = 0.5
        s_tilde = rng_local.uniform(0.0, 1.0)
        hB = 1e-6 * max(1.0, B)
        hD = 1e-6 * max(1.0, D)
        dB = (gap(B + hB, D, C, I, theta, gamma, s_tilde) - gap(B - hB, D, C, I, theta, gamma, s_tilde)) / (2 * hB)
        dD = (gap(B, D + hD, C, I, theta, gamma, s_tilde) - gap(B, D - hD, C, I, theta, gamma, s_tilde)) / (2 * hD)
        aB = gap_field_sensitivity(gamma, I, D, C, 1e-6)
        aD = gap_redundancy_sensitivity(gamma, B, I, D, C, 1e-6)
        assert abs(dB - aB) / abs(aB) < 1e-4
        assert abs(dD - aD) / abs(aD) < 1e-4
        assert aB < 0.0 < aD

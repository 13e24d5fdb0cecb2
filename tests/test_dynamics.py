import numpy as np
import pytest

from hallsand.dynamics import (
    FieldModel,
    Params,
    RelaxationBudgetError,
    activation_gap,
    contraction_check,
    draw_shocks,
    effective_hall,
    gap_field_sensitivity,
    gap_redundancy_sensitivity,
    hall_adjusted_threshold,
    init_state,
    relax,
    run,
    step,
)
from hallsand.exposure import compute_exposure
from hallsand.ingest import synth_substrate
from hallsand.operators import OperatorKind, build_operator

from conftest import table_from_dense
from scalar_oracle import ScalarLoopEngine


def make_pair(table, kind=OperatorKind.LEAKAGE_ADJUSTED):
    return build_operator(table, kind), compute_exposure(table)


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


def test_init_state_fresh():
    table = synth_substrate(12, 0.3, 4)
    op, prof = make_pair(table)
    state = init_state(op, prof, Params(), sigma_D=1.0, seed=9)
    assert state.period == 0
    np.testing.assert_array_equal(state.s, np.zeros(12))
    assert state.max_rounds == 120


def test_init_state_warns_on_contraction_failure():
    table = table_from_dense([[0.0, 2.0], [5.0, 0.0]])  # row-share radius 1
    op, prof = make_pair(table, OperatorKind.ROW_SHARE)
    with pytest.warns(RuntimeWarning, match="contraction"):
        init_state(op, prof, Params(), seed=0)


def test_init_state_validation():
    table = synth_substrate(6, 0.4, 0)
    op, prof = make_pair(table)
    with pytest.raises(ValueError):
        init_state(op, prof, Params(), sigma_D=0.0)
    other = compute_exposure(synth_substrate(7, 0.4, 0))
    with pytest.raises(ValueError):
        init_state(op, other, Params())


def test_half_normal_shock_mean():
    table = synth_substrate(100, 0.2, 1)
    op, prof = make_pair(table)
    state = init_state(op, prof, Params(), seed=123)
    draws = np.concatenate([draw_shocks(state) for _ in range(10_000)])
    assert draws.size == 1_000_000
    # E|N(0, sigma^2)| = sigma * sqrt(2/pi)
    want = 0.20 * np.sqrt(2.0 / np.pi)
    assert abs(draws.mean() - want) < 1e-3
    assert draws.min() >= 0.0


def test_effective_hall_unit_dispersion_matches_static():
    table = synth_substrate(30, 0.3, 8)
    op, prof = make_pair(table)
    state = init_state(op, prof, Params(), sigma_D=1.0, seed=0)
    H = effective_hall(state, prof.B)
    np.testing.assert_array_equal(H, prof.H)


def test_effective_hall_dispersion_rescales_redundancy():
    table = synth_substrate(30, 0.3, 8)
    op, prof = make_pair(table)
    state = init_state(op, prof, Params(), sigma_D=2.0, seed=0)
    H = effective_hall(state, 1.0)
    want = 1.0 * prof.I / ((prof.D / 2.0) * prof.C + 1e-6)
    np.testing.assert_array_equal(H, want)


def test_relax_chain_trace():
    # node 0 feeds node 1 only; one topple triggers exactly one more
    table = table_from_dense([[0.0, 1.0], [0.0, 0.0]])
    op, prof = make_pair(table, OperatorKind.ROW_SHARE)
    state = init_state(op, prof, Params(), seed=0)
    state.s = np.array([2.0, 0.9])
    events, toppled, rounds = relax(state)
    assert events == 2
    assert toppled == {0, 1}
    assert rounds == 2
    np.testing.assert_array_equal(state.s, [0.0, 0.0])


def test_relax_budget_error():
    # full return with share-1 cycle keeps both nodes over threshold forever
    table = table_from_dense([[0.0, 3.0], [3.0, 0.0]])
    op, prof = make_pair(table, OperatorKind.ROW_SHARE)
    params = Params(redistribution_fraction=1.0, max_relax_rounds=25)
    with pytest.warns(RuntimeWarning):
        state = init_state(op, prof, params, seed=0)
    state.s = np.array([2.0, 2.0])
    with pytest.raises(RelaxationBudgetError) as exc:
        relax(state)
    assert exc.value.rounds == 25
    assert exc.value.still_over == 2


def test_step_records_period_and_field():
    table = synth_substrate(10, 0.3, 3)
    op, prof = make_pair(table)
    state = init_state(op, prof, Params(), seed=5)
    rec = step(state, FieldModel(B_bar=1.0))
    assert rec.period == 0
    assert state.period == 1
    assert rec.B_realised >= 0.0
    assert rec.S >= 0


def test_field_clamped_at_zero():
    table = synth_substrate(10, 0.3, 3)
    op, prof = make_pair(table)
    state = init_state(op, prof, Params(), seed=5)
    records = run(state, FieldModel(B_bar=0.01, sigma_B=5.0), 200)
    assert min(r.B_realised for r in records) == 0.0


def test_run_rejects_negative_periods():
    table = synth_substrate(6, 0.4, 2)
    op, prof = make_pair(table)
    state = init_state(op, prof, Params(), seed=0)
    with pytest.raises(ValueError):
        run(state, FieldModel(B_bar=1.0), -1)


def test_run_deterministic_given_seed():
    table = synth_substrate(20, 0.3, 14)
    op, prof = make_pair(table)
    a = init_state(op, prof, Params(), sigma_D=1.5, seed=77)
    b = init_state(op, prof, Params(), sigma_D=1.5, seed=77)
    ra = run(a, FieldModel(B_bar=1.2), 80)
    rb = run(b, FieldModel(B_bar=1.2), 80)
    assert [r.S for r in ra] == [r.S for r in rb]
    np.testing.assert_array_equal(a.s, b.s)
    c = init_state(op, prof, Params(), sigma_D=1.5, seed=78)
    rc = run(c, FieldModel(B_bar=1.2), 80)
    assert [r.S for r in ra] != [r.S for r in rc]


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
    state = init_state(op, prof, params, sigma_D=1.3, seed=run_seed)
    records = run(state, fm, 50)
    oracle = ScalarLoopEngine(op, prof, params, sigma_D=1.3, seed=run_seed)
    want = oracle.run(fm.B_bar, fm.sigma_B, 50)
    assert [r.S for r in records] == want
    np.testing.assert_array_equal(state.s, np.array(oracle.s))


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
    state = init_state(op, prof, params, sigma_D=0.7, seed=5)
    records = run(state, fm, 50)
    oracle = ScalarLoopEngine(op, prof, params, sigma_D=0.7, seed=5)
    want = oracle.run(fm.B_bar, fm.sigma_B, 50)
    assert [r.S for r in records] == want
    np.testing.assert_array_equal(state.s, np.array(oracle.s))


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

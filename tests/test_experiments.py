import itertools
import math
import os
import re
import warnings

import numpy as np
import pytest

from hallsand import experiments
from hallsand.dynamics import FieldModel, Params, RelaxationBudgetError, run_batch
from hallsand.experiments import (
    DEFAULT_SIGMA_B_RATIO,
    SimulationError,
    PRESETS,
    CellStats,
    PhaseGridSpec,
    RegimeLabel,
    ScenarioSpec,
    child_seed,
    convergence_report,
    default_phase_grid,
    make_cell_stats,
    prepare_substrate,
    preset_scenarios,
    resolve_threads,
    run_phase_grid,
    run_scenario,
    run_scenarios,
)
from hallsand.ingest import synth_substrate
from hallsand.operators import OperatorKind

from conftest import table_from_dense


@pytest.fixture(scope="module")
def small_substrate():
    return prepare_substrate(synth_substrate(40, 0.2, 7, mean_leakage=0.22))


def test_child_seed_deterministic_and_chained():
    assert child_seed(123, 4) == child_seed(123, 4)
    assert child_seed(123, 4) != child_seed(123, 5)
    assert child_seed(123, 4, 9) == child_seed(child_seed(123, 4), 9)
    s = child_seed(2**63 + 17, 0)
    assert 0 <= s < 2**64


def test_child_seed_spreads():
    seeds = {child_seed(7, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_presets_canonical():
    assert list(PRESETS) == ["stable", "latent", "critical", "avalanche"]
    assert PRESETS["stable"] == (0.45, 0.7)
    assert PRESETS["avalanche"] == (1.35, 2.3)


def test_preset_scenarios_position_stable_seeds():
    full = preset_scenarios(9001)
    only = preset_scenarios(9001, names=["critical"])
    assert only[0].master_seed == full[2].master_seed
    with pytest.raises(ValueError):
        preset_scenarios(9001, names=["noregime"])


@pytest.mark.parametrize(
    "mean_S,label",
    [
        (0.0, RegimeLabel.ABSORPTION),
        (0.08, RegimeLabel.ABSORPTION),
        (0.30, RegimeLabel.LATENT_FRAGILITY),
        (0.9, RegimeLabel.LATENT_FRAGILITY),
        (1.5, RegimeLabel.CRITICAL_TRANSITION),
        (3.0, RegimeLabel.CRITICAL_TRANSITION),
        (5.0, RegimeLabel.AVALANCHE),
        (6.0, RegimeLabel.AVALANCHE),
    ],
)
def test_classify_bands(mean_S, label):
    stats = make_cell_stats(1.0, 1.0, [np.array([mean_S, mean_S])])
    assert stats.regime is label


def test_scenario_spec_validation():
    good = ScenarioSpec("x", 1.0, 1.0, 5)
    good.validate()
    with pytest.raises(ValueError):
        ScenarioSpec("x", -0.1, 1.0, 5).validate()
    with pytest.raises(ValueError):
        ScenarioSpec("x", 1.0, 0.0, 5).validate()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="B_bar"):
            ScenarioSpec("x", bad, 1.0, 5).validate()
        with pytest.raises(ValueError, match="sigma_D"):
            ScenarioSpec("x", 1.0, bad, 5).validate()
    with pytest.raises(ValueError):
        ScenarioSpec("x", 1.0, 1.0, 5, T_stat=0).validate()
    with pytest.raises(ValueError):
        ScenarioSpec("x", 1.0, 1.0, 5, replications=0).validate()


def test_phase_grid_spec_validation():
    PhaseGridSpec((0.5, 1.0), (0.5, 1.0), 1).validate()
    with pytest.raises(ValueError):
        PhaseGridSpec((1.0, 0.5), (0.5, 1.0), 1).validate()
    with pytest.raises(ValueError):
        PhaseGridSpec((0.5, 0.5), (0.5, 1.0), 1).validate()
    with pytest.raises(ValueError):
        PhaseGridSpec((), (0.5,), 1).validate()
    with pytest.raises(ValueError, match="B_values"):
        PhaseGridSpec((0.5, math.inf), (0.5, 1.0), 1).validate()
    with pytest.raises(ValueError, match="sigmaD_values"):
        PhaseGridSpec((0.5, 1.0), (0.5, math.nan), 1).validate()


def test_default_phase_grid_shape():
    spec = default_phase_grid(1)
    assert len(spec.B_values) == 10
    assert len(spec.sigmaD_values) == 9
    assert spec.n_cells == 90
    assert spec.B_values[0] == 0.25 and spec.B_values[-1] == 2.0
    assert spec.sigmaD_values[0] == 0.5 and spec.sigmaD_values[-1] == 2.5


def test_make_cell_stats_hand_values():
    series = [np.array([0, 2, 4, 0]), np.array([1, 1, 5, 9])]
    stats = make_cell_stats(1.2, 0.8, series)
    pooled = np.concatenate(series)
    assert stats.mean_S == pytest.approx(pooled.mean())
    rep_means = [1.5, 4.0]
    want_se = np.std(rep_means, ddof=1) / math.sqrt(2)
    assert stats.se_mean_S == pytest.approx(want_se)
    assert stats.pr_nonzero == pytest.approx(6 / 8)
    assert stats.pr_ge[5] == pytest.approx(2 / 8)
    assert stats.pr_ge[10] == 0.0
    assert stats.s_max == 9
    assert stats.n_obs == 8
    assert stats.p50 == pytest.approx(np.percentile(pooled, 50))
    assert stats.p95 == pytest.approx(np.percentile(pooled, 95))


def test_make_cell_stats_single_replication_zero_se():
    stats = make_cell_stats(1.0, 1.0, [np.array([1, 2, 3])])
    assert stats.se_mean_S == 0.0


def test_run_scenario_protocol(small_substrate):
    spec = ScenarioSpec("probe", 1.0, 1.5, master_seed=42, T_burn=10, T_stat=30, replications=4)
    res = run_scenario(spec, small_substrate, Params(), keep_series=True)
    assert res.name == "probe"
    assert res.stats.n_obs == 4 * 30
    assert len(res.series) == 4
    assert all(s.size == 30 for s in res.series)
    assert all(b.size == 30 for b in res.B_realised)
    assert res.stats.s_max == max(int(s.max()) for s in res.series)


def test_run_scenario_deterministic(small_substrate):
    spec = ScenarioSpec("probe", 1.0, 1.5, master_seed=42, T_burn=5, T_stat=20, replications=3)
    a = run_scenario(spec, small_substrate, Params())
    b = run_scenario(spec, small_substrate, Params())
    assert a.stats == b.stats


def test_run_scenario_parallel_matches_serial(small_substrate):
    spec = ScenarioSpec("probe", 1.2, 1.5, master_seed=31, T_burn=5, T_stat=20, replications=4)
    serial = run_scenario(spec, small_substrate, Params(), threads=1)
    parallel = run_scenario(spec, small_substrate, Params(), threads=2)
    assert serial.stats == parallel.stats


@pytest.mark.parametrize("threads", [1, 2])
def test_run_scenarios_equals_run_scenario_per_spec(small_substrate, threads):
    specs = preset_scenarios(17, T_burn=5, T_stat=15, replications=3, names=["latent", "avalanche"])
    specs.append(ScenarioSpec("extra", 1.1, 1.9, master_seed=23, T_burn=2, T_stat=10, replications=2))
    together = list(run_scenarios(specs, small_substrate, Params(), keep_series=True, threads=threads))
    assert [r.name for r in together] == [s.name for s in specs]
    for spec, got in zip(specs, together):
        want = run_scenario(spec, small_substrate, Params(), keep_series=True, threads=1)
        assert got.stats == want.stats
        for field in ("series", "B_realised", "relax_rounds"):
            assert len(getattr(got, field)) == spec.replications
            for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_run_scenarios_closed_early_cancels_queued_tasks(small_substrate, monkeypatch):
    shutdowns = []

    class SpyPool(experiments.ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
    quick = ScenarioSpec("quick", 0.5, 1.0, 1, T_burn=0, T_stat=2, replications=2)
    slow = ScenarioSpec("slow", 1.35, 2.3, 2, T_burn=20, T_stat=80, replications=50)
    results = run_scenarios([quick, slow], small_substrate, Params(), threads=2)
    assert next(results).name == "quick"
    results.close()  # as when writing the first result fails
    assert shutdowns == [True]


def test_run_phase_grid_layout(small_substrate):
    spec = PhaseGridSpec((0.5, 1.5), (0.8, 1.6, 2.4), master_seed=7, T_burn=5, T_stat=15, replications=2)
    res = run_phase_grid(spec, small_substrate, Params())
    assert len(res.cells) == 6
    assert res.mean_S_grid().shape == (2, 3)
    for i, B in enumerate(spec.B_values):
        for j, sD in enumerate(spec.sigmaD_values):
            c = res.cell(i, j)
            assert c.B_bar == B
            assert c.sigma_D == sD


def test_single_cell_grid_equals_scenario(small_substrate):
    grid_seed = 555
    spec = PhaseGridSpec((1.0,), (1.5,), master_seed=grid_seed, T_burn=5, T_stat=25, replications=3)
    grid = run_phase_grid(spec, small_substrate, Params())
    scen = ScenarioSpec(
        "cell", 1.0, 1.5, master_seed=child_seed(grid_seed, 0), T_burn=5, T_stat=25, replications=3
    )
    res = run_scenario(scen, small_substrate, Params())
    assert grid.cells[0] == res.stats


def test_run_phase_grid_parallel_matches_serial(small_substrate):
    spec = PhaseGridSpec((0.5, 1.5), (0.8, 2.0), master_seed=99, T_burn=5, T_stat=15, replications=2)
    serial = run_phase_grid(spec, small_substrate, Params(), threads=1)
    parallel = run_phase_grid(spec, small_substrate, Params(), threads=2)
    assert serial.cells == parallel.cells


def test_contraction_warning_names_the_callers_line():
    # the 2-cycle's row-share operator has radius 1, past the bound for beta=0.4;
    # run_scenarios warns when called, before its first result is asked for
    sub = prepare_substrate(table_from_dense([[0, 2], [5, 0]]), kind=OperatorKind.ROW_SHARE)
    spec = ScenarioSpec("cycle", 0.5, 1.0, master_seed=3, T_burn=0, T_stat=2, replications=1)
    grid = PhaseGridSpec((0.5,), (1.0,), master_seed=3, T_burn=0, T_stat=2, replications=1)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        results = run_scenarios([spec], sub, Params())
        assert [x.filename for x in w] == [__file__]
        list(results)
        run_scenario(spec, sub, Params())
        run_phase_grid(grid, sub, Params())
    assert [x.filename for x in w] == [__file__] * 3
    assert all("contraction check failed" in str(x.message) for x in w)


@pytest.mark.filterwarnings("ignore:contraction check failed")
@pytest.mark.parametrize(
    "grid,calm_first", [(False, False), (True, False), (False, True)], ids=["False", "True", "second"]
)
def test_engine_failure_in_pool_names_scenario_replication_period(grid, calm_first):
    # full redistribution over the share operator cannot settle in 3 rounds;
    # calm_first runs a calm scenario (no field, one period) ahead of the failing one
    table = synth_substrate(60, 0.15, 7, mean_leakage=0.22)
    hot = prepare_substrate(table, kind=OperatorKind.ROW_SHARE)
    params = Params(max_relax_rounds=3, redistribution_fraction=1.0)
    spec = ScenarioSpec("hot", 6.0, 2.0, master_seed=5, T_burn=5, T_stat=20, replications=4)
    messages = []
    for threads in (1, 2):
        with pytest.raises(SimulationError) as exc:
            if grid:
                cells = PhaseGridSpec((6.0,), (2.0,), master_seed=5, T_burn=5, T_stat=20, replications=4)
                run_phase_grid(cells, hot, params, threads=threads)
            elif calm_first:
                calm = ScenarioSpec("calm", 0.0, 1.0, master_seed=4, T_burn=0, T_stat=1, replications=2)
                list(run_scenarios([calm, spec], hot, params, threads=threads))
            else:
                run_scenario(spec, hot, params, threads=threads)
        messages.append(str(exc.value))
    serial, parallel = messages
    name = "cell_0_0" if grid else "hot"
    assert parallel.startswith(f"scenario {name!r} replication 0 period ")
    assert "relaxation exceeded 3 rounds" in parallel
    assert parallel == serial


@pytest.mark.filterwarnings("ignore:contraction check failed")
def test_budget_error_names_lowest_failing_replication_not_earliest_period():
    # replication 1 exhausts the round budget at an earlier period than replication 0;
    # run one by one in index order, replication 0 fails first, so its error is raised
    hot = prepare_substrate(synth_substrate(30, 0.2, 7, mean_leakage=0.22), kind=OperatorKind.ROW_SHARE)
    params = Params(max_relax_rounds=6, redistribution_fraction=0.7)
    spec = ScenarioSpec("late", 0.2, 1.5, master_seed=16, T_burn=0, T_stat=30, replications=2)
    fieldmodel = FieldModel(spec.B_bar, DEFAULT_SIGMA_B_RATIO * spec.B_bar)
    periods, errors = [], []
    for rep in range(spec.replications):
        column = (fieldmodel, spec.sigma_D, child_seed(spec.master_seed, rep))
        with pytest.raises(RelaxationBudgetError) as exc:
            run_batch(hot.operator, hot.exposure, params, [column], spec.T_burn + spec.T_stat)
        periods.append(exc.value.period)
        errors.append(exc.value)
    assert periods[1] < periods[0]
    want = f"scenario 'late' replication 0 period {periods[0]}: {errors[0]} (seed {child_seed(16, 0)})"
    for threads in (1, 2):
        with pytest.raises(SimulationError) as exc:
            run_scenario(spec, hot, params, threads=threads)
        assert str(exc.value) == want


@pytest.mark.filterwarnings("ignore:contraction check failed")
def test_simulation_error_seed_alone_reproduces_the_failure():
    # replications 0-2 settle; replication 3, the batch's last column, fails
    hot = prepare_substrate(synth_substrate(30, 0.2, 7, mean_leakage=0.22), kind=OperatorKind.ROW_SHARE)
    params = Params(max_relax_rounds=15, redistribution_fraction=0.7)
    spec = ScenarioSpec("mild", 0.2, 1.5, master_seed=1, T_burn=0, T_stat=30, replications=4)
    with pytest.raises(SimulationError) as exc:
        run_scenario(spec, hot, params, threads=1)
    head, seed = re.fullmatch(r"(.*) \(seed (\d+)\)", str(exc.value)).groups()
    assert head.startswith("scenario 'mild' replication 3 period ")
    period = int(re.search(r" period (\d+): ", head).group(1))
    column = (FieldModel(spec.B_bar, DEFAULT_SIGMA_B_RATIO * spec.B_bar), spec.sigma_D, int(seed))
    with pytest.raises(RelaxationBudgetError) as alone:
        run_batch(hot.operator, hot.exposure, params, [column], spec.T_burn + spec.T_stat)
    assert (alone.value.column, alone.value.period) == (0, period)
    assert head.endswith(f" period {period}: {alone.value}")


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("HALLSAND_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) >= 1
    monkeypatch.setenv("HALLSAND_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2
    monkeypatch.setenv("HALLSAND_THREADS", "junk")
    with pytest.raises(ValueError):
        resolve_threads(None)


def test_convergence_report_flags(small_substrate):
    spec = PhaseGridSpec((0.4, 1.8), (0.7, 2.2), master_seed=3, T_burn=10, T_stat=40, replications=4)
    res = run_phase_grid(spec, small_substrate, Params())
    report = convergence_report(res)
    assert len(report) == 4
    for diag, stats in zip(report, res.cells):
        assert diag.regime is stats.regime
        assert diag.se_mean_S == stats.se_mean_S
        for k, p in stats.pr_ge.items():
            want = math.sqrt(p * (1 - p) / stats.n_obs)
            assert diag.se_pr_ge[k] == pytest.approx(want)
        if diag.regime is RegimeLabel.ABSORPTION:
            assert diag.within_bounds == (diag.se_mean_S < 0.02)
        else:
            assert diag.within_bounds == (
                diag.se_over_mean is not None and diag.se_over_mean < 0.05
            )


def plan_widths(specs, n_workers, n):
    tasks, counts = experiments._plan(specs, n_workers, n)
    # every replication of every spec runs once, in spec and replication order
    flat = [(spec.name, rep) for task in tasks for spec, lo, hi in task for rep in range(lo, hi)]
    assert flat == [(spec.name, rep) for spec in specs for rep in range(spec.replications)]
    assert sum(counts) == sum(len(task) for task in tasks)
    return [sum(hi - lo for _, lo, hi in task) for task in tasks]


def grid_cells(count, replications):
    return [ScenarioSpec(f"cell_{k}", 1.0, 1.5, k, replications=replications) for k in range(count)]


@pytest.mark.parametrize(
    "specs,n_workers,n,widths",
    [
        (preset_scenarios(0, replications=25), 1, 200, [100]),
        (preset_scenarios(0, replications=25), 2, 200, [50, 50]),
        (grid_cells(90, 2), 2, 200, [90, 90]),
        (preset_scenarios(0, replications=4), 2, 2464, [8, 8]),
        (preset_scenarios(0, replications=100), 2, 2464, [100] * 4),  # the paper protocol
    ],
    ids=["n200-serial", "n200-two-workers", "grid", "n2464", "paper"],
)
def test_plan_packs_blocks_up_to_the_value_bound(specs, n_workers, n, widths):
    assert plan_widths(specs, n_workers, n) == widths


def test_plan_keeps_every_task_within_the_bounds():
    for n, n_workers, replications in itertools.product(
        (5, 200, 700, 2464, 70_000), (1, 2, 3), (1, 2, 25, 100, 700)
    ):
        specs = grid_cells(6, replications)
        tasks, _ = experiments._plan(specs, n_workers, n)
        for task, width in zip(tasks, plan_widths(specs, n_workers, n)):
            if len(task) > 1:  # packed blocks stay within the cache-sized bound
                assert width * n <= experiments._PACK_VALUES
            assert width == 1 or width * n <= experiments._MAX_BATCH_VALUES


@pytest.mark.filterwarnings("ignore:contraction check failed")
@pytest.mark.parametrize("hot", [False, True], ids=["runs", "budget-failure"])
def test_packing_bound_changes_no_output(monkeypatch, hot):
    # one task per block against the default packing: the same bytes, or the same
    # error; hot, "early" fails at an earlier period of the batch it shares with "late"
    table = synth_substrate(30, 0.2, 7, mean_leakage=0.22)
    if hot:
        sub = prepare_substrate(table, kind=OperatorKind.ROW_SHARE)
        params = Params(max_relax_rounds=6, redistribution_fraction=0.7)
    else:
        sub, params = prepare_substrate(table), Params()
    specs = [
        ScenarioSpec("late", 0.2, 1.5, master_seed=16, T_burn=0, T_stat=30, replications=2),
        ScenarioSpec("early", 3.0, 2.0, master_seed=4, T_burn=0, T_stat=30, replications=3),
        ScenarioSpec("wide", 1.2, 2.0, master_seed=9, T_burn=2, T_stat=20, replications=4),
    ]

    def outcome():
        try:
            return [
                (r.stats, [a.tobytes() for a in (*r.series, *r.B_realised, *r.relax_rounds)])
                for r in run_scenarios(specs, sub, params, keep_series=True, threads=1)
            ]
        except SimulationError as err:
            return str(err)

    packed = outcome()
    assert len(experiments._plan(specs, 1, sub.operator.n)[0]) == 2
    monkeypatch.setattr(experiments, "_PACK_VALUES", 1)
    assert len(experiments._plan(specs, 1, sub.operator.n)[0]) == len(specs)
    assert outcome() == packed
    assert packed.startswith("scenario 'late' replication 0 ") if hot else len(packed) == 3

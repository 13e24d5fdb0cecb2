import itertools
import math
import multiprocessing
import re
import sys
import warnings

import numpy as np
import pytest

from hallsand import dynamics, experiments
from hallsand.dynamics import Params, RelaxationBudgetError, run_batch
from hallsand.experiments import (
    DEFAULT_SIGMA_B_RATIO,
    SimulationError,
    PRESETS,
    CellStats,
    RegimeLabel,
    ScenarioSpec,
    child_seed,
    grid_scenarios,
    make_cell_stats,
    prepare_substrate,
    preset_scenarios,
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
    # custom cells sit after every preset position, whichever presets are chosen
    for names in (None, [], ["latent"]):
        specs = preset_scenarios(9001, names=names, cells=[("a", 1.0, 1.0), ("b", 2.0, 1.5)])
        assert [s.master_seed for s in specs[-2:]] == [child_seed(9001, 4), child_seed(9001, 5)]
    with pytest.raises(ValueError, match="duplicate scenario name 'critical'"):
        preset_scenarios(9001, names=["critical"], cells=[("critical", 1.0, 1.0)])


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
    stats = make_cell_stats(1.0, 1.0, np.array([[mean_S, mean_S]]))
    assert stats.regime is label


def test_scenario_spec_validation(small_substrate):
    # run_scenarios refuses a bad spec by name, before any task runs
    def refusal(B_bar, sigma_D, sigma_b_ratio=DEFAULT_SIGMA_B_RATIO):
        specs = [ScenarioSpec("good", 1.0, 1.0, 5), ScenarioSpec("x", B_bar, sigma_D, 5)]
        with pytest.raises(ValueError) as caught:
            run_scenarios(specs, small_substrate, Params(), sigma_b_ratio, T_burn=0, T_stat=1, replications=1)
        return str(caught.value)

    assert [r.name for r in run_scenarios(
        [ScenarioSpec("x", 1.0, 1.0, 5)], small_substrate, Params(), T_burn=0, T_stat=1, replications=1
    )] == ["x"]
    assert refusal(-0.1, 1.0) == "scenario 'x': B_bar must be finite and non-negative, got -0.1"
    assert refusal(1.0, 0.0) == "scenario 'x': sigma_D must be finite and positive, got 0.0"
    for bad in (math.nan, math.inf):
        assert refusal(bad, 1.0) == f"scenario 'x': B_bar must be finite and non-negative, got {bad}"
        assert refusal(bad, 1.0, sigma_b_ratio=0.0).startswith("scenario 'x': B_bar ")
        assert refusal(1.0, bad) == f"scenario 'x': sigma_D must be finite and positive, got {bad}"
    # a finite B_bar whose volatility overflows is refused as an overflow
    assert refusal(1e10, 1.0, sigma_b_ratio=1e300) == (
        "scenario 'x': sigma_b_ratio=1e+300 times B_bar=10000000000.0 overflows"
    )


@pytest.mark.parametrize(
    "T_burn,T_stat,replications,message",
    [
        (0, 0, 1, "bad protocol: T_burn=0, T_stat=0"),
        (-1, 5, 1, "bad protocol: T_burn=-1, T_stat=5"),
        (0, 5, 0, "replications must be >= 1, got 0"),
    ],
    ids=["T_stat", "T_burn", "replications"],
)
def test_run_scenarios_validates_the_protocol(small_substrate, T_burn, T_stat, replications, message):
    # once per call, with or without specs
    protocol = {"T_burn": T_burn, "T_stat": T_stat, "replications": replications}
    for specs in ([ScenarioSpec("x", 1.0, 1.0, 5)], []):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_scenarios(specs, small_substrate, Params(), **protocol)


def test_phase_grid_spec_validation():
    assert len(grid_scenarios((0.5, 1.0), (0.5, 1.0), 1)) == 4
    with pytest.raises(ValueError, match="B_values must be strictly ascending"):
        grid_scenarios((1.0, 0.5), (0.5, 1.0), 1)
    with pytest.raises(ValueError, match="B_values must be strictly ascending"):
        grid_scenarios((0.5, 0.5), (0.5, 1.0), 1)
    with pytest.raises(ValueError, match="B_values must be non-empty"):
        grid_scenarios((), (0.5,), 1)
    with pytest.raises(ValueError, match=re.escape("B_values must be finite, got [0.5, inf]")):
        grid_scenarios((0.5, math.inf), (0.5, 1.0), 1)
    with pytest.raises(ValueError, match=re.escape("sigmaD_values must be finite, got [0.5, nan]")):
        grid_scenarios((0.5, 1.0), (0.5, math.nan), 1)


def test_make_cell_stats_hand_values():
    series = np.array([[0, 2, 4, 0], [1, 1, 5, 9]])
    stats = make_cell_stats(1.2, 0.8, series)
    pooled = series.ravel()
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
    stats = make_cell_stats(1.0, 1.0, np.array([[1, 2, 3]]))
    assert stats.se_mean_S == 0.0


def test_run_scenario_protocol(small_substrate):
    spec = ScenarioSpec("probe", 1.0, 1.5, master_seed=42)
    (res,) = run_scenarios([spec], small_substrate, Params(), T_burn=10, T_stat=30, replications=4)
    assert res.name == "probe"
    assert res.stats.n_obs == 4 * 30
    assert res.series.shape == res.B_realised.shape == res.relax_rounds.shape == (4, 30)
    assert res.stats.s_max == int(res.series.max())


def test_run_scenario_deterministic(small_substrate):
    spec = ScenarioSpec("probe", 1.0, 1.5, master_seed=42)
    (a,) = run_scenarios([spec], small_substrate, Params(), T_burn=5, T_stat=20, replications=3)
    (b,) = run_scenarios([spec], small_substrate, Params(), T_burn=5, T_stat=20, replications=3)
    assert a.stats == b.stats


def test_run_scenario_parallel_matches_serial(small_substrate):
    spec = ScenarioSpec("probe", 1.2, 1.5, master_seed=31)
    protocol = {"T_burn": 5, "T_stat": 20, "replications": 4}
    (serial,) = run_scenarios([spec], small_substrate, Params(), threads=1, **protocol)
    # two workers split the one spec into two tasks, joined again in order
    (parallel,) = run_scenarios([spec], small_substrate, Params(), threads=2, **protocol)
    assert serial.stats == parallel.stats
    for field in ("series", "B_realised", "relax_rounds"):
        a, b = getattr(serial, field), getattr(parallel, field)
        assert a.shape == b.shape == (4, 20)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_scenarios_equals_run_scenario_per_spec(small_substrate, threads):
    specs = preset_scenarios(17, names=["latent", "avalanche"])
    specs.append(ScenarioSpec("extra", 1.1, 1.9, master_seed=23))
    protocol = {"T_burn": 5, "T_stat": 15, "replications": 3}
    together = list(run_scenarios(specs, small_substrate, Params(), threads=threads, **protocol))
    assert [r.name for r in together] == [s.name for s in specs]
    for spec, got in zip(specs, together):
        (want,) = run_scenarios([spec], small_substrate, Params(), threads=1, **protocol)
        assert got.stats == want.stats
        for field in ("series", "B_realised", "relax_rounds"):
            assert len(getattr(got, field)) == 3
            for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_run_scenarios_closed_early_cancels_queued_tasks(small_substrate, monkeypatch):
    shutdowns = []

    class SpyPool(experiments.ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
    # no field and little dispersion settle at once; the avalanche preset's field keeps relaxing
    quick = ScenarioSpec("quick", 0.0, 0.5, 1)
    slow = ScenarioSpec("slow", 1.35, 2.3, 2)
    results = run_scenarios(
        [quick, slow], small_substrate, Params(), threads=2, T_burn=20, T_stat=80, replications=50
    )
    assert next(results).name == "quick"
    results.close()  # as when writing the first result fails
    assert shutdowns == [True]


def test_pool_forks_its_workers_where_the_platform_can(small_substrate, monkeypatch):
    # a forked worker inherits the imports and the substrate, where a
    # forkserver or spawned one (Python 3.14's default on Linux) starts anew
    contexts = []

    class SpyPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            contexts.append(mp_context)
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
    specs = preset_scenarios(3, names=["latent", "avalanche"])
    results = run_scenarios(specs, small_substrate, Params(), threads=2, T_burn=2, T_stat=5, replications=2)
    assert [r.name for r in results] == ["latent", "avalanche"]
    (context,) = contexts
    offers_fork = "fork" in multiprocessing.get_all_start_methods()
    assert offers_fork or not sys.platform.startswith("linux")
    assert context.get_start_method() == ("fork" if offers_fork else multiprocessing.get_start_method())


def test_spawned_workers_give_the_forked_bytes(monkeypatch):
    # a spawned worker imports the package anew and unpickles the substrate
    # (forkserver and Python 3.14's Linux default start workers the same way)
    sub = prepare_substrate(synth_substrate(30, 0.2, 7, mean_leakage=0.22))
    specs = preset_scenarios(3, names=["latent", "avalanche"])

    def run():
        results = run_scenarios(specs, sub, Params(), threads=2, T_burn=2, T_stat=5, replications=2)
        return [(r.stats, [getattr(r, f).tobytes() for f in ("series", "B_realised", "relax_rounds")]) for r in results]

    forked = run()
    monkeypatch.setattr(experiments, "_POOL_CONTEXT", multiprocessing.get_context("spawn"))
    assert run() == forked


def test_grid_scenarios_layout(small_substrate):
    B_values, sigmaD_values = (0.5, 1.5), (0.8, 1.6, 2.4)
    specs = grid_scenarios(B_values, sigmaD_values, master_seed=7)
    # row-major: cell (i, j) at i * len(sigmaD_values) + j, seeded from that index
    assert specs == [
        ScenarioSpec(f"cell_{i}_{j}", B_values[i], sigmaD_values[j], child_seed(7, 3 * i + j))
        for i, j in itertools.product(range(2), range(3))
    ]
    results = run_scenarios(specs, small_substrate, Params(), T_burn=5, T_stat=15, replications=2)
    cells = [r.stats for r in results]
    assert [(c.B_bar, c.sigma_D) for c in cells] == list(itertools.product(B_values, sigmaD_values))


def test_single_cell_grid_equals_scenario(small_substrate):
    grid_seed = 555
    protocol = {"T_burn": 5, "T_stat": 25, "replications": 3}
    (cell,) = grid_scenarios((1.0,), (1.5,), master_seed=grid_seed)
    (grid,) = run_scenarios([cell], small_substrate, Params(), **protocol)
    scen = ScenarioSpec("cell", 1.0, 1.5, master_seed=child_seed(grid_seed, 0))
    (res,) = run_scenarios([scen], small_substrate, Params(), **protocol)
    assert grid.stats == res.stats


def test_grid_parallel_matches_serial(small_substrate):
    specs = grid_scenarios((0.5, 1.5), (0.8, 2.0), master_seed=99)
    protocol = {"T_burn": 5, "T_stat": 15, "replications": 2}
    serial = [r.stats for r in run_scenarios(specs, small_substrate, Params(), threads=1, **protocol)]
    parallel = [r.stats for r in run_scenarios(specs, small_substrate, Params(), threads=2, **protocol)]
    assert serial == parallel


def test_contraction_warning_names_the_callers_line():
    # the 2-cycle's row-share operator has radius 1, past the bound for beta=0.4;
    # run_scenarios warns when called, before its first result is asked for
    sub = prepare_substrate(table_from_dense([[0, 2], [5, 0]]), kind=OperatorKind.ROW_SHARE)
    spec = ScenarioSpec("cycle", 0.5, 1.0, master_seed=3)
    grid = grid_scenarios((0.5,), (1.0,), master_seed=3)
    protocol = {"T_burn": 0, "T_stat": 2, "replications": 1}
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        results = run_scenarios([spec], sub, Params(), **protocol)
        assert [x.filename for x in w] == [__file__]
        list(results)
        list(run_scenarios(grid, sub, Params(), **protocol))
    assert [x.filename for x in w] == [__file__] * 2
    assert all("contraction check failed" in str(x.message) for x in w)


@pytest.mark.filterwarnings("ignore:contraction check failed")
@pytest.mark.parametrize(
    "grid,calm_first", [(False, False), (True, False), (False, True)], ids=["False", "True", "second"]
)
def test_engine_failure_in_pool_names_scenario_replication_period(grid, calm_first):
    # full redistribution over the share operator cannot settle in 3 rounds;
    # calm_first runs a calm scenario (no field, which settles over these five
    # periods) ahead of the failing one
    table = synth_substrate(60, 0.15, 7, mean_leakage=0.22)
    hot = prepare_substrate(table, kind=OperatorKind.ROW_SHARE)
    params = Params(max_relax_rounds=3, redistribution_fraction=1.0)
    spec = ScenarioSpec("hot", 6.0, 2.0, master_seed=5)
    protocol = {"T_burn": 1, "T_stat": 4, "replications": 4}
    messages = []
    for threads in (1, 2):
        with pytest.raises(SimulationError) as exc:
            if grid:
                cells = grid_scenarios((6.0,), (2.0,), master_seed=5)
                list(run_scenarios(cells, hot, params, threads=threads, **protocol))
            elif calm_first:
                calm = ScenarioSpec("calm", 0.0, 1.0, master_seed=4)
                list(run_scenarios([calm, spec], hot, params, threads=threads, **protocol))
            else:
                list(run_scenarios([spec], hot, params, threads=threads, **protocol))
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
    spec = ScenarioSpec("late", 0.2, 1.5, master_seed=16)
    sigma_B = DEFAULT_SIGMA_B_RATIO * spec.B_bar
    periods, errors = [], []
    for rep in range(2):
        column = (spec.B_bar, sigma_B, spec.sigma_D, child_seed(spec.master_seed, rep))
        with pytest.raises(RelaxationBudgetError) as exc:
            run_batch(hot.operator, hot.exposure, params, [column], 30)
        periods.append(exc.value.period)
        errors.append(exc.value)
    assert periods[1] < periods[0]
    want = f"scenario 'late' replication 0 period {periods[0]}: {errors[0]} (seed {child_seed(16, 0)})"
    for threads in (1, 2):
        with pytest.raises(SimulationError) as exc:
            list(run_scenarios([spec], hot, params, threads=threads, T_burn=0, T_stat=30, replications=2))
        assert str(exc.value) == want


@pytest.mark.filterwarnings("ignore:contraction check failed")
def test_budget_error_of_a_batch_whose_rerun_fails_again(monkeypatch):
    # replication 2 fails first, then 1, then 0: the batch reruns columns 0-1,
    # whose rerun fails at column 1 and reruns column 0, whose error is raised
    hot = prepare_substrate(synth_substrate(30, 0.2, 7, mean_leakage=0.22), kind=OperatorKind.ROW_SHARE)
    params = Params(max_relax_rounds=6, redistribution_fraction=0.7)
    spec = ScenarioSpec("late", 0.2, 1.5, master_seed=22)
    sigma_B = DEFAULT_SIGMA_B_RATIO * spec.B_bar
    columns = [(spec.B_bar, sigma_B, spec.sigma_D, child_seed(spec.master_seed, rep)) for rep in range(3)]
    alone = []
    for column in columns:
        with pytest.raises(RelaxationBudgetError) as exc:
            run_batch(hot.operator, hot.exposure, params, [column], 30)
        alone.append(exc.value)
    assert alone[2].period < alone[1].period < alone[0].period
    widths = []

    def spy(operator, exposure, params, columns, *args, **kwargs):
        widths.append(len(columns))
        return run_batch(operator, exposure, params, columns, *args, **kwargs)

    monkeypatch.setattr(dynamics, "run_batch", spy)
    with pytest.raises(RelaxationBudgetError) as exc:
        dynamics.run_batch(hot.operator, hot.exposure, params, columns, 30)
    assert widths == [3, 2, 1]
    assert (exc.value.column, exc.value.period, str(exc.value)) == (0, alone[0].period, str(alone[0]))
    monkeypatch.undo()
    want = f"scenario 'late' replication 0 period {alone[0].period}: {alone[0]} (seed {columns[0][3]})"
    for threads in (1, 2):
        with pytest.raises(SimulationError) as exc:
            list(run_scenarios([spec], hot, params, threads=threads, T_burn=0, T_stat=30, replications=3))
        assert str(exc.value) == want


@pytest.mark.filterwarnings("ignore:contraction check failed")
def test_simulation_error_seed_alone_reproduces_the_failure():
    # replications 0-2 settle; replication 3, the batch's last column, fails
    hot = prepare_substrate(synth_substrate(30, 0.2, 7, mean_leakage=0.22), kind=OperatorKind.ROW_SHARE)
    params = Params(max_relax_rounds=15, redistribution_fraction=0.7)
    spec = ScenarioSpec("mild", 0.2, 1.5, master_seed=1)
    with pytest.raises(SimulationError) as exc:
        list(run_scenarios([spec], hot, params, threads=1, T_burn=0, T_stat=30, replications=4))
    head, seed = re.fullmatch(r"(.*) \(seed (\d+)\)", str(exc.value)).groups()
    assert head.startswith("scenario 'mild' replication 3 period ")
    period = int(re.search(r" period (\d+): ", head).group(1))
    column = (spec.B_bar, DEFAULT_SIGMA_B_RATIO * spec.B_bar, spec.sigma_D, int(seed))
    with pytest.raises(RelaxationBudgetError) as alone:
        run_batch(hot.operator, hot.exposure, params, [column], 30)
    assert (alone.value.column, alone.value.period) == (0, period)
    assert head.endswith(f" period {period}: {alone.value}")


def test_cell_stats_convergence_diagnostics(small_substrate):
    specs = grid_scenarios((0.4, 1.8), (0.7, 2.2), master_seed=3)
    results = run_scenarios(specs, small_substrate, Params(), T_burn=10, T_stat=40, replications=4)
    cells = [r.stats for r in results]
    assert len(cells) == 4
    for stats in cells:
        assert sorted(stats.se_pr_ge) == [5, 10, 20]
        for k, p in stats.pr_ge.items():
            want = math.sqrt(p * (1 - p) / stats.n_obs)
            assert stats.se_pr_ge[k] == pytest.approx(want)
        if stats.mean_S > 0:
            assert stats.se_over_mean == stats.se_mean_S / stats.mean_S
        else:
            assert stats.se_over_mean is None
        if stats.regime is RegimeLabel.ABSORPTION:
            assert stats.within_bounds == (stats.se_mean_S < 0.02)
        else:
            assert stats.within_bounds == (
                stats.se_over_mean is not None and stats.se_over_mean < 0.05
            )


@pytest.mark.parametrize(
    "regime, mean_S, se_mean_S",
    [(RegimeLabel.ABSORPTION, 0.01, 0.02), (RegimeLabel.AVALANCHE, 1.0, 0.05)],
)
def test_within_bounds_is_strict(regime, mean_S, se_mean_S):
    # a cell exactly on its bound is out of it; one ulp below is within it
    def cell(se):
        return CellStats(1.0, 1.0, mean_S, se, 0.5, {}, 1.0, 2.0, 3.0, 4, 100, regime)

    on, below = cell(se_mean_S), cell(np.nextafter(se_mean_S, 0.0))
    if regime is not RegimeLabel.ABSORPTION:
        assert on.se_over_mean == 0.05
    assert not on.within_bounds
    assert below.within_bounds


def plan_widths(specs, replications, n_workers, n):
    tasks = experiments._plan(specs, replications, n_workers, n)
    # every replication of every spec runs once, in spec and replication order
    flat = [(spec.name, rep) for task in tasks for spec, lo, hi in task for rep in range(lo, hi)]
    assert flat == [(spec.name, rep) for spec in specs for rep in range(replications)]
    # every spec is cut into the same number of blocks
    assert len(specs) * len({lo for task in tasks for _, lo, _ in task}) == sum(len(task) for task in tasks)
    return [sum(hi - lo for _, lo, hi in task) for task in tasks]


def grid_cells(count):
    return [ScenarioSpec(f"cell_{k}", 1.0, 1.5, k) for k in range(count)]


@pytest.mark.parametrize(
    "specs,replications,n_workers,n,widths",
    [
        (preset_scenarios(0), 25, 1, 200, [100]),
        (preset_scenarios(0), 25, 2, 200, [50, 50]),
        (grid_cells(90), 2, 2, 200, [90, 90]),
        (preset_scenarios(0), 4, 2, 2464, [8, 8]),
        (preset_scenarios(0), 100, 2, 2464, [100] * 4),  # the paper protocol
    ],
    ids=["n200-serial", "n200-two-workers", "grid", "n2464", "paper"],
)
def test_plan_packs_blocks_up_to_the_value_bound(specs, replications, n_workers, n, widths):
    assert plan_widths(specs, replications, n_workers, n) == widths


def test_plan_keeps_every_task_within_the_bounds():
    for n, n_workers, replications in itertools.product(
        (5, 200, 700, 2464, 70_000), (1, 2, 3), (1, 2, 25, 100, 700)
    ):
        specs = grid_cells(6)
        tasks = experiments._plan(specs, replications, n_workers, n)
        for task, width in zip(tasks, plan_widths(specs, replications, n_workers, n)):
            if len(task) > 1:  # packed blocks stay within the cache-sized bound
                assert width * n <= experiments._PACK_VALUES
            assert width == 1 or width * n <= experiments._MAX_BATCH_VALUES


@pytest.mark.filterwarnings("ignore:contraction check failed")
@pytest.mark.parametrize("hot", [False, True], ids=["runs", "budget-failure"])
def test_packing_bound_changes_no_output(monkeypatch, hot):
    # one task per block against the default packing, which packs all three into
    # one batch: the same bytes, or the same error; hot, "early" fails at an
    # earlier period of the batch it shares with "late"
    table = synth_substrate(30, 0.2, 7, mean_leakage=0.22)
    if hot:
        sub = prepare_substrate(table, kind=OperatorKind.ROW_SHARE)
        params = Params(max_relax_rounds=6, redistribution_fraction=0.7)
    else:
        sub, params = prepare_substrate(table), Params()
    specs = [
        ScenarioSpec("late", 0.2, 1.5, master_seed=16),
        ScenarioSpec("early", 3.0, 2.0, master_seed=4),
        ScenarioSpec("wide", 1.2, 2.0, master_seed=9),
    ]

    def outcome():
        try:
            return [
                (r.stats, [a.tobytes() for a in (*r.series, *r.B_realised, *r.relax_rounds)])
                for r in run_scenarios(specs, sub, params, threads=1, T_burn=0, T_stat=30, replications=3)
            ]
        except SimulationError as err:
            return str(err)

    packed = outcome()
    assert len(experiments._plan(specs, 3, 1, sub.operator.n)) == 1
    monkeypatch.setattr(experiments, "_PACK_VALUES", 1)
    assert len(experiments._plan(specs, 3, 1, sub.operator.n)) == len(specs)
    assert outcome() == packed
    assert packed.startswith("scenario 'late' replication 0 ") if hot else len(packed) == 3

"""Monte Carlo scenario runs, phase grids, and regime classification."""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .dynamics import FieldModel, Params, RelaxationBudgetError, contraction_check, run_batch
from .exposure import DEFAULT_EPSILON, DEFAULT_FLOOR, ExposureProfile, compute_exposure
from .ingest import IOTable
from .operators import OperatorKind, PropagationOperator, build_operator

# Named (B_bar, sigma_D) cells used throughout the scenario analysis.
PRESETS: dict[str, tuple[float, float]] = {
    "stable": (0.45, 0.7),
    "latent": (0.70, 1.4),
    "critical": (1.00, 1.8),
    "avalanche": (1.35, 2.3),
}

DEFAULT_SIGMA_B_RATIO = 0.10

# The default phase grid's axes, as np.linspace (low, high, steps).
DEFAULT_B_AXIS = (0.25, 2.0, 10)
DEFAULT_SIGMA_D_AXIS = (0.5, 2.5, 9)

# Regime bands on mean cascade size; each boundary belongs to the band above it.
_ABSORPTION_MAX = 0.30
_LATENT_MAX = 1.5
_CRITICAL_MAX = 5.0

_MASK64 = (1 << 64) - 1


class SimulationError(RuntimeError):
    """An engine failure wrapped with its scenario, replication, period and seed."""


class RegimeLabel(str, Enum):
    ABSORPTION = "absorption"
    LATENT_FRAGILITY = "latent_fragility"
    CRITICAL_TRANSITION = "critical_transition"
    AVALANCHE = "avalanche"


@dataclass(frozen=True)
class Substrate:
    """A table with its propagation operator and exposure profile precomputed."""

    table: IOTable
    operator: PropagationOperator
    exposure: ExposureProfile


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo cell: field level, dispersion, and the run protocol."""

    name: str
    B_bar: float
    sigma_D: float
    master_seed: int
    T_burn: int = 50
    T_stat: int = 150
    replications: int = 100

    def validate(self) -> None:
        if not 0.0 <= self.B_bar < math.inf:
            raise ValueError(f"B_bar must be finite and non-negative, got {self.B_bar}")
        if not 0.0 < self.sigma_D < math.inf:
            raise ValueError(f"sigma_D must be finite and positive, got {self.sigma_D}")
        if self.T_burn < 0 or self.T_stat < 1:
            raise ValueError(f"bad protocol: T_burn={self.T_burn}, T_stat={self.T_stat}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")


@dataclass(frozen=True)
class CellStats:
    """Pooled post-burn cascade statistics for one (B_bar, sigma_D) cell."""

    B_bar: float
    sigma_D: float
    mean_S: float
    se_mean_S: float
    pr_nonzero: float
    pr_ge: dict[int, float]
    p50: float
    p95: float
    p99: float
    s_max: int
    n_obs: int
    regime: RegimeLabel


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    stats: CellStats
    series: tuple[np.ndarray, ...] | None
    B_realised: tuple[np.ndarray, ...] | None = None
    relax_rounds: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True)
class PhaseGridSpec:
    """Cartesian sweep over field levels and dispersion values."""

    B_values: tuple[float, ...]
    sigmaD_values: tuple[float, ...]
    master_seed: int
    T_burn: int = 50
    T_stat: int = 150
    replications: int = 50

    def validate(self) -> None:
        for name, axis in (("B_values", self.B_values), ("sigmaD_values", self.sigmaD_values)):
            if len(axis) == 0:
                raise ValueError(f"{name} must be non-empty")
            if not all(math.isfinite(v) for v in axis):
                raise ValueError(f"{name} must be finite, got {list(axis)}")
            if list(axis) != sorted(set(axis)):
                raise ValueError(f"{name} must be strictly ascending")

    @property
    def n_cells(self) -> int:
        return len(self.B_values) * len(self.sigmaD_values)


@dataclass(frozen=True)
class PhaseGridResult:
    spec: PhaseGridSpec
    cells: tuple[CellStats, ...]  # row-major: B outer, sigma_D inner

    def cell(self, i_B: int, i_sD: int) -> CellStats:
        return self.cells[i_B * len(self.spec.sigmaD_values) + i_sD]

    def mean_S_grid(self) -> np.ndarray:
        shape = (len(self.spec.B_values), len(self.spec.sigmaD_values))
        return np.array([c.mean_S for c in self.cells]).reshape(shape)


@dataclass(frozen=True)
class CellDiagnostics:
    """Convergence report row: standard errors against the protocol bounds."""

    B_bar: float
    sigma_D: float
    regime: RegimeLabel
    mean_S: float
    se_mean_S: float
    se_over_mean: float | None
    se_pr_ge: dict[int, float]
    within_bounds: bool


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(master: int, *indices: int) -> int:
    """Derive a child seed by hashing indices into the master, left to right.

    Deriving in stages gives the same child as deriving in one call
    (child_seed(m, a, b) == child_seed(child_seed(m, a), b)), so grid cells
    and replications can be split independently and in any order.
    """
    state = master & _MASK64
    for ix in indices:
        state = _splitmix64(state ^ _splitmix64((ix + 1) & _MASK64))
    return state


def default_phase_grid(master_seed: int, replications: int = 50) -> PhaseGridSpec:
    """The 90-cell sweep: 10 field levels on [0.25, 2.0] by 9 dispersion
    values on [0.5, 2.5]."""
    return PhaseGridSpec(
        B_values=tuple(float(b) for b in np.linspace(*DEFAULT_B_AXIS)),
        sigmaD_values=tuple(float(s) for s in np.linspace(*DEFAULT_SIGMA_D_AXIS)),
        master_seed=master_seed,
        replications=replications,
    )


def prepare_substrate(
    table: IOTable,
    kind: OperatorKind = OperatorKind.LEAKAGE_ADJUSTED,
    d_floor: float = DEFAULT_FLOOR,
    c_floor: float = DEFAULT_FLOOR,
    epsilon: float = DEFAULT_EPSILON,
) -> Substrate:
    """Build the operator and exposure profile once for reuse across cells."""
    operator = build_operator(table, kind)
    exposure = compute_exposure(table, B=1.0, d_floor=d_floor, c_floor=c_floor, epsilon=epsilon)
    return Substrate(table=table, operator=operator, exposure=exposure)


def _classify(mean_S: float) -> RegimeLabel:
    """Band a cell by mean cascade size; boundaries belong to the band above."""
    if mean_S < _ABSORPTION_MAX:
        return RegimeLabel.ABSORPTION
    if mean_S < _LATENT_MAX:
        return RegimeLabel.LATENT_FRAGILITY
    if mean_S < _CRITICAL_MAX:
        return RegimeLabel.CRITICAL_TRANSITION
    return RegimeLabel.AVALANCHE


def make_cell_stats(
    B_bar: float, sigma_D: float, series: Sequence[np.ndarray]
) -> CellStats:
    """Pool per-replication series into one cell's statistics.

    The standard error of mean_S comes from the spread of per-replication
    means (0 when there is a single replication).
    """
    pooled = np.concatenate(series)
    rep_means = np.array([float(s.mean()) for s in series])
    R = len(series)
    se = float(np.std(rep_means, ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    mean_S = float(pooled.mean())
    p50, p95, p99 = (float(q) for q in np.percentile(pooled, [50, 95, 99]))
    return CellStats(
        B_bar=B_bar,
        sigma_D=sigma_D,
        mean_S=mean_S,
        se_mean_S=se,
        pr_nonzero=float(np.mean(pooled > 0)),
        pr_ge={k: float(np.mean(pooled >= k)) for k in (5, 10, 20)},
        p50=p50,
        p95=p95,
        p99=p99,
        s_max=int(pooled.max()),
        n_obs=int(pooled.size),
        regime=_classify(mean_S),
    )


# A block is a contiguous range of one spec's replications: (spec, lo, hi).
Block = tuple[ScenarioSpec, int, int]

# Blocks share a batch with their neighbours up to this many stress values
# (columns x nodes): 512 KB per n x k array, so a batch's arrays stay in cache.
_PACK_VALUES = 1 << 16
# The widest batch, in stress values: 8 MB per n x k array.
_MAX_BATCH_VALUES = 1 << 20


def _plan(specs: list[ScenarioSpec], n_workers: int, n: int) -> tuple[list[list[Block]], list[int]]:
    """Group the specs' replications into tasks, each run as one batch.

    Each spec is one block, or several contiguous blocks when there are fewer
    specs than workers or it is wider than the widest batch. Consecutive
    blocks with the same protocol share a task up to _PACK_VALUES stress
    values, and to no more than an even share of the columns per worker,
    since a batch's cost per column falls with its width until its arrays
    outgrow the cache. Returns the tasks, in spec order, and the number of
    blocks of each spec.
    """
    widest = max(1, _MAX_BATCH_VALUES // n)
    parts = -(-n_workers // len(specs))
    blocks: list[Block] = []
    counts = []
    for spec in specs:
        k = max(parts, -(-spec.replications // widest))
        bounds = sorted({spec.replications * i // k for i in range(k + 1)})
        blocks += [(spec, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        counts.append(len(bounds) - 1)
    total = sum(hi - lo for _, lo, hi in blocks)
    pack = min(max(1, _PACK_VALUES // n), -(-total // n_workers))  # every worker gets a task
    tasks: list[list[Block]] = []
    width = 0
    for block in blocks:
        spec, lo, hi = block
        last = tasks[-1][-1][0] if tasks else None
        same = last is not None and (last.T_burn, last.T_stat) == (spec.T_burn, spec.T_stat)
        if same and width + hi - lo <= pack:
            tasks[-1].append(block)
            width += hi - lo
        else:
            tasks.append([block])
            width = hi - lo
    return tasks, counts


def _run_task(
    substrate: Substrate, params: Params, sigma_b_ratio: float, task: list[Block]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run a task's blocks as one batch; per block, post-burn S, B_t and rounds, one row each."""
    owners = [(spec, rep) for spec, lo, hi in task for rep in range(lo, hi)]
    columns = [
        (
            FieldModel(spec.B_bar, sigma_b_ratio * spec.B_bar),
            spec.sigma_D,
            child_seed(spec.master_seed, rep),
        )
        for spec, rep in owners
    ]
    protocol = task[0][0]  # every block of a task has the same T_burn and T_stat
    try:
        S, B, rounds = run_batch(
            substrate.operator,
            substrate.exposure,
            params,
            columns,
            protocol.T_burn + protocol.T_stat,
            keep_from=protocol.T_burn,
        )
    except RelaxationBudgetError as err:
        spec, rep = owners[err.column]
        raise SimulationError(
            f"scenario {spec.name!r} replication {rep} period {err.period}: {err}"
            f" (seed {columns[err.column][2]})"
        ) from err
    out = []
    start = 0
    for _, lo, hi in task:
        rows = slice(start, start + hi - lo)
        out.append((S[rows], B[rows], rounds[rows]))
        start += hi - lo
    return out


# (substrate, params, sigma_b_ratio), set once in each pool worker by _init_worker,
# so that a task carries only its blocks.
_worker_context: tuple = ()


def _init_worker(*context) -> None:
    global _worker_context
    _worker_context = context


def _worker_task(task: list[Block]):
    return _run_task(*_worker_context, task)


def resolve_threads(threads: int | None) -> int:
    """Worker count: explicit value, else HALLSAND_THREADS, else one per CPU."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        return threads
    env = os.environ.get("HALLSAND_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"HALLSAND_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"HALLSAND_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def run_scenarios(
    specs: list[ScenarioSpec],
    substrate: Substrate,
    params: Params,
    sigma_b_ratio: float = DEFAULT_SIGMA_B_RATIO,
    keep_series: bool = False,
    threads: int | None = 1,
) -> Iterator[ScenarioResult]:
    """Run every replication of every spec; yield one result per spec, in spec order.

    Replication r runs on its own stream seeded child_seed(master_seed, r),
    so results are independent of execution order; the fold over
    replications is by index, making serial and parallel runs identical.
    Each task runs its replications together as one batch (see run_batch):
    a spec, a block of a spec's replications when there are fewer specs than
    workers, or a run of narrow specs with the same protocol (see _plan).
    With more than one worker, one process pool runs the tasks and receives
    the substrate once per worker through its initializer. Each spec's
    result is yielded as soon as its task is done, so a caller can write or
    reduce it before later specs' series are held; a failing task raises
    before any of its specs is yielded. The inputs are validated and the
    contraction check runs once per call, here, when it is made, not in the
    workers.
    """
    return _start(specs, substrate, params, sigma_b_ratio, keep_series, threads)


def _start(specs, substrate, params, sigma_b_ratio, keep_series, threads) -> Iterator[ScenarioResult]:
    # Validates and warns before the first result is asked for; the warning
    # names the line that called the public function that called this one.
    for spec in specs:
        spec.validate()
    params.validate(substrate.operator.n)
    if not 0.0 <= sigma_b_ratio < math.inf:
        raise ValueError(f"sigma_b_ratio must be finite and non-negative, got {sigma_b_ratio}")
    if not specs:
        return iter(())
    n_workers = resolve_threads(threads)
    check = contraction_check(params, substrate.operator.spectral_radius)
    if not check.passed:
        warnings.warn(
            f"contraction check failed: beta={params.beta} >= bound={check.bound:.4g}; "
            "stress feedback may not be stable",
            RuntimeWarning,
            stacklevel=3,
        )
    return _results(specs, substrate, params, sigma_b_ratio, keep_series, n_workers)


def _results(specs, substrate, params, sigma_b_ratio, keep_series, n_workers) -> Iterator[ScenarioResult]:
    tasks, counts = _plan(specs, n_workers, substrate.operator.n)
    n_workers = min(n_workers, len(tasks))
    context = (substrate, params, sigma_b_ratio)
    with ExitStack() as stack:
        if n_workers > 1:
            pool = ProcessPoolExecutor(n_workers, initializer=_init_worker, initargs=context)
            # a caller that stops early (a failed write) does not wait for the queued tasks
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_worker_task, tasks)
        else:
            results = (_run_task(*context, task) for task in tasks)
        blocks = (block for task_result in results for block in task_result)
        for spec, count in zip(specs, counts):
            done = list(islice(blocks, count))
            S, B, rounds = (tuple(row for block in done for row in block[k]) for k in range(3))
            stats = make_cell_stats(spec.B_bar, spec.sigma_D, S)
            if keep_series:
                yield ScenarioResult(spec.name, stats, S, B_realised=B, relax_rounds=rounds)
            else:
                yield ScenarioResult(spec.name, stats, series=None)


def run_scenario(
    spec: ScenarioSpec,
    substrate: Substrate,
    params: Params,
    sigma_b_ratio: float = DEFAULT_SIGMA_B_RATIO,
    keep_series: bool = False,
    threads: int | None = 1,
) -> ScenarioResult:
    """Run one cell's replications and pool the post-burn statistics."""
    (result,) = _start([spec], substrate, params, sigma_b_ratio, keep_series, threads)
    return result


def run_phase_grid(
    spec: PhaseGridSpec,
    substrate: Substrate,
    params: Params,
    sigma_b_ratio: float = DEFAULT_SIGMA_B_RATIO,
    threads: int | None = 1,
) -> PhaseGridResult:
    """Sweep the grid cell by cell, row-major (field outer, dispersion inner).

    Cell (i, j) gets master seed child_seed(grid_seed, cell_index), so a
    single-cell grid reproduces run_scenario under the same derivation, and
    all replications of all cells share one pool with an index-ordered fold.
    """
    spec.validate()
    cells: list[ScenarioSpec] = []
    for i, B_bar in enumerate(spec.B_values):
        for j, sigma_D in enumerate(spec.sigmaD_values):
            index = i * len(spec.sigmaD_values) + j
            cells.append(
                ScenarioSpec(
                    name=f"cell_{i}_{j}",
                    B_bar=B_bar,
                    sigma_D=sigma_D,
                    master_seed=child_seed(spec.master_seed, index),
                    T_burn=spec.T_burn,
                    T_stat=spec.T_stat,
                    replications=spec.replications,
                )
            )
    results = _start(cells, substrate, params, sigma_b_ratio, False, threads)
    return PhaseGridResult(spec=spec, cells=tuple(r.stats for r in results))


def convergence_report(result: PhaseGridResult) -> list[CellDiagnostics]:
    """Per-cell standard errors with the protocol's precision flags.

    Absorbing cells must have se(mean_S) below 0.02; all other cells must
    have se/mean below 5%. Tail probabilities get binomial standard errors.
    """
    report = []
    for stats in result.cells:
        se_pr = {
            k: math.sqrt(p * (1.0 - p) / stats.n_obs) for k, p in sorted(stats.pr_ge.items())
        }
        ratio = stats.se_mean_S / stats.mean_S if stats.mean_S > 0 else None
        if stats.regime is RegimeLabel.ABSORPTION:
            ok = stats.se_mean_S < 0.02
        else:
            ok = ratio is not None and ratio < 0.05
        report.append(
            CellDiagnostics(
                B_bar=stats.B_bar,
                sigma_D=stats.sigma_D,
                regime=stats.regime,
                mean_S=stats.mean_S,
                se_mean_S=stats.se_mean_S,
                se_over_mean=ratio,
                se_pr_ge=se_pr,
                within_bounds=ok,
            )
        )
    return report


def preset_scenarios(
    master_seed: int,
    T_burn: int = 50,
    T_stat: int = 150,
    replications: int = 100,
    names: list[str] | None = None,
) -> list[ScenarioSpec]:
    """The named preset cells as runnable scenario specs.

    Each preset derives its master seed from its position in the canonical
    ordering, so adding or dropping presets does not shift the others.
    """
    chosen = names if names is not None else list(PRESETS)
    specs = []
    order = list(PRESETS)
    for name in chosen:
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; expected one of {order}")
        B_bar, sigma_D = PRESETS[name]
        specs.append(
            ScenarioSpec(
                name=name,
                B_bar=B_bar,
                sigma_D=sigma_D,
                master_seed=child_seed(master_seed, order.index(name)),
                T_burn=T_burn,
                T_stat=T_stat,
                replications=replications,
            )
        )
    return specs

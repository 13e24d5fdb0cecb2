"""Generated-input differential test of the batched engine.

run_scenarios runs each task's replications as one stress block; every
replication must equal, bit for bit, its own one-column run_batch and the
scalar-loop reference engine, and a failing run must report the error that
running the replications one by one, in order, meets first. The batch runs
twice: with every relaxation round over the toppled rows of A only, and with
every round over all of A.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hallsand.dynamics import FieldModel, Params, RelaxationBudgetError, run_batch  # noqa: E402
from hallsand.experiments import (  # noqa: E402
    ScenarioSpec,
    SimulationError,
    child_seed,
    prepare_substrate,
    run_scenarios,
)
from hallsand.ingest import synth_substrate  # noqa: E402
from hallsand.operators import OperatorKind  # noqa: E402

from conftest import FORCE_FULL, FORCE_SLICED, relaxation_products, settled_stress  # noqa: E402
from scalar_oracle import ScalarLoopEngine  # noqa: E402


@st.composite
def cases(draw):
    n = draw(st.integers(2, 7))
    table = synth_substrate(n, draw(st.floats(0.3, 0.9)), draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from([OperatorKind.LEAKAGE_ADJUSTED, OperatorKind.ROW_SHARE]))
    if draw(st.booleans()):
        theta = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    else:
        theta = draw(st.floats(0.5, 1.5))
    params = Params(
        theta=theta,
        theta_reset=draw(st.floats(0.0, 0.45)),
        redistribution_fraction=draw(st.floats(0.0, 1.0)),
        count_unique=draw(st.booleans()),
        max_relax_rounds=draw(st.one_of(st.none(), st.integers(1, 8))),
    )
    protocol = (draw(st.integers(0, 4)), draw(st.integers(1, 8)))
    specs = []
    for i in range(draw(st.integers(1, 3))):
        T_burn, T_stat = protocol if draw(st.booleans()) else (draw(st.integers(0, 4)), draw(st.integers(1, 8)))
        specs.append(
            ScenarioSpec(
                f"s{i}",
                B_bar=draw(st.floats(0.0, 2.5)),
                sigma_D=draw(st.floats(0.3, 3.0)),
                master_seed=draw(st.integers(0, 2**64 - 1)),
                T_burn=T_burn,
                T_stat=T_stat,
                replications=draw(st.integers(1, 6)),
            )
        )
    return prepare_substrate(table, kind=kind), params, specs, draw(st.floats(0.0, 0.5))


def one_by_one(sub, params, specs, sigma_b_ratio):
    """Per spec, the post-burn (S, B_realised, relax_rounds) series of each replication,
    from its own one-column run_batch; or the first error in spec and replication order."""
    results = []
    for spec in specs:
        fieldmodel = FieldModel(spec.B_bar, sigma_b_ratio * spec.B_bar)
        periods = spec.T_burn + spec.T_stat
        series = []
        for rep in range(spec.replications):
            seed = child_seed(spec.master_seed, rep)
            column = (fieldmodel, spec.sigma_D, seed)
            try:
                with settled_stress() as blocks:
                    sizes, fields, rounds = run_batch(sub.operator, sub.exposure, params, [column], periods)
            except RelaxationBudgetError as err:
                return results, (
                    f"scenario {spec.name!r} replication {rep} period {err.period}: {err} (seed {seed})"
                )
            oracle = ScalarLoopEngine(sub.operator, sub.exposure, params, sigma_D=spec.sigma_D, seed=seed)
            assert sizes[0].tolist() == oracle.run(fieldmodel.B_bar, fieldmodel.sigma_B, periods)
            assert blocks[-1][:, 0].tobytes() == np.array(oracle.s).tobytes()
            series.append(tuple(row[0, spec.T_burn:] for row in (sizes, fields, rounds)))
        results.append(series)
    return results, None


@pytest.mark.filterwarnings("ignore:contraction check failed")
@settings(max_examples=100)
@given(cases())
def test_run_scenarios_equals_replications_one_by_one(case):
    sub, params, specs, sigma_b_ratio = case
    want, error = one_by_one(sub, params, specs, sigma_b_ratio)
    # the drawn substrates are too small for the cost rule to slice a round,
    # so each relaxation product is forced in turn
    for threshold in (FORCE_SLICED, FORCE_FULL):
        with relaxation_products(threshold):
            got = run_scenarios(specs, sub, params, sigma_b_ratio, keep_series=True, threads=1)
            if error is not None:
                with pytest.raises(SimulationError) as exc:
                    list(got)
                assert str(exc.value) == error
                continue
            for result, series in zip(got, want, strict=True):
                for k, field in enumerate(("series", "B_realised", "relax_rounds")):
                    rows = getattr(result, field)
                    assert len(rows) == len(series)
                    for row, expected in zip(rows, series):
                        assert row.dtype == expected[k].dtype
                        assert row.tobytes() == expected[k].tobytes()

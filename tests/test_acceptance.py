"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single `criterion N: PASS ...` or `... FAIL ...` line
before asserting, so `pytest tests/test_acceptance.py -v -s` reads as a
checklist. Substrates and seeds are frozen so the checklist is reproducible
run to run. Criterion 9 needs a converted WIOD 2014 table and is skipped
with a SKIP line when none is supplied.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from hallsand.cli import main as cli_main
from hallsand.dynamics import (
    Params,
    RelaxationBudgetError,
    gap_field_sensitivity,
    gap_redundancy_sensitivity,
    hall_adjusted_threshold,
    run_batch,
)
from hallsand.experiments import (
    RegimeLabel,
    child_seed,
    grid_scenarios,
    prepare_substrate,
    preset_scenarios,
    run_scenarios,
)
from hallsand.ingest import parse_io_table, synth_substrate
from hallsand.operators import (
    OperatorKind,
    build_operator,
    leakage_profile,
    spectral_radius,
)
from hallsand.tail import select_xmin

from conftest import powerlaw_samples, settled_stress
from scalar_oracle import ScalarLoopEngine


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def desk_substrate():
    """200-node synthetic table with a quiet baseline leak level."""
    return prepare_substrate(synth_substrate(200, 0.1, 7, mean_leakage=0.22))


def test_criterion_1_operator_invariants_bulk():
    rng = np.random.default_rng(117)
    t0 = time.perf_counter()
    worst_row = 0.0
    ordering_failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        density = float(rng.uniform(0.15, 0.6))
        table = synth_substrate(n, density, int(rng.integers(0, 2**31)))
        leak_shares = leakage_profile(table)
        share = build_operator(table, OperatorKind.ROW_SHARE)
        leak = build_operator(table, OperatorKind.LEAKAGE_ADJUSTED)
        maxrow = build_operator(table, OperatorKind.MAX_ROW)
        pos = table.outflow_totals() > 0
        share_rows = np.asarray(share.matrix.sum(axis=1)).ravel()
        leak_rows = np.asarray(leak.matrix.sum(axis=1)).ravel()
        max_rows = np.asarray(maxrow.matrix.sum(axis=1)).ravel()
        worst_row = max(
            worst_row,
            float(np.abs(share_rows[pos] - 1.0).max()),
            float(np.abs(leak_rows - leak_shares).max()),
            abs(float(max_rows.max()) - 1.0),
        )
        if leak.spectral_radius > share.spectral_radius:
            ordering_failures += 1
    elapsed = time.perf_counter() - t0
    ok = worst_row <= 1e-12 and ordering_failures == 0 and elapsed < 10.0
    line = _report(
        1,
        ok,
        f"1000 tables (n <= 50): worst row-sum error {worst_row:.2e}, "
        f"leak<=share ordering failures {ordering_failures}, {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_2_power_iteration_matches_dense_solver():
    rng = np.random.default_rng(220)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        density = float(rng.uniform(0.2, 0.9))
        dense = rng.random((n, n))
        dense[rng.random((n, n)) >= density] = 0.0
        rho_power = spectral_radius(sparse.csr_matrix(dense))
        rho_dense = float(np.abs(np.linalg.eigvals(dense)).max())
        worst = max(worst, abs(rho_power - rho_dense))
    ok = worst <= 1e-8
    line = _report(
        2, ok, f"200 random non-negative matrices (n <= 50): worst gap {worst:.2e}"
    )
    assert ok, line


def test_criterion_3_threshold_shift_identity_and_gap_derivatives():
    rng = np.random.default_rng(31007)
    m = 1_000_000
    s = rng.uniform(0.0, 2.0, m)
    theta = rng.uniform(0.5, 1.5, m)
    gH = rng.uniform(0.0, 1.0, m) * rng.uniform(0.0, 2.0, m)
    lhs = s >= theta
    rhs = (s - gH) >= hall_adjusted_threshold(theta, 1.0, gH)
    mismatches = int(np.count_nonzero(lhs != rhs))

    B = rng.uniform(0.2, 2.0, 200)
    D = rng.uniform(0.05, 1.0, 200)
    C = rng.uniform(0.05, 1.0, 200)
    I = rng.uniform(0.001, 0.05, 200)
    eps = 1e-6

    def gap_at(Bv, Dv):
        return 1.0 - 0.5 * Bv * I / (Dv * C + eps) - 0.25

    hB = 1e-6 * np.maximum(1.0, B)
    hD = 1e-6 * np.maximum(1.0, D)
    fd_B = (gap_at(B + hB, D) - gap_at(B - hB, D)) / (2.0 * hB)
    fd_D = (gap_at(B, D + hD) - gap_at(B, D - hD)) / (2.0 * hD)
    aB = gap_field_sensitivity(0.5, I, D, C, eps)
    aD = gap_redundancy_sensitivity(0.5, B, I, D, C, eps)
    rel = max(
        float(np.abs((fd_B - aB) / aB).max()),
        float(np.abs((fd_D - aD) / aD).max()),
    )
    signs_ok = bool((aB < 0).all() and (aD > 0).all())
    ok = mismatches == 0 and rel < 1e-4 and signs_ok
    line = _report(
        3,
        ok,
        f"shift identity mismatches {mismatches}/1000000 (zero tolerance), "
        f"gap derivative rel error {rel:.1e}, signs ok {signs_ok}",
    )
    assert ok, line


@pytest.mark.filterwarnings("ignore:contraction check failed")
def test_criterion_4_engine_matches_scalar_loop():
    rng = np.random.default_rng(404)
    mismatched = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        density = float(rng.uniform(0.3, 0.9))
        table = synth_substrate(n, density, int(rng.integers(0, 2**31)))
        sub = prepare_substrate(table)
        sigma_D = float(rng.uniform(0.5, 2.5))
        B_bar = float(rng.uniform(0.3, 1.6))
        seed = int(rng.integers(0, 2**31))
        params = Params()
        oracle = ScalarLoopEngine(
            sub.operator, sub.exposure, params, sigma_D=sigma_D, seed=seed
        )
        expected = oracle.run(B_bar, 0.10 * B_bar, 50)
        with settled_stress() as blocks:
            sizes, _, _ = run_batch(
                sub.operator, sub.exposure, params, [(B_bar, 0.10 * B_bar, sigma_D, seed)], 50
            )
        if sizes[0].tolist() != expected or not np.array_equal(blocks[-1][:, 0], np.asarray(oracle.s)):
            mismatched += 1
    ok = mismatched == 0
    line = _report(
        4,
        ok,
        f"100 seeded runs x 50 periods (n <= 6): {mismatched} runs deviate from "
        "the scalar-loop reference",
    )
    assert ok, line


def test_criterion_5_long_run_boundedness():
    t0 = time.perf_counter()
    sub = prepare_substrate(synth_substrate(500, 0.05, 13, mean_leakage=0.30))
    rho = sub.operator.spectral_radius
    column = (1.35, 0.10 * 1.35, 2.3, child_seed(5150, 0))
    budget_error = False
    with settled_stress() as blocks:
        try:
            run_batch(sub.operator, sub.exposure, Params(), [column], 10_000)
        except RelaxationBudgetError:
            budget_error = True
    # the peak of the settled periods; a failing period leaves its stress unsettled
    peak = max((float(S.max()) for S in blocks[: len(blocks) - budget_error]), default=0.0)
    finite = bool(np.isfinite(blocks[-1]).all()) and math.isfinite(peak)
    elapsed = time.perf_counter() - t0
    ok = (
        rho <= 0.35
        and not budget_error
        and finite
        and peak < 50.0
        and elapsed < 120.0
    )
    line = _report(
        5,
        ok,
        f"500 nodes, rho {rho:.3f} <= 0.35, 10000 periods: budget error "
        f"{budget_error}, all finite {finite}, peak stress {peak:.3f} < 50 theta, "
        f"{elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_6_preset_regime_ordering(desk_substrate):
    t0 = time.perf_counter()
    specs = preset_scenarios(20140825)
    results = run_scenarios(specs, desk_substrate, Params(), threads=1, T_burn=50, T_stat=150, replications=30)
    stats = [r.stats for r in results]
    elapsed = time.perf_counter() - t0
    means = [s.mean_S for s in stats]
    pr5 = [s.pr_ge[5] for s in stats]
    strictly_up = all(b > a for a, b in zip(means, means[1:]))
    non_decreasing = all(b >= a for a, b in zip(pr5, pr5[1:]))
    ok = strictly_up and non_decreasing and elapsed < 300.0
    line = _report(
        6,
        ok,
        "mean_S " + " -> ".join(f"{m:.3f}" for m in means)
        + f" strictly increasing {strictly_up}, Pr(S>=5) chain non-decreasing "
        f"{non_decreasing}, {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_7_phase_monotonicity(desk_substrate):
    B_values = tuple(float(b) for b in np.linspace(0.25, 2.0, 6))
    sigmaD_values = tuple(float(v) for v in np.linspace(0.5, 2.5, 6))
    specs = grid_scenarios(B_values, sigmaD_values, master_seed=77001)
    results = run_scenarios(specs, desk_substrate, Params(), threads=1, T_burn=50, T_stat=150, replications=20)
    cells = [r.stats for r in results]
    nB, nS = len(B_values), len(sigmaD_values)
    pairs = 0
    violations = 0
    for i in range(nB):
        for j in range(nS):
            cur = cells[i * nS + j]
            for ii, jj in ((i + 1, j), (i, j + 1)):
                if ii >= nB or jj >= nS:
                    continue
                nxt = cells[ii * nS + jj]
                pairs += 1
                pooled = math.hypot(cur.se_mean_S, nxt.se_mean_S)
                if nxt.mean_S < cur.mean_S - 2.0 * pooled:
                    violations += 1
    avalanche_cells = [
        (i, j)
        for i in range(nB)
        for j in range(nS)
        if cells[i * nS + j].regime is RegimeLabel.AVALANCHE
    ]
    interior_only = bool(avalanche_cells) and all(
        i > 0 and j > 0 for i, j in avalanche_cells
    )
    ok = pairs == 60 and violations / pairs < 0.05 and interior_only
    line = _report(
        7,
        ok,
        f"6x6 grid: {violations}/{pairs} adjacent pairs exceed 2 pooled SE, "
        f"{len(avalanche_cells)} avalanche cells all above both grid minima "
        f"{interior_only}",
    )
    assert ok, line


def test_criterion_8_tail_recovery():
    parts = []
    ok = True
    for k, (alpha, x_min) in enumerate([(1.5, 4), (2.5, 9), (6.0, 25)]):
        rng = np.random.default_rng(child_seed(8088, k))
        samples = powerlaw_samples(rng, alpha, x_min, 100_000)
        est = select_xmin(samples, x_min=x_min).alpha
        se = (est - 1.0) / math.sqrt(samples.size)
        ok = ok and abs(est - alpha) <= 3.0 * se
        parts.append(f"alpha {alpha}: {est:.3f} ({abs(est - alpha) / se:.1f} SE)")
    # A stable-absorption style series: cascade sizes never exceed one event,
    # so the positive part is a single repeated value.
    rng = np.random.default_rng(child_seed(8088, 3))
    sizes = (rng.random(100_000) < 0.084).astype(np.int64)
    fit = select_xmin(sizes[sizes >= 1])
    flagged = not fit.informative
    ok = ok and flagged
    line = _report(
        8, ok, ", ".join(parts) + f"; degenerate series flagged uninformative {flagged}"
    )
    assert ok, line


def _real_data_dir() -> Path | None:
    roots = []
    env = os.environ.get("HALLSAND_WIOD_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parent.parent / "data" / "wiod2014")
    for root in roots:
        if (root / "flows.csv").is_file():
            return root
    return None


def test_criterion_9_real_table_replication():
    data_dir = _real_data_dir()
    if data_dir is None:
        print(
            "criterion 9: SKIP - no converted WIOD 2014 table "
            "(set HALLSAND_WIOD_DIR or add data/wiod2014/flows.csv)"
        )
        pytest.skip("converted WIOD 2014 data not supplied")
    table = parse_io_table(data_dir / "flows.csv", year=2014)
    leak_shares = leakage_profile(table)
    share = build_operator(table, OperatorKind.ROW_SHARE)
    maxrow = build_operator(table, OperatorKind.MAX_ROW)
    sub = prepare_substrate(table)
    top = int(np.argmax(sub.exposure.H_rel))  # the first node of top_nodes.csv
    checks = [
        ("rho_share", share.spectral_radius, 0.975, 0.005),
        ("rho_leak", sub.operator.spectral_radius, 0.334, 0.005),
        ("rho_max", maxrow.spectral_radius, 0.317, 0.005),
        ("mean_leakage", float(leak_shares.mean()), 0.374, 0.005),
        # Intensity here counts each flow once; the reference tabulation
        # counts both endpoints, hence the factor of two.
        ("top_node_intensity", 2.0 * float(sub.exposure.I[top]), 0.0215, 0.0005),
    ]
    references = {"stable": 0.084, "latent": 0.489, "critical": 2.036, "avalanche": 5.811}
    specs = preset_scenarios(20140825)
    for result in run_scenarios(specs, sub, Params(), threads=None, T_burn=200, T_stat=1500, replications=10):
        ref = references[result.name]
        checks.append((f"mean_S[{result.name}]", result.stats.mean_S, ref, 0.15 * ref))
    failed = [name for name, value, ref, tol in checks if abs(value - ref) > tol]
    ok = not failed
    detail = ", ".join(f"{name} {value:.4f} (ref {ref})" for name, value, ref, _ in checks)
    line = _report(9, ok, detail + (f"; out of tolerance: {failed}" if failed else ""))
    assert ok, line


def test_criterion_10_serial_parallel_determinism(tmp_path):
    base = [
        "simulate",
        "--synth-nodes", "200", "--synth-density", "0.1", "--synth-seed", "7",
        "--synth-mean-leakage", "0.22",
        "--replications", "30", "--t-burn", "50", "--t-stat", "150",
        "--master-seed", "20140825",
    ]
    outputs = {}
    for label, threads in (("serial", "1"), ("repeat", "1"), ("parallel", "2")):
        out_dir = tmp_path / label
        code = cli_main(base + ["--threads", threads, "--out-dir", str(out_dir)])
        assert code == 0
        outputs[label] = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
    names = sorted(outputs["serial"])
    identical = all(sorted(outputs[k]) == names for k in outputs) and all(
        outputs["serial"][name] == outputs[other][name]
        for other in ("repeat", "parallel")
        for name in names
    )
    ok = identical and "scenarios.csv" in names and len(names) == 5
    line = _report(
        10,
        ok,
        f"{len(names)} CSVs, repeat-run and parallel-run bytes identical {identical}",
    )
    assert ok, line

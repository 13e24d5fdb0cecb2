import numpy as np
import pytest

from hallsand.tail import (
    TailError,
    ccdf,
    fit_alpha,
    hill_alpha,
    scan_xmin,
    select_xmin,
)

from conftest import powerlaw_samples


def test_ccdf_hand_case():
    got = ccdf([1, 1, 2, 5])
    assert got == [(1, 1.0), (2, 0.5), (5, 0.25)]


def test_ccdf_starts_at_one_and_decreases():
    rng = np.random.default_rng(3)
    xs = powerlaw_samples(rng, 2.2, 1, 5000)
    pairs = ccdf(xs)
    assert pairs[0][1] == 1.0
    probs = [p for _, p in pairs]
    assert all(a > b for a, b in zip(probs, probs[1:]))


@pytest.mark.parametrize("bad", [[], [1.5], [0], [-2], [np.nan], [np.inf]])
def test_ccdf_rejects_bad_samples(bad):
    with pytest.raises(TailError):
        ccdf(bad)


def test_hill_alpha_scale_invariance():
    rng = np.random.default_rng(10)
    xs = np.sort(rng.pareto(1.5, 500) + 1.0) * 3.0
    a = hill_alpha(xs, 3.0)
    b = hill_alpha(xs * 100.0, 300.0)
    assert abs(a - b) < 1e-12 * a


def test_hill_alpha_degenerate_is_inf():
    assert hill_alpha([2.0, 2.0, 2.0], 2.0) == float("inf")


def test_hill_alpha_validation():
    with pytest.raises(TailError):
        hill_alpha([2.0], 1.0)
    with pytest.raises(TailError):
        hill_alpha([1.0, 2.0], 0.0)
    with pytest.raises(TailError):
        hill_alpha([1.0, 2.0], 1.5)


@pytest.mark.parametrize(
    "alpha,gen_xmin,tol",
    [
        (1.5, 4, 0.02),
        (2.5, 9, 0.05),
        (6.0, 25, 0.15),
    ],
)
def test_fit_alpha_recovery_at_safe_cutoffs(alpha, gen_xmin, tol):
    rng = np.random.default_rng(int(alpha * 100) + gen_xmin)
    xs = powerlaw_samples(rng, alpha, gen_xmin, 30_000)
    assert abs(fit_alpha(xs, gen_xmin) - alpha) < tol


def test_fit_alpha_discretisation_bias_at_unit_cutoff():
    # integer binning at x_min = 1 biases the continuous MLE down from 2.5
    # to about 2.1; the scan-based cutoff selection is the supported path
    rng = np.random.default_rng(99)
    xs = powerlaw_samples(rng, 2.5, 1, 50_000)
    est = fit_alpha(xs, 1)
    assert 2.0 < est < 2.2


def test_fit_alpha_validation():
    with pytest.raises(TailError):
        fit_alpha([1, 2, 3], 0)
    with pytest.raises(TailError):
        fit_alpha([1, 1, 1, 9], 5)


def test_scan_xmin_candidates_admissible():
    rng = np.random.default_rng(5)
    xs = powerlaw_samples(rng, 2.0, 1, 20_000)
    cands = scan_xmin(xs, min_tail=100)
    assert len(cands) >= 3
    for c in cands:
        assert c.n_tail >= 100
        assert np.isfinite(c.ks_distance)
        assert 0.0 <= c.ks_distance <= 1.0
        assert (xs >= c.x_min).sum() == c.n_tail


def test_select_xmin_recovers_splice_point():
    # body below 10 follows a shallow curve, tail above 10 a clean power law;
    # the fit distance dips once the body is excluded
    rng = np.random.default_rng(21)
    body = rng.integers(1, 10, 60_000)
    tail = powerlaw_samples(rng, 2.5, 10, 20_000)
    xs = np.concatenate([body, tail])
    fit = select_xmin(xs)
    assert 8 <= fit.x_min <= 16
    assert abs(fit.alpha - 2.5) < 0.1
    assert fit.informative


def test_select_xmin_degenerate_uninformative():
    xs = np.array([1] * 400 + [2] * 30)
    fit = select_xmin(xs)
    assert not fit.informative


def test_select_xmin_thin_tail_uninformative():
    xs = np.array([1] * 30 + [2] * 8 + [3] * 2)
    fit = select_xmin(xs)
    assert not fit.informative


def test_select_xmin_deterministic():
    rng = np.random.default_rng(8)
    xs = powerlaw_samples(rng, 2.2, 1, 30_000)
    a = select_xmin(xs)
    b = select_xmin(xs)
    assert a == b


@pytest.mark.parametrize("min_tail", [2, 50, 400])
def test_scan_xmin_informative_per_candidate(min_tail):
    # the chosen candidate is select_xmin's fit, and each candidate's flag
    # counts the distinct values of its own tail: two heavy top values leave
    # the highest cutoffs enough mass but too few values
    rng = np.random.default_rng(13)
    top = np.repeat([5_000, 6_000], 500)
    xs = np.concatenate([rng.integers(1, 4, 3_000), powerlaw_samples(rng, 2.2, 4, 600), top])
    cands = scan_xmin(xs, min_tail=min_tail)
    for c in cands:
        tail = xs[xs >= c.x_min]
        want = tail.size >= min_tail and np.unique(tail).size > 2 and np.isfinite(c.alpha) and c.alpha > 1.0
        assert c.informative == want
    assert any(c.informative for c in cands) and not all(c.informative for c in cands)
    fit = select_xmin(xs, min_tail=min_tail)
    assert fit in cands
    assert next(c for c in cands if c.x_min == fit.x_min).informative == fit.informative


def test_select_xmin_at_a_fixed_cutoff():
    rng = np.random.default_rng(17)
    xs = powerlaw_samples(rng, 2.5, 1, 5_000)
    fit = select_xmin(xs, min_tail=100, x_min=3)
    assert (fit.x_min, fit.n_tail) == (3, int((xs >= 3).sum()))
    assert fit.alpha == fit_alpha(xs, 3) and np.isnan(fit.ks_distance) and fit.informative
    assert not select_xmin(xs, min_tail=fit.n_tail + 1, x_min=3).informative
    with pytest.raises(TailError, match="at or above x_min"):
        select_xmin(xs, x_min=int(xs.max()) + 1)

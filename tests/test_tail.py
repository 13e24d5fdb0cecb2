import numpy as np
import pytest

from hallsand.tail import (
    TailError,
    ccdf,
    scan_xmin,
    select_xmin,
)

from conftest import powerlaw_samples


def test_ccdf_hand_case():
    values, probs = ccdf([1, 1, 2, 5])
    assert values.dtype == np.int64 and probs.dtype == np.float64
    assert (values.tolist(), probs.tolist()) == ([1, 2, 5], [1.0, 0.5, 0.25])


def test_ccdf_starts_at_one_and_decreases():
    rng = np.random.default_rng(3)
    xs = powerlaw_samples(rng, 2.2, 1, 5000)
    _, probs = ccdf(xs)
    assert probs[0] == 1.0
    assert (np.diff(probs) < 0).all()


@pytest.mark.parametrize("bad", [[], [1.5], [0], [-2], [np.nan], [np.inf]])
def test_ccdf_rejects_bad_samples(bad):
    with pytest.raises(TailError):
        ccdf(bad)


def test_fixed_cutoff_fit_degenerate_is_inf():
    # past 2**53 the half-step shift rounds away, so every log ratio is 0
    assert select_xmin([2**60] * 3, x_min=2**60).alpha == float("inf")


@pytest.mark.parametrize(
    "alpha,gen_xmin,tol",
    [
        (1.5, 4, 0.02),
        (2.5, 9, 0.05),
        (6.0, 25, 0.15),
    ],
)
def test_fixed_cutoff_fit_recovery_at_safe_cutoffs(alpha, gen_xmin, tol):
    rng = np.random.default_rng(int(alpha * 100) + gen_xmin)
    xs = powerlaw_samples(rng, alpha, gen_xmin, 30_000)
    assert abs(select_xmin(xs, x_min=gen_xmin).alpha - alpha) < tol


def test_fixed_cutoff_fit_discretisation_bias_at_unit_cutoff():
    # integer binning at x_min = 1 biases the continuous MLE down from 2.5
    # to about 2.1; the scan can pick x_min = 1 too, as it does for the
    # desk's stable preset, so its fits carry the same bias there
    rng = np.random.default_rng(99)
    xs = powerlaw_samples(rng, 2.5, 1, 50_000)
    est = select_xmin(xs, x_min=1).alpha
    assert 2.0 < est < 2.2


def test_fixed_cutoff_fit_validation():
    with pytest.raises(TailError, match=r"^x_min must be >= 1, got 0$"):
        select_xmin([1, 2, 3], x_min=0)
    with pytest.raises(TailError, match=r"^only 1 sample\(s\) at or above x_min=5$"):
        select_xmin([1, 1, 1, 9], x_min=5)


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
    scanned = next(f for f in scan_xmin(xs, min_tail=2) if f.x_min == 3)
    assert fit.alpha == scanned.alpha and np.isnan(fit.ks_distance) and fit.informative
    assert not select_xmin(xs, min_tail=fit.n_tail + 1, x_min=3).informative
    with pytest.raises(TailError, match="at or above x_min"):
        select_xmin(xs, x_min=int(xs.max()) + 1)

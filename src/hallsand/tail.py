"""Heavy-tail diagnostics for cascade-size samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MIN_TAIL = 50


class TailError(ValueError):
    """Invalid sample set for tail estimation."""


@dataclass(frozen=True)
class TailFit:
    """A fitted tail: cutoff, tail count, exponent, fit distance, and whether
    the fit is informative (enough tail mass spread over enough values)."""

    x_min: int
    n_tail: int
    alpha: float
    ks_distance: float
    informative: bool


def _as_positive_ints(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.size == 0:
        raise TailError("empty sample set")
    if arr.dtype.kind not in "iu":  # integers are exact as they are; a float copy rounds from 2**53 up
        if not np.all(np.isfinite(arr)):
            raise TailError("samples must be finite")
        if not np.all(arr == np.rint(arr)):
            raise TailError("samples must be integers")
    out = arr.astype(np.int64)
    if (out < 1).any():
        raise TailError("samples must be positive")
    return out


def ccdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(X >= x) at each distinct sample value, ascending in x, as
    the values and their probabilities.

    The smallest value has probability exactly 1; probabilities strictly
    decrease along the support.
    """
    xs = _as_positive_ints(samples)
    values, counts = np.unique(xs, return_counts=True)
    return values, counts[::-1].cumsum()[::-1] / xs.size


def _informative(n_tail: int, n_values: int, alpha: float, min_tail: int) -> bool:
    """Enough tail mass (min_tail) over more than two distinct values, and a
    finite exponent above 1."""
    return bool(n_tail >= min_tail and n_values > 2 and np.isfinite(alpha) and alpha > 1.0)


def _check_min_tail(min_tail: int) -> None:
    if min_tail < 2:
        raise TailError(f"min_tail must be >= 2, got {min_tail}")


def _alphas(xs: np.ndarray, starts, x_mins) -> np.ndarray:
    """The tail exponent at each cutoff in x_mins, whose tail is xs[start:] of
    the ascending samples xs: the continuous MLE with a half-step shift for
    integer binning, 1 + n_tail / (sum(ln x) - n_tail * ln(x_min - 1/2)), the
    logs summed from the largest down; inf where the denominator is not
    positive, as where the shift rounds away (past 2**53)."""
    suffix_logs = np.cumsum(np.log(xs.astype(np.float64))[::-1])[::-1]
    n_tail = xs.size - starts
    log_sum = suffix_logs[starts] - n_tail * np.log(x_mins - 0.5)
    with np.errstate(divide="ignore"):
        return np.where(log_sum > 0, 1.0 + n_tail / log_sum, np.inf)


def scan_xmin(samples, min_tail: int = DEFAULT_MIN_TAIL) -> list[TailFit]:
    """Fit every admissible cutoff and report its tail-conditional fit distance
    and whether the fit there is informative (see select_xmin).

    Candidates are the distinct sample values with at least max(min_tail, 2)
    tail observations. The distance is the sup-norm gap between the
    empirical tail CCDF and the fitted one, both renormalized at the cutoff.
    Falls back to the 2-observation minimum when no cutoff clears min_tail,
    so degenerate inputs still produce a (non-informative) scan.
    """
    _check_min_tail(min_tail)
    xs = np.sort(_as_positive_ints(samples))
    values, first_idx = np.unique(xs, return_index=True)
    tail_counts = xs.size - first_idx

    admissible = tail_counts >= min_tail
    if not admissible.any():
        admissible = tail_counts >= 2
    if not admissible.any():
        return []

    picked = np.flatnonzero(admissible)
    candidates = []
    for vi, alpha in zip(picked, _alphas(xs, first_idx[picked], values[picked]).tolist()):
        v = int(values[vi])
        n_tail = int(tail_counts[vi])
        tail_values = values[vi:]
        emp = tail_counts[vi:] / n_tail
        if np.isfinite(alpha):
            model = ((tail_values - 0.5) / (v - 0.5)) ** (1.0 - alpha)
        else:
            model = np.where(tail_values == v, 1.0, 0.0)
        ks = float(np.abs(emp - model).max())
        informative = _informative(n_tail, values.size - vi, alpha, min_tail)
        candidates.append(TailFit(v, n_tail, alpha, ks, informative))
    return candidates


def select_xmin(samples, min_tail: int = DEFAULT_MIN_TAIL, x_min: int | None = None) -> TailFit:
    """Fit the tail at the cutoff x_min, or, when it is None, at the scanned
    cutoff that minimizes the tail-conditional fit distance.

    Ties in the scan go to the smaller cutoff. A fixed cutoff gets no fit
    distance (nan) and the scan's alpha at that cutoff (see _alphas); fewer
    than two samples at or above it raise TailError.
    The fit is informative only when its tail clears min_tail observations,
    spreads over more than two distinct values, and yields a finite
    exponent above 1.
    """
    if x_min is not None:
        _check_min_tail(min_tail)
        if x_min < 1:
            raise TailError(f"x_min must be >= 1, got {x_min}")
        tail = np.sort(_as_positive_ints(samples))
        tail = tail[tail >= x_min]
        if tail.size < 2:
            raise TailError(f"only {tail.size} sample(s) at or above x_min={x_min}")
        alpha = float(_alphas(tail, 0, x_min))
        informative = _informative(tail.size, np.unique(tail).size, alpha, min_tail)
        return TailFit(x_min, int(tail.size), alpha, float("nan"), informative)
    candidates = scan_xmin(samples, min_tail=min_tail)
    if not candidates:  # a single sample
        return TailFit(int(np.max(samples)), 1, float("nan"), float("nan"), False)
    return min(candidates, key=lambda fit: fit.ks_distance)

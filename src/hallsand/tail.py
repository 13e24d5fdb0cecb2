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


@dataclass(frozen=True)
class TailCandidate:
    x_min: int
    n_tail: int
    alpha: float
    ks_distance: float


def _as_positive_ints(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.size == 0:
        raise TailError("empty sample set")
    if not np.all(np.isfinite(arr)):
        raise TailError("samples must be finite")
    rounded = np.rint(arr)
    if not np.all(arr == rounded):
        raise TailError("samples must be integers")
    out = rounded.astype(np.int64)
    if (out < 1).any():
        raise TailError("samples must be positive")
    return out


def ccdf(samples) -> list[tuple[int, float]]:
    """Empirical P(X >= x) at each distinct sample value, ascending in x.

    The smallest value has probability exactly 1; probabilities strictly
    decrease along the support.
    """
    xs = _as_positive_ints(samples)
    values, counts = np.unique(xs, return_counts=True)
    tail_counts = counts[::-1].cumsum()[::-1]
    n = xs.size
    return [(int(v), float(c) / n) for v, c in zip(values, tail_counts)]


def hill_alpha(values, scale: float) -> float:
    """Continuous maximum-likelihood tail exponent 1 + n / sum(ln(x / scale)).

    Exactly invariant under joint rescaling of values and scale. Returns
    inf when every value equals the scale.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise TailError(f"need at least 2 values, got {arr.size}")
    if scale <= 0:
        raise TailError(f"scale must be positive, got {scale}")
    if (arr < scale).any():
        raise TailError("all values must be >= scale")
    log_sum = float(np.log(arr / scale).sum())
    if log_sum <= 0:
        return float("inf")
    return 1.0 + arr.size / log_sum


def fit_alpha(samples, x_min: int) -> float:
    """Tail exponent for integer data at a fixed cutoff.

    Continuous MLE with the half-step cutoff shift that compensates for
    integer binning: alpha = 1 + n_tail / sum(ln(x / (x_min - 1/2))).
    Raises TailError when fewer than two samples reach the cutoff.
    """
    if x_min < 1:
        raise TailError(f"x_min must be >= 1, got {x_min}")
    xs = _as_positive_ints(samples)
    tail = xs[xs >= x_min]
    if tail.size < 2:
        raise TailError(f"only {tail.size} sample(s) at or above x_min={x_min}")
    return hill_alpha(tail.astype(np.float64), x_min - 0.5)


def _informative(tail: np.ndarray, alpha: float, min_tail: int) -> bool:
    return bool(
        tail.size >= min_tail and np.unique(tail).size > 2 and np.isfinite(alpha) and alpha > 1.0
    )


def _fit_at_xmin(samples: np.ndarray, x_min: int, min_tail: int) -> TailFit:
    """Fit positive integer samples at a fixed cutoff without a scan (no fit distance)."""
    alpha = fit_alpha(samples, x_min)
    tail = samples[samples >= x_min]
    return TailFit(x_min, int(tail.size), alpha, float("nan"), _informative(tail, alpha, min_tail))


def scan_xmin(samples, min_tail: int = DEFAULT_MIN_TAIL) -> list[TailCandidate]:
    """Fit every admissible cutoff and report its tail-conditional fit distance.

    Candidates are the distinct sample values with at least max(min_tail, 2)
    tail observations. The distance is the sup-norm gap between the
    empirical tail CCDF and the fitted one, both renormalized at the cutoff.
    Falls back to the 2-observation minimum when no cutoff clears min_tail,
    so degenerate inputs still produce a (non-informative) scan.
    """
    if min_tail < 2:
        raise TailError(f"min_tail must be >= 2, got {min_tail}")
    xs = np.sort(_as_positive_ints(samples))
    n = xs.size
    values, first_idx = np.unique(xs, return_index=True)
    tail_counts = n - first_idx
    logs = np.log(xs.astype(np.float64))
    suffix_logs = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])

    admissible = tail_counts >= min_tail
    if not admissible.any():
        admissible = tail_counts >= 2
    if not admissible.any():
        return []

    candidates = []
    for vi in np.flatnonzero(admissible):
        v = int(values[vi])
        idx = int(first_idx[vi])
        n_tail = int(tail_counts[vi])
        shifted = v - 0.5
        log_sum = suffix_logs[idx] - n_tail * np.log(shifted)
        alpha = 1.0 + n_tail / log_sum if log_sum > 0 else float("inf")
        tail_values = values[vi:]
        emp = tail_counts[vi:] / n_tail
        if np.isfinite(alpha):
            model = ((tail_values - 0.5) / shifted) ** (1.0 - alpha)
        else:
            model = np.where(tail_values == v, 1.0, 0.0)
        ks = float(np.abs(emp - model).max())
        candidates.append(TailCandidate(x_min=v, n_tail=n_tail, alpha=float(alpha), ks_distance=ks))
    return candidates


def select_xmin(samples, min_tail: int = DEFAULT_MIN_TAIL) -> TailFit:
    """Choose the cutoff minimizing the tail-conditional fit distance.

    Ties go to the smaller cutoff. The fit is informative only when the
    selected tail clears min_tail observations, spreads over more than two
    distinct values, and yields a finite exponent above 1.
    """
    candidates = scan_xmin(samples, min_tail=min_tail)
    xs = _as_positive_ints(samples)
    if not candidates:
        return TailFit(
            x_min=int(xs.max()), n_tail=int((xs == xs.max()).sum()),
            alpha=float("nan"), ks_distance=float("nan"), informative=False,
        )
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.ks_distance < best.ks_distance:
            best = cand
    return TailFit(
        x_min=best.x_min,
        n_tail=best.n_tail,
        alpha=best.alpha,
        ks_distance=best.ks_distance,
        informative=_informative(xs[xs >= best.x_min], best.alpha, min_tail),
    )

"""Error metrics, residual norms, CUSUM localization and window embedding."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimators import Estimate, _finite
from .series import (FunctionalSeries, ValueGrid, discretized_norm,
                     pow2_scaled)

__all__ = [
    "CusumResult", "ShapeMismatch", "InputTooShort",
    "mse", "mae", "residual_norms", "cusum", "detect_peaks", "sliding_embed",
]


class ShapeMismatch(ValueError):
    """Estimate and truth (or series and smoothed) shapes or stamps differ."""


class InputTooShort(ValueError):
    """Raw signal too short for the requested window embedding."""


def _diff(est, truth) -> np.ndarray:
    est = np.atleast_2d(np.asarray(est, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if est.shape != truth.shape:
        raise ShapeMismatch(f"shapes {est.shape} and {truth.shape} differ")
    return est - truth


def mse(est, truth) -> float:
    """Mean over time of the squared discretized L2 norm of the error."""
    d = _diff(est, truth)
    return float((d * d).mean())


def mae(est, truth) -> float:
    """Mean over time of the discretized L1 norm of the error."""
    return float(np.abs(_diff(est, truth)).mean())


def residual_norms(series: FunctionalSeries, smoothed: Estimate) -> np.ndarray:
    """series.norm of the residual curve X_i - mu_hat(t_i) at each stamp.

    The smoothed curves must sit on exactly the series' time stamps.
    """
    if smoothed.mu_hat.shape != series.values.shape:
        raise ShapeMismatch(
            f"series {series.values.shape} vs smoothed {smoothed.mu_hat.shape}")
    if not np.array_equal(smoothed.times, series.times):
        raise ShapeMismatch("smoothed time stamps differ from the series'")
    with np.errstate(over="ignore"):  # an overflow raises in _finite
        r = replace(smoothed, mu_hat=series.values - smoothed.mu_hat,
                    dmu_hat=None)
    return discretized_norm(_finite(r, "residual").mu_hat, series.norm)


@dataclass(frozen=True)
class CusumResult:
    process: np.ndarray
    argmax_index: int
    max_value: float


def cusum(z) -> CusumResult:
    """Mean-anchored CUSUM process; its |.|-argmax locates a level shift.

    process[k] = (partial sum through k - fraction of total) / sqrt(n),
    so the last entry is zero and adding a constant to z changes nothing.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    z, e = pow2_scaled(z)  # partial sums of z / 2**e cannot overflow
    csum = np.cumsum(z)
    k = np.arange(1, n + 1)
    process = (csum - k / n * csum[-1]) / np.sqrt(n)
    # smallest index attaining the max; values within rounding noise of
    # the data's scale count as ties (a constant series is genuinely flat)
    absproc = np.abs(process)
    tol = 1e-12 * np.sqrt(n) * float(np.max(np.abs(z)))
    amax = int(np.argmax(absproc >= absproc.max() - tol))
    process = np.ldexp(process, e)
    return CusumResult(process, amax, float(process[amax]))


def detect_peaks(z, threshold_multiplier: float = 5.0) -> list[tuple[int, int]]:
    """Maximal index runs where z exceeds median + multiplier * MAD.

    Returns half-open-free inclusive (start, stop) index pairs in order.
    """
    z = np.asarray(z, dtype=float)
    if z.size < 3:
        raise ValueError("need at least 3 observations")
    if not np.isfinite(threshold_multiplier):
        raise ValueError("threshold multiplier must be finite")
    z = pow2_scaled(z)[0]  # exact: the median's sum cannot overflow
    med = np.median(z)
    mad = np.median(np.abs(z - med))
    above = np.r_[0, (z > med + threshold_multiplier * mad).astype(int), 0]
    starts = np.flatnonzero(np.diff(above) == 1)
    stops = np.flatnonzero(np.diff(above) == -1) - 1
    return [(int(a), int(b)) for a, b in zip(starts, stops)]


def sliding_embed(raw: np.ndarray, stride: int, m: int) -> FunctionalSeries:
    """Embed an N x d signal into overlapping windows of m samples.

    Observation i (1-based, i = 1, ..., floor(N/stride) - (m-1)) collects
    the 1-based samples stride*i + j for j = 0, ..., m-1, flattened
    channel-major to a d*m vector.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    big_n, d = raw.shape
    if stride < 1 or m < 1:
        raise ValueError("stride and m must be >= 1")
    n = big_n // stride - (m - 1)
    if n < 1:
        raise InputTooShort(
            f"signal of length {big_n} too short for stride {stride}, m {m}")
    # Window i starts at 0-based sample stride*i - 1; np.array copies the
    # read-only view, and its (d, m) layout flattens channel-major.
    windows = sliding_window_view(raw, m, axis=0)[stride - 1::stride][:n]
    values = np.array(windows).reshape(n, d * m)
    return FunctionalSeries(np.arange(1, n + 1) / n, values, ValueGrid(d, m))

"""Independent per-point reference fits for checking smoother output.

Each stamp is fitted on its own: the local linear fit by weighted least
squares through ``numpy.linalg.lstsq`` on the kernel window, Nadaraya-Watson
as a weighted mean. Nothing here calls ftsmooth, so a defect in its kernel
sums cannot cancel out of the comparison.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
JK_COEF_SMALL = SQRT2 / (SQRT2 - 1.0)
JK_COEF_LARGE = 1.0 / (SQRT2 - 1.0)


def quartic(u: np.ndarray) -> np.ndarray:
    """15/16 (1 - u^2)^2 on [-1, 1], zero outside."""
    return np.where(np.abs(u) <= 1.0, 0.9375 * (1.0 - u * u) ** 2, 0.0)


def _window(times, t, h):
    w = quartic((times - t) / h)
    inside = w > 0.0
    return inside, w[inside]


def local_linear_at(times, values, t: float, h: float):
    """(mu, dmu) at stamp t: intercept and slope of the weighted LS line."""
    inside, w = _window(times, t, h)
    root = np.sqrt(w)[:, None]
    design = np.column_stack([np.ones(w.size), times[inside] - t]) * root
    coef, *_ = np.linalg.lstsq(design, values[inside] * root, rcond=None)
    return coef[0], coef[1]


def jackknife_at(times, values, t: float, h: float):
    """Bias-reduced (mu, dmu) from local linear fits at h/sqrt(2) and h."""
    mu_s, dmu_s = local_linear_at(times, values, t, h / SQRT2)
    mu_l, dmu_l = local_linear_at(times, values, t, h)
    return 2.0 * mu_s - mu_l, JK_COEF_SMALL * dmu_s - JK_COEF_LARGE * dmu_l


def nw_at(times, values, t: float, h: float):
    inside, w = _window(times, t, h)
    return (w @ values[inside]) / w.sum()


def nw_derivative_at(times, values, k: int, h: float):
    """Central difference of the NW mean at index k, one-sided at the ends."""
    step = times[1] - times[0]
    lo, hi = max(k - 1, 0), min(k + 1, times.size - 1)
    return ((nw_at(times, values, times[hi], h)
             - nw_at(times, values, times[lo], h)) / ((hi - lo) * step))


def reference_at(estimator: str, times, values, k: int, h: float):
    """(mu, dmu) the named estimator should produce at index k."""
    t = times[k]
    if estimator == "ll":
        return local_linear_at(times, values, t, h)
    if estimator == "jackknife":
        return jackknife_at(times, values, t, h)
    if estimator == "nw":
        return nw_at(times, values, t, h), nw_derivative_at(times, values, k, h)
    raise ValueError(f"unknown estimator {estimator!r}")


def max_rel_error(got, want) -> float:
    """Largest |got - want| / max(1, |want|) over all entries."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))

"""Kernel smoothers for function-valued time series.

Local linear fits solve, at each evaluation point t, the weighted least
squares problem with weights K((t_i - t)/h); the intercept estimates the
mean and the slope its time derivative. The Jackknife fit combines
fits at bandwidths h and h/sqrt(2) so the leading bias terms cancel.
Nadaraya-Watson is the local constant fit, with a finite-difference
derivative on equidistant grids. ESTIMATORS names the three, and fit runs
one by name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import _SQRT2, Kernel, quartic
from .series import FunctionalSeries

__all__ = [
    "SmoothConfig", "Estimate",
    "SingularFit", "BandwidthTooSmall", "EmptyWindow", "NonEquidistant",
    "local_linear", "nadaraya_watson", "nw_derivative",
    "jackknife_derivative",
    "ESTIMATORS", "FIT_ERRORS", "fit",
    "JACKKNIFE_DERIV_COEF_SMALL", "JACKKNIFE_DERIV_COEF_LARGE",
]

# Derivative Jackknife weights sqrt(2)/(sqrt(2)-1) and 1/(sqrt(2)-1);
# they differ by exactly one.
JACKKNIFE_DERIV_COEF_SMALL = _SQRT2 / (_SQRT2 - 1.0)
JACKKNIFE_DERIV_COEF_LARGE = 1.0 / (_SQRT2 - 1.0)

# denom <= tol * S0^2 marks a degenerate window; relative in S0 so the
# test does not depend on the 1/(nh) normalization.
_SINGULAR_RTOL = 1e-12

# Evaluation points per block of the windowed kernel sums.
_BLOCK = 32
# Relative and absolute padding of a window's reach past h (_windows).
_REACH_RTOL = 1e-12
_REACH_ATOL = 1e-15


class SingularFit(ValueError):
    """Local linear normal equations are degenerate at some t."""

    _message = ("singular local linear fit at t={t:g} "
                "(bandwidth {bandwidth:g})")

    def __init__(self, t: float, bandwidth: float):
        self.t = t
        self.bandwidth = bandwidth
        super().__init__(self._message.format(t=t, bandwidth=bandwidth))


class BandwidthTooSmall(SingularFit):
    """The first singular window holds fewer than two time stamps, which
    always makes the fit singular."""

    _message = "window at t={t:g} has < 2 points (bandwidth {bandwidth:g})"


class EmptyWindow(ValueError):
    """Nadaraya-Watson window contains no time stamps."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"empty kernel window at t={t:g}")


class NonEquidistant(ValueError):
    """Finite-difference derivative requires an equidistant grid."""


@dataclass(frozen=True)
class SmoothConfig:
    """Bandwidth on the rescaled time axis plus the kernel."""

    bandwidth: float
    kernel: Kernel = quartic()

    def __post_init__(self):
        if not 0.0 < self.bandwidth <= 1.0:
            raise ValueError("bandwidth must be in (0, 1]")


@dataclass(frozen=True)
class Estimate:
    """Smoothed mean (and optionally derivative) curves.

    interior_mask marks t in [h, 1-h], where windows are untruncated.
    """

    times: np.ndarray
    mu_hat: np.ndarray
    dmu_hat: np.ndarray | None
    interior_mask: np.ndarray


def _moment_sums(u, values, kernel: Kernel, linear: bool):
    """[s0, r0], or [s0, r0, s1, s2, r1] when linear, summed over the last
    axis of the scaled offsets u; values holds the stamps' rows."""
    w = kernel(u)
    sums = [w.sum(axis=-1), w @ values]
    if linear:
        wu = w * u
        sums += [wu.sum(axis=-1), (wu * u).sum(axis=-1), wu @ values]
    return sums


def _windows(times, first, last, h: float):
    """Bounds lo, hi of the sorted stamps within h of the points first..last.

    The slices times[lo:hi] reach a little past h, so that rounding in
    t +- h never drops a stamp the test |u| <= 1 keeps: a slice only
    bounds the work, the test alone decides window membership.
    """
    reach = h * (1.0 + _REACH_RTOL) + _REACH_ATOL * max(
        np.max(np.abs(first), initial=1.0), np.max(np.abs(last), initial=1.0))
    return (np.searchsorted(times, first - reach, "left"),
            np.searchsorted(times, last + reach, "right"))


def _kernel_sums(series: FunctionalSeries, eval_times, h: float,
                 kernel: Kernel, linear: bool):
    """Evaluation points (the stamps if None) and, in _moment_sums' layout,
    unnormalized kernel sums at each over its window only. The 1/(nh)
    factor cancels in every estimator and is never applied.
    Evaluation points are walked in sorted blocks of _BLOCK;
    each block sums directly over the contiguous training stamps within
    reach of its span, so memory is O(block x window), not O(n_eval x n).
    """
    eval_times = np.asarray(
        series.times if eval_times is None else eval_times, dtype=float)
    if eval_times.ndim != 1:
        raise ValueError("eval_times must be a 1d array")
    if not np.all(np.isfinite(eval_times)):
        raise ValueError("eval_times must be finite")
    times, values = series.times, series.values
    order = np.argsort(eval_times, kind="stable")
    ts = eval_times[order]
    ne, p = ts.size, values.shape[1]
    out = [np.empty(ne), np.empty((ne, p))]
    if linear:
        out += [np.empty(ne), np.empty(ne), np.empty((ne, p))]

    starts = np.arange(0, ne, _BLOCK)
    stops = np.minimum(starts + _BLOCK, ne)
    los, his = _windows(times, ts[starts], ts[stops - 1], h)
    for a, b, lo, hi in zip(starts, stops, los, his):
        u = (times[lo:hi] - ts[a:b, None]) / h
        sums = _moment_sums(u, values[lo:hi], kernel, linear)
        for arr, part in zip(out, sums):
            arr[order[a:b]] = part
    return eval_times, out


def _ll_design(s0, s1, s2, h=1.0):
    """Determinants and the degenerate-design mask (which covers < 2
    stamps) of local linear fits from kernel moment sums of any shape, in
    offsets scaled by 1/h (the fits) or unscaled (CV, with h given). The
    fits and CV share it, so their rules cannot drift."""
    denom = s0 * s2 - s1 ** 2
    return denom, denom <= _SINGULAR_RTOL * (h * s0) ** 2


def _interior_mask(eval_times: np.ndarray, h: float) -> np.ndarray:
    return (eval_times >= h) & (eval_times <= 1.0 - h)


def local_linear(series: FunctionalSeries, cfg: SmoothConfig,
                 eval_times: np.ndarray | None = None) -> Estimate:
    """Local linear mean and derivative estimates.

    Estimates are produced at every evaluation point, including boundary
    points with truncated windows; interior_mask records where the
    untruncated-window guarantees apply.
    """
    h = cfg.bandwidth
    eval_times, (s0, r0, s1, s2, r1) = _kernel_sums(
        series, eval_times, h, cfg.kernel, linear=True)

    denom, singular = _ll_design(s0, s1, s2)
    if np.any(singular):
        # Too few stamps imply singular, so the count only names the failure.
        t = float(eval_times[np.argmax(singular)])
        count = np.count_nonzero(np.abs((series.times - t) / h) <= 1.0)
        raise (BandwidthTooSmall if count < 2 else SingularFit)(t, h)
    mu = (s2[:, None] * r0 - s1[:, None] * r1) / denom[:, None]
    dmu = (s0[:, None] * r1 - s1[:, None] * r0) / (h * denom[:, None])
    return Estimate(eval_times, mu, dmu, _interior_mask(eval_times, h))


def nadaraya_watson(series: FunctionalSeries, cfg: SmoothConfig,
                    eval_times: np.ndarray | None = None) -> Estimate:
    """Kernel-weighted local average (mean only)."""
    h = cfg.bandwidth
    eval_times, (s0, r0) = _kernel_sums(series, eval_times, h, cfg.kernel,
                                        linear=False)
    empty = s0 <= 0.0
    if np.any(empty):
        raise EmptyWindow(float(eval_times[np.argmax(empty)]))
    mu = r0 / s0[:, None]
    return Estimate(eval_times, mu, None, _interior_mask(eval_times, h))


def nw_derivative(est: Estimate) -> Estimate:
    """Finite-difference derivative of a mean estimate on an equidistant grid.

    Central differences at interior indices, one-sided at both ends.
    """
    t = est.times
    if t.size < 2:
        raise NonEquidistant("need at least 2 time stamps")
    steps = np.diff(t)
    step = steps[0]
    if np.max(np.abs(steps - step)) > 1e-9 * step:
        raise NonEquidistant("time stamps are not equidistant")
    return replace(est, dmu_hat=np.gradient(est.mu_hat, step, axis=0))


def jackknife_derivative(series: FunctionalSeries, cfg: SmoothConfig,
                         eval_times: np.ndarray | None = None) -> Estimate:
    """Bias-reduced mean and derivative from the fits at h and h/sqrt(2)."""
    small = SmoothConfig(cfg.bandwidth / _SQRT2, cfg.kernel)
    fit_small = local_linear(series, small, eval_times)
    fit_large = local_linear(series, cfg, eval_times)
    dmu = (JACKKNIFE_DERIV_COEF_SMALL * fit_small.dmu_hat
           - JACKKNIFE_DERIV_COEF_LARGE * fit_large.dmu_hat)
    mu = 2.0 * fit_small.mu_hat - fit_large.mu_hat
    return Estimate(fit_large.times, mu, dmu, fit_large.interior_mask)


# The estimators by name, for cross-validation, the simulation and the CLI.
ESTIMATORS = {"ll": local_linear, "jackknife": jackknife_derivative,
              "nw": nadaraya_watson}

# A fit raises one of these when the bandwidth is unusable for the data.
FIT_ERRORS = (SingularFit, EmptyWindow)


def fit(name: str, series: FunctionalSeries, cfg: SmoothConfig,
        derivative: bool = False) -> Estimate:
    """Fit the estimator registered as name.

    With derivative, an estimate that carries no derivative of its own
    gets the finite-difference one of nw_derivative.
    """
    est = ESTIMATORS[name](series, cfg)
    if derivative and est.dmu_hat is None:
        est = nw_derivative(est)
    return est

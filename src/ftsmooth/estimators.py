"""Kernel smoothers for function-valued time series.

Local linear fits solve, at each time stamp t, the weighted least
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

# The Jackknife's mean and slope weights: row 0 times the local linear
# fit's at h/sqrt(2), less row 1 times the fit's at h. The derivative's
# sqrt(2)/(sqrt(2)-1) and 1/(sqrt(2)-1) differ by exactly one.
JACKKNIFE_DERIV_COEF_SMALL = _SQRT2 / (_SQRT2 - 1.0)
JACKKNIFE_DERIV_COEF_LARGE = 1.0 / (_SQRT2 - 1.0)
_JACKKNIFE = np.reshape([2.0, JACKKNIFE_DERIV_COEF_SMALL,
                         1.0, JACKKNIFE_DERIV_COEF_LARGE], (2, 2, 1, 1, 1))

# denom <= tol * (h S0)^2 marks a degenerate window; relative in h and S0
# so the test depends on neither the time unit nor the 1/(nh) factor.
_SINGULAR_RTOL = 1e-12

# Stamps per block of a windowed fit.
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


def _equivalent_kernels(d, hs, kernel, names, slope=False):
    """{name: (weights, failed)} at the offsets d (points x stamps) for
    each bandwidth of the column hs: weights[0] @ values are the named
    estimator's means and, with slope (not for nw), weights[1] @ values
    its slopes, its equivalent kernels (Fan & Gijbels 1996, ch. 3). With
    kernel weights w and S = w @ [1, d, d^2], ll's are w times the rows of
    [[S2, -S1], [-S1, S0]] / (S0 S2 - S1^2) applied to [1, d], and nw's
    w / S0. failed is 0.0 for a sound window, else the bandwidth at which it
    fails: nw's when S0 <= 0, ll's when its design is degenerate (which
    covers < 2 stamps), the jackknife's h/sqrt(2) before h.
    """
    powers = np.empty(d.shape + (3,))
    powers[..., 0] = 1.0
    powers[..., 1] = d
    np.multiply(d, d, out=powers[..., 2])
    d = d[:, None, :]

    def weights_at(hs, names):
        w = kernel(d / hs)
        sums = w @ powers
        out = {}
        if "nw" in names:
            out["nw"] = ((w / sums[..., :1])[None],
                         np.where(sums[..., 0] <= 0.0, hs[:, 0], 0.0))
        if "ll" in names or "jackknife" in names:
            s0, s1, s2 = sums.transpose(2, 0, 1)
            denom = s0 * s2 - s1 ** 2
            inv = np.array([[s2, -s1], [-s1, s0]][:1 + slope]) / denom
            # w * (inv[:, 0] + inv[:, 1] * d), computed in place
            weights = inv[:, 1, ..., None] * d
            weights += inv[:, 0, ..., None]
            weights *= w
            out["ll"] = weights, np.where(
                denom <= _SINGULAR_RTOL * (hs[:, 0] * s0) ** 2, hs[:, 0], 0.0)
        return out

    out = weights_at(hs, names)
    if "jackknife" in names:
        small, small_failed = weights_at(hs / _SQRT2, ("ll",))["ll"]
        large, large_failed = out["ll"]
        out["jackknife"] = (small * _JACKKNIFE[0, :len(small)]
                            - large * _JACKKNIFE[1, :len(small)],
                            np.where(small_failed, small_failed, large_failed))
    return out


# Weights exist before the failure check: failing windows divide by zero
# or overflow, and their rows are never returned.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _fit(series: FunctionalSeries, cfg: SmoothConfig, name: str,
         slope: bool = True) -> Estimate:
    """The named estimator at the stamps, with its slopes if slope (nw has
    none), raising at the smallest failing bandwidth's first failing stamp.
    Blocks of _BLOCK stamps each span only the training stamps within
    their reach, so memory is O(block x window), not O(n x n)."""
    h, times, values = cfg.bandwidth, series.times, series.values
    # Each column is fitted / 2**e as in pow2_scaled: exact, cannot overflow.
    e = np.frexp(np.maximum(values.max(axis=0), -values.min(axis=0)))[1]
    slope = slope and name != "nw"
    fits, failed = np.empty((1 + slope,) + values.shape), np.empty(times.size)

    starts = np.arange(0, times.size, _BLOCK)
    stops = np.minimum(starts + _BLOCK, times.size)
    los, his = _windows(times, times[starts], times[stops - 1], h)
    for a, b, lo, hi in zip(starts, stops, los, his):
        weights, bad = _equivalent_kernels(
            times[lo:hi] - times[a:b, None], np.array([[h]]), cfg.kernel,
            (name,), slope)[name]
        fits[:, a:b] = weights[:, :, 0] @ np.ldexp(values[lo:hi], -e)
        failed[a:b] = bad[:, 0]
    np.ldexp(fits, e, out=fits)

    if np.any(failed):
        bw = float(failed[failed > 0.0].min())
        t = float(times[np.argmax(failed == bw)])
        if name == "nw":
            raise EmptyWindow(t)
        # Too few stamps imply singular, so the count only names it.
        count = np.count_nonzero(np.abs((times - t) / bw) <= 1.0)
        raise (BandwidthTooSmall if count < 2 else SingularFit)(t, bw)
    return _finite(Estimate(times, fits[0], fits[1] if slope else None,
                            (times >= h) & (times <= 1.0 - h)))


def _finite(est: Estimate, what: str = "fit") -> Estimate:
    """est, unless a value left the float range (np.ldexp, np.gradient and
    differences overflow to inf silently); else raise at the first bad
    entry of times."""
    parts = [v for v in (est.mu_hat, est.dmu_hat) if v is not None]
    if all(np.isfinite(v).all() for v in parts):
        return est
    bad = np.any([~np.isfinite(v).all(axis=1) for v in parts], axis=0)
    raise FloatingPointError(
        f"{what} leaves the float range at t={est.times[np.argmax(bad)]:g}")


def local_linear(series: FunctionalSeries, cfg: SmoothConfig) -> Estimate:
    """Local linear mean and derivative estimates.

    Estimates are produced at every stamp, including boundary stamps with
    truncated windows; interior_mask records where the untruncated-window
    guarantees apply.
    """
    return _fit(series, cfg, "ll")


def nadaraya_watson(series: FunctionalSeries, cfg: SmoothConfig) -> Estimate:
    """Kernel-weighted local average (mean only)."""
    return _fit(series, cfg, "nw")


@np.errstate(over="ignore")  # an overflowing difference raises in _finite
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
    return _finite(replace(est, dmu_hat=np.gradient(est.mu_hat, step,
                                                     axis=0)))


def jackknife_derivative(series: FunctionalSeries,
                         cfg: SmoothConfig) -> Estimate:
    """Bias-reduced mean and derivative from the fits at h and h/sqrt(2),
    in one pass over the windows of h."""
    return _fit(series, cfg, "jackknife")


# The estimators' names, for fit, cross-validation, the simulation and the CLI.
ESTIMATORS = ("ll", "jackknife", "nw")

# What a fit raises: an unusable bandwidth, or values past the float range.
FIT_ERRORS = (SingularFit, EmptyWindow, FloatingPointError)


def fit(name: str, series: FunctionalSeries, cfg: SmoothConfig,
        derivative: bool = False) -> Estimate:
    """Fit the estimator named name, one of ESTIMATORS, at the stamps: its
    mean and, with derivative, its derivative (nw's from nw_derivative)."""
    est = _fit(series, cfg, name, derivative)
    if derivative and est.dmu_hat is None:
        est = nw_derivative(est)
    return est

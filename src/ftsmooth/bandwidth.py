"""k-fold cross-validation bandwidth selection on the grid [1/n, 1/sqrt(n)]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import ESTIMATORS, _equivalent_kernels, _windows
from .kernels import Kernel, quartic
from .series import FunctionalSeries, pow2_scaled

__all__ = ["CvConfig", "CvReport", "AllBandwidthsInvalid",
           "bandwidth_grid", "cross_validate"]

# Relative tie tolerance of CV's RMS residuals, in units of the data's RMS.
_TIE_RTOL = 1e-12

# Bandwidths per group of the CV pass, and the element cap of its work
# arrays: points are taken in chunks small enough for both.
_GROUP = 4
_CHUNK = 1 << 16


class AllBandwidthsInvalid(ValueError):
    """Every candidate bandwidth failed on at least one fold."""


@dataclass(frozen=True)
class CvConfig:
    k: int = 5
    grid_size: int = 20
    estimator: str = "ll"

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {sorted(ESTIMATORS)}")


@dataclass(frozen=True)
class CvReport:
    grid: np.ndarray
    scores: np.ndarray
    best_h: float


def bandwidth_grid(n: int, grid_size=CvConfig.grid_size) -> np.ndarray:
    """Geometric grid of grid_size bandwidths from 1/n to 1/sqrt(n)."""
    if n < 9:
        raise ValueError("n must be >= 9")
    return np.geomspace(1.0 / n, 1.0 / np.sqrt(n), grid_size)


def fold_indices(n: int, k: int) -> list[np.ndarray]:
    """Interleaved folds: fold f holds the stamps f, f+k, f+2k, ..."""
    idx = np.arange(n)
    return [idx[f::k] for f in range(k)]


# Degenerate windows divide by zero or overflow; they score inf.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _cv_reports(series: FunctionalSeries, cfg: CvConfig, names, kernel):
    """Each named estimator's CvReport, or the AllBandwidthsInvalid that
    cross_validate raises for it, from one pass over the pow2_scaled values.

    Per fold, the grid is walked in groups of _GROUP bandwidths; each
    held-out stamp sums over its own W training stamps from its first
    within the group's largest reach, and each chunk of points is scored
    by one product of each estimator's weights with the values. Groups,
    windows and chunks depend on the grid and data only, so an
    estimator's scores do not depend on what else is scored.
    """
    n, p = series.n, series.p
    if cfg.k > n // 4:
        raise ValueError("k must be <= n/4")
    grid = bandwidth_grid(n, cfg.grid_size)
    values, e = pow2_scaled(series.values)
    sse = {name: np.zeros(grid.size) for name in names}  # inf: failed
    for val in fold_indices(n, cfg.k):
        t_tr, t_val = np.delete(series.times, val), series.times[val]
        v_tr, v_val = np.delete(values, val, axis=0), values[val]
        for a in range(0, grid.size, _GROUP):
            hs = grid[a:a + _GROUP, None]
            lo, hi = _windows(t_tr, t_val, t_val, hs[-1, 0])
            width = max(int(np.max(hi - lo)), 1)
            # Stamps beyond reach weigh 0; windows may overrun it at either end
            lo = np.minimum(lo, t_tr.size - width)
            # Per point: the window's values, the weights of all three
            # estimators and one fit, whichever are scored, so that chunks
            # do not depend on what is scored.
            step = max(_CHUNK // (width * p + _GROUP * (3 * width + p)), 1)
            for b in range(0, val.size, step):
                idx = lo[b:b + step, None] + np.arange(width)
                d = np.take(t_tr, idx) - t_val[b:b + step, None]
                vals = np.take(v_tr, idx, axis=0)
                y = v_val[b:b + step, None, :]
                fits = _equivalent_kernels(d, hs, kernel, names)
                for name in names:
                    weights, failed = fits[name]
                    sse[name][a:a + _GROUP] += np.where(
                        failed.any(axis=0), np.inf,
                        ((weights[0] @ vals - y) ** 2).sum((0, 2)))
    # Smallest h whose RMS residual is within a hair, far above rounding
    # (a few eps times the data's RMS), of the minimum's. In scaled units no
    # failed h ties, and the pick stands where data-unit scores read inf or 0.
    hair = _TIE_RTOL * float(np.sqrt(np.mean(values ** 2)))
    reports = {}
    for name in names:
        scores = sse[name] / (n * p)
        if not np.any(np.isfinite(scores)):
            reports[name] = AllBandwidthsInvalid(
                "no candidate bandwidth produced a valid fit on all folds")
            continue
        best = int(np.argmax(np.sqrt(scores) <= np.sqrt(scores.min()) + hair))
        reports[name] = CvReport(grid, np.ldexp(scores, 2 * e),
                                 float(grid[best]))
    return reports


def cross_validate(series: FunctionalSeries, cfg: CvConfig,
                   kernel: Kernel = quartic()) -> CvReport:
    """Score each candidate bandwidth by k-fold validation MSE.

    Each fold is fitted on the training stamps only (windows may cross fold
    boundaries in time; only the held-out observations are excluded) and
    scored by squared error at the validation stamps, averaged over stamps,
    coordinates and folds. A bandwidth that fails on any fold scores +inf.
    Ties are broken toward the smallest bandwidth. The whole grid is
    scored in one streamed pass per fold, with memory bounded at any n.
    """
    (report,) = _cv_reports(series, cfg, (cfg.estimator,), kernel).values()
    if isinstance(report, AllBandwidthsInvalid):
        raise report
    return report

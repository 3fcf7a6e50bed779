"""k-fold cross-validation bandwidth selection on the grid [1/n, 1/sqrt(n)]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import ESTIMATORS, FIT_ERRORS, SmoothConfig, fit
from .kernels import Kernel, quartic
from .series import FunctionalSeries

__all__ = ["CvConfig", "CvReport", "AllBandwidthsInvalid",
           "bandwidth_grid", "cross_validate"]

# Relative tie tolerance of CV scores, in units of the data's mean square.
_TIE_RTOL = 1e-15


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


def bandwidth_grid(n: int, grid_size: int = 20) -> np.ndarray:
    """Geometric grid of grid_size bandwidths from 1/n to 1/sqrt(n)."""
    if n < 9:
        raise ValueError("n must be >= 9")
    return np.geomspace(1.0 / n, 1.0 / np.sqrt(n), grid_size)


def fold_indices(n: int, k: int) -> list[np.ndarray]:
    """Interleaved folds: fold f holds the stamps f, f+k, f+2k, ..."""
    idx = np.arange(n)
    return [idx[f::k] for f in range(k)]


def cross_validate(series: FunctionalSeries, cfg: CvConfig,
                   kernel: Kernel | None = None) -> CvReport:
    """Score each candidate bandwidth by k-fold validation MSE.

    Each fold is fitted on the training stamps only (windows may cross fold
    boundaries in time; only the held-out observations are excluded) and
    scored by squared error at the validation stamps, averaged over stamps,
    coordinates and folds. A bandwidth that fails on any fold scores +inf.
    Ties are broken toward the smallest bandwidth.
    """
    n = series.n
    if cfg.k > n // 4:
        raise ValueError("k must be <= n/4")
    if kernel is None:
        kernel = quartic()
    grid = bandwidth_grid(n, cfg.grid_size)
    folds = fold_indices(n, cfg.k)
    all_idx = np.arange(n)
    # Each fold's training series is built once and reused across the grid.
    splits = [(series.subset(np.setdiff1d(all_idx, val_idx)),
               series.times[val_idx], series.values[val_idx])
              for val_idx in folds]

    scores = np.zeros(grid.size)
    for j, h in enumerate(grid):
        cfg_h = SmoothConfig(h, kernel)
        total = 0.0
        count = 0
        for train, val_times, val_values in splits:
            try:
                est = fit(cfg.estimator, train, cfg_h, eval_times=val_times)
            except FIT_ERRORS:
                total = np.inf
                break
            resid = est.mu_hat - val_values
            total += float((resid * resid).sum())
            count += resid.size
        scores[j] = total / count if np.isfinite(total) else np.inf

    if not np.any(np.isfinite(scores)):
        raise AllBandwidthsInvalid(
            "no candidate bandwidth produced a valid fit on all folds")
    # Smallest h within a hair of the minimum: scores that differ only by
    # rounding noise (exactly reproduced data) count as ties. Scores are in
    # squared data units, so the hair is relative to the data's mean square.
    tol = _TIE_RTOL * float(np.mean(series.values ** 2))
    best = int(np.argmax(scores <= np.min(scores) + tol))
    return CvReport(grid, scores, float(grid[best]))

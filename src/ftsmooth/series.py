"""Discretized function-valued time series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FunctionalSeries", "ValueGrid", "NORMS"]

NORMS = ("l1", "l2", "sup")


@dataclass(frozen=True)
class ValueGrid:
    """Layout of the flattened value dimension: d curves on m grid points."""

    d: int = 1
    m: int = 1

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError(f"value grid needs d, m >= 1, got d={self.d}, "
                             f"m={self.m}")

    @property
    def p(self) -> int:
        return self.d * self.m


@dataclass(frozen=True)
class FunctionalSeries:
    """n observations of a (flattened) P-dimensional value on [0, 1].

    times are strictly increasing stamps in [0, 1]; the default
    constructor places them equidistantly with step 1/n.
    """

    times: np.ndarray
    values: np.ndarray
    value_grid: ValueGrid = field(default_factory=ValueGrid)
    norm: str = "l2"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a non-empty 1d array")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if times[0] < 0.0 or times[-1] > 1.0:
            raise ValueError("times must lie in [0, 1]")
        if values.shape[0] != times.size:
            raise ValueError("values must have one row per time stamp")
        if self.value_grid.p != values.shape[1]:
            raise ValueError(
                f"value_grid implies P={self.value_grid.p}, "
                f"got {values.shape[1]} columns")
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")

    @classmethod
    def equidistant(cls, values) -> "FunctionalSeries":
        """Series of single curves on the stamps i/n, i = 0, ..., n-1."""
        values = np.atleast_2d(np.asarray(values, dtype=float))
        n, p = values.shape
        return cls(np.arange(n) / n, values, ValueGrid(1, p))

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def p(self) -> int:
        return self.values.shape[1]


def pow2_scaled(a: np.ndarray, axis=None):
    """(a / 2**e, e), 2**(e-1) <= max |a| < 2**e per row along axis or over
    all of a (e = 0 for zeros). Exact, so sums of squares of a / 2**e do not
    overflow or vanish, and scale back by 2**(2 e) (Blue, ACM TOMS 1978)."""
    e = np.frexp(np.max(np.abs(a), axis=axis, keepdims=True))[1]
    return np.ldexp(a, -e), e.squeeze(axis)


def discretized_norm(rows: np.ndarray, norm: str) -> np.ndarray:
    """Row-wise discretized norm: l1 mean |.|, l2 root mean square, sup max |.|."""
    rows = np.atleast_2d(rows)
    a = np.abs(rows)
    if norm == "l1":
        return a.mean(axis=1)
    if norm == "l2":
        scaled, e = pow2_scaled(rows, axis=1)
        return np.ldexp(np.sqrt((scaled * scaled).mean(axis=1)), e)
    if norm == "sup":
        return a.max(axis=1)
    raise ValueError(f"norm must be one of {NORMS}")

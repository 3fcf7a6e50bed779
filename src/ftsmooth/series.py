"""Discretized function-valued time series."""

from __future__ import annotations

from dataclasses import dataclass

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

    times are strictly increasing stamps in [0, 1]; values has one row per
    stamp (a 1d array: one value), and value_grid defaults to ValueGrid(1, P).
    """

    times: np.ndarray
    values: np.ndarray
    value_grid: ValueGrid | None = None
    norm: str = "l2"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        values = values.reshape(-1, 1) if values.ndim < 2 else values
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
        if values.ndim > 2 or values.shape[0] != times.size:
            raise ValueError("values need one row per time stamp and at most "
                             f"2 axes, got {values.ndim} axes {values.shape}")
        grid = self.value_grid or ValueGrid(1, values.shape[1])
        object.__setattr__(self, "value_grid", grid)
        if grid.p != values.shape[1]:
            raise ValueError(f"value_grid implies P={grid.p}, "
                             f"got {values.shape[1]} columns")
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")

    @classmethod
    def equidistant(cls, values) -> "FunctionalSeries":
        """Series of n observations on the stamps i/n, i = 0, ..., n-1."""
        n = (np.shape(values) or (1,))[0]
        return cls(np.arange(n) / n, values)

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
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    if norm == "sup":
        return np.abs(rows).max(axis=1)
    scaled, e = pow2_scaled(rows, axis=1)
    if norm == "l1":
        return np.ldexp(np.abs(scaled).mean(axis=1), e)
    return np.ldexp(np.sqrt((scaled * scaled).mean(axis=1)), e)

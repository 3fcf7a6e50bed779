"""Compactly supported smoothing kernels and their moments.

All kernels live on [-1, 1], are symmetric, non-negative and integrate
to one. The bias-cancelling combination ``2*sqrt(2)*K(sqrt(2)x) - K(x)``
is exposed alongside each kernel because the Jackknife estimators are,
asymptotically, plain kernel averages with exactly this kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "quartic"]

# Composite Simpson on [-1, 1]; integrands are smooth polynomials times
# the kernel, so a fixed fine grid beats adaptive machinery.
_SIMPSON_NODES = 2049

_SQRT2 = np.sqrt(2.0)


def _quartic(x: np.ndarray) -> np.ndarray:
    # Branch-free 15/16 * max(1 - x^2, 0)^2, worked in one buffer; fmax
    # maps NaN to 0 like a mask on |x| <= 1 would.
    x = np.asarray(x, dtype=float)
    y = np.multiply(x, x, out=np.empty_like(x))
    np.subtract(1.0, y, out=y)
    np.fmax(y, 0.0, out=y)
    np.multiply(y, y, out=y)
    y *= 0.9375
    return y


class Kernel:
    """Symmetric weight function on [-1, 1].

    Either the built-in quartic kernel or a user-supplied tabulation on a
    symmetric grid, evaluated by linear interpolation. Tabulated kernels
    are validated (finiteness, support, symmetry, sign, normalization) and
    never rescaled: a kernel that does not integrate to one is a user error
    worth surfacing.
    """

    def __init__(self, shape: str = "quartic",
                 grid: np.ndarray | None = None,
                 values: np.ndarray | None = None):
        if shape == "quartic":
            self._eval = _quartic
        elif shape == "custom":
            if grid is None or values is None:
                raise ValueError("custom kernel needs grid and values")
            # Copies: the caller's arrays may change after validation.
            grid = np.array(grid, dtype=float)
            values = np.array(values, dtype=float)
            if grid.ndim != 1 or grid.shape != values.shape or grid.size < 3:
                raise ValueError("grid and values must be equal-length 1d arrays")
            if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
                raise ValueError("kernel grid and values must be finite")
            if not np.all(np.diff(grid) > 0):
                raise ValueError("grid must be strictly increasing")
            if grid[0] < -1.0 - 1e-12 or grid[-1] > 1.0 + 1e-12:
                raise ValueError("custom kernels are supported on [-1, 1]")
            if np.any(values < 0):
                raise ValueError("kernel values must be non-negative")

            def interp(x, _g=grid, _v=values):
                x = np.asarray(x, dtype=float)
                out = np.interp(x, _g, _v, left=0.0, right=0.0)
                return np.where(np.abs(x) <= 1.0, out, 0.0)

            self._eval = interp
            xs = np.linspace(0.0, 1.0, 257)
            if np.max(np.abs(interp(xs) - interp(-xs))) > 1e-9:
                raise ValueError("kernel must be symmetric")
        else:
            raise ValueError(f"unknown kernel shape: {shape!r}")
        if abs(self.moment(0) - 1.0) > 1e-9:
            raise ValueError("kernel must integrate to 1 on [-1, 1]")

    def __call__(self, x) -> np.ndarray:
        """K(x), zero outside [-1, 1]."""
        return self._eval(x)

    def eval_star(self, x) -> np.ndarray:
        """The bias-cancelling kernel 2*sqrt(2)*K(sqrt(2)x) - K(x)."""
        x = np.asarray(x, dtype=float)
        return 2.0 * _SQRT2 * self._eval(_SQRT2 * x) - self._eval(x)

    def moment(self, ell: int) -> float:
        """integral of x^ell K(x) over [-1, 1] (composite Simpson)."""
        if ell < 0:
            raise ValueError("ell must be non-negative")
        return _simpson(lambda x: x ** ell * self._eval(x))

    def moment_star(self, ell: int) -> float:
        """integral of x^ell K*(x) over [-1, 1]; moment_star(2) vanishes."""
        if ell < 0:
            raise ValueError("ell must be non-negative")
        return _simpson(lambda x: x ** ell * self.eval_star(x))

    @property
    def kappa2(self) -> float:
        """Second moment, the constant in the leading smoothing bias."""
        return self.moment(2)


def _simpson(f) -> float:
    x = np.linspace(-1.0, 1.0, _SIMPSON_NODES)
    y = f(x)
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1]
                            + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-1:2].sum()))


_QUARTIC = Kernel("quartic")


def quartic() -> Kernel:
    """The quartic kernel K(x) = 15/16 (1 - x^2)^2, the library's default:
    every call returns the same instance."""
    return _QUARTIC

"""The quartic smoothing kernel and its moments.

The kernel is the quartic on [-1, 1]: symmetric, non-negative and of unit
mass. The bias-cancelling combination ``2*sqrt(2)*K(sqrt(2)x) - K(x)`` is
exposed alongside it because the Jackknife estimators are, asymptotically,
plain kernel averages with exactly this kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "quartic"]

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
    """The quartic kernel 15/16 (1 - x^2)^2 on [-1, 1], the one kernel the
    paper's estimators and their analysis use.

    ``shape`` accepts "quartic" alone and anything else is a ``ValueError``.
    It stays only because the benchmark's ``perfbench.tracing.TracedKernel``
    passes it, and goes when that subclass no longer does.
    """

    def __init__(self, shape: str = "quartic"):
        if shape != "quartic":
            raise ValueError(f"unknown kernel shape: {shape!r}")

    def __call__(self, x) -> np.ndarray:
        """K(x), zero outside [-1, 1]."""
        return _quartic(x)

    def eval_star(self, x) -> np.ndarray:
        """The bias-cancelling kernel 2*sqrt(2)*K(sqrt(2)x) - K(x)."""
        x = np.asarray(x, dtype=float)
        return 2.0 * _SQRT2 * self(_SQRT2 * x) - self(x)

    def moment(self, ell: int) -> float:
        """integral of x^ell K(x) over [-1, 1], in closed form: 0 for odd
        ell, else 15/8 (1/(ell+1) - 2/(ell+3) + 1/(ell+5)), which is
        15/((ell+1)(ell+3)(ell+5)), one rounding from the exact value."""
        if ell < 0:
            raise ValueError("ell must be non-negative")
        return 0.0 if ell % 2 else 15.0 / ((ell + 1) * (ell + 3) * (ell + 5))

    def moment_star(self, ell: int) -> float:
        """integral of x^ell K*(x) over [-1, 1]; moment_star(2) vanishes.
        u = sqrt(2) x turns the integral of x^ell 2 sqrt(2) K(sqrt(2) x)
        into 2^(1 - ell/2) moment(ell)."""
        return (2.0 ** (1 - ell / 2) - 1.0) * self.moment(ell)

    @property
    def kappa2(self) -> float:
        """Second moment, the constant in the leading smoothing bias."""
        return self.moment(2)


_QUARTIC = Kernel("quartic")


def quartic() -> Kernel:
    """The quartic kernel K(x) = 15/16 (1 - x^2)^2, the library's default:
    every call returns the same instance."""
    return _QUARTIC

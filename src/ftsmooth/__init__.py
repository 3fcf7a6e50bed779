"""Nonparametric smoothing for function-valued time series."""

__version__ = "0.1.0"

from .kernels import Kernel, quartic
from .series import FunctionalSeries, ValueGrid
from .estimators import (SmoothConfig, Estimate, local_linear,
                         nadaraya_watson, nw_derivative, jackknife_derivative,
                         SingularFit, BandwidthTooSmall, EmptyWindow,
                         NonEquidistant)
from .bandwidth import (CvConfig, CvReport, AllBandwidthsInvalid,
                        bandwidth_grid, cross_validate)
from .analysis import (mse, mae, residual_norms, cusum, detect_peaks,
                       sliding_embed, CusumResult, ShapeMismatch,
                       InputTooShort)

__all__ = [
    "Kernel", "quartic", "FunctionalSeries", "ValueGrid",
    "SmoothConfig", "Estimate", "local_linear", "nadaraya_watson",
    "nw_derivative", "jackknife_derivative",
    "SingularFit", "BandwidthTooSmall", "EmptyWindow", "NonEquidistant",
    "CvConfig", "CvReport", "AllBandwidthsInvalid",
    "bandwidth_grid", "cross_validate",
    "mse", "mae", "residual_norms", "cusum", "detect_peaks",
    "sliding_embed", "CusumResult", "ShapeMismatch", "InputTooShort",
]

"""Synthetic function-valued time series and the Monte Carlo benchmark loop.

Two smooth mean surfaces with analytic time derivatives, seven error
processes built from Brownian motion / Brownian bridge innovations and a
compact integral operator, and a seeded replication loop that selects the
bandwidth per estimator by cross-validation and aggregates MSE/MAE and
fit times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import mae, mse
from .bandwidth import CvConfig, _cv_reports
from .estimators import ESTIMATORS, FIT_ERRORS, SmoothConfig, fit
from .kernels import Kernel, quartic
from .series import FunctionalSeries

__all__ = [
    "MeanOperator", "mu1", "mu2", "ERROR_PROCESSES", "SimSpec",
    "RESULT_FIELDS", "ResultRow", "ResultsTable",
    "gen_errors", "gen_series", "monte_carlo",
]

ERROR_PROCESSES = ("bm", "bb", "farbm", "farbb", "tvbm", "tvfar1", "tvfar2",
                   "none")

# Burn-in for the autoregressive processes: the operator has norm < 1,
# so 50 iterations forget the start value to below 1e-6.
FAR_BURN_IN = 50

_RHO_SCALE = 0.3 * np.sqrt(6.0)


@dataclass(frozen=True)
class MeanOperator:
    """Smooth mean surface with its analytic time derivative."""

    eval: callable  # (t, x) -> value
    d_eval: callable  # (t, x) -> time derivative


def mu1() -> MeanOperator:
    """sin(2 pi x) + t^2."""
    return MeanOperator(
        eval=lambda t, x: np.sin(2.0 * np.pi * x) + t ** 2,
        d_eval=lambda t, x: 2.0 * t + 0.0 * x,
    )


def _phi(x):
    return -8.0 * x ** 4 + 16.0 * x ** 3 - 11.0 * x ** 2 + 3.0 * x + 1.0


def mu2() -> MeanOperator:
    """phi(x) + (t - 1/2)^2 + sin(10 pi t)/10 + 3/4."""
    return MeanOperator(
        eval=lambda t, x: (_phi(x) + (t - 0.5) ** 2
                           + 0.1 * np.sin(10.0 * np.pi * t) + 0.75),
        d_eval=lambda t, x: (2.0 * (t - 0.5)
                             + np.pi * np.cos(10.0 * np.pi * t) + 0.0 * x),
    )


def flat() -> MeanOperator:
    """Constant mean, exactly reproduced by every estimator; for debugging."""
    return MeanOperator(
        eval=lambda t, x: 1.0 + 0.0 * t + 0.0 * x,
        d_eval=lambda t, x: 0.0 * t + 0.0 * x,
    )


MEAN_OPERATORS = {"mu1": mu1, "mu2": mu2, "flat": flat}


@dataclass(frozen=True)
class SimSpec:
    mean: MeanOperator
    errors: str
    n: int
    m: int
    reps: int
    master_seed: int

    def __post_init__(self):
        if self.errors not in ERROR_PROCESSES:
            raise ValueError(f"errors must be one of {ERROR_PROCESSES}")
        if self.n < 10:
            raise ValueError("n must be >= 10")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


def _rng(master_seed: int, rep: int) -> np.random.Generator:
    """Counter-based derived stream: order- and parallelism-independent.
    The trailing 0 is part of every seed; dropping it changes every draw."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, rep, 0]))


def _innovations(process: str, count: int, m: int,
                 rng: np.random.Generator) -> np.ndarray:
    """count Brownian motions on the grid j/(m-1), one per row; Brownian
    bridges B(t) = W(t) - t W(1) for the bb-based processes."""
    if m < 2:
        raise ValueError("m must be >= 2")
    out = np.zeros((count, m))
    np.cumsum(rng.standard_normal((count, m - 1)) / np.sqrt(m - 1), axis=1,
              out=out[:, 1:])
    if process in ("bb", "farbb"):
        out -= np.arange(m) / (m - 1) * out[:, -1:]
    return out


def _trapezoid_weights(m: int) -> np.ndarray:
    w = np.full(m, 1.0 / (m - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def rho_matrix(m: int) -> np.ndarray:
    """Discretized integral operator with kernel 0.3 sqrt(6) min(x, y)."""
    x = np.arange(m) / (m - 1)
    return (_RHO_SCALE * np.minimum.outer(x, x)) * _trapezoid_weights(m)


def _sigma(t):
    return t + 0.5


def gen_errors(process: str, n: int, m: int,
               rng: np.random.Generator) -> np.ndarray:
    """n x m matrix of centered error curves.

    Autoregressive variants start from a fresh innovation and discard
    FAR_BURN_IN iterations; time-varying coefficients use the emitted stamp
    i/n, frozen at sigma(1/n) during burn-in.
    """
    if process == "none":
        return np.zeros((n, m))
    if process in ("bm", "bb"):
        return _innovations(process, n, m, rng)
    if process == "tvbm":
        eta = _innovations("bm", n, m, rng)
        t = np.arange(n) / n
        return _sigma(t)[:, None] * eta

    if process not in ("farbm", "farbb", "tvfar1", "tvfar2"):
        raise ValueError(f"unknown error process {process!r}")
    rho = rho_matrix(m)
    eta = _innovations(process, FAR_BURN_IN + n + 1, m, rng)
    # eps <- a (rho eps) + b eta: a and b are 1 or sigma, and 1.0 * x is exact.
    sigma = _sigma(np.r_[np.full(FAR_BURN_IN, 1.0 / n), np.arange(n) / n])
    a = sigma if process == "tvfar2" else np.ones_like(sigma)
    b = sigma if process == "tvfar1" else np.ones_like(sigma)
    eps = eta[0]  # start value: a fresh innovation
    out = np.empty((n, m))
    for s in range(FAR_BURN_IN + n):
        eps = a[s] * (rho @ eps) + b[s] * eta[s + 1]
        if s >= FAR_BURN_IN:
            out[s - FAR_BURN_IN] = eps
    return out


def gen_series(spec: SimSpec, rep: int):
    """One replication: observed series plus mean/derivative ground truth."""
    if not 0 <= rep < spec.reps:
        raise ValueError("rep out of range")
    tt, xx = np.meshgrid(np.arange(spec.n) / spec.n,
                         np.arange(spec.m) / (spec.m - 1), indexing="ij")
    truth_mu, truth_dmu = spec.mean.eval(tt, xx), spec.mean.d_eval(tt, xx)
    errors = gen_errors(spec.errors, spec.n, spec.m,
                        _rng(spec.master_seed, rep))
    return (FunctionalSeries.equidistant(truth_mu + errors), truth_mu,
            truth_dmu)


# Wall-clock fit times are deliberately left out: simulate result
# files must be byte-identical across reruns with the same seed.
RESULT_FIELDS = ("estimator", "target", "n", "m", "reps",
                 "mean_mse", "sd_mse", "mean_mae", "sd_mae")


@dataclass(frozen=True)
class ResultRow:
    estimator: str
    target: str  # "mu" or "dmu"
    n: int
    m: int
    reps: int
    mean_mse: float
    sd_mse: float
    mean_mae: float
    sd_mae: float
    mean_fit_ms: float


@dataclass
class ResultsTable:
    rows: list[ResultRow] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)

    def row(self, estimator: str, target: str) -> ResultRow:
        for r in self.rows:
            if r.estimator == estimator and r.target == target:
                return r
        raise KeyError((estimator, target))


def _run_rep(spec: SimSpec, rep: int, estimators, cv: CvConfig,
             kernel: Kernel):
    series, truth_mu, truth_dmu = gen_series(spec, rep)
    out = _cv_reports(series, cv, estimators, kernel)  # failures as values
    for name, report in out.items():
        if isinstance(report, Exception):
            continue
        try:
            t0 = time.perf_counter()
            est = fit(name, series, SmoothConfig(report.best_h, kernel),
                      derivative=True)
            fit_ms = (time.perf_counter() - t0) * 1e3
        except FIT_ERRORS as exc:
            out[name] = exc
            continue
        out[name] = (mse(est.mu_hat, truth_mu), mae(est.mu_hat, truth_mu),
                     mse(est.dmu_hat, truth_dmu),
                     mae(est.dmu_hat, truth_dmu), fit_ms)
    return out


def monte_carlo(spec: SimSpec, estimators=tuple(ESTIMATORS),
                cv: CvConfig = CvConfig(), kernel: Kernel = quartic(),
                threads: int = 0) -> ResultsTable:
    """Replicate, select bandwidths, fit and aggregate errors.

    Replications run serially in replication order, each drawing from its
    own derived seed, so reruns with the same seed are bit-identical.
    `estimators` must name distinct keys of ESTIMATORS, at least one.
    A replication whose CV or fit fails for an estimator counts in its
    `failures`; the error is raised only if no estimator ever succeeds.
    `threads` is ignored; it is kept only because the benchmark harness
    in `perfbench/` still passes it.
    """
    estimators = tuple(estimators)
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
    if not estimators or len(set(estimators)) < len(estimators):
        raise ValueError("estimators must be a non-empty selection without "
                         f"repeats, got {list(estimators)}")
    per_rep = [_run_rep(spec, rep, estimators, cv, kernel)
               for rep in range(spec.reps)]

    table = ResultsTable()
    for name in estimators:
        records = [r[name] for r in per_rep if not isinstance(r[name], Exception)]
        table.failures[name] = spec.reps - len(records)
        if not records:
            continue
        arr = np.array(records)  # columns: mse_mu, mae_mu, mse_dmu, mae_dmu, ms
        for target, (c_mse, c_mae) in (("mu", (0, 1)), ("dmu", (2, 3))):
            table.rows.append(ResultRow(
                estimator=name, target=target, n=spec.n, m=spec.m,
                reps=len(records),
                mean_mse=float(arr[:, c_mse].mean()),
                sd_mse=float(arr[:, c_mse].std()),
                mean_mae=float(arr[:, c_mae].mean()),
                sd_mae=float(arr[:, c_mae].std()),
                mean_fit_ms=float(arr[:, 4].mean()),
            ))
    if not table.rows:  # nothing to report: raise the first failure
        raise per_rep[0][estimators[0]]
    return table

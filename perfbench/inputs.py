"""Seeded benchmark inputs and the memory guard.

Inputs are generated here, not by ftsmooth.simulation, so that a change to
the library's generators cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The dense estimators hold about four n_eval x n_train float64 arrays at
# once (offsets, weights, weights * offsets, one temporary): local_linear
# at n = 4000, p = 10 peaked at 488 MiB (x86-64, numpy 2.4, OpenBLAS).
DENSE_ARRAYS = 4
MEMORY_CAP_BYTES = 2 * 2 ** 30


def predict_dense_bytes(n_eval: int, n_train: int) -> int:
    return DENSE_ARRAYS * 8 * n_eval * n_train


def memory_guard(n_eval: int, n_train: int,
                 cap: int = MEMORY_CAP_BYTES) -> dict:
    """Predicted dense footprint and whether it fits under the cap."""
    predicted = predict_dense_bytes(n_eval, n_train)
    return {"n_eval": n_eval, "n_train": n_train,
            "predicted_mib": predicted / 2 ** 20, "cap_mib": cap / 2 ** 20,
            "status": "run" if predicted <= cap else "skipped"}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def brownian_rows(rng, rows: int, m: int) -> np.ndarray:
    """rows independent Brownian motions on the grid j/(m-1), W(0) = 0."""
    inc = rng.standard_normal((rows, m - 1)) / math.sqrt(m - 1)
    return np.concatenate([np.zeros((rows, 1)), np.cumsum(inc, axis=1)], axis=1)


def far_brownian(rng, n: int, m: int, burn_in: int = 50) -> np.ndarray:
    """Functional AR(1) errors: eps_i = rho eps_{i-1} + Brownian motion.

    rho is the integral operator with kernel 0.3 sqrt(6) min(x, y),
    discretized by the trapezoid rule (operator norm below one).
    """
    x = np.arange(m) / (m - 1)
    weights = np.full(m, 1.0 / (m - 1))
    weights[[0, -1]] *= 0.5
    rho = 0.3 * math.sqrt(6.0) * np.minimum.outer(x, x) * weights
    eta = brownian_rows(rng, burn_in + n + 1, m)
    eps = eta[0]
    out = np.empty((n, m))
    for step in range(1, burn_in + n + 1):
        eps = rho @ eps + eta[step]
        if step > burn_in:
            out[step - burn_in - 1] = eps
    return out


def smooth_long_values(seed: int, n: int, d: int, m: int) -> np.ndarray:
    """n x (d*m) curves: a smooth mean per channel plus Brownian errors."""
    t = (np.arange(n) / n)[:, None]
    x = (np.arange(m) / (m - 1))[None, :]
    rng = _rng(seed, 1)
    channels = [np.sin(2.0 * np.pi * (x + c / d)) + (1.0 + c) * t ** 2
                + 0.5 * np.sin(6.0 * np.pi * t) + brownian_rows(rng, n, m)
                for c in range(d)]
    return np.concatenate(channels, axis=1)


def cv_analyze_values(seed: int, variant: int, n: int, m: int,
                      break_at: int) -> np.ndarray:
    """mu2 plus FAR(1) Brownian errors whose scale doubles at break_at."""
    t = (np.arange(n) / n)[:, None]
    x = (np.arange(m) / (m - 1))[None, :]
    phi = -8.0 * x ** 4 + 16.0 * x ** 3 - 11.0 * x ** 2 + 3.0 * x + 1.0
    mean = phi + (t - 0.5) ** 2 + 0.1 * np.sin(10.0 * np.pi * t) + 0.75
    errors = far_brownian(_rng(seed, 2, variant), n, m)
    errors[break_at:] *= 2.0
    return mean + errors


def write_series(path: str, times: np.ndarray, values: np.ndarray,
                 d: int, m: int) -> None:
    """CSV with a t,x0,... header and 17 significant digits, plus sidecar."""
    header = "t," + ",".join(f"x{j}" for j in range(values.shape[1]))
    np.savetxt(path, np.column_stack([times, values]), fmt="%.17g",
               delimiter=",", header=header, comments="")
    with open(path + ".meta.json", "w") as f:
        json.dump({"d": d, "m": m}, f)

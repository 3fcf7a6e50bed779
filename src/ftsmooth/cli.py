"""Command line front end: simulate | smooth | cv | analyze.

Exit codes: 0 ok, 2 bad configuration (an unwritable --out too),
3 malformed input file, 4 numeric failure (singular fit, no valid bandwidth).
Flags may also come from a JSON file via --config; explicit flags win.
fts simulate runs its replications serially in replication order, so
reruns with the same seed write byte-identical result files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click
import numpy as np

from . import __version__
from .analysis import ShapeMismatch, cusum, detect_peaks, residual_norms
from .bandwidth import AllBandwidthsInvalid, CvConfig, cross_validate
from .estimators import (ESTIMATORS, FIT_ERRORS, Estimate, NonEquidistant,
                         SmoothConfig, fit)
from .io import (MalformedInput, read_series_csv, write_csv,
                 write_json_atomic, write_series_csv)
from .series import NORMS
from .simulation import (ERROR_PROCESSES, MEAN_OPERATORS, RESULT_FIELDS,
                         SimSpec, monte_carlo)

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = FIT_ERRORS + (NonEquidistant, AllBandwidthsInvalid)


def _load_config(ctx: click.Context, param: click.Parameter, path):
    """Make the JSON object in `path` the default map, each value as the
    text of its flag, which click checks like that flag; flags still win."""
    if path is None:
        return
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"config {path} must hold a JSON object")
    unknown = set(data) - {p.name for p in ctx.command.params} - {param.name}
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    if any(v is None or isinstance(v, (dict, list)) for v in data.values()):
        raise click.UsageError(f"config {path}: values must be scalars")
    ctx.default_map = {k: str(v) for k, v in data.items()}


def _fail(code: int, exc: BaseException) -> None:
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(code)


def _guard(fn, kw: dict):
    try:
        fn(**kw)
    except (MalformedInput, ShapeMismatch) as exc:
        _fail(EXIT_INPUT, exc)
    except _NUMERIC_ERRORS as exc:
        _fail(EXIT_NUMERIC, exc)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out
        _fail(EXIT_CONFIG, exc)


def _resolve_bandwidth(n: int, bandwidth, bandwidth_frames) -> float:
    if (bandwidth is None) == (bandwidth_frames is None):
        raise click.UsageError(
            "give exactly one of --bandwidth or --bandwidth-frames")
    if bandwidth is not None:
        return float(bandwidth)
    return float(bandwidth_frames) / n


@click.group()
@click.version_option(__version__)
def main():
    """Nonparametric smoothing toolkit for function-valued time series."""


def _command(out_default: str, *options):
    """Register the decorated function as a subcommand of `main`.

    The command takes `options`, then --out (default `out_default`) and
    --config; the function gets every flag, with defaults from the config
    file, as keyword arguments and runs under the exit-code guard.
    """
    options += (
        click.option("--out", default=out_default, help="output path prefix"),
        click.option("--config", type=click.Path(), callback=_load_config,
                     is_eager=True, expose_value=False,
                     help="JSON file with defaults for the flags above"))

    def register(body):
        def command(**kw):
            _guard(body, kw)

        for option in reversed(options):
            command = option(command)
        return main.command(body.__name__, help=body.__doc__)(command)

    return register


# Option groups shared by several commands.
_INPUT = (click.option("--input", type=click.Path(), required=True),
          click.option("--meta", type=click.Path(), default=None,
                       help="sidecar JSON with d, m, norm"))
_ESTIMATOR = click.option("--estimator", type=click.Choice(sorted(ESTIMATORS)),
                          default="ll")
_BANDWIDTH = (
    click.option("--bandwidth", type=float, default=None),
    click.option("--bandwidth-frames", type=int, default=None,
                 help="bandwidth as a number of observations (h = B/n)"))
_FOLDS = (
    click.option("--k", type=int, default=CvConfig.k,
                 help="cross-validation folds"),
    click.option("--grid-size", type=int, default=CvConfig.grid_size))


def _columns(rows, fields) -> dict:
    """The named attributes of `rows` as columns for `write_csv`."""
    return {f: [getattr(r, f) for r in rows] for f in fields}


@_command(
    "fts_sim",
    click.option("--mean", type=click.Choice(sorted(MEAN_OPERATORS)),
                 default="mu1"),
    click.option("--errors", type=click.Choice(ERROR_PROCESSES), default="bm"),
    click.option("--n", type=int, default=100),
    click.option("--m", type=int, default=100),
    click.option("--reps", type=int, default=200),
    click.option("--seed", type=int, default=0),
    *_FOLDS,
    click.option("--estimators", default=",".join(ESTIMATORS),
                 help=f"comma-separated subset of {','.join(ESTIMATORS)}"))
def simulate(mean, errors, n, m, reps, seed, k, grid_size, estimators, out):
    """Monte Carlo benchmark of the smoothers on synthetic data."""
    names = [s.strip() for s in estimators.split(",") if s.strip()]
    spec = SimSpec(MEAN_OPERATORS[mean](), errors, n, m, reps, seed)
    table = monte_carlo(spec, names, CvConfig(k=k, grid_size=grid_size))
    command = (f"fts simulate --mean {mean} --errors {errors}"
               f" --n {n} --m {m} --reps {reps}"
               f" --k {k} --grid-size {grid_size}"
               f" --estimators {','.join(names)}")
    write_csv(out + "_results.csv", _columns(table.rows, RESULT_FIELDS),
              command, seed)
    write_csv(out + "_timings.csv",
              _columns([r for r in table.rows if r.target == "mu"],
                       ("estimator", "n", "m", "reps", "mean_fit_ms")),
              command, seed)
    write_json_atomic(out + "_summary.json",
                      {"failed_replications": table.failures}, command, seed)
    click.echo(f"wrote {out}_results.csv")


@_command("fts_smooth", *_INPUT, _ESTIMATOR, *_BANDWIDTH,
          click.option("--derivative", is_flag=True, help="nw only: add the "
                       "finite-difference derivative"))
def smooth(input, meta, estimator, bandwidth, bandwidth_frames, derivative,
           out):
    """Smooth a series file with one of the estimators."""
    if derivative and estimator != "nw":
        raise click.UsageError("--derivative applies to --estimator nw only")
    series = read_series_csv(input, meta)
    h = _resolve_bandwidth(series.n, bandwidth, bandwidth_frames)
    est = fit(estimator, series, SmoothConfig(h),
              derivative=derivative or estimator != "nw")
    command = f"fts smooth --estimator {estimator} --bandwidth {h:.17g}"
    for suffix, values in (("_mu.csv", est.mu_hat), ("_dmu.csv", est.dmu_hat)):
        if values is not None:
            write_series_csv(out + suffix, est.times, values, command,
                             extra_cols={"interior_mask": est.interior_mask})
    click.echo(f"wrote {out}_mu.csv")


@_command("fts_cv", *_INPUT, _ESTIMATOR, *_FOLDS)
def cv(input, meta, estimator, k, grid_size, out):
    """Select a bandwidth by k-fold cross-validation."""
    report = cross_validate(read_series_csv(input, meta),
                            CvConfig(k, grid_size, estimator))
    command = f"fts cv --estimator {estimator} --k {k} --grid-size {grid_size}"
    write_csv(out + "_cv.csv", {"h": report.grid, "score": report.scores},
              command)
    write_json_atomic(out + "_cv.json", {
        "best_h": report.best_h,
        "grid": [float(h) for h in report.grid],
        "scores": [float(s) if np.isfinite(s) else None
                   for s in report.scores]}, command)
    click.echo(f"best_h {report.best_h:.17g}")


@_command("fts_analysis", *_INPUT,
          click.option("--smoothed", type=click.Path(), default=None,
                       help="precomputed smoothed series; "
                       "omit to smooth in one pass"),
          click.option("--estimator", type=click.Choice(sorted(ESTIMATORS)),
                       default=None, help="(default ll)"),
          *_BANDWIDTH,
          click.option("--norm", type=click.Choice(NORMS), default=None),
          click.option("--threshold-multiplier", type=float, default=5.0))
def analyze(input, meta, smoothed, estimator, bandwidth, bandwidth_frames,
            norm, threshold_multiplier, out):
    """Residual norms, CUSUM localization and peak detection."""
    if smoothed is not None and any(
            v is not None for v in (estimator, bandwidth, bandwidth_frames)):
        raise click.UsageError("--smoothed takes no --estimator, --bandwidth "
                               "or --bandwidth-frames")
    series = read_series_csv(input, meta)
    if norm is not None:
        series = replace(series, norm=norm)
    if smoothed is not None:
        sm = read_series_csv(smoothed)
        est = Estimate(sm.times, sm.values, None, np.ones(sm.n, dtype=bool))
        command = "fts analyze"
    else:
        estimator = estimator or "ll"
        h = _resolve_bandwidth(series.n, bandwidth, bandwidth_frames)
        est = fit(estimator, series, SmoothConfig(h))
        command = f"fts analyze --estimator {estimator} --bandwidth {h:.17g}"
    z = residual_norms(series, est)
    cus = cusum(z)
    peaks = detect_peaks(z, threshold_multiplier)
    command += (f" --norm {series.norm}"
                f" --threshold-multiplier {threshold_multiplier:.17g}")
    write_csv(out + "_residuals.csv", {"t": series.times, "norm": z}, command)
    write_csv(out + "_cusum.csv", {"t": series.times, "cusum": cus.process},
              command)
    write_json_atomic(out + "_peaks.json", {
        "cusum_argmax_index": cus.argmax_index,
        "cusum_max_value": cus.max_value,
        "peaks": [list(p) for p in peaks]}, command)
    click.echo(f"cusum argmax index {cus.argmax_index}")


if __name__ == "__main__":
    main()

"""Command line front end: simulate | smooth | cv | analyze.

Exit codes: 0 ok, 2 bad configuration, 3 malformed input file,
4 numeric failure (singular fit, no valid bandwidth).
Flags may also come from a JSON file via --config; explicit flags win.
FTS_THREADS caps internal parallelism (0 or unset = automatic).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import click
import numpy as np

from . import __version__
from .analysis import ShapeMismatch, cusum, detect_peaks, residual_norms
from .bandwidth import AllBandwidthsInvalid, CvConfig, cross_validate
from .estimators import (ESTIMATORS, FIT_ERRORS, Estimate, NonEquidistant,
                         SmoothConfig, fit)
from .io import (MalformedInput, read_series_csv, write_json_atomic,
                 write_matrix_csv, write_results_csv, write_series_csv,
                 write_timings_csv)
from .simulation import (ERROR_PROCESSES, MEAN_OPERATORS, SimSpec,
                         monte_carlo)

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = FIT_ERRORS + (NonEquidistant, AllBandwidthsInvalid)


def _threads() -> int:
    raw = os.environ.get("FTS_THREADS", "0")
    try:
        return max(int(raw), 0)
    except ValueError:
        raise click.UsageError(f"FTS_THREADS must be an integer, got {raw!r}")


def _merge_config(ctx: click.Context, config: str | None, values: dict) -> dict:
    """Fill parameters from a JSON config file; explicit flags win."""
    if config is None:
        return values
    try:
        with open(config) as f:
            file_values = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {config}: {exc}")
    unknown = set(file_values) - set(values)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(values)
    for key, val in file_values.items():
        src = ctx.get_parameter_source(key)
        if src is not None and src.name != "DEFAULT":
            continue  # flag given explicitly
        merged[key] = val
    return merged


def _fail(code: int, exc: BaseException) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guard(fn):
    try:
        fn()
    except (MalformedInput, ShapeMismatch) as exc:
        _fail(EXIT_INPUT, exc)
    except _NUMERIC_ERRORS as exc:
        _fail(EXIT_NUMERIC, exc)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)


def _load_series(path: str, meta: str | None, norm: str | None):
    series = read_series_csv(path, meta)
    return series if norm is None else replace(series, norm=norm)


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


@main.command()
@click.option("--mean", type=click.Choice(sorted(MEAN_OPERATORS)), default="mu1")
@click.option("--errors", type=click.Choice(ERROR_PROCESSES), default="bm")
@click.option("--n", type=int, default=100)
@click.option("--m", type=int, default=100)
@click.option("--reps", type=int, default=200)
@click.option("--seed", type=int, default=0)
@click.option("--k", type=int, default=5, help="cross-validation folds")
@click.option("--grid-size", type=int, default=20)
@click.option("--estimators", default=",".join(ESTIMATORS),
              help=f"comma-separated subset of {','.join(ESTIMATORS)}")
@click.option("--out", default="fts_sim", help="output path prefix")
@click.option("--format", "fmt_", type=click.Choice(["csv", "json"]),
              default="csv")
@click.option("--config", type=click.Path(), default=None,
              help="JSON file with defaults for the flags above")
@click.pass_context
def simulate(ctx, **kw):
    """Monte Carlo benchmark of the smoothers on synthetic data."""
    kw = _merge_config(ctx, kw.pop("config"), kw)

    def run():
        names = [s.strip() for s in kw["estimators"].split(",") if s.strip()]
        for name in names:
            if name not in ESTIMATORS:
                raise click.UsageError(f"unknown estimator {name!r}")
        spec = SimSpec(MEAN_OPERATORS[kw["mean"]](), kw["errors"],
                       kw["n"], kw["m"], kw["reps"], kw["seed"])
        cv = CvConfig(k=kw["k"], grid_size=kw["grid_size"])
        table = monte_carlo(spec, names, cv, threads=_threads())
        command = (f"fts simulate --mean {kw['mean']} --errors {kw['errors']}"
                   f" --n {kw['n']} --m {kw['m']} --reps {kw['reps']}"
                   f" --k {kw['k']} --grid-size {kw['grid_size']}"
                   f" --estimators {','.join(names)}")
        out = kw["out"]
        if kw["fmt_"] == "csv":
            write_results_csv(out + "_results.csv", table, command, kw["seed"])
        else:
            write_json_atomic(out + "_results.json", {
                "command": command, "seed": kw["seed"],
                "version": __version__,
                "rows": [{k2: getattr(r, k2) for k2 in
                          ("estimator", "target", "n", "m", "reps",
                           "mean_mse", "sd_mse", "mean_mae", "sd_mae")}
                         for r in table.rows]})
        write_timings_csv(out + "_timings.csv", table, command, kw["seed"])
        write_json_atomic(out + "_summary.json", {
            "command": command, "seed": kw["seed"], "version": __version__,
            "failed_replications": table.failures})
        click.echo(f"wrote {out}_results.{kw['fmt_']}")

    _guard(run)


@main.command()
@click.option("--input", "input_", type=click.Path(), required=True)
@click.option("--meta", type=click.Path(), default=None,
              help="sidecar JSON with d, m, norm")
@click.option("--estimator", type=click.Choice(sorted(ESTIMATORS)),
              default="ll")
@click.option("--bandwidth", type=float, default=None)
@click.option("--bandwidth-frames", type=int, default=None,
              help="bandwidth as a number of observations (h = B/n)")
@click.option("--derivative", is_flag=True,
              help="with --estimator nw: add the finite-difference derivative")
@click.option("--out", default="fts_smooth", help="output path prefix")
@click.option("--config", type=click.Path(), default=None)
@click.pass_context
def smooth(ctx, **kw):
    """Smooth a series file with one of the estimators."""
    kw = _merge_config(ctx, kw.pop("config"), kw)

    def run():
        series = _load_series(kw["input_"], kw["meta"], None)
        h = _resolve_bandwidth(series.n, kw["bandwidth"],
                               kw["bandwidth_frames"])
        est = fit(kw["estimator"], series, SmoothConfig(h),
                  derivative=kw["derivative"])
        command = (f"fts smooth --estimator {kw['estimator']}"
                   f" --bandwidth {h:.17g}")
        out = kw["out"]
        write_series_csv(out + "_mu.csv", est.times, est.mu_hat, command,
                         extra_cols={"interior_mask": est.interior_mask})
        if est.dmu_hat is not None:
            write_series_csv(out + "_dmu.csv", est.times, est.dmu_hat,
                             command,
                             extra_cols={"interior_mask": est.interior_mask})
        click.echo(f"wrote {out}_mu.csv")

    _guard(run)


@main.command()
@click.option("--input", "input_", type=click.Path(), required=True)
@click.option("--meta", type=click.Path(), default=None)
@click.option("--estimator", type=click.Choice(sorted(ESTIMATORS)),
              default="ll")
@click.option("--k", type=int, default=5)
@click.option("--grid-size", type=int, default=20)
@click.option("--fold-scheme", type=click.Choice(["interleaved", "blocks"]),
              default="interleaved")
@click.option("--out", default="fts_cv", help="output path prefix")
@click.option("--config", type=click.Path(), default=None)
@click.pass_context
def cv(ctx, **kw):
    """Select a bandwidth by k-fold cross-validation."""
    kw = _merge_config(ctx, kw.pop("config"), kw)

    def run():
        series = _load_series(kw["input_"], kw["meta"], None)
        report = cross_validate(series, CvConfig(
            kw["k"], kw["grid_size"], kw["estimator"], kw["fold_scheme"]))
        command = (f"fts cv --estimator {kw['estimator']} --k {kw['k']}"
                   f" --grid-size {kw['grid_size']}"
                   f" --fold-scheme {kw['fold_scheme']}")
        out = kw["out"]
        write_matrix_csv(out + "_cv.csv", ["h", "score"],
                         [[float(h), float(s)]
                          for h, s in zip(report.grid, report.scores)],
                         command)
        write_json_atomic(out + "_cv.json", {
            "command": command, "version": __version__,
            "best_h": report.best_h,
            "grid": [float(h) for h in report.grid],
            "scores": [float(s) for s in report.scores]})
        click.echo(f"best_h {report.best_h:.17g}")

    _guard(run)


@main.command()
@click.option("--input", "input_", type=click.Path(), required=True)
@click.option("--meta", type=click.Path(), default=None)
@click.option("--smoothed", type=click.Path(), default=None,
              help="precomputed smoothed series; omit to smooth in one pass")
@click.option("--estimator", type=click.Choice(sorted(ESTIMATORS)),
              default="ll")
@click.option("--bandwidth", type=float, default=None)
@click.option("--bandwidth-frames", type=int, default=None)
@click.option("--norm", type=click.Choice(["l1", "l2", "sup"]), default=None)
@click.option("--threshold-multiplier", type=float, default=5.0)
@click.option("--out", default="fts_analysis", help="output path prefix")
@click.option("--config", type=click.Path(), default=None)
@click.pass_context
def analyze(ctx, **kw):
    """Residual norms, CUSUM localization and peak detection."""
    kw = _merge_config(ctx, kw.pop("config"), kw)

    def run():
        series = _load_series(kw["input_"], kw["meta"], kw["norm"])
        if kw["smoothed"] is not None:
            sm = read_series_csv(kw["smoothed"])
            est = Estimate(sm.times, sm.values, None,
                           np.ones(sm.n, dtype=bool), 0.0)
        else:
            h = _resolve_bandwidth(series.n, kw["bandwidth"],
                                   kw["bandwidth_frames"])
            est = fit(kw["estimator"], series, SmoothConfig(h))
        z = residual_norms(series, est)
        cus = cusum(z)
        peaks = detect_peaks(z, kw["threshold_multiplier"])
        command = f"fts analyze --norm {series.norm}"
        out = kw["out"]
        write_matrix_csv(out + "_residuals.csv", ["t", "norm"],
                         [[float(t), float(v)]
                          for t, v in zip(series.times, z)], command)
        write_matrix_csv(out + "_cusum.csv", ["t", "cusum"],
                         [[float(t), float(v)]
                          for t, v in zip(series.times, cus.process)],
                         command)
        write_json_atomic(out + "_peaks.json", {
            "command": command, "version": __version__,
            "cusum_argmax_index": cus.argmax_index,
            "cusum_max_value": cus.max_value,
            "peaks": [list(p) for p in peaks]})
        click.echo(f"cusum argmax index {cus.argmax_index}")

    _guard(run)


if __name__ == "__main__":
    main()

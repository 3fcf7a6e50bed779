"""The benchmark workloads: mc_paper, smooth_long and cv_analyze.

Each runs as a closed loop with one client for the run's window. Untraced
runs time the operations and check their outputs; traced runs replay the
same operations through the library's public functions with spans around
each call, and time an untraced copy of each replayed operation to give
the tracing overhead. In-process loops first run one untimed warm-up op:
the first calls in a process pay one-off costs (page faults, lazy numpy
set-up) that the following ops do not.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from ftsmooth import (CvConfig, FunctionalSeries, SmoothConfig,
                      cross_validate, cusum, detect_peaks,
                      jackknife_derivative, local_linear, mae, mse,
                      nadaraya_watson, nw_derivative, quartic,
                      residual_norms)
from ftsmooth.io import read_series_csv, write_series_csv
from ftsmooth.simulation import SimSpec, gen_series, monte_carlo, mu1

import inputs
import oracle
from common import Context, Outcome, closed_loop, run_child
from stats import latency_summary, median
from tracing import (NullTracer, TracedKernel, Tracer, totals_by_name,
                     traced_series)

HERE = Path(__file__).resolve().parent
REL_TOL = 1e-9
ESTIMATORS = ("ll", "jackknife", "nw")
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5

# mc_paper: the acceptance fixture's configuration at the paper's sizes.
SIM_SIZES = (50, 100, 200, 500)
SIM_M = 100
SIM_REPS = 3  # replications per timed `fts simulate` request
POOL_REPS = 2  # replications per size for the serial-vs-pool comparison
REF_SEED = 0
REF_REPS = 2
REFERENCE = HERE / "reference" / "mc_paper_seed0.json"
SIM_FIELDS = ("mean_mse", "sd_mse", "mean_mae", "sd_mae")
# A timed request's mean MSE for mu must lie within this factor of the
# reference; over 20 probe requests (3 replications each) the worst
# ratio seen was 2.1.
PLAUSIBLE_FACTOR = 5.0

# smooth_long: the guard skips sizes whose dense footprint exceeds the cap.
SMOOTH_SIZES = (4000, 20000)
SMOOTH_D, SMOOTH_M = 2, 5
SMOOTH_FRAMES = 63  # h = 63/4000, about 1/sqrt(n)
SMOOTH_REQUESTS = (("ll",), ("jackknife",), ("nw", "--derivative"))
ORACLE_POINTS = 8

# cv_analyze: the README pipeline on a series with a break in error scale.
CV_N, CV_M = 2000, 10
CV_BREAK = 1200
CV_INPUTS = 3
CV_ARGMAX_TOL = 0.02  # |argmax - (CV_BREAK - 1)| <= 0.02 n


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by ftsmooth (# lines skipped)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines()
                 if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _log_failure(what: str, detail: str) -> None:
    print(f"op failed: {what}\n{detail}", file=sys.stderr)


def _sampled_stamps(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 3])
    inner = rng.choice(np.arange(1, n - 1), ORACLE_POINTS - 2, replace=False)
    return np.sort(np.concatenate([[0, n - 1], inner]))


def _oracle_error(estimator, times, values, h, stamps, mu, dmu) -> float:
    want = [oracle.reference_at(estimator, times, values, k, h)
            for k in stamps]
    return max(oracle.max_rel_error(mu[stamps], [w[0] for w in want]),
               oracle.max_rel_error(dmu[stamps], [w[1] for w in want]))


def fit_with_derivative(name, series, cfg, tracer):
    """Mean and derivative fit for one estimator, as the CLI runs it."""
    if name == "ll":
        return tracer.call("estimators.local_linear", local_linear,
                           series, cfg)
    if name == "jackknife":
        return tracer.call("estimators.jackknife_derivative",
                           jackknife_derivative, series, cfg)
    mean = tracer.call("estimators.nadaraya_watson", nadaraya_watson,
                       series, cfg)
    return tracer.call("estimators.nw_derivative", nw_derivative, mean)


# ---------------------------------------------------------------- set-up

def measure_setup(ctx: Context, out: Outcome) -> None:
    """setup_s: a fresh interpreter importing the library and the CLI."""
    args = [sys.executable, "-c",
            "import ftsmooth, ftsmooth.cli; ftsmooth.quartic()"]
    walls = _spawn_walls(ctx, args, SETUP_SAMPLES)
    out.metric("setup_s", median(walls), "s", len(walls),
               "median fresh-interpreter import of ftsmooth and ftsmooth.cli")


def measure_cli_startup(ctx: Context, out: Outcome) -> None:
    walls = _spawn_walls(ctx, ctx.fts("--version"), STARTUP_SAMPLES)
    out.metric("cli.startup_ms", median(walls) * 1e3, "ms", len(walls),
               "median wall of `fts --version`")


def _spawn_walls(ctx, args, samples):
    run_child(args, ctx.env(), ctx.work)  # warm the bytecode cache
    walls = []
    for _ in range(samples):
        child = run_child(args, ctx.env(), ctx.work)
        if child.returncode != 0:
            raise RuntimeError(f"{args} exited {child.returncode}:\n"
                               f"{child.stderr}")
        walls.append(child.wall_s)
    return walls


# --------------------------------------------------------- layer metrics

def layer_metrics(out: Outcome, tracer: Tracer, ops: int,
                  cv_reports: list) -> None:
    """Per-operation layer figures from the spans of ``ops`` traced ops."""
    out.details["spans"] = tracer.spans
    tot = totals_by_name(tracer.spans)
    ops = max(ops, 1)
    out.details["span_totals"] = {
        name: {"calls": t.calls / ops, "ms": t.seconds * 1e3 / ops,
               "self_ms": t.self_seconds * 1e3 / ops}
        for name, t in sorted(tot.items())}

    def ms(name):
        return tot[name].seconds * 1e3 / ops

    kern = tot["kernels.eval"]
    out.metric("kernels.eval.calls", kern.calls / ops, "call/op")
    out.metric("kernels.eval.points", kern.count / ops, "point/op",
               note="computed: kernel arguments evaluated")
    out.metric("kernels.eval.ms", ms("kernels.eval"), "ms/op")
    est_self = 0.0
    for fn in ("local_linear", "jackknife_derivative", "nadaraya_watson",
               "nw_derivative"):
        out.metric(f"estimators.{fn}.ms", ms(f"estimators.{fn}"), "ms/op")
        est_self += tot[f"estimators.{fn}"].self_seconds
    out.metric("estimators.self_ms", est_self * 1e3 / ops, "ms/op",
               note="estimator spans minus kernel child spans")
    out.metric("series.subset.calls", tot["series.subset"].calls / ops,
               "call/op")
    out.metric("series.subset.ms", ms("series.subset"), "ms/op")
    cv = tot["bandwidth.cross_validate"]
    out.metric("bandwidth.cross_validate.calls", cv.calls / ops, "call/op")
    out.metric("bandwidth.cross_validate.ms", ms("bandwidth.cross_validate"),
               "ms/op")
    out.metric("bandwidth.cross_validate.self_ms",
               cv.self_seconds * 1e3 / ops, "ms/op",
               note="minus subset and kernel child spans")
    points = sum(r.grid.size for r in cv_reports)
    failed = sum(int(np.sum(~np.isfinite(r.scores))) for r in cv_reports)
    edges = sum(r.best_h in (r.grid[0], r.grid[-1]) for r in cv_reports)
    out.metric("bandwidth.failed_ratio", failed / points if points else 0.0,
               "1", points, "+inf scores / grid points")
    out.metric("bandwidth.edge_ratio",
               edges / len(cv_reports) if cv_reports else 0.0, "1",
               len(cv_reports), "selections at a grid endpoint / calls")
    out.metric("simulation.gen_series.calls",
               tot["simulation.gen_series"].calls / ops, "call/op")
    out.metric("simulation.gen_series.ms", ms("simulation.gen_series"),
               "ms/op")
    for fn in ("mse_mae", "residual_norms", "cusum", "detect_peaks"):
        out.metric(f"analysis.{fn}.ms", ms(f"analysis.{fn}"), "ms/op")
    for name in ("io.read_series_csv", "io.write"):
        out.metric(f"{name}.ms", ms(name), "ms/op")
        out.metric(f"{name}.bytes", tot[name].count / ops, "B/op")


def _alternate(op: int, traced, plain):
    """Traced and untraced variants, in an order that flips every op."""
    return (traced, plain) if op % 2 else (plain, traced)


def _overhead(out: Outcome, pairs: list) -> None:
    out.metric("trace.overhead_ms",
               median([a - b for a, b in pairs]) * 1e3 if pairs else 0.0,
               "ms/op", len(pairs), "traced minus untraced replay, median")


# -------------------------------------------------------------- mc_paper

def _simulate(ctx, n, reps, seed, out_prefix, threads=None):
    args = ctx.fts("simulate", "--mean", "mu1", "--errors", "bm",
                   "--m", str(SIM_M), "--n", str(n), "--reps", str(reps),
                   "--seed", str(seed), "--out", out_prefix)
    return run_child(args, ctx.env(threads), ctx.work)


def _read_simulation(prefix: str):
    """Result table {(estimator, target): fields} and failure counts."""
    header, rows = read_table(prefix + "_results.csv")
    table = {}
    for row in rows:
        rec = dict(zip(header, row))
        table[(rec["estimator"], rec["target"])] = {
            "reps": int(rec["reps"]),
            **{f: float(rec[f]) for f in SIM_FIELDS}}
    with open(prefix + "_summary.json") as f:
        failed = json.load(f)["failed_replications"]
    return table, failed


def _library_table(results) -> dict:
    return {(r.estimator, r.target): {"reps": r.reps,
                                      **{f: getattr(r, f) for f in SIM_FIELDS}}
            for r in results.rows}


def _rel(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    if b == 0.0:
        return 0.0 if a == 0.0 else math.inf
    return abs(a - b) / abs(b)


def table_rel_error(got: dict, want: dict) -> float:
    """Largest relative difference between two result tables."""
    if set(got) != set(want):
        return math.inf
    worst = 0.0
    for key, w in want.items():
        if got[key]["reps"] != w["reps"]:
            return math.inf
        worst = max([worst] + [_rel(got[key][f], w[f]) for f in SIM_FIELDS])
    return worst


def load_reference() -> dict:
    with open(REFERENCE) as f:
        raw = json.load(f)
    return {int(n): {tuple(key.split("/")): row for key, row in rows.items()}
            for n, rows in raw["tables"].items()}


def _sim_seed(seed: int, round_: int) -> int:
    return seed * 1000 + round_


def replay_rep(spec, tracer, kernel, cv_reports):
    """Replication 0 through public calls, as monte_carlo runs it."""
    with tracer.span("simulation.gen_series"):
        series, truth_mu, truth_dmu = gen_series(spec, 0)
    series = traced_series(series, tracer)
    record = {}
    for name in ESTIMATORS:
        report = tracer.call("bandwidth.cross_validate", cross_validate,
                             series, CvConfig(estimator=name), kernel)
        cv_reports.append(report)
        est = fit_with_derivative(name, series,
                                  SmoothConfig(report.best_h, kernel), tracer)
        with tracer.span("analysis.mse_mae"):
            record[name] = (mse(est.mu_hat, truth_mu),
                            mae(est.mu_hat, truth_mu),
                            mse(est.dmu_hat, truth_dmu),
                            mae(est.dmu_hat, truth_dmu))
    return record


def replay_table(records: list) -> dict:
    """Aggregate replayed records the way monte_carlo does."""
    table = {}
    for name in ESTIMATORS:
        arr = np.array([r[name] for r in records])
        for target, (c_mse, c_mae) in (("mu", (0, 1)), ("dmu", (2, 3))):
            table[(name, target)] = {
                "reps": len(records),
                "mean_mse": float(arr[:, c_mse].mean()),
                "sd_mse": float(arr[:, c_mse].std()),
                "mean_mae": float(arr[:, c_mae].mean()),
                "sd_mae": float(arr[:, c_mae].std())}
    return table


def mc_paper(ctx: Context, out: Outcome) -> None:
    reference = load_reference()
    for n in SIM_SIZES:
        prefix = str(ctx.work / f"ref{n}")
        child = _simulate(ctx, n, REF_REPS, REF_SEED, prefix)
        err = (table_rel_error(_read_simulation(prefix)[0], reference[n])
               if child.returncode == 0 else math.inf)
        out.check("mc_reference_tables", err, REL_TOL,
                  f"seed-{REF_SEED} tables at each n vs the stored reference,"
                  " max relative error")
    if ctx.trace:
        _mc_traced(ctx, out)
    else:
        _mc_timed(ctx, out, reference)


def _mc_timed(ctx, out, reference):
    rounds = []  # (wall of the round's requests, replications completed)
    rss = {f"n={n}": [] for n in SIM_SIZES}

    def one_round():
        wall, done = 0.0, 0
        for n in SIM_SIZES:
            prefix = str(ctx.work / f"mc{n}")
            child = _simulate(ctx, n, SIM_REPS, _sim_seed(ctx.seed, len(rounds)),
                              prefix)
            wall += child.wall_s
            rss[f"n={n}"].append(child.maxrss_mib)
            out.attempted += SIM_REPS
            if child.returncode != 0:
                out.failed += SIM_REPS
                _log_failure(f"simulate n={n}", child.stderr)
                continue
            table, failed = _read_simulation(prefix)
            lost = min(SIM_REPS, sum(failed.values()))
            out.failed += lost
            done += SIM_REPS - lost
            out.check("mc_plausible_mse",
                      _implausibility(table, failed, reference[n]),
                      math.log(PLAUSIBLE_FACTOR),
                      "|log| of each timed table's mean MSE for mu over the "
                      "reference at the same n; every row present and finite")
        rounds.append((wall, done))

    closed_loop(ctx.seconds, one_round)
    busy = sum(w for w, _ in rounds)
    done = sum(d for _, d in rounds)
    per_rep_ms = [w * 1e3 / (SIM_REPS * len(SIM_SIZES)) for w, _ in rounds]
    lat = latency_summary(per_rep_ms)
    out.metric("ops_per_s", done / busy, "op/s", done,
               f"replications per second over {len(rounds)} rounds of "
               f"{len(SIM_SIZES)} requests, {busy:.1f} s busy")
    out.metric("op_ms_p50", lat["p50"], "ms", len(rounds),
               "amortized per replication, median over rounds (single "
               "replications are not observable under the pool)")
    _tail_metric(out, lat, "per-round amortized replication time")
    _peak_rss_metric(out, rss)
    out.details["rounds"] = rounds


def _implausibility(table, failed, reference) -> float:
    """Worst |log(MSE / reference MSE)| over the mu rows of a timed request.

    The dmu rows are only checked for shape and finiteness: their MSE is
    heavy-tailed over a few replications (an edge-of-grid bandwidth can
    multiply it several times), while the mu MSE stays within a factor of
    about two of the reference.
    """
    if set(table) != set(reference):
        return math.inf
    worst = 0.0
    for (name, target), row in table.items():
        if (row["reps"] != SIM_REPS - failed[name]
                or not all(math.isfinite(row[f]) and row[f] >= 0.0
                           for f in SIM_FIELDS)):
            return math.inf
        if target == "mu":
            ratio = row["mean_mse"] / reference[(name, target)]["mean_mse"]
            worst = max(worst, abs(math.log(ratio)) if ratio > 0 else math.inf)
    return worst


def _mc_traced(ctx, out):
    tracer = Tracer()
    kernel = TracedKernel(tracer)
    cv_reports, pairs, rounds = [], [], []

    def one_round():
        for n in SIM_SIZES:
            spec = SimSpec(mu1(), "bm", n, SIM_M, 1,
                           _sim_seed(ctx.seed, len(rounds)))
            out.attempted += 1
            tracer.op += 1
            walls = {}
            try:
                for traced in _alternate(tracer.op, True, False):
                    t0 = time.perf_counter()
                    if traced:
                        with tracer.span(f"simulation.rep.n{n}"):
                            record = replay_rep(spec, tracer, kernel,
                                                cv_reports)
                    else:
                        library = monte_carlo(spec, ESTIMATORS, CvConfig(),
                                              quartic(), threads=1)
                    walls[traced] = time.perf_counter() - t0
            except Exception:
                out.failed += 1
                _log_failure(f"replay n={n}", traceback.format_exc())
                continue
            pairs.append((walls[True], walls[False]))
            out.check("mc_replay_matches_library",
                      table_rel_error(replay_table([record]),
                                      _library_table(library)),
                      REL_TOL, "traced public-call replay vs serial "
                      "monte_carlo, max relative error")
        rounds.append(1)

    monte_carlo(SimSpec(mu1(), "bm", SIM_SIZES[0], SIM_M, 1, ctx.seed),
                ESTIMATORS, CvConfig(), quartic(), threads=1)  # warm-up
    closed_loop(ctx.seconds, one_round)
    layer_metrics(out, tracer, out.attempted - out.failed, cv_reports)
    for n in SIM_SIZES:
        walls = [s.duration for s in tracer.spans
                 if s.name == f"simulation.rep.n{n}"]
        out.metric(f"simulation.rep_ms.n{n}",
                   median(walls) * 1e3 if walls else 0.0, "ms", len(walls),
                   "traced serial replication, median")
    _overhead(out, pairs)
    _mc_pool_and_cli(ctx, out)


def _mc_pool_and_cli(ctx, out):
    """Serial vs automatic pool in-process, and the CLI on the same reps."""
    serial = auto = 0.0
    cli_overhead = []
    for n in SIM_SIZES:
        seed = _sim_seed(ctx.seed, 0)
        spec = SimSpec(mu1(), "bm", n, SIM_M, POOL_REPS, seed)
        t0 = time.perf_counter()
        one = monte_carlo(spec, ESTIMATORS, CvConfig(), quartic(), threads=1)
        t1 = time.perf_counter()
        pooled = monte_carlo(spec, ESTIMATORS, CvConfig(), quartic(),
                             threads=0)
        t2 = time.perf_counter()
        serial += t1 - t0
        auto += t2 - t1
        out.check("mc_threads_identical_in_process",
                  table_rel_error(_library_table(pooled), _library_table(one)),
                  0.0, "monte_carlo threads=0 vs threads=1, relative error")
        blobs = []
        for threads in (None, "1"):
            prefix = str(ctx.work / f"pool{n}-{threads or 'auto'}")
            child = _simulate(ctx, n, POOL_REPS, seed, prefix, threads)
            if child.returncode != 0:
                out.require("mc_cli_runs", False, "fts simulate exit code 0")
                _log_failure(f"simulate n={n}", child.stderr)
                break
            if threads is None:
                cli_overhead.append(child.wall_s - (t2 - t1))
                out.check("mc_cli_matches_library",
                          table_rel_error(_read_simulation(prefix)[0],
                                          _library_table(one)),
                          REL_TOL, "fts simulate vs in-process monte_carlo")
            with open(prefix + "_results.csv", "rb") as a, \
                    open(prefix + "_summary.json", "rb") as b:
                blobs.append(a.read() + b.read())
        if len(blobs) == 2:
            out.require("mc_threads_byte_identical", blobs[0] == blobs[1],
                        "results and summary bytes, FTS_THREADS=1 vs unset")
    out.metric("simulation.pool_speedup", serial / auto, "1",
               len(SIM_SIZES) * POOL_REPS,
               "serial wall / automatic-pool wall, same replications")
    out.metric("cli.overhead_ms", median(cli_overhead) * 1e3, "ms",
               len(cli_overhead),
               "fts simulate wall minus in-process pool wall, median")


def _peak_rss_metric(out, rss: dict) -> None:
    """Peak RSS of the heaviest request kind, median over its requests.

    One request's peak depends on how its pool threads happened to overlap;
    the median over requests of a kind does not.
    """
    kind, peaks = max(rss.items(), key=lambda kv: median(kv[1]))
    out.metric("peak_rss_mib", median(peaks), "MiB", len(peaks),
               f"median peak RSS of the '{kind}' requests, the heaviest kind")


def _tail_metric(out, lat, what):
    if lat["tail"] is None:
        out.metric("op_ms_tail", math.nan, "ms", lat["samples"],
                   f"{what}: too few samples for a tail")
    else:
        out.metric("op_ms_tail", lat["tail"], "ms", lat["samples"],
                   f"{what}: p{lat['tail_percentile']:.1f}")


# ----------------------------------------------------------- smooth_long

def _smooth_request(ctx, path, est_args, prefix):
    args = ctx.fts("smooth", "--input", path, "--estimator", *est_args,
                   "--bandwidth-frames", str(SMOOTH_FRAMES), "--out", prefix)
    return run_child(args, ctx.env(), ctx.work)


def _check_smooth(out, prefix, estimator, times, values, stamps):
    h = float(SMOOTH_FRAMES) / times.size
    tables = []
    for suffix in ("_mu.csv", "_dmu.csv"):
        _, rows = read_table(prefix + suffix)
        tables.append(np.array(rows, dtype=float))
    shape_ok = all(t.shape == (times.size, values.shape[1] + 2)
                   and np.array_equal(t[:, 0], times) for t in tables)
    err = (_oracle_error(estimator, times, values, h, stamps,
                         tables[0][:, 1:-1], tables[1][:, 1:-1])
           if shape_ok else math.inf)
    out.check("smooth_oracle", err, REL_TOL,
              "mu/dmu at sampled stamps vs per-point WLS (weighted mean for "
              "nw) oracle, max relative error")


def smooth_replay(path, estimator, prefix, tracer, kernel):
    """One `fts smooth` request in-process: read, fit, write."""
    with tracer.span("io.read_series_csv") as span:
        series = read_series_csv(path)
    span.count = os.path.getsize(path)
    cfg = SmoothConfig(float(SMOOTH_FRAMES) / series.n, kernel)
    est = fit_with_derivative(estimator, series, cfg, tracer)
    command = (f"fts smooth --estimator {estimator}"
               f" --bandwidth {cfg.bandwidth:.17g}")
    paths = (prefix + "_mu.csv", prefix + "_dmu.csv")
    with tracer.span("io.write") as span:
        for p, vals in zip(paths, (est.mu_hat, est.dmu_hat)):
            write_series_csv(p, est.times, vals, command,
                             extra_cols={"interior_mask": est.interior_mask})
    span.count = sum(os.path.getsize(p) for p in paths)


def smooth_long(ctx: Context, out: Outcome) -> None:
    guards = [inputs.memory_guard(n, n) for n in SMOOTH_SIZES]
    out.details["memory_guard"] = guards
    requests = []
    for guard in guards:
        if guard["status"] != "run":
            continue
        n = guard["n_eval"]
        times = np.arange(n) / n
        values = inputs.smooth_long_values(ctx.seed, n, SMOOTH_D, SMOOTH_M)
        path = str(ctx.work / f"series{n}.csv")
        inputs.write_series(path, times, values, SMOOTH_D, SMOOTH_M)
        stamps = _sampled_stamps(ctx.seed, n)
        requests += [(path, est_args, times, values, stamps)
                     for est_args in SMOOTH_REQUESTS]
    if ctx.trace:
        _smooth_traced(ctx, out, requests)
    else:
        _smooth_timed(ctx, out, requests)


def _smooth_timed(ctx, out, requests):
    walls, done_ms = [], []
    rss = {" ".join(r[1]): [] for r in requests}

    def one_cycle():
        for path, est_args, times, values, stamps in requests:
            prefix = str(ctx.work / "req")
            child = _smooth_request(ctx, path, est_args, prefix)
            out.attempted += 1
            walls.append(child.wall_s)
            rss[" ".join(est_args)].append(child.maxrss_mib)
            if child.returncode != 0:
                out.failed += 1
                _log_failure(f"smooth {est_args}", child.stderr)
                continue
            done_ms.append(child.wall_s * 1e3)
            _check_smooth(out, prefix, est_args[0], times, values, stamps)

    cycles = closed_loop(ctx.seconds, one_cycle)
    lat = latency_summary(done_ms, out.failed)
    out.metric("ops_per_s", len(done_ms) / sum(walls), "op/s", len(done_ms),
               f"fts smooth requests per busy second, {cycles} cycles of "
               f"{len(requests)} requests")
    out.metric("op_ms_p50", lat["p50"], "ms", lat["samples"],
               "request wall incl. interpreter start")
    _tail_metric(out, lat, "request wall")
    _peak_rss_metric(out, rss)
    out.details["request_walls_s"] = walls


def _smooth_traced(ctx, out, requests):
    tracer = Tracer()
    kernel = TracedKernel(tracer)
    pairs, cli_overhead = [], []

    def one_cycle():
        for path, est_args, times, values, stamps in requests:
            cli_prefix = str(ctx.work / "req")
            child = _smooth_request(ctx, path, est_args, cli_prefix)
            out.attempted += 1
            if child.returncode != 0:
                out.failed += 1
                _log_failure(f"smooth {est_args}", child.stderr)
                continue
            _check_smooth(out, cli_prefix, est_args[0], times, values, stamps)
            tracer.op += 1
            walls = {}
            for tr, kern, tag in _alternate(tracer.op, (tracer, kernel, "traced"),
                                            (NullTracer(), quartic(), "plain")):
                prefix = str(ctx.work / tag)
                t0 = time.perf_counter()
                with tr.span("op.smooth_long"):
                    smooth_replay(path, est_args[0], prefix, tr, kern)
                walls[tag] = time.perf_counter() - t0
                for suffix in ("_mu.csv", "_dmu.csv"):
                    with open(cli_prefix + suffix, "rb") as a, \
                            open(prefix + suffix, "rb") as b:
                        out.require("smooth_replay_matches_cli",
                                    a.read() == b.read(),
                                    "in-process replay output bytes equal "
                                    "the fts smooth output")
            pairs.append((walls["traced"], walls["plain"]))
            cli_overhead.append(child.wall_s - walls["plain"])

    smooth_replay(requests[0][0], requests[0][1][0], str(ctx.work / "warm"),
                  NullTracer(), quartic())  # warm-up
    closed_loop(ctx.seconds, one_cycle)
    layer_metrics(out, tracer, out.attempted - out.failed, [])
    out.metric("cli.overhead_ms",
               median(cli_overhead) * 1e3 if cli_overhead else 0.0, "ms",
               len(cli_overhead),
               "fts smooth wall minus untraced in-process replay, median")
    _overhead(out, pairs)


# ------------------------------------------------------------ cv_analyze

def cv_pass(series, tracer, kernel, cv_reports):
    """cross_validate -> local_linear -> residual_norms -> cusum -> peaks."""
    report = tracer.call("bandwidth.cross_validate", cross_validate, series,
                         CvConfig(estimator="ll"), kernel)
    cv_reports.append(report)
    fit = tracer.call("estimators.local_linear", local_linear, series,
                      SmoothConfig(report.best_h, kernel))
    z = tracer.call("analysis.residual_norms", residual_norms, series, fit)
    found = tracer.call("analysis.cusum", cusum, z)
    tracer.call("analysis.detect_peaks", detect_peaks, z)
    return report, fit, found


def _check_cv(out, series, stamps, result):
    report, fit, found = result
    grid = np.geomspace(1.0 / CV_N, 1.0 / math.sqrt(CV_N), report.grid.size)
    out.check("cv_best_h_on_grid",
              float(np.min(np.abs(report.best_h / grid - 1.0))), 1e-12,
              "relative distance of best_h to the nearest grid point")
    out.check("cv_cusum_argmax",
              abs(found.argmax_index - (CV_BREAK - 1)) / CV_N, CV_ARGMAX_TOL,
              f"|cusum argmax - {CV_BREAK - 1}| / n")
    out.check("cv_fit_oracle",
              _oracle_error("ll", series.times, series.values, report.best_h,
                            stamps, fit.mu_hat, fit.dmu_hat),
              REL_TOL, "local_linear at best_h vs per-point WLS oracle")


def cv_analyze(ctx: Context, out: Outcome) -> None:
    series = [FunctionalSeries.equidistant(
        inputs.cv_analyze_values(ctx.seed, i, CV_N, CV_M, CV_BREAK))
        for i in range(CV_INPUTS)]
    stamps = _sampled_stamps(ctx.seed, CV_N)
    if ctx.trace:
        _cv_traced(ctx, out, series, stamps)
    else:
        _cv_timed(ctx, out, series, stamps)


def _cv_timed(ctx, out, series, stamps):
    walls, done_ms = [], []
    kernel = quartic()
    tracer = NullTracer()

    def one_pass():
        s = series[out.attempted % CV_INPUTS]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = cv_pass(s, tracer, kernel, [])
        except Exception:
            walls.append(time.perf_counter() - t0)
            out.failed += 1
            _log_failure("cv_analyze pass", traceback.format_exc())
            return
        walls.append(time.perf_counter() - t0)
        done_ms.append(walls[-1] * 1e3)
        _check_cv(out, s, stamps, result)

    cv_pass(series[0], tracer, kernel, [])  # warm-up
    closed_loop(ctx.seconds, one_pass)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = latency_summary(done_ms, out.failed)
    out.metric("ops_per_s", len(done_ms) / sum(walls), "op/s", len(done_ms),
               "select-and-localize passes per busy second")
    out.metric("op_ms_p50", lat["p50"], "ms", lat["samples"], "pass wall")
    _tail_metric(out, lat, "pass wall")
    out.metric("peak_rss_mib", rss, "MiB", 1, "benchmark process (ops run "
               "in-process)")


def _cv_traced(ctx, out, series, stamps):
    tracer = Tracer()
    kernel = TracedKernel(tracer)
    traced = [traced_series(s, tracer) for s in series]
    cv_reports, pairs = [], []

    def one_pass():
        i = out.attempted % CV_INPUTS
        out.attempted += 1
        tracer.op += 1
        walls = {}
        try:
            for tr, kern, s, reports in _alternate(
                    tracer.op, (tracer, kernel, traced[i], cv_reports),
                    (NullTracer(), quartic(), series[i], [])):
                t0 = time.perf_counter()
                with tr.span("op.cv_analyze"):
                    result = cv_pass(s, tr, kern, reports)
                walls[tr is tracer] = time.perf_counter() - t0
                _check_cv(out, series[i], stamps, result)
        except Exception:
            out.failed += 1
            _log_failure("cv_analyze pass", traceback.format_exc())
            return
        pairs.append((walls[True], walls[False]))

    cv_pass(series[0], NullTracer(), quartic(), [])  # warm-up
    closed_loop(ctx.seconds, one_pass)
    layer_metrics(out, tracer, out.attempted - out.failed, cv_reports)
    _overhead(out, pairs)


WORKLOADS = {"mc_paper": mc_paper, "smooth_long": smooth_long,
             "cv_analyze": cv_analyze}

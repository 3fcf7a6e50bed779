"""End-to-end acceptance suite.

Each test checks one release criterion and records a one-line verdict
(printed in the terminal summary via conftest). Criterion 7 (timing
ratios) is informational only: it is logged but never fails the suite.

The Monte Carlo fixture (criteria 5-7) runs 200 replications at four
sample sizes and takes a couple of minutes; everything else is fast.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import record

import ftsmooth as ft
from ftsmooth.bandwidth import CvConfig
from ftsmooth.cli import main
from ftsmooth.simulation import (SimSpec, gen_errors, monte_carlo, mu1,
                                 rho_matrix)

RHO_SCALE = 0.3 * np.sqrt(6.0)
MC_NS = (50, 100, 200, 500)


@pytest.fixture(scope="session")
def mc_tables():
    """Benchmark tables for (mu1, bm), m=100, reps=200, CV bandwidths."""
    tables = {}
    for n in MC_NS:
        spec = SimSpec(mu1(), "bm", n, 100, 200, master_seed=2024)
        tables[n] = monte_carlo(spec, ("ll", "jackknife", "nw"), CvConfig())
    return tables


def test_criterion_1_affine_exactness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (10, 100, 1000):
        for p in (1, 5):
            a, b = rng.normal(size=p), rng.normal(size=p)
            times = np.arange(n) / n
            series = ft.FunctionalSeries.equidistant(
                a[None, :] + b[None, :] * times[:, None])
            cfg = ft.SmoothConfig(0.35, ft.quartic())
            truth_mu = series.values
            truth_dmu = np.broadcast_to(b, (n, p))
            ll = ft.local_linear(series, cfg)
            jd = ft.jackknife_derivative(series, cfg)
            worst = max(worst,
                        np.max(np.abs(ll.mu_hat - truth_mu)),
                        np.max(np.abs(ll.dmu_hat - truth_dmu)),
                        np.max(np.abs(jd.mu_hat - truth_mu)),
                        np.max(np.abs(jd.dmu_hat - truth_dmu)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    record(1, "affine exactness",
           ok, f"max err {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_weighted_least_squares_oracle():
    rng = np.random.default_rng(202)
    kernel = ft.quartic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 61))
        p = int(rng.integers(1, 4))
        h = float(rng.uniform(0.2, 0.5))
        series = ft.FunctionalSeries.equidistant(rng.normal(size=(n, p)))
        est = ft.local_linear(series, ft.SmoothConfig(h, kernel))
        for i, t in enumerate(series.times):
            w = kernel((series.times - t) / h)
            sw = np.sqrt(w)
            design = np.column_stack([np.ones(n), series.times - t])
            coef, *_ = np.linalg.lstsq(design * sw[:, None],
                                       series.values * sw[:, None],
                                       rcond=None)
            worst = max(worst,
                        np.max(np.abs(coef[0] - est.mu_hat[i])),
                        np.max(np.abs(coef[1] - est.dmu_hat[i])))
    ok = worst <= 1e-9
    record(2, "per-coordinate WLS oracle", ok, f"max diff {worst:.2e}")
    assert ok


def test_criterion_3_bias_constant():
    n, h = 500, 0.1
    times = np.arange(n) / n
    series = ft.FunctionalSeries.equidistant((times ** 2)[:, None])
    cfg = ft.SmoothConfig(h, ft.quartic())
    eval_t = np.array([0.5])
    err_ll = abs(ft.local_linear(series, cfg, eval_t).mu_hat[0, 0] - 0.25)
    err_jk = abs(ft.jackknife_derivative(series, cfg, eval_t).mu_hat[0, 0] - 0.25)
    expect = h ** 2 / 7.0
    ok = abs(err_ll - expect) <= 0.1 * expect and err_jk <= err_ll / 10.0
    record(3, "bias constant h^2/7 and its cancellation", ok,
           f"LL err {err_ll:.3e} vs {expect:.3e}, JK err {err_jk:.3e}")
    assert ok


def test_criterion_4_kernel_identities():
    k = ft.quartic()
    d_kappa2 = abs(k.kappa2 - 1.0 / 7.0)
    d_mass = abs(k.moment_star(0) - 1.0)
    d_second = abs(k.moment_star(2))
    ok = d_kappa2 <= 1e-10 and d_mass <= 1e-9 and d_second <= 1e-9
    record(4, "kernel moment identities", ok,
           f"|kappa2-1/7| {d_kappa2:.1e}, |int K*-1| {d_mass:.1e}, "
           f"|int x^2 K*| {d_second:.1e}")
    assert ok


def test_criterion_5_benchmark_levels(mc_tables):
    ranges = {50: (0.035, 0.14), 100: (0.02, 0.08), 500: (0.01, 0.04)}
    mses = {n: mc_tables[n].row("ll", "mu").mean_mse for n in MC_NS}
    in_range = all(ranges[n][0] <= mses[n] <= ranges[n][1] for n in ranges)
    monotone = all(mses[a] >= mses[b]
                   for a, b in zip(MC_NS[:-1], MC_NS[1:]))
    ok = in_range and monotone
    record(5, "benchmark MSE levels and monotonicity", ok,
           ", ".join(f"n={n}: {mses[n]:.4f}" for n in MC_NS))
    assert ok


def test_criterion_6_benchmark_orderings(mc_tables):
    jk_dominated = all(
        mc_tables[n].row("jackknife", "mu").mean_mse
        >= mc_tables[n].row("ll", "mu").mean_mse for n in MC_NS)
    deriv_harder = all(
        mc_tables[n].row(est, "dmu").mean_mse
        >= 10.0 * mc_tables[n].row(est, "mu").mean_mse
        for n in MC_NS for est in ("ll", "jackknife", "nw"))
    ok = jk_dominated and deriv_harder
    record(6, "bias-reduced >= LL mean MSE; derivative >= 10x mean", ok,
           f"jk>=ll {jk_dominated}, dmu>=10x {deriv_harder}")
    assert ok


def test_criterion_7_timing_ratios_informational(mc_tables):
    t = {est: mc_tables[500].row(est, "mu").mean_fit_ms
         for est in ("ll", "jackknife", "nw")}
    jk_ratio = t["jackknife"] / t["ll"]
    nw_ratio = t["nw"] / t["ll"]
    ok = 1.5 <= jk_ratio <= 2.8 and 0.25 <= nw_ratio <= 0.8
    record(7, "fit-time ratios at n=500, m=100", ok,
           f"jackknife/ll {jk_ratio:.2f}, nw/ll {nw_ratio:.2f}",
           gating=False)
    # informational only: wall-clock ratios depend on the machine


def test_criterion_8_cusum_localization():
    n, shift_at, snr = 500, 300, 3.0
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng([808, seed])
        z = rng.standard_normal(n)
        z[shift_at:] += snr
        idx = ft.cusum(z).argmax_index
        hits += abs(idx - (shift_at - 1)) <= 0.02 * n
    ok = hits >= 95
    record(8, "CUSUM shift localization", ok, f"{hits}/100 within 0.02n")
    assert ok


def test_criterion_9_simulation_statistics():
    rng = np.random.default_rng(909)
    bm_ends = gen_errors("bm", 10000, 100, rng)[:, -1]
    bb_mids = gen_errors("bb", 10000, 101, rng)[:, 50]
    d_bm = abs(bm_ends.var() - 1.0)
    d_bb = abs(bb_mids.var() - 0.25)
    y = np.arange(100) / 99
    d_rho = np.max(np.abs(rho_matrix(100) @ np.ones(100)
                          - RHO_SCALE * (y - y ** 2 / 2)))
    ok = d_bm <= 0.05 and d_bb <= 0.02 and d_rho <= 1e-3
    record(9, "innovation variances and integral operator", ok,
           f"|var(W1)-1| {d_bm:.3f}, |var(B.5)-1/4| {d_bb:.3f}, "
           f"rho err {d_rho:.1e}")
    assert ok


def test_criterion_10_byte_identical_runs(tmp_path):
    runner = CliRunner()
    args = ["simulate", "--mean", "mu1", "--errors", "farbb", "--n", "50",
            "--m", "20", "--reps", "8", "--grid-size", "8", "--seed", "11"]
    blobs = []
    for tag, threads in (("a", "1"), ("b", "4"), ("c", "4")):
        out = str(tmp_path / tag)
        env = dict(os.environ, FTS_THREADS=threads)
        res = runner.invoke(main, args + ["--out", out], env=env)
        assert res.exit_code == 0, res.output
        blobs.append(Path(out + "_results.csv").read_bytes()
                     + Path(out + "_summary.json").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    record(10, "byte-identical results across reruns and thread counts", ok)
    assert ok

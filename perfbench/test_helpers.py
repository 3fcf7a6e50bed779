"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ftsmooth as ft  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from stats import latency_summary, tail  # noqa: E402
from tracing import (Span, Tracer, TracedKernel, covered_length,  # noqa: E402
                     self_times, totals_by_name, traced_series)


class TestTail:
    def test_hundred_samples_give_p90(self):
        assert tail(range(1, 101)) == (90.0, 90)

    def test_exactly_ten_beyond(self):
        pct, value = tail(range(1, 26))
        assert value == 15 and pct == pytest.approx(60.0)

    def test_too_few_samples(self):
        assert tail(range(10)) is None
        assert tail(range(11)) == (100.0 / 11, 0)

    def test_failures_count_as_missing_the_tail(self):
        lat = list(range(1, 21))
        assert latency_summary(lat)["tail"] == 10
        summary = latency_summary(lat, failed=5)
        assert summary["tail"] == 15 and summary["p50"] == 10.5
        assert latency_summary([1.0], failed=10)["tail"] == 1.0
        assert latency_summary([1.0], failed=11)["tail"] == math.inf


class TestOracle:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(5)
        n = 300
        times = np.arange(n) / n
        values = (np.sin(3 * times)[:, None] + rng.normal(size=(n, 4)))
        return times, values, ft.FunctionalSeries.equidistant(values)

    def test_recovers_a_line_exactly(self):
        times = np.arange(50) / 50
        values = (2.0 - 3.0 * times)[:, None]
        mu, dmu = oracle.local_linear_at(times, values, times[0], 0.2)
        assert mu[0] == pytest.approx(2.0, abs=1e-12)
        assert dmu[0] == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["ll", "jackknife", "nw"])
    def test_matches_library(self, data, name):
        times, values, series = data
        h = 0.05
        cfg = ft.SmoothConfig(h, ft.quartic())
        est = {"ll": lambda: ft.local_linear(series, cfg),
               "jackknife": lambda: ft.jackknife_derivative(series, cfg),
               "nw": lambda: ft.nw_derivative(
                   ft.nadaraya_watson(series, cfg))}[name]()
        for k in (0, 1, 150, 298, 299):
            mu, dmu = oracle.reference_at(name, times, values, k, h)
            assert oracle.max_rel_error(est.mu_hat[k], mu) <= 1e-9
            assert oracle.max_rel_error(est.dmu_hat[k], dmu) <= 1e-9

    def test_detects_a_wrong_value(self, data):
        times, values, series = data
        est = ft.local_linear(series, ft.SmoothConfig(0.05, ft.quartic()))
        mu, _ = oracle.reference_at("ll", times, values, 10, 0.05)
        assert oracle.max_rel_error(est.mu_hat[10] * (1 + 1e-7), mu) > 1e-9
        assert oracle.max_rel_error(est.mu_hat[10][:2], mu) == math.inf


class TestMemoryGuard:
    def test_dense_prediction(self):
        assert inputs.predict_dense_bytes(4000, 4000) == 4 * 8 * 4000 ** 2
        assert inputs.predict_dense_bytes(20000, 20000) / 2 ** 30 == \
            pytest.approx(11.92, abs=0.01)

    def test_guard_runs_small_and_skips_large(self):
        assert inputs.memory_guard(4000, 4000)["status"] == "run"
        assert inputs.memory_guard(20000, 20000)["status"] == "skipped"
        assert inputs.memory_guard(10, 10, cap=100)["status"] == "skipped"


class TestSpans:
    def test_covered_length_merges_and_clips(self):
        assert covered_length([], 0.0, 1.0) == 0.0
        assert covered_length([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)],
                              0.0, 1.0) == pytest.approx(0.5)
        assert covered_length([(-1.0, 0.25), (0.9, 2.0)],
                              0.0, 1.0) == pytest.approx(0.35)

    def test_self_time_subtracts_only_direct_children(self):
        spans = [Span("op", 0.0, 10.0, None, 1),
                 Span("cv", 1.0, 7.0, 0, 1),
                 Span("kernel", 2.0, 3.0, 1, 1),
                 Span("kernel", 4.0, 6.0, 1, 1),
                 Span("fit", 8.0, 9.0, 0, 1)]
        assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 2.0, 1.0])
        tot = totals_by_name(spans)
        assert tot["kernel"].calls == 2
        assert tot["kernel"].seconds == pytest.approx(3.0)
        assert tot["cv"].self_seconds == pytest.approx(3.0)
        assert tot["absent"].calls == 0

    def test_tracer_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        with tracer.span("next"):
            pass
        assert [s.parent for s in tracer.spans] == [None, 0, None]
        outer, inner, _ = tracer.spans
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_hooks_record_kernel_and_subset_spans(self):
        tracer = Tracer()
        kernel = TracedKernel(tracer)
        series = traced_series(
            ft.FunctionalSeries.equidistant(np.ones((40, 2))), tracer)
        plain = ft.local_linear(series, ft.SmoothConfig(0.2, ft.quartic()))
        with tracer.span("cv"):
            report = ft.cross_validate(series, ft.CvConfig(k=2, grid_size=3),
                                       kernel)
        fit = ft.local_linear(series, ft.SmoothConfig(0.2, kernel))
        np.testing.assert_array_equal(fit.mu_hat, plain.mu_hat)
        tot = totals_by_name(tracer.spans)
        assert tot["series.subset"].calls > 0
        assert report.best_h in report.grid
        # CV kernel calls are children of the cv span: 20 held-out x 20
        # training stamps per fold; the final fit is 40 x 40 and top level.
        cv_kernels = [s for s in tracer.spans
                      if s.name == "kernels.eval" and s.parent == 0]
        assert cv_kernels and all(s.count == 20 * 20 for s in cv_kernels)
        last = tracer.spans[-1]
        assert last.name == "kernels.eval" and last.parent is None
        assert last.count == 40 * 40

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ftsmooth as ft
from ftsmooth.bandwidth import (AllBandwidthsInvalid, CvConfig,
                                bandwidth_grid, cross_validate, fold_indices)
from ftsmooth.simulation import SimSpec, gen_series, mu1
from test_estimators import dense_fit


class TestBandwidthGrid:
    def test_endpoints_n100(self):
        assert np.allclose(bandwidth_grid(100, 2), [0.01, 0.1])

    def test_geometric_midpoint(self):
        grid = bandwidth_grid(100, 3)
        assert np.allclose(grid, [0.01, np.sqrt(0.01 * 0.1), 0.1])

    def test_endpoints_n25(self):
        assert np.allclose(bandwidth_grid(25, 2), [0.04, 0.2])

    def test_strictly_increasing(self):
        grid = bandwidth_grid(317, 20)
        assert np.all(np.diff(grid) > 0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_grid(8, 5)


class TestFolds:
    def test_partition(self):
        folds = fold_indices(23, 5)
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(23))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_interleaved_layout(self):
        folds = fold_indices(10, 2)
        assert np.array_equal(folds[0], [0, 2, 4, 6, 8])


class TestCrossValidate:
    def test_affine_data_near_zero_scores(self):
        n = 100
        series = ft.FunctionalSeries.equidistant(
            (1.0 + 2.0 * np.arange(n) / n)[:, None])
        report = cross_validate(series, CvConfig(estimator="ll"))
        finite = report.scores[np.isfinite(report.scores)]
        assert np.all(finite <= 1e-15)
        # tie-break: smallest bandwidth with a valid fit
        valid = report.grid[np.isfinite(report.scores)]
        assert report.best_h == valid[0]

    def test_noise_only_prefers_maximal_smoothing(self):
        n, wins = 200, 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            series = ft.FunctionalSeries.equidistant(
                rng.standard_normal((n, 1)))
            report = cross_validate(series, CvConfig(estimator="ll"))
            wins += np.isclose(report.best_h, 1 / np.sqrt(n))
        assert wins >= 40

    def test_matches_hand_rolled_two_fold_oracle(self):
        rng = np.random.default_rng(2)
        n = 12
        series = ft.FunctionalSeries.equidistant(rng.normal(size=(n, 1)))
        cfg = CvConfig(k=2, grid_size=4, estimator="ll")
        report = cross_validate(series, cfg)

        for j, h in enumerate(report.grid):
            total, count = 0.0, 0
            for fold in (np.arange(0, n, 2), np.arange(1, n, 2)):
                idx = np.setdiff1d(np.arange(n), fold)
                train = ft.FunctionalSeries(series.times[idx],
                                            series.values[idx],
                                            series.value_grid)
                fitted = dense_fit(train, series.times[fold], h, "ll")
                if fitted is None:  # a singular held-out window
                    total = np.inf
                    break
                total += float(((fitted[0] - series.values[fold]) ** 2).sum())
                count += fold.size
            expect = total / count if np.isfinite(total) else np.inf
            if np.isfinite(expect):
                assert report.scores[j] == pytest.approx(expect, abs=1e-12)
            else:
                assert report.scores[j] == np.inf

    def test_tie_break_independent_of_data_scale(self):
        # An absolute tie tolerance moved this replicate's choice from
        # grid index 14 to 5 once the data was scaled by 1e-8.
        series, _, _ = gen_series(SimSpec(mu1(), "bm", 200, 20, 1, 0), 0)
        tiny = ft.FunctionalSeries(series.times, series.values * 1e-8,
                                   series.value_grid)
        for s in (series, tiny):
            report = cross_validate(s, CvConfig())
            assert int(np.argmin(report.scores)) == 14
            assert report.best_h == report.grid[14]

    @pytest.mark.parametrize("offset, scale", [(100.0, 1e152), (0.0, 1e153)])
    def test_pick_survives_overflowing_mean_square(self, offset, scale):
        # The data's mean square overflows, so a tie tolerance taken of the
        # plain squares is inf and every score, +inf included, ties.
        n = 200
        t = np.arange(n) / n
        unit = (np.c_[np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)]
                + 0.3 * np.random.default_rng(0).normal(size=(n, 2)))
        series = ft.FunctionalSeries.equidistant((offset + unit) * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = cross_validate(series, CvConfig())
        assert np.count_nonzero(np.isfinite(report.scores)) == 15
        assert int(np.argmin(report.scores)) == 19
        assert report.best_h == report.grid[19]

    @pytest.mark.parametrize("estimator", ["ll", "jackknife", "nw"])
    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-200, 2.0 ** -600],
                             ids=["1e200", "1e-170", "1e-200", "2^-600"])
    def test_choice_invariant_at_extreme_scales(self, scale, estimator):
        # Squared residuals overflow at 1e200 and underflow at the others
        # unless the values are scaled before squaring.
        n = 60
        t = np.arange(n) / n
        unit = (np.c_[np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)]
                + 0.3 * np.random.default_rng(0).normal(size=(n, 2)))
        cfg = CvConfig(estimator=estimator)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = cross_validate(
                ft.FunctionalSeries.equidistant(unit * scale), cfg)
        assert report.best_h == cross_validate(
            ft.FunctionalSeries.equidistant(unit), cfg).best_h

    @staticmethod
    def noisy_sine(seed):
        rng = np.random.default_rng(seed)
        t = np.arange(40) / 40
        return np.sin(2 * np.pi * t)[:, None] + rng.normal(size=(40, 2))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-10, 6),
           estimator=st.sampled_from(["ll", "jackknife", "nw"]))
    @example(seed=6456, k=1, estimator="nw")
    def test_choice_invariant_under_data_scale(self, seed, k, estimator):
        values = self.noisy_sine(seed)
        series = ft.FunctionalSeries.equidistant(values)
        scaled = ft.FunctionalSeries.equidistant(values * 10.0 ** k)
        cfg = CvConfig(estimator=estimator)
        assert (cross_validate(scaled, cfg).best_h
                == cross_validate(series, cfg).best_h)

    @pytest.mark.parametrize("k", range(-10, 7))
    def test_exact_tie_picks_its_smallest_bandwidth(self, k):
        # At grid indices 1-7 (1/n < h < 2/n) each held-out stamp's nw fit
        # averages its two neighbours at +-1/n, so their scores tie in exact
        # arithmetic and their roots differ by rounding only (up to
        # 1.6e-15 times the data's RMS).
        series = ft.FunctionalSeries.equidistant(
            self.noisy_sine(6456) * 10.0 ** k)
        report = cross_validate(series, CvConfig(estimator="nw"))
        assert report.best_h == report.grid[1]

    @pytest.mark.parametrize("estimator", ["ll", "jackknife", "nw"])
    def test_choice_invariant_under_data_offset(self, estimator):
        # Every estimator reproduces constants, so an offset leaves the
        # scores as they were up to rounding, which grows with the offset.
        cfg = CvConfig(estimator=estimator)
        for seed in range(5):
            values = self.noisy_sine(seed)
            shifted = ft.FunctionalSeries.equidistant(values + 1e6)
            assert (cross_validate(shifted, cfg).best_h == cross_validate(
                ft.FunctionalSeries.equidistant(values), cfg).best_h)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        series = ft.FunctionalSeries.equidistant(rng.normal(size=(60, 2)))
        a = cross_validate(series, CvConfig(estimator="jackknife"))
        b = cross_validate(series, CvConfig(estimator="jackknife"))
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.scores, b.scores)
        assert a.best_h == b.best_h

    def test_best_h_in_grid_and_minimal(self):
        rng = np.random.default_rng(4)
        series = ft.FunctionalSeries.equidistant(rng.normal(size=(80, 1)))
        report = cross_validate(series, CvConfig(estimator="nw"))
        assert report.best_h in report.grid
        assert report.scores[list(report.grid).index(report.best_h)] \
            == np.min(report.scores)

    def test_all_bandwidths_invalid(self):
        # every stamp crammed into a sliver: the local linear design is
        # degenerate for every candidate bandwidth
        times = np.arange(12) * 1e-9
        series = ft.FunctionalSeries(times, np.arange(12.0)[:, None])
        with pytest.raises(AllBandwidthsInvalid):
            cross_validate(series, CvConfig(k=3, estimator="ll"))

    def test_k_bounds(self):
        series = ft.FunctionalSeries.equidistant(np.zeros((12, 1)))
        with pytest.raises(ValueError):
            cross_validate(series, CvConfig(k=4))
        with pytest.raises(ValueError):
            CvConfig(k=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CvConfig(grid_size=1)
        with pytest.raises(ValueError):
            CvConfig(estimator="spline")

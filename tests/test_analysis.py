from dataclasses import replace

import numpy as np
import pytest

from ftsmooth.analysis import (InputTooShort, ShapeMismatch, cusum,
                               detect_peaks, mae, mse,
                               residual_norms, sliding_embed)
from ftsmooth.estimators import Estimate, SmoothConfig, fit
from ftsmooth.series import FunctionalSeries, discretized_norm


class TestMetrics:
    def test_zero_error(self):
        a = np.ones((5, 4))
        assert mse(a, a) == 0.0
        assert mae(a, a) == 0.0

    def test_constant_offset(self):
        a = np.zeros((6, 3))
        assert mse(a + 0.5, a) == pytest.approx(0.25)
        assert mae(a - 0.5, a) == pytest.approx(0.5)

    def test_matches_hand_summed_oracle(self):
        rng = np.random.default_rng(0)
        est, truth = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        expect_mse = sum((est[i, j] - truth[i, j]) ** 2
                         for i in range(3) for j in range(4)) / 12
        expect_mae = sum(abs(est[i, j] - truth[i, j])
                         for i in range(3) for j in range(4)) / 12
        assert mse(est, truth) == pytest.approx(expect_mse, abs=1e-15)
        assert mae(est, truth) == pytest.approx(expect_mae, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mse(np.zeros((3, 2)), np.zeros((3, 3)))


def _fake_estimate(series, mu):
    return Estimate(series.times, mu, None,
                    np.ones(series.n, dtype=bool))


class TestResidualNorms:
    def test_perfect_fit(self):
        s = FunctionalSeries.equidistant(np.ones((10, 4)))
        z = residual_norms(s, _fake_estimate(s, s.values))
        assert np.all(z == 0.0)

    def test_sup_single_coordinate(self):
        vals = np.zeros((4, 5))
        s = FunctionalSeries.equidistant(vals)
        mu = vals.copy()
        mu[2, 3] = -7.0
        z = residual_norms(replace(s, norm="sup"), _fake_estimate(s, mu))
        assert z[2] == 7.0 and z[0] == 0.0

    def test_l2_hand_value(self):
        s = FunctionalSeries.equidistant(np.array([[3.0, 4.0],
                                                   [0.0, 0.0]]))
        z = residual_norms(replace(s, norm="l2"),
                           _fake_estimate(s, np.zeros((2, 2))))
        assert z[0] == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_consistency_with_mse(self):
        rng = np.random.default_rng(2)
        s = FunctionalSeries.equidistant(rng.normal(size=(20, 6)))
        mu = rng.normal(size=(20, 6))
        z = residual_norms(replace(s, norm="l2"), _fake_estimate(s, mu))
        assert mse(s.values, mu) == pytest.approx(float((z ** 2).mean()),
                                                  abs=1e-12)

    def test_shape_mismatch(self):
        s = FunctionalSeries.equidistant(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            residual_norms(s, _fake_estimate(s, np.zeros((4, 3))))


    def test_stamp_mismatch(self):
        s = FunctionalSeries.equidistant(np.zeros((4, 3)))
        shifted = Estimate(s.times + 0.1, s.values, None,
                           np.ones(s.n, dtype=bool))
        with pytest.raises(ShapeMismatch):
            residual_norms(s, shifted)

    def test_residual_past_the_float_range_raises(self):
        # One stamp at +1.7e308 among -1.7e308: nw's mean stays in range,
        # but the residual at that stamp is about 3.4e308.
        x = np.full(60, -1.7e308)
        x[30] = 1.7e308
        s = FunctionalSeries.equidistant(x)
        est = fit("nw", s, SmoothConfig(0.2))
        # In quarters the residuals are exact; only the one at t = 0.5
        # exceeds the float range once scaled back.
        quarter = np.ldexp(s.values, -2) - np.ldexp(est.mu_hat, -2)
        big = np.abs(quarter[:, 0]) > np.ldexp(np.finfo(float).max, -2)
        assert np.flatnonzero(big).tolist() == [30] and s.times[30] == 0.5
        with pytest.raises(FloatingPointError) as exc:
            residual_norms(s, est)
        assert str(exc.value) == "residual leaves the float range at t=0.5"


class TestCusum:
    def test_constant_series_is_flat(self):
        res = cusum(np.full(50, 3.3))
        assert np.max(np.abs(res.process)) <= 1e-10
        assert res.argmax_index == 0

    def test_last_entry_zero(self):
        res = cusum(np.random.default_rng(3).normal(size=100))
        assert res.process[-1] == pytest.approx(0.0, abs=1e-12)

    def test_step_signal_localized(self):
        z = np.r_[np.zeros(60), np.ones(40)]
        res = cusum(z)
        assert res.argmax_index == 59  # last index of the pre-break regime

    def test_four_term_hand_computation(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        res = cusum(z)
        expect = (np.cumsum(z) - np.arange(1, 5) / 4 * 10) / 2.0
        assert np.allclose(res.process, expect, atol=1e-15)
        assert res.max_value == res.process[res.argmax_index]

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=200)
        a, b = cusum(z), cusum(z + 17.0)
        assert np.max(np.abs(a.process - b.process)) <= 1e-10
        assert a.argmax_index == b.argmax_index

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-12, 1e-14, 1e-20])
    def test_argmax_invariant_under_data_scale(self, scale):
        z = np.random.default_rng(0).normal(size=200)
        z[120:] += 1.0
        assert cusum(z * scale).argmax_index == cusum(z).argmax_index
        assert cusum(np.full(50, 3.3 * scale)).argmax_index == 0

    @pytest.mark.parametrize("e", [-1000, 1000, 1020])
    def test_power_of_two_scale_is_exact(self, e):
        # At 2**1020 the partial sums leave the float range unless scaled.
        z = np.random.default_rng(5).normal(size=300)
        z[120:] += 2.0
        a, b = cusum(z), cusum(np.ldexp(z, e))
        assert np.array_equal(b.process, np.ldexp(a.process, e))
        assert b.argmax_index == a.argmax_index

    def test_too_short(self):
        with pytest.raises(ValueError):
            cusum(np.array([1.0]))


class TestDetectPeaks:
    def test_constant_gives_no_peaks(self):
        assert detect_peaks(np.ones(20)) == []

    def test_single_spike(self):
        z = np.ones(50)
        z[17] = 100.0
        assert detect_peaks(z) == [(17, 17)]

    def test_two_separated_spikes(self):
        rng = np.random.default_rng(5)
        z = 1.0 + 0.01 * rng.normal(size=100)
        z[20:23] += 50.0
        z[70] += 50.0
        assert detect_peaks(z) == [(20, 22), (70, 70)]

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        z = np.abs(rng.normal(size=80))
        z[40:42] += 30.0
        assert detect_peaks(z) == detect_peaks(3.7 * z)

    def test_near_the_float_limit(self):
        # The median of an even count averages two values past 9e307.
        z = np.full(60, 1.6e308)
        z[30:32], z[58:] = 1.79e308, 1.797e308
        with np.errstate(all="raise"):
            got = [detect_peaks(z), detect_peaks(np.ldexp(z, -100))]
        assert got == [[(30, 31), (58, 59)]] * 2

    def test_threshold_multiplier(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=60)
        z[30] += 4.0
        loose = detect_peaks(z, threshold_multiplier=2.0)
        strict = detect_peaks(z, threshold_multiplier=1e9)
        assert strict == []
        assert any(a <= 30 <= b for a, b in loose)

    @pytest.mark.parametrize("multiplier", [np.nan, np.inf, -np.inf])
    def test_non_finite_multiplier_rejected(self, multiplier):
        z = np.abs(np.random.default_rng(9).normal(size=60))
        with pytest.raises(ValueError, match="must be finite"):
            detect_peaks(z, threshold_multiplier=multiplier)
        # A negative finite multiplier is still a threshold below the median.
        assert detect_peaks(z, threshold_multiplier=-1e9) == [(0, 59)]

    def test_too_short(self):
        with pytest.raises(ValueError, match="need at least 3 observations"):
            detect_peaks(np.array([1.0, 2.0]))


class TestSlidingEmbed:
    def test_stride_window_labels(self):
        raw = np.arange(10.0)
        s = sliding_embed(raw, stride=5, m=2)
        assert s.n == 1
        # 1-based sample labels 5 and 6
        assert np.array_equal(s.values[0], [4.0, 5.0])

    def test_identity_reshaping(self):
        raw = np.arange(7.0)
        s = sliding_embed(raw, stride=1, m=1)
        assert s.n == 7
        assert np.array_equal(s.values[:, 0], raw)

    def test_multichannel_flat_dimension(self):
        raw = np.random.default_rng(7).normal(size=(300, 4))
        s = sliding_embed(raw, stride=5, m=50)
        assert s.p == 200
        assert s.value_grid.d == 4 and s.value_grid.m == 50
        assert s.n == 300 // 5 - 49

    def test_channel_major_layout(self):
        raw = np.column_stack([np.arange(20.0), np.arange(20.0) + 100])
        s = sliding_embed(raw, stride=2, m=3)
        # first m entries come from channel 0, next m from channel 1
        assert np.array_equal(s.values[0, :3], [1.0, 2.0, 3.0])
        assert np.array_equal(s.values[0, 3:], [101.0, 102.0, 103.0])

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            sliding_embed(np.arange(5.0), stride=5, m=3)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError, match="stride and m must be >= 1"):
            sliding_embed(np.arange(5.0), stride=0, m=1)

    @pytest.mark.parametrize("big_n,d,stride,m", [
        (100, 3, 5, 2), (50, 1, 1, 1), (1000, 2, 5, 50), (37, 4, 2, 3)])
    def test_matches_window_loop(self, big_n, d, stride, m):
        raw = np.random.default_rng(big_n).normal(size=(big_n, d))
        n = big_n // stride - (m - 1)
        expect = np.array([raw[stride * i - 1:stride * i - 1 + m].T.ravel()
                           for i in range(1, n + 1)])
        s = sliding_embed(raw, stride, m)
        assert np.array_equal(s.values, expect)
        assert s.values.flags.writeable
        assert not np.shares_memory(s.values, raw)


class TestNormHelpers:
    def test_row_norms(self):
        rows = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert np.allclose(discretized_norm(rows, "l1"), [1.0, 1.0])
        assert np.allclose(discretized_norm(rows, "sup"), [1.0, 2.0])

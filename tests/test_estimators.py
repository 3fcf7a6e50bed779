import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftsmooth as ft
from ftsmooth import (FunctionalSeries, SmoothConfig, jackknife_derivative,
                      local_linear, nadaraya_watson, nw_derivative)
from ftsmooth.bandwidth import (CvConfig, _cv_reports, cross_validate,
                                fold_indices)
from ftsmooth.estimators import (BandwidthTooSmall, ESTIMATORS, FIT_ERRORS,
                                 SingularFit, JACKKNIFE_DERIV_COEF_LARGE,
                                 JACKKNIFE_DERIV_COEF_SMALL, _SINGULAR_RTOL,
                                 _equivalent_kernels, _fit, _windows, fit)
from ftsmooth.simulation import SimSpec, gen_series, mu1

K = ft.quartic()


equi = FunctionalSeries.equidistant


def affine(n, a, b):
    t = np.arange(n) / n
    return FunctionalSeries(t, a[None, :] + t[:, None] * b[None, :])


class TestLocalLinear:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_affine_reproduction(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=3), rng.normal(size=3)
        series = affine(n, a, b)
        est = local_linear(series, SmoothConfig(0.3))
        expect = a[None, :] + series.times[:, None] * b[None, :]
        assert np.max(np.abs(est.mu_hat - expect)) <= 1e-10
        assert np.max(np.abs(est.dmu_hat - b[None, :])) <= 1e-10

    def test_quadratic_bias_constant(self):
        # leading bias kappa2 h^2 / 2 * mu'' = h^2 / 7 for mu = t^2
        n, h = 500, 0.1
        series = equi((np.arange(n) / n) ** 2)
        est = local_linear(series, SmoothConfig(h), eval_times=np.array([0.5]))
        err = est.mu_hat[0, 0] - 0.25
        assert err == pytest.approx(h ** 2 / 7.0, rel=0.1)

    def test_matches_wls_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(20, 51))
            series = FunctionalSeries(
                np.sort(rng.uniform(0, 1, n)), rng.normal(size=(n, 3)))
            h = rng.uniform(0.2, 0.5)
            est = local_linear(series, SmoothConfig(h))
            for i, t in enumerate(series.times):
                w = K((series.times - t) / h)
                X = np.column_stack([np.ones(n), series.times - t])
                for j in range(3):
                    beta = np.linalg.solve((X.T * w) @ X,
                                           (X.T * w) @ series.values[:, j])
                    worst = max(worst,
                                abs(est.mu_hat[i, j] - beta[0]),
                                abs(est.dmu_hat[i, j] - beta[1]))
        assert worst <= 1e-9

    def test_interior_mask(self):
        series = equi(np.zeros(100))
        est = local_linear(series, SmoothConfig(0.25))
        assert np.array_equal(
            est.interior_mask,
            (series.times >= 0.25) & (series.times <= 0.75))

    def test_bandwidth_too_small(self):
        series = equi(np.arange(20.0))
        with pytest.raises(BandwidthTooSmall) as exc:
            local_linear(series, SmoothConfig(0.01))
        assert str(exc.value) == \
            "window at t=0 has < 2 points (bandwidth 0.01)"

    def test_singular_fit(self):
        # three points, but the outer two sit exactly on the kernel's
        # support boundary: one effective point, degenerate fit
        series = FunctionalSeries(np.array([0.0, 0.5, 1.0]),
                                  np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(SingularFit) as exc:
            local_linear(series, SmoothConfig(0.5),
                         eval_times=np.array([0.5]))
        assert str(exc.value) == \
            "singular local linear fit at t=0.5 (bandwidth 0.5)"

    @pytest.mark.parametrize("h, eval_times, t", [
        (1 / 20, None, 0.0), (0.3, [1.2, 5.0], 1.2)],
        ids=["on-the-stamps", "past-the-stamps"])
    def test_first_failing_point_is_named(self, h, eval_times, t):
        # A later window with < 2 stamps does not take precedence: t=0.75's
        # window at h = 1/20 and t=5's at h = 0.3 hold at most one stamp,
        # but the windows at t=0 and t=1.2 hold two, one of them at |u| = 1.
        series = equi(np.arange(20.0))
        with pytest.raises(SingularFit) as exc:
            local_linear(series, SmoothConfig(h), eval_times)
        assert type(exc.value) is SingularFit
        assert str(exc.value) == \
            f"singular local linear fit at t={t:g} (bandwidth {h:g})"


class TestNadarayaWatson:
    def test_constant_exact(self):
        series = equi(np.full(30, -2.5))
        est = nadaraya_watson(series, SmoothConfig(0.3))
        assert np.allclose(est.mu_hat, -2.5, atol=1e-12)
        assert est.dmu_hat is None

    def test_three_point_hand_computation(self):
        series = FunctionalSeries(np.array([0.0, 0.5, 1.0]),
                                  np.array([[0.0], [1.0], [2.0]]))
        est = nadaraya_watson(series, SmoothConfig(0.6),
                              eval_times=np.array([0.5]))
        w = K(np.array([-5 / 6, 0.0, 5 / 6]))
        assert est.mu_hat[0, 0] == pytest.approx(
            float(w @ [0, 1, 2] / w.sum()), abs=1e-15)
        assert est.mu_hat[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        series = equi(rng.normal(size=(80, 4)))
        est = nadaraya_watson(series, SmoothConfig(0.2))
        for i, t in enumerate(series.times):
            w = K((series.times - t) / 0.2)
            direct = (w @ series.values) / w.sum()
            assert np.max(np.abs(est.mu_hat[i] - direct)) <= 1e-12

    def test_empty_window(self):
        series = FunctionalSeries(np.array([0.0, 0.01]), np.zeros((2, 1)))
        with pytest.raises(ft.EmptyWindow):
            nadaraya_watson(series, SmoothConfig(0.05),
                            eval_times=np.array([0.9]))


class TestNwDerivative:
    def test_linear_exact(self):
        series = equi(1.0 + 3.0 * np.arange(50) / 50)
        est = nw_derivative(nadaraya_watson(series, SmoothConfig(0.9)))
        # NW is not exact on a trend, but the differences of anything
        # affine in t are; use an affine mu_hat directly instead
        times = np.arange(50) / 50
        fake = ft.Estimate(times, (2.0 - 0.5 * times)[:, None], None,
                           np.ones(50, bool))
        d = nw_derivative(fake)
        assert np.max(np.abs(d.dmu_hat + 0.5)) <= 1e-10
        assert est.dmu_hat.shape == (50, 1)

    def test_quadratic_central_difference_exact(self):
        n = 100
        times = np.arange(n) / n
        fake = ft.Estimate(times, (times ** 2)[:, None], None,
                           np.ones(n, bool))
        d = nw_derivative(fake)
        assert np.allclose(d.dmu_hat[1:-1, 0], 2.0 * times[1:-1], atol=1e-12)
        # one-sided at the left end: n * ((1/n)^2 - 0) = 1/n
        assert d.dmu_hat[0, 0] == pytest.approx(1.0 / n, abs=1e-12)

    def test_non_equidistant_rejected(self):
        fake = ft.Estimate(np.array([0.0, 0.1, 0.5]), np.zeros((3, 1)),
                           None, np.ones(3, bool))
        with pytest.raises(ft.NonEquidistant):
            nw_derivative(fake)


class TestJackknife:
    def test_mean_affine_exact(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=2), rng.normal(size=2)
        series = affine(200, a, b)
        est = jackknife_derivative(series, SmoothConfig(0.2))
        expect = a[None, :] + series.times[:, None] * b[None, :]
        assert np.max(np.abs(est.mu_hat - expect)) <= 1e-10

    def test_mean_constant_exact(self):
        series = equi(np.full(100, 4.2))
        est = jackknife_derivative(series, SmoothConfig(0.2))
        assert np.max(np.abs(est.mu_hat - 4.2)) <= 1e-12

    def test_second_order_bias_cancellation(self):
        n, h = 500, 0.1
        series = equi((np.arange(n) / n) ** 2)
        t = np.array([0.5])
        err_ll = abs(local_linear(series, SmoothConfig(h), t).mu_hat[0, 0]
                     - 0.25)
        jk = jackknife_derivative(series, SmoothConfig(h), t)
        err_jk = abs(jk.mu_hat[0, 0] - 0.25)
        assert err_jk <= err_ll / 10.0

    def test_error_decays_faster_than_h_squared(self):
        # On t^2 the post-cancellation terms vanish identically and only
        # grid-alignment noise of order 1/n remains; t^4 exposes the
        # genuine bandwidth scaling.
        n = 500
        times = np.arange(n) / n
        interior = times[(times >= 0.2) & (times <= 0.8)]

        def interior_err(values, truth, h):
            series = equi(values)
            est = jackknife_derivative(series, SmoothConfig(h), interior)
            return np.max(np.abs(est.mu_hat[:, 0] - truth))

        e1 = interior_err(times ** 4, interior ** 4, 0.1)
        e2 = interior_err(times ** 4, interior ** 4, 0.2)
        assert e1 < e2 / 5.0
        # t^2: error stays at the discretization floor, far below h^3
        assert interior_err(times ** 2, interior ** 2, 0.1) < 0.1 ** 3 / 100

    def test_derivative_affine_exact(self):
        series = affine(150, np.array([1.0]), np.array([-2.5]))
        est = jackknife_derivative(series, SmoothConfig(0.25))
        assert np.max(np.abs(est.dmu_hat + 2.5)) <= 1e-10

    def test_derivative_bias_improvement_on_cubic(self):
        n, h = 500, 0.15
        times = np.arange(n) / n
        series = equi(times ** 3)
        t = times[(times >= h) & (times <= 1 - h)]
        ll = local_linear(series, SmoothConfig(h), t)
        jk = jackknife_derivative(series, SmoothConfig(h), t)
        err_ll = np.max(np.abs(ll.dmu_hat[:, 0] - 3 * t ** 2))
        err_jk = np.max(np.abs(jk.dmu_hat[:, 0] - 3 * t ** 2))
        assert err_jk < err_ll

    def test_derivative_coefficient_identity(self):
        rng = np.random.default_rng(5)
        series = equi(rng.normal(size=(100, 2)))
        h = 0.2
        small = local_linear(series, SmoothConfig(h / np.sqrt(2)))
        large = local_linear(series, SmoothConfig(h))
        est = jackknife_derivative(series, SmoothConfig(h))
        combo = (JACKKNIFE_DERIV_COEF_SMALL * small.dmu_hat
                 - JACKKNIFE_DERIV_COEF_LARGE * large.dmu_hat)
        assert np.max(np.abs(est.dmu_hat - combo)) <= 1e-12
        assert JACKKNIFE_DERIV_COEF_SMALL - JACKKNIFE_DERIV_COEF_LARGE \
            == pytest.approx(1.0, abs=1e-15)

    def test_propagates_singularity_with_bandwidth(self):
        series = FunctionalSeries(np.array([0.0, 0.5, 1.0]),
                                  np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises((SingularFit, BandwidthTooSmall)) as exc:
            jackknife_derivative(series, SmoothConfig(0.5),
                                 eval_times=np.array([0.5]))
        assert exc.value.bandwidth is not None

    def test_too_small_names_the_small_bandwidth(self):
        # stamps 0.05 apart: windows of h = 0.06 hold 2 or 3 stamps, those of
        # h / sqrt(2) only one, so the fit at h / sqrt(2) fails first
        series = equi(np.arange(20.0))
        with pytest.raises(BandwidthTooSmall) as exc:
            jackknife_derivative(series, SmoothConfig(0.06))
        assert exc.value.bandwidth == 0.06 / np.sqrt(2.0)
        assert exc.value.t == 0.0
        assert str(exc.value) == \
            "window at t=0 has < 2 points (bandwidth 0.0424264)"


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_fit_with_derivative_matches_direct_path(self, name):
        series = equi(np.random.default_rng(17).normal(size=(80, 3)))
        cfg = SmoothConfig(0.15)
        direct = {
            "ll": lambda: local_linear(series, cfg),
            "jackknife": lambda: jackknife_derivative(series, cfg),
            "nw": lambda: nw_derivative(nadaraya_watson(series, cfg)),
        }[name]()
        est = fit(name, series, cfg, derivative=True)
        assert np.array_equal(est.mu_hat, direct.mu_hat)
        assert np.array_equal(est.dmu_hat, direct.dmu_hat)

    def test_unknown_name_raises_key_error(self):
        assert ESTIMATORS == ("ll", "jackknife", "nw")
        with pytest.raises(KeyError):
            fit("loess", equi(np.arange(20.0)), SmoothConfig(0.2))

    def test_nw_derivative_only_on_request(self):
        series = equi(np.random.default_rng(18).normal(size=(40, 2)))
        assert fit("nw", series, SmoothConfig(0.2)).dmu_hat is None


@st.composite
def fit_cases(draw):
    """n x p standard normal values, 30 <= n <= 120, 1 <= p <= 5, and a
    bandwidth in [4/n, 0.5]."""
    n = draw(st.integers(30, 120))
    p = draw(st.integers(1, 5))
    h = draw(st.floats(4 / n, 0.5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).normal(size=(n, p)), h


def signed_power(lo, hi):
    """+-10^e with the exponent e in [lo, hi]."""
    return st.builds(lambda sign, e: sign * 10.0 ** e,
                     st.sampled_from([-1.0, 1.0]), st.floats(lo, hi))


class TestSharedProperties:
    @pytest.mark.parametrize("fit", [local_linear, jackknife_derivative,
                                     nadaraya_watson])
    def test_shift_scale_equivariance(self, fit):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(120, 3))
        series = equi(values)
        scaled = equi(2.5 * values + 1.25)
        cfg = SmoothConfig(0.2)
        est = fit(series, cfg)
        est2 = fit(scaled, cfg)
        assert np.max(np.abs(est2.mu_hat - (2.5 * est.mu_hat + 1.25))) <= 1e-12
        if est.dmu_hat is not None:
            assert np.max(np.abs(est2.dmu_hat - 2.5 * est.dmu_hat)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @settings(max_examples=25, deadline=None)
    @given(case=fit_cases(), a=signed_power(-6, 6), b=signed_power(-3, 3))
    def test_scale_shift_equivariance_property(self, name, case, a, b):
        values, h = case
        cfg = SmoothConfig(h)
        est = fit(name, equi(values), cfg, derivative=True)
        est2 = fit(name, equi(a * values + b), cfg, derivative=True)
        tol = 1e-10 * (abs(a) * np.max(np.abs(values)) + abs(b))
        assert np.max(np.abs(est2.mu_hat - (a * est.mu_hat + b))) <= tol
        assert np.max(np.abs(est2.dmu_hat - a * est.dmu_hat)) <= tol / h

    @pytest.mark.parametrize("name", ["ll", "jackknife"])
    @settings(max_examples=25, deadline=None)
    @given(case=fit_cases(), slope=signed_power(-3, 3))
    def test_affine_exactness_property(self, name, case, slope):
        values, h = case
        a, b = values[0], slope * values[1]
        series = affine(values.shape[0], a, b)
        est = fit(name, series, SmoothConfig(h), derivative=True)
        tol = 1e-10 * (np.max(np.abs(a)) + np.max(np.abs(b)))
        assert np.max(np.abs(est.mu_hat - series.values)) <= tol
        assert np.max(np.abs(est.dmu_hat - b)) <= tol / h

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @settings(max_examples=25, deadline=None)
    @given(case=fit_cases(), seed=st.integers(0, 2 ** 32 - 1))
    def test_channel_permutation_property(self, name, case, seed):
        values, h = case
        perm = np.random.default_rng(seed).permutation(values.shape[1])
        cfg = SmoothConfig(h)
        est = fit(name, equi(values), cfg, derivative=True)
        est2 = fit(name, equi(values[:, perm]), cfg, derivative=True)
        tol = 1e-10 * np.max(np.abs(values)) / h
        assert np.max(np.abs(est2.mu_hat - est.mu_hat[:, perm])) <= tol
        assert np.max(np.abs(est2.dmu_hat - est.dmu_hat[:, perm])) <= tol

    def test_nw_ll_proximity_improves_with_n(self):
        # At grid-aligned interior points the window is exactly symmetric
        # and both estimators coincide; evaluate slightly off-grid so the
        # design moment S1 is nonzero and shrinks like 1/(n h).
        h = 0.15
        eval_grid = np.linspace(0.2, 0.8, 37) + 1e-4

        def max_diff(n):
            times = np.arange(n) / n
            series = equi(np.sin(2 * np.pi * times))
            cfg = SmoothConfig(h)
            ll = local_linear(series, cfg, eval_grid)
            nw = nadaraya_watson(series, cfg, eval_grid)
            return np.max(np.abs(ll.mu_hat - nw.mu_hat))

        assert max_diff(2000) < max_diff(200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fit", [local_linear, jackknife_derivative,
                                     nadaraya_watson])
    def test_non_finite_eval_times_rejected(self, fit, bad):
        series = equi(np.arange(50.0))
        with pytest.raises(ValueError, match="eval_times must be finite"):
            fit(series, SmoothConfig(0.2), np.array([0.5, bad, 0.25]))

    @pytest.mark.parametrize("bad", [0.5, [[0.5, 0.6]]], ids=["0d", "2d"])
    @pytest.mark.parametrize("fit", [local_linear, jackknife_derivative,
                                     nadaraya_watson])
    def test_non_1d_eval_times_rejected(self, fit, bad):
        series = equi(np.arange(50.0))
        with pytest.raises(ValueError, match="eval_times must be a 1d array"):
            fit(series, SmoothConfig(0.2), bad)

    def test_evaluation_grid_override(self):
        series = equi(np.arange(50.0))
        grid = np.array([0.25, 0.5, 0.75])
        est = local_linear(series, SmoothConfig(0.2), eval_times=grid)
        assert np.array_equal(est.times, grid)
        assert est.mu_hat.shape == (3, 1)


def interpolated(grid, values):
    """A kernel other than the quartic: any callable serves as ``kernel=``.
    The values at the end nodes +-1 are 0, so it weighs 0 outside them."""
    return lambda u: np.interp(u, grid, values)


def tabulated_quartic():
    # The quartic at multiples of 1/4, rescaled so that its piecewise
    # linear interpolant integrates to one.
    grid = np.linspace(-1.0, 1.0, 9)
    values = 0.9375 * (1.0 - grid ** 2) ** 2
    values /= np.sum((values[1:] + values[:-1]) / 2 * np.diff(grid))
    return interpolated(grid, values)


def dense_ll_failures(train, eval_times, h, kernel=K):
    """dense_fit's local linear failure mask at each evaluation point, and
    its count of stamps with |u| <= 1."""
    u = (train.times[None, :] - eval_times[:, None]) / h
    w = kernel(u)
    wu = w * u
    s0, s1, s2 = w.sum(axis=1), wu.sum(axis=1), (wu * u).sum(axis=1)
    counts = (np.abs(u) <= 1.0).sum(axis=1)
    singular = s0 * s2 - s1 ** 2 <= _SINGULAR_RTOL * s0 ** 2
    return (counts < 2) | singular, counts


def dense_fit(train, eval_times, h, estimator, kernel=K):
    """Mean and (ll only) slope fits from dense n_eval x n_train kernel
    sums over every training stamp; None if the fit fails at any point."""
    u = (train.times[None, :] - eval_times[:, None]) / h
    w = kernel(u)
    s0, r0 = w.sum(axis=1), w @ train.values
    if estimator == "nw":
        return None if np.any(s0 <= 0.0) else (r0 / s0[:, None], None)
    if np.any(dense_ll_failures(train, eval_times, h, kernel)[0]):
        return None
    wu = w * u
    s1, s2, r1 = wu.sum(axis=1), (wu * u).sum(axis=1), wu @ train.values
    denom = s0 * s2 - s1 ** 2
    return ((s2[:, None] * r0 - s1[:, None] * r1) / denom[:, None],
            (s0[:, None] * r1 - s1[:, None] * r0) / (h * denom[:, None]))


def dense_cv_scores(series, estimator):
    """Default-config CV scores (k=5, interleaved) from dense_fit; the
    jackknife's mean is 2 ll(h/sqrt(2)) - ll(h)."""
    n = series.n
    scores = []
    for h in ft.bandwidth_grid(n):
        total, count = 0.0, 0
        for fold in fold_indices(n, 5):
            idx = np.setdiff1d(np.arange(n), fold)
            train = ft.FunctionalSeries(series.times[idx], series.values[idx],
                                        series.value_grid)
            fits = [dense_fit(train, series.times[fold], bw,
                              "nw" if estimator == "nw" else "ll")
                    for bw in ((h / np.sqrt(2.0), h)
                               if estimator == "jackknife" else (h,))]
            if any(fitted is None for fitted in fits):
                total = np.inf
                break
            mu = (2.0 * fits[0][0] - fits[1][0] if estimator == "jackknife"
                  else fits[0][0])
            total += float(((mu - series.values[fold]) ** 2).sum())
            count += mu.size
        scores.append(total / count if np.isfinite(total) else np.inf)
    return np.array(scores)


def window_offsets():
    """Scaled offsets u of 1 to 8 stamps: anywhere in (-1.5, 1.5), exactly
    +-1, within 1e-6 of +-1, or near 0."""
    edge = st.sampled_from([-1.0, 1.0])
    offset = st.one_of(
        st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True), edge,
        st.builds(lambda e, d: e + d, edge, st.floats(-1e-6, 1e-6)),
        st.floats(-1e-6, 1e-6))
    return st.lists(offset, min_size=1, max_size=8).map(np.array)


@st.composite
def failure_cases(draw):
    """Stamps i/n, a bandwidth of one stamp spacing or a fraction to a few,
    and evaluation points anywhere in [-0.5, 1.5], on a stamp or exactly h
    from one."""
    n = draw(st.integers(2, 40))
    series = equi(np.arange(float(n)))
    h = draw(st.one_of(st.just(1.0 / n),
                       st.floats(0.2 / n, min(3.0 / n, 1.0))))
    stamp = st.sampled_from(series.times.tolist())
    point = st.one_of(st.floats(-0.5, 1.5), stamp,
                      stamp.map(lambda t: t - h), stamp.map(lambda t: t + h))
    return series, h, np.array(draw(st.lists(point, min_size=1, max_size=40)))


class TestFailureRule:
    """The degenerate-design test alone fails the windows with < 2 stamps,
    so CV counts no stamps and the fits count them at one point only."""

    @pytest.mark.parametrize("kernel", [K, tabulated_quartic()],
                             ids=["quartic", "custom"])
    @settings(max_examples=300, deadline=None)
    @given(u=window_offsets())
    def test_too_few_stamps_imply_singular(self, kernel, u):
        # The rule on sums of the unscaled offsets d = u h; at h = 1 they
        # are the scaled offsets u themselves.
        for h in (1.0, 0.37, 1e-3):
            d = (u * h)[None, :]
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                failed = _equivalent_kernels(d, np.array([[h]]), kernel,
                                             ("ll",))["ll"][1]
            if np.count_nonzero(np.abs(d / h) <= 1.0) < 2:
                assert failed.all()

    def test_failed_is_the_failing_bandwidth(self):
        # K > 0 only on 1/2 < |u| < 1: stamps at +-0.4 h weigh 0 at h but not
        # at h / sqrt(2), so the jackknife's large fit fails alone there.
        ring = interpolated([-1.0, -0.75, -0.5, 0.5, 0.75, 1.0],
                            [0.0, 2.0, 0.0, 0.0, 2.0, 0.0])
        h = 0.1
        d = h * np.array([[-0.6, 0.6, 5.0], [-0.4, 0.4, 5.0], [5.0, 5.0, 5.0]])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _equivalent_kernels(d, np.array([[h]]), ring, ESTIMATORS)
        expected = {"ll": [0.0, h, h], "nw": [0.0, h, h],
                    "jackknife": [0.0, h, h / np.sqrt(2.0)]}
        for name in ESTIMATORS:
            assert out[name][1][:, 0].tolist() == expected[name]
        series = FunctionalSeries(np.array([0.46, 0.54]), np.ones((2, 1)))
        with pytest.raises(SingularFit) as exc:
            jackknife_derivative(series, SmoothConfig(h, ring), np.array([0.5]))
        assert type(exc.value) is SingularFit
        assert (exc.value.t, exc.value.bandwidth) == (0.5, h)

    def test_stamps_at_the_window_edge_weigh_nothing(self):
        # Both stamps at |u| = 1: nw's window is empty, while ll counts
        # two stamps in |u| <= 1 and names a plain SingularFit.
        series = FunctionalSeries(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
        at = np.array([0.25])
        with pytest.raises(ft.EmptyWindow):
            nadaraya_watson(series, SmoothConfig(0.25), at)
        with pytest.raises(SingularFit) as exc:
            local_linear(series, SmoothConfig(0.25), at)
        assert type(exc.value) is SingularFit

    def test_too_few_stamps_is_a_singular_fit(self):
        assert issubclass(BandwidthTooSmall, SingularFit)
        assert FIT_ERRORS == (SingularFit, ft.EmptyWindow,
                              FloatingPointError)

    @settings(max_examples=300, deadline=None)
    @given(case=failure_cases())
    def test_first_failing_point_is_named(self, case):
        series, h, eval_times = case
        fails, counts = dense_ll_failures(series, eval_times, h)
        if not np.any(fails):
            local_linear(series, SmoothConfig(h), eval_times)
            return
        i = np.argmax(fails)
        with pytest.raises(SingularFit) as exc:
            local_linear(series, SmoothConfig(h), eval_times)
        assert exc.value.t == eval_times[i]
        assert type(exc.value) is (BandwidthTooSmall if counts[i] < 2
                                   else SingularFit)

    @settings(max_examples=300, deadline=None)
    @given(case=failure_cases())
    def test_jackknife_names_the_small_bandwidth_first(self, case):
        # The first failure at h / sqrt(2) in eval_times order, if any,
        # else the first at h.
        series, h, eval_times = case
        for bw in (h / np.sqrt(2.0), h):
            fails, counts = dense_ll_failures(series, eval_times, bw)
            if np.any(fails):
                i = np.argmax(fails)
                with pytest.raises(SingularFit) as exc:
                    jackknife_derivative(series, SmoothConfig(h), eval_times)
                assert exc.value.t == eval_times[i]
                assert exc.value.bandwidth == bw
                assert type(exc.value) is (BandwidthTooSmall if counts[i] < 2
                                           else SingularFit)
                return
        jackknife_derivative(series, SmoothConfig(h), eval_times)


@st.composite
def window_cases(draw):
    """Sorted distinct stamps in [0, 1], a bandwidth h and point pairs
    first <= last (often equal), with stamps placed exactly h and one ulp
    from h away from the points."""
    h = draw(st.floats(1e-4, 0.5))
    point = st.floats(0, 1)
    pairs = draw(st.lists(st.one_of(point.map(lambda t: (t, t)),
                                    st.tuples(point, point).map(sorted)),
                          min_size=1, max_size=4))
    first, last = np.array(pairs).T
    near = np.concatenate([first - h, first + h, last - h, last + h])
    stamps = np.concatenate([
        draw(st.lists(st.floats(0, 1), max_size=20)), near,
        np.nextafter(near, -np.inf), np.nextafter(near, np.inf)])
    return np.unique(stamps[(stamps >= 0) & (stamps <= 1)]), first, last, h


class TestWindows:
    @settings(max_examples=300, deadline=None)
    @given(case=window_cases())
    def test_no_stamp_in_reach_is_left_out(self, case):
        times, first, last, h = case
        lo, hi = _windows(times, first, last, h)
        j = np.arange(times.size)
        for i in range(first.size):
            outside = times[(j < lo[i]) | (j >= hi[i])]
            for t in (first[i], last[i]):
                assert not np.any(np.abs((outside - t) / h) <= 1.0)


class TestWindowedSums:
    """The blocked, windowed kernel sums agree with dense summation."""

    @pytest.mark.parametrize("kernel", [K, tabulated_quartic()],
                             ids=["quartic", "custom"])
    @pytest.mark.parametrize("k, case", [
        (3, "p3"), (7, "p3"), (3, "m100"), (7, "m100"), (3, "p1024"),
        (7, "p1024")],
        ids=["3", "7", "3-m100", "7-m100", "3-p1024", "7-p1024"])
    def test_matches_pointwise_weight_stats(self, kernel, k, case):
        # a CV-style training set (every 5th stamp held out) and h = k/n,
        # so many stamps sit exactly h away from an evaluation point; the
        # paper's simulation (m = 100) and a video-sized frame (p = 1024)
        n = {"p3": 300, "m100": 200, "p1024": 60}[case]
        rng = np.random.default_rng(k)
        keep = np.setdiff1d(np.arange(n), np.arange(0, n, 5))
        if case == "p3":
            values = rng.normal(size=(keep.size, 3))
        elif case == "m100":
            values = gen_series(SimSpec(mu1(), "bm", n, 100, 1, 0),
                                0)[0].values[keep]
        else:
            values = rng.normal(size=(n, 1024))[keep]
        series = FunctionalSeries(np.arange(n)[keep] / n, values)
        h = k / n
        stamps = np.arange(n) / n
        eval_times = rng.permutation(np.concatenate([
            [0.0, 1.0 - 1.0 / n], stamps[::3],
            np.minimum(stamps[::7] + h, 1.0), rng.uniform(0, 1, 40)]))
        assert np.any(np.diff(eval_times) < 0)
        cfg = SmoothConfig(h, kernel)
        ll = local_linear(series, cfg, eval_times)
        jk = jackknife_derivative(series, cfg, eval_times)
        nw = nadaraya_watson(series, cfg, eval_times)
        mu, dmu = dense_fit(series, eval_times, h, "ll", kernel)
        small_mu, small_dmu = dense_fit(series, eval_times, h / np.sqrt(2.0),
                                        "ll", kernel)
        nw_mu, _ = dense_fit(series, eval_times, h, "nw", kernel)
        assert np.max(np.abs(ll.mu_hat - mu)) <= 1e-10
        assert np.max(np.abs(ll.dmu_hat - dmu)) * h <= 1e-10
        assert np.max(np.abs(jk.mu_hat - (2.0 * small_mu - mu))) <= 1e-10
        assert np.max(np.abs(
            jk.dmu_hat - (JACKKNIFE_DERIV_COEF_SMALL * small_dmu
                          - JACKKNIFE_DERIV_COEF_LARGE * dmu))) * h <= 1e-10
        assert np.max(np.abs(nw.mu_hat - nw_mu)) <= 1e-10

    def test_unsorted_errors_name_the_same_point(self):
        series = equi(np.arange(20.0))
        # windows at 0.9 and 0.1 hold one stamp each; the first in input
        # order is reported, as with dense sums
        eval_times = np.array([0.52, 0.9, 0.13, 0.1])
        with pytest.raises(BandwidthTooSmall) as exc:
            local_linear(series, SmoothConfig(0.04), eval_times)
        assert exc.value.t == 0.9
        far = FunctionalSeries(np.array([0.0, 0.01]), np.zeros((2, 1)))
        with pytest.raises(ft.EmptyWindow) as exc:
            nadaraya_watson(far, SmoothConfig(0.05),
                            np.array([0.0, 0.9, 0.005, 0.7]))
        assert exc.value.t == 0.9

    @staticmethod
    def assert_cv_matches_dense(series, estimator):
        report = cross_validate(series, CvConfig(estimator=estimator))
        dense = dense_cv_scores(series, estimator)
        assert np.array_equal(np.isinf(report.scores), np.isinf(dense))
        finite = np.isfinite(dense)
        assert np.any(finite)
        assert np.allclose(report.scores[finite], dense[finite],
                           rtol=1e-12, atol=0.0)
        if estimator != "nw":
            assert not np.all(finite)

    @pytest.mark.parametrize("estimator", ["ll", "jackknife", "nw"])
    @pytest.mark.parametrize("n", [50, 500])
    def test_cv_failures_match_dense(self, n, estimator):
        rng = np.random.default_rng(n)
        series = FunctionalSeries.equidistant(rng.normal(size=(n, 2)))
        self.assert_cv_matches_dense(series, estimator)

    @pytest.mark.parametrize("case, estimator", [
        ("m100", "ll"), ("m100", "jackknife"), ("m100", "nw"),
        ("p1024", "ll")])
    def test_cv_matches_dense_at_large_p(self, case, estimator):
        # The paper's simulation (m = 100 grid points, with ill-conditioned
        # boundary windows) and a video-sized frame (p = 1024)
        if case == "m100":
            series = gen_series(SimSpec(mu1(), "bm", 200, 100, 1, 0), 0)[0]
        else:
            series = FunctionalSeries.equidistant(
                np.random.default_rng(3).normal(size=(60, 1024)))
        self.assert_cv_matches_dense(series, estimator)


class TestOnePassCv:
    """Scoring several estimators in one pass changes none of their scores."""

    @pytest.mark.parametrize("case", ["equidistant", "random", "custom",
                                      "small-chunks"])
    def test_scores_bitwise_equal_to_single_estimator_cv(self, case,
                                                          monkeypatch):
        rng = np.random.default_rng(8)
        n = 120
        times = np.arange(n) / n
        if case == "random":
            times = np.cumsum(rng.uniform(0.2, 1.8, n)) / (2.0 * n)
        if case == "small-chunks":  # several chunks of points per fold
            monkeypatch.setattr(ft.bandwidth, "_CHUNK", 1000)
        kernel = tabulated_quartic() if case == "custom" else K
        series = FunctionalSeries(times, rng.normal(size=(n, 3)))
        alone = {name: cross_validate(series, CvConfig(estimator=name),
                                      kernel)
                 for name in ESTIMATORS}
        for size in (1, 2, 3):
            for names in itertools.combinations(ESTIMATORS, size):
                reports = _cv_reports(series, CvConfig(), names, kernel)
                for name in names:  # the simulation's reports
                    assert np.array_equal(reports[name].grid,
                                          ft.bandwidth_grid(n))
                    assert np.array_equal(reports[name].scores,
                                          alone[name].scores)
                    assert reports[name].best_h == alone[name].best_h


class TestScaleSafety:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_constant_column_near_the_float_limit(self, name):
        # One column at 1.7e308 beside N(0,1): weights @ values would
        # overflow, and the small column must not depend on the large one.
        x = np.random.default_rng(1).normal(size=(60, 1))
        cfg = SmoothConfig(0.2)
        est, ones = (fit(name, equi(np.c_[np.full(60, c), x]), cfg, True)
                     for c in (1.7e308, 1.0))
        assert np.all(np.isfinite(est.mu_hat))
        assert np.all(np.isfinite(est.dmu_hat))
        assert np.max(np.abs(est.mu_hat[:, 0] / 1.7e308 - 1.0)) <= 1e-14
        assert np.max(np.abs(est.dmu_hat[:, 0])) <= 1e-12 * 1.7e308
        assert np.array_equal(est.mu_hat[:, 1], ones.mu_hat[:, 1])
        assert np.array_equal(est.dmu_hat[:, 1], ones.dmu_hat[:, 1])

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_fit_past_the_float_range_raises(self, name):
        # 1.7e308 cos(6 pi t): the slopes at all but every 10th stamp, and
        # the boundary means of ll and the Jackknife, exceed the floats.
        t = np.arange(60) / 60
        series = FunctionalSeries(t, 1.7e308 * np.cos(6 * np.pi * t))
        with pytest.raises(FloatingPointError, match=r"range at t=0$"):
            fit(name, series, SmoothConfig(0.2), derivative=True)
        if name == "nw":  # its mean stays finite
            assert np.all(np.isfinite(
                nadaraya_watson(series, SmoothConfig(0.2)).mu_hat))
            return
        # The first such point in eval_times order, not in time order.
        with pytest.raises(FloatingPointError, match=f"t={t[35]:g}$"):
            _fit(series, SmoothConfig(0.2), t[[10, 20, 35, 5]], name)

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_mean_only_fit_leaves_out_the_slopes(self, name):
        # N(0,1) times 2^1020: the means stay in range, ll's and the
        # Jackknife's slopes do not (nw's differences do).
        x = np.random.default_rng(9).normal(size=(60, 20))
        series, cfg = equi(np.ldexp(x, 1020)), SmoothConfig(0.2)
        est = fit(name, series, cfg)
        assert est.dmu_hat is None
        full = fit(name, equi(x), cfg, derivative=True)
        assert np.array_equal(est.mu_hat, np.ldexp(full.mu_hat, 1020))
        if name != "nw":
            with pytest.raises(FloatingPointError):
                fit(name, series, cfg, derivative=True)

    def test_nw_derivative_past_the_float_range_raises(self):
        # Differences of +-1.7e308 overflow from the second stamp on.
        mu = np.array([[0.0], [0.0], [1.7e308], [-1.7e308]])
        est = ft.Estimate(np.arange(4) / 4, mu, None, np.ones(4, bool))
        with pytest.raises(FloatingPointError, match=r"range at t=0.25$"):
            nw_derivative(est)

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_power_of_two_scale_is_exact(self, name, k):
        values = np.random.default_rng(2).normal(size=(90, 3))
        cfg = SmoothConfig(0.1)
        est = fit(name, equi(values), cfg, derivative=True)
        scaled = fit(name, equi(np.ldexp(values, k)), cfg, derivative=True)
        assert np.array_equal(scaled.mu_hat, np.ldexp(est.mu_hat, k))
        assert np.array_equal(scaled.dmu_hat, np.ldexp(est.dmu_hat, k))


class TestBoundedMemory:
    @pytest.mark.parametrize("fit", [local_linear, jackknife_derivative,
                                     nadaraya_watson])
    def test_peak_below_cap_at_n4000(self, fit):
        # dense n x n kernel sums would peak near 488 MiB here
        n = 4000
        series = equi(np.random.default_rng(0).normal(size=(n, 10)))
        cfg = SmoothConfig(63 / n)
        tracemalloc.start()
        try:
            fit(series, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("n, p", [(4000, 10), (500, 100)])
    def test_cv_peak_below_cap(self, estimator, n, p):
        series = equi(np.random.default_rng(1).normal(size=(n, p)))
        tracemalloc.start()
        try:
            cross_validate(series, CvConfig(estimator=estimator))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

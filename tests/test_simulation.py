import warnings

import numpy as np
import pytest

from ftsmooth import simulation
from ftsmooth.analysis import mae, mse
from ftsmooth.bandwidth import AllBandwidthsInvalid, CvConfig, cross_validate
from ftsmooth.estimators import ESTIMATORS, SmoothConfig, fit
from ftsmooth.simulation import (ERROR_PROCESSES, RESULT_FIELDS, SimSpec,
                                 gen_errors, gen_series, monte_carlo, mu1,
                                 mu2, rho_matrix)

RHO_SCALE = 0.3 * np.sqrt(6.0)


class TestMeanOperators:
    def test_mu1_values(self):
        m = mu1()
        assert m.eval(0.5, 0.25) == pytest.approx(np.sin(np.pi / 2) + 0.25)
        assert m.d_eval(0.3, 0.9) == pytest.approx(0.6)

    def test_mu2_values(self):
        m = mu2()
        # phi(0) = 1, so mu2(1/2, 0) = 1 + 0 + sin(5 pi)/10 + 3/4
        assert m.eval(0.5, 0.0) == pytest.approx(1.75, abs=1e-12)
        assert m.d_eval(0.5, 0.0) == pytest.approx(
            np.pi * np.cos(5 * np.pi), abs=1e-12)

    def test_mu2_phi_shape(self):
        m = mu2()
        x = np.array([0.0, 1.0])
        phi = m.eval(0.0, x) - (0.25 + 0.75)
        assert phi[0] == pytest.approx(1.0)
        assert phi[1] == pytest.approx(-8 + 16 - 11 + 3 + 1)


class TestBrownianSamplers:
    def test_bm_starts_at_zero(self):
        assert gen_errors("bm", 1, 100, np.random.default_rng(0))[0, 0] == 0.0

    def test_bm_variance_at_one(self):
        rng = np.random.default_rng(1)
        ends = gen_errors("bm", 10000, 100, rng)[:, -1]
        assert ends.var() == pytest.approx(1.0, abs=0.05)

    def test_bm_covariance(self):
        rng = np.random.default_rng(2)
        x = np.arange(100) / 99
        i, j = np.searchsorted(x, 0.3), np.searchsorted(x, 0.7)
        draws = gen_errors("bm", 10000, 100, rng)
        cov = np.cov(draws[:, i], draws[:, j])[0, 1]
        assert cov == pytest.approx(0.3, abs=0.05)

    def test_bb_pinned(self):
        b = gen_errors("bb", 1, 50, np.random.default_rng(3))[0]
        assert b[0] == 0.0 and abs(b[-1]) < 1e-14

    def test_bb_variance_at_half(self):
        rng = np.random.default_rng(4)
        mids = gen_errors("bb", 10000, 101, rng)[:, 50]
        assert mids.var() == pytest.approx(0.25, abs=0.02)

    def test_bb_centered(self):
        rng = np.random.default_rng(5)
        draws = gen_errors("bb", 10000, 50, rng)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.03


class TestIntegralOperator:
    def test_zero_maps_to_zero(self):
        assert np.all(rho_matrix(100) @ np.zeros(100) == 0.0)

    def test_constant_input_analytic(self):
        y = np.arange(100) / 99
        out = rho_matrix(100) @ np.ones(100)
        expect = RHO_SCALE * (y - y ** 2 / 2)
        assert np.max(np.abs(out - expect)) < 1e-3
        assert out[-1] == pytest.approx(RHO_SCALE / 2, abs=1e-3)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        f, g = rng.normal(size=100), rng.normal(size=100)
        rho = rho_matrix(100)
        lhs = rho @ (2.5 * f + g)
        rhs = 2.5 * (rho @ f) + rho @ g
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_contraction(self):
        # operator norm below one keeps the autoregressions stable
        assert np.linalg.norm(rho_matrix(100), 2) < 1.0


class TestGenErrors:
    def test_bm_rows_independent(self):
        eps = gen_errors("bm", 1000, 30, np.random.default_rng(7))
        norms = np.sqrt((eps ** 2).mean(axis=1))
        corr = np.corrcoef(norms[:-1], norms[1:])[0, 1]
        assert abs(corr) < 0.07

    def test_far_rows_dependent(self):
        eps = gen_errors("farbm", 1000, 30, np.random.default_rng(8))
        inner = (eps[:-1] * eps[1:]).sum(axis=1)
        prev = (eps[:-1] * eps[:-1]).sum(axis=1)
        corr = np.corrcoef(prev, inner)[0, 1]
        assert corr > 0.1

    @pytest.mark.parametrize("process", [p for p in ERROR_PROCESSES
                                         if p != "none"])
    def test_centered(self, process):
        acc = 0.0
        n, m, reps = 100, 20, 50
        for rep in range(reps):
            rng = np.random.default_rng([9, rep])
            acc += gen_errors(process, n, m, rng).mean()
        assert abs(acc / reps) < 0.05

    @pytest.mark.parametrize("process", ERROR_PROCESSES)
    @pytest.mark.parametrize("n, m", [(0, 5), (-1, 5), (5, 1), (5, 0)])
    def test_sizes_refused_before_any_draw(self, process, n, m):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n >= 1 and m >= 2"):
                gen_errors(process, n, m, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("m", [1, 0])
    def test_rho_matrix_refuses_fewer_than_two_points(self, m):
        with pytest.raises(ValueError, match="m must be >= 2"):
            rho_matrix(m)

    def test_none_process(self):
        assert np.all(gen_errors("none", 10, 5,
                                 np.random.default_rng(0)) == 0.0)

    @pytest.mark.parametrize("process", ["bm", "bb", "farbm", "farbb",
                                         "tvbm"])
    @pytest.mark.parametrize("n, m", [(500, 100), (40, 2), (7, 3)])
    def test_innovations_match_row_loop(self, monkeypatch, process, n, m):
        # Reference: one motion per row, drawn in turn from the same stream;
        # the bridge subtracts t W(1). FAR processes draw n + 51 rows.
        def loop(process, count, m, rng):
            rows = []
            for _ in range(count):
                w = np.zeros(m)
                np.cumsum(rng.standard_normal(m - 1) / np.sqrt(m - 1),
                          out=w[1:])
                if process in ("bb", "farbb"):
                    w = w - np.arange(m) / (m - 1) * w[-1]
                rows.append(w)
            return np.stack(rows)

        got = gen_errors(process, n, m, np.random.default_rng(21))
        monkeypatch.setattr(simulation, "_innovations", loop)
        want = gen_errors(process, n, m, np.random.default_rng(21))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("process", ["farbm", "farbb", "tvfar1",
                                         "tvfar2"])
    @pytest.mark.parametrize("n, m", [(7, 3), (40, 2), (200, 30)])
    def test_far_recurrence_matches_step_loop(self, process, n, m):
        # Reference: decide the process at every step; sigma at the
        # emitted stamp i/n, frozen at sigma(1/n) during burn-in.
        def loop(process, n, m, rng):
            rho = rho_matrix(m)
            burn = simulation.FAR_BURN_IN
            eta = simulation._innovations(process, burn + n + 1, m, rng)
            eps = eta[0]
            out = np.empty((n, m))
            for step in range(1, burn + n + 1):
                emitted = step - burn - 1
                t = (emitted / n) if emitted >= 0 else (1.0 / n)
                if process in ("farbm", "farbb"):
                    eps = rho @ eps + eta[step]
                elif process == "tvfar1":
                    eps = rho @ eps + simulation._sigma(t) * eta[step]
                else:
                    eps = simulation._sigma(t) * (rho @ eps) + eta[step]
                if emitted >= 0:
                    out[emitted] = eps
            return out

        for seed in (0, 31):
            got = gen_errors(process, n, m, np.random.default_rng(seed))
            want = loop(process, n, m, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_tvbm_scales_with_time(self):
        n, m = 200, 50
        draws = np.array([gen_errors("tvbm", n, m,
                                     np.random.default_rng([10, r]))
                          for r in range(200)])
        # pointwise sd grows like sigma(t) = t + 1/2
        early = draws[:, 5, -1].std()
        late = draws[:, -5, -1].std()
        assert late > early


class TestGenSeries:
    def spec(self, **kw):
        base = dict(mean=mu1(), errors="bm", n=50, m=40, reps=3,
                    master_seed=123)
        base.update(kw)
        return SimSpec(**base)

    def test_zero_noise_equals_truth(self):
        series, truth_mu, _ = gen_series(self.spec(errors="none"), 0)
        assert np.array_equal(series.values, truth_mu)

    def test_deterministic(self):
        a = gen_series(self.spec(), 1)
        b = gen_series(self.spec(), 1)
        assert np.array_equal(a[0].values, b[0].values)

    def test_reps_draw_different_noise(self):
        a = gen_series(self.spec(), 0)[0].values
        b = gen_series(self.spec(), 1)[0].values
        assert not np.array_equal(a, b)

    def test_truth_row_at_time_zero(self):
        series, truth_mu, truth_dmu = gen_series(self.spec(), 0)
        x = np.arange(40) / 39
        assert np.allclose(truth_mu[0], np.sin(2 * np.pi * x), atol=1e-14)
        assert np.allclose(truth_dmu[0], 0.0)
        assert series.times[0] == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            self.spec(n=5)
        with pytest.raises(ValueError):
            self.spec(errors="white")
        with pytest.raises(ValueError):
            self.spec(reps=0)
        with pytest.raises(ValueError):
            gen_series(self.spec(), 3)


class TestMonteCarlo:
    def test_zero_noise_constant_mean(self):
        spec = SimSpec(simulation.flat(), "none", 40, 10, 2, 0)
        table = monte_carlo(spec, ("ll", "jackknife", "nw"),
                            CvConfig(k=5, grid_size=6), threads=1)
        for row in table.rows:
            if row.target == "mu":
                assert row.mean_mse <= 1e-10
                assert row.mean_mae <= 1e-6

    def test_reproducible_across_thread_counts(self):
        spec = SimSpec(mu1(), "bb", 40, 15, 6, 42)
        cv = CvConfig(k=5, grid_size=6)
        t1 = monte_carlo(spec, ("ll", "nw"), cv, threads=1)
        t4 = monte_carlo(spec, ("ll", "nw"), cv, threads=4)
        assert len(t1.rows) == len(t4.rows)
        for a, b in zip(t1.rows, t4.rows):
            # everything except wall-clock timing must be bit-identical
            for name in ("estimator", "target", "n", "m", "reps",
                         "mean_mse", "sd_mse", "mean_mae", "sd_mae"):
                assert getattr(a, name) == getattr(b, name)

    @pytest.mark.parametrize("names", [("ll", "ll"), (), ("ll", "lq")])
    def test_bad_selection_rejected(self, names):
        spec = SimSpec(mu1(), "bm", 20, 5, 2, 0)
        with pytest.raises(ValueError):
            monte_carlo(spec, names, threads=1)

    def test_row_structure(self):
        spec = SimSpec(mu2(), "tvfar2", 40, 12, 3, 7)
        table = monte_carlo(spec, ("ll",), CvConfig(k=5, grid_size=5),
                            threads=1)
        targets = {(r.estimator, r.target) for r in table.rows}
        assert targets == {("ll", "mu"), ("ll", "dmu")}
        row = table.row("ll", "dmu")
        assert row.reps == 3 and row.n == 40 and row.m == 12
        assert row.mean_mse >= 0 and row.sd_mse >= 0
        assert table.failures == {"ll": 0}

    def test_failed_cv_counts_for_its_estimator_only(self):
        spec = SimSpec(mu1(), "bm", 12, 100, 2, 0)
        cv = CvConfig(k=2)
        table = monte_carlo(spec, cv=cv)
        assert table.failures == {"ll": 0, "jackknife": 2, "nw": 0}
        assert {r.estimator for r in table.rows} == {"ll", "nw"}
        with pytest.raises(AllBandwidthsInvalid):
            monte_carlo(spec, ("jackknife",), cv)

    def test_one_estimator_alone_matches_its_rows_in_the_full_run(self):
        spec = SimSpec(mu2(), "farbm", 60, 8, 3, 5)
        full = monte_carlo(spec)
        alone = monte_carlo(spec, ("nw",))
        assert alone.failures == {"nw": full.failures["nw"]}
        for target in ("mu", "dmu"):
            a, b = alone.row("nw", target), full.row("nw", target)
            for name in RESULT_FIELDS:
                assert getattr(a, name) == getattr(b, name)

    @pytest.mark.parametrize("spec, cv", [
        (SimSpec(mu2(), "farbm", 60, 8, 3, 5), CvConfig()),
        # the Jackknife's CV fails in every replication at n = 12, k = 2
        (SimSpec(mu1(), "bm", 12, 100, 2, 0), CvConfig(k=2)),
    ])
    def test_replay_through_public_calls(self, spec, cv):
        # Each replication through gen_series, cross_validate, fit, mse and
        # mae; then np.mean / np.std over the replications that succeed.
        errors = {name: [] for name in ESTIMATORS}
        for rep in range(spec.reps):
            series, truth_mu, truth_dmu = gen_series(spec, rep)
            for name in ESTIMATORS:
                try:
                    report = cross_validate(
                        series, CvConfig(cv.k, cv.grid_size, name))
                except AllBandwidthsInvalid:
                    continue
                est = fit(name, series, SmoothConfig(report.best_h),
                          derivative=True)
                errors[name].append({
                    "mu": (mse(est.mu_hat, truth_mu),
                           mae(est.mu_hat, truth_mu)),
                    "dmu": (mse(est.dmu_hat, truth_dmu),
                            mae(est.dmu_hat, truth_dmu))})
        table = monte_carlo(spec, cv=cv)
        assert table.failures == {name: spec.reps - len(errors[name])
                                  for name in ESTIMATORS}
        rows = 0
        for name, records in errors.items():
            if not records:
                continue
            for target in ("mu", "dmu"):
                mses = [r[target][0] for r in records]
                maes = [r[target][1] for r in records]
                want = dict(estimator=name, target=target, n=spec.n,
                            m=spec.m, reps=len(records),
                            mean_mse=np.mean(mses), sd_mse=np.std(mses),
                            mean_mae=np.mean(maes), sd_mae=np.std(maes))
                row = table.row(name, target)
                for field in RESULT_FIELDS:
                    assert getattr(row, field) == want[field], field
                rows += 1
        assert len(table.rows) == rows

import inspect

import numpy as np
import pytest

from ftsmooth.bandwidth import cross_validate
from ftsmooth.estimators import SmoothConfig
from ftsmooth.kernels import Kernel, quartic
from ftsmooth.simulation import monte_carlo

K = quartic()
SQRT2 = np.sqrt(2.0)


class TestQuarticValues:
    def test_bitwise_equal_to_masked_formula(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(-1.5, 1.5, 10 ** 6 - 6),
                            [-1.0, 1.0, 0.0, -0.0,
                             np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]])
        inside = np.abs(x) <= 1.0
        expect = np.zeros_like(x)
        expect[inside] = 0.9375 * (1.0 - x[inside] ** 2) ** 2
        got = K(x)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_non_finite_arguments_weigh_zero(self):
        assert np.array_equal(K(np.array([np.nan, np.inf, -np.inf])),
                              np.zeros(3))

    def test_mode(self):
        assert K(0.0) == pytest.approx(0.9375, abs=1e-15)

    def test_support_boundary(self):
        assert K(1.0) == 0.0
        assert K(-1.0) == 0.0

    def test_halfway(self):
        # 15/16 * (1 - 0.25)^2
        assert K(0.5) == pytest.approx(0.52734375, abs=1e-15)

    def test_outside_support(self):
        assert np.all(K(np.array([-2.0, 1.0001, 7.0])) == 0.0)

    def test_symmetry_and_sign(self):
        x = np.linspace(-1.5, 1.5, 1001)
        assert np.allclose(K(x), K(-x))
        assert np.all(K(x) >= 0.0)


class TestStarKernel:
    def test_at_zero(self):
        assert K.eval_star(0.0) == pytest.approx(0.9375 * (2 * SQRT2 - 1),
                                                 abs=1e-12)

    def test_outer_region_is_negative(self):
        # sqrt(2)*0.9 > 1, so only the -K term survives
        assert K.eval_star(0.9) == pytest.approx(-K(0.9), abs=1e-15)
        assert K.eval_star(0.9) == pytest.approx(-0.03384375, abs=1e-8)

    def test_outside_support(self):
        assert np.all(K.eval_star(np.array([-1.2, 1.01, 3.0])) == 0.0)

    def test_definitional_identity(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.5, 1.5, 1000)
        assert np.array_equal(K.eval_star(x), 2 * SQRT2 * K(SQRT2 * x) - K(x))


def quartic_even_moment(ell):
    # 15/16 * integral of x^ell (1 - x^2)^2 over [-1, 1]
    return 0.9375 * (2 / (ell + 1) - 4 / (ell + 3) + 2 / (ell + 5))


class TestMoments:
    def test_normalization(self):
        assert K.moment(0) == pytest.approx(1.0, abs=1e-10)

    def test_kappa2(self):
        assert K.moment(2) == pytest.approx(1.0 / 7.0, abs=1e-10)
        assert K.kappa2 == pytest.approx(1.0 / 7.0, abs=1e-10)

    def test_odd_moments_vanish(self):
        for ell in (1, 3, 5):
            assert K.moment(ell) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ell", [0, 2, 4, 6, 8])
    def test_even_moments_closed_form(self, ell):
        assert K.moment(ell) == pytest.approx(quartic_even_moment(ell),
                                              abs=1e-10)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            K.moment(-1)
        with pytest.raises(ValueError, match="ell must be non-negative"):
            K.moment_star(-1)


class TestStarMoments:
    def test_mass(self):
        assert K.moment_star(0) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        assert K.moment_star(1) == pytest.approx(0.0, abs=1e-12)

    def test_second_moment_cancellation(self):
        assert K.moment_star(2) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("ell", range(9))
    def test_moments_of_the_rescaled_kernel(self, ell):
        # Against composite Simpson of x^ell K*(x) on [-1, 1], not against
        # the substitution the library's closed form is built on.
        x = np.linspace(-1.0, 1.0, 2049)
        y = x ** ell * K.eval_star(x)
        simpson = (x[1] - x[0]) / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                                         + 2.0 * y[2:-1:2].sum())
        assert K.moment_star(ell) == pytest.approx(simpson, abs=1e-9)


class TestCustomKernel:
    """The tabulated kernel is withdrawn: the quartic is the one shape."""

    def test_unknown_shape(self):
        for shape in ("gaussian", "custom"):
            with pytest.raises(ValueError, match="unknown kernel shape"):
                Kernel(shape)


class TestDefaultKernel:
    def test_one_shared_instance(self):
        default = SmoothConfig(0.1).kernel
        assert default is quartic()
        for fn in (cross_validate, monte_carlo):
            kernel = inspect.signature(fn).parameters["kernel"]
            assert kernel.default is default
        assert SmoothConfig(0.1) == SmoothConfig(0.1)

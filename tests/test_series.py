import numpy as np
import pytest

from ftsmooth.series import FunctionalSeries, ValueGrid, discretized_norm


class TestValidation:
    def test_equidistant_constructor(self):
        s = FunctionalSeries.equidistant(np.zeros((8, 3)))
        assert np.array_equal(s.times, np.arange(8) / 8)
        assert s.n == 8 and s.p == 3

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            FunctionalSeries(np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)))

    def test_times_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FunctionalSeries(np.array([0.0, 1.5]), np.zeros((2, 1)))

    def test_row_count_matches(self):
        with pytest.raises(ValueError, match="row"):
            FunctionalSeries(np.array([0.0, 0.5]), np.zeros((3, 1)))

    def test_values_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FunctionalSeries(np.array([0.0, 0.5]),
                             np.array([[1.0], [np.nan]]))
        # A NaN stamp slips past the order and [0, 1] checks, whose
        # comparisons are all false; each bad stamp must hit the finite rule.
        for stamps in ([0.0, np.nan, 0.8], [0.0, 0.5, np.inf],
                       [-np.inf, 0.5, 0.8]):
            with pytest.raises(ValueError, match="finite"):
                FunctionalSeries(np.array(stamps), np.zeros((3, 1)))

    def test_grid_dimension_mismatch(self):
        with pytest.raises(ValueError, match="P="):
            FunctionalSeries(np.array([0.0, 0.5]), np.zeros((2, 5)),
                             ValueGrid(2, 2))

    def test_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            FunctionalSeries(np.array([0.0, 0.5]), np.zeros((2, 1)),
                             norm="l3")


class TestValueGrid:
    def test_flat_dimension(self):
        assert ValueGrid(4, 50).p == 200

    @pytest.mark.parametrize("d, m", [(0, 1), (1, 0), (-1, 3)])
    def test_empty_layout_rejected(self, d, m):
        with pytest.raises(ValueError):
            ValueGrid(d, m)


class TestDiscretizedNorm:
    def test_l2(self):
        assert discretized_norm(np.array([[3.0, 4.0]]), "l2")[0] \
            == pytest.approx(np.sqrt(12.5))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-158, 1e-160])
    def test_l2_neither_overflows_nor_underflows(self, scale):
        rows = np.array([[3.0, -4.0], [0.0, 0.0], [1.0, 7.0]]) * scale
        got = discretized_norm(rows, "l2")
        assert got[0] == pytest.approx(np.sqrt(12.5) * scale, rel=1e-15,
                                       abs=0.0)
        assert got[1] == 0.0
        assert got[2] == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    def test_l1(self):
        assert discretized_norm(np.array([[-3.0, 4.0]]), "l1")[0] \
            == pytest.approx(3.5)

    def test_sup(self):
        assert discretized_norm(np.array([[-3.0, 2.0]]), "sup")[0] == 3.0

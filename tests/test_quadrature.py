"""Grid construction and Simpson quadrature on the half-period."""
import numpy as np
import pytest

from cglvortex import GridFunction, InvalidArgument, integrate, make_grid
from cglvortex.quadrature import running_integral


class TestMakeGrid:
    def test_five_nodes(self):
        g = make_grid(5)
        assert np.allclose(g.nodes, [-np.pi/2, -np.pi/4, 0.0, np.pi/4, np.pi/2])

    def test_spacing_257(self):
        g = make_grid(257)
        assert g.spacing == pytest.approx(np.pi / 256, rel=1e-15)
        assert g.nodes[0] == -np.pi / 2
        assert g.nodes[-1] == np.pi / 2
        assert np.allclose(np.diff(g.nodes), g.spacing, rtol=1e-13)

    def test_tables_shared_and_read_only(self):
        g = make_grid(129)
        assert make_grid(129) is g
        x = g.nodes
        tables = {"cos": np.cos(x), "sin": np.sin(x), "cos2": np.cos(x) ** 2,
                  "cos4": np.cos(x) ** 4, "weights": None}
        for name, expect in tables.items():
            arr = getattr(g, name)
            if expect is not None:
                assert np.allclose(arr, expect, rtol=0, atol=1e-15)
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # composite Simpson: h/3 (1, 4, 2, 4, ..., 2, 4, 1)
        simpson = np.full(129, 2.0)
        simpson[1::2] = 4.0
        simpson[[0, -1]] = 1.0
        assert np.allclose(g.weights, simpson * g.spacing / 3, rtol=1e-15, atol=0)
        assert g.integrate(np.cos(x) ** 2) == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("bad", [4, 3, 0, -7, 256])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            make_grid(bad)


class TestGridFunction:
    def test_length_mismatch_rejected(self):
        g = make_grid(9)
        with pytest.raises(InvalidArgument):
            GridFunction(g, np.zeros(8))

    def test_nan_rejected(self):
        g = make_grid(9)
        vals = np.zeros(9, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(InvalidArgument):
            GridFunction(g, vals)

    def test_sup_norm(self):
        g = make_grid(9)
        f = GridFunction.from_callable(g, lambda x: 2j * np.cos(x))
        assert f.sup_norm == pytest.approx(2.0)

    def test_values_read_only(self):
        g = make_grid(9)
        f = GridFunction.from_callable(g, np.cos)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestIntegrate:
    def test_cos_squared(self):
        g = make_grid(257)
        f = GridFunction.from_callable(g, lambda x: np.cos(x) ** 2)
        assert integrate(f) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_cos_fourth(self):
        # the bulk coefficient of the cubic forcing: int cos^4 = 3 pi / 8
        g = make_grid(257)
        f = GridFunction.from_callable(g, lambda x: np.cos(x) ** 4)
        assert integrate(f) == pytest.approx(3 * np.pi / 8, abs=1e-10)

    def test_zero(self):
        g = make_grid(257)
        f = GridFunction(g, np.zeros(257, dtype=complex))
        assert integrate(f) == 0

    def test_cos4_error_at_roundoff(self):
        # cos^4 is pi-periodic and J is a full period, so composite Simpson
        # is spectrally accurate here: the error sits at roundoff already
        for n in (129, 257):
            g = make_grid(n)
            f = GridFunction.from_callable(g, lambda x: np.cos(x) ** 4)
            assert abs(integrate(f) - 3 * np.pi / 8) < 1e-14

    def test_fourth_order_on_generic_smooth(self):
        # the h^4 law needs a non-periodic integrand to be visible
        exact = 2 * np.sinh(np.pi / 2)
        errs = []
        for n in (129, 257):
            g = make_grid(n)
            f = GridFunction.from_callable(g, np.exp)
            errs.append(abs(integrate(f) - exact))
        assert errs[0] / errs[1] >= 12.0


class TestRunningIntegral:
    def test_exact_on_cubics(self):
        h = 0.1
        x = np.arange(11) * h
        for k in range(4):
            vals = x ** k
            out = running_integral(vals, h)
            assert np.allclose(out, x ** (k + 1) / (k + 1), atol=1e-14)

    def test_fourth_order_on_sin(self):
        errs = []
        for n in (129, 257):
            x = np.linspace(0.0, 1.0, n)
            out = running_integral(np.sin(x), x[1] - x[0])
            errs.append(np.max(np.abs(out - (1 - np.cos(x)))))
        assert errs[0] / errs[1] >= 12.0

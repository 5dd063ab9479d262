"""Grid construction and Simpson quadrature on the half-period."""
import numpy as np
import pytest

from cglvortex import Grid, GridFunction, InvalidArgument, integrate, make_grid
from cglvortex.quadrature import _row_sums, running_integral
from conftest import sampled


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
        tables = {"cos": np.cos(x), "sin": np.sin(x), "cos2_c": np.cos(x) ** 2,
                  "cos4_c": np.cos(x) ** 4, "weights": None}
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

    @pytest.mark.parametrize("bad", [4, 3, 0, -7, 256, 5.5])
    def test_grid_validates_its_count(self, bad):
        with pytest.raises(InvalidArgument):
            Grid(bad)

    @pytest.mark.parametrize("bad", [7.0, np.float64(257.0), True, [9]])
    def test_count_that_is_not_an_integer_rejected(self, bad):
        # as CoreParams refuses max_iter=2.0: make_grid's cache must not hand
        # 7.0 the grid of 7, nor meet a list, which it cannot hash
        make_grid(7), make_grid(257)
        with pytest.raises(InvalidArgument):
            make_grid(bad)
        with pytest.raises(InvalidArgument):
            Grid(bad)

    def test_numpy_integer_count_accepted(self):
        g = make_grid(np.int64(9))
        assert g == make_grid(9) and type(g.n_nodes) is int

    def test_grid_builds_its_nodes(self):
        # nodes are not an input, so equal grids carry equal nodes
        with pytest.raises(TypeError):
            Grid(257, np.linspace(0.0, 1.0, 257))
        g = Grid(257)
        assert g == make_grid(257) and g is not make_grid(257)
        assert np.array_equal(g.nodes, make_grid(257).nodes)
        assert g.cos2_mass == pytest.approx(np.pi / 2, rel=1e-14)
        with pytest.raises(ValueError):
            g.nodes[0] = 0.0


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
        f = sampled(g, lambda x: 2j * np.cos(x))
        assert f.sup_norm == pytest.approx(2.0)

    def test_values_read_only(self):
        g = make_grid(9)
        f = sampled(g, np.cos)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestIntegrate:
    def test_cos_squared(self):
        g = make_grid(257)
        f = sampled(g, lambda x: np.cos(x) ** 2)
        assert integrate(f) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_cos_fourth(self):
        # the bulk coefficient of the cubic forcing: int cos^4 = 3 pi / 8
        g = make_grid(257)
        f = sampled(g, lambda x: np.cos(x) ** 4)
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
            f = sampled(g, lambda x: np.cos(x) ** 4)
            assert abs(integrate(f) - 3 * np.pi / 8) < 1e-14

    def test_fourth_order_on_generic_smooth(self):
        # the h^4 law needs a non-periodic integrand to be visible
        exact = 2 * np.sinh(np.pi / 2)
        errs = []
        for n in (129, 257):
            g = make_grid(n)
            f = sampled(g, np.exp)
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


def _running_integral_reference(g, h):
    """The 4-point cell rules written out one cell at a time."""
    n = len(g)
    cells = [(9 * g[0] + 19 * g[1] - 5 * g[2] + g[3]) / 24.0]
    for i in range(1, n - 2):
        cells.append((-g[i - 1] + 13 * g[i] + 13 * g[i + 1] - g[i + 2]) / 24.0)
    cells.append((g[-4] - 5 * g[-3] + 19 * g[-2] + 9 * g[-1]) / 24.0)
    out = [0.0 * g[0]]
    for c in cells:
        out.append(out[-1] + c)
    return np.array(out) * h


PAYLOAD_NAN = np.array([0x7FF8_0000_0000_1234], dtype=np.uint64).view(float)[0]


class TestKernelsBitIdentical:
    @pytest.mark.parametrize("n", [5, 7, 257])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_running_integral_matches_cell_rules(self, n, kind):
        rng = np.random.default_rng(n)
        # the one caller passes complex rows: real ones as real-valued complex
        g = rng.standard_normal(n) + 0j
        if kind == "complex":
            g = g + 1j * rng.standard_normal(n)
        h = np.pi / (n - 1)
        assert np.array_equal(running_integral(g, h), _running_integral_reference(g, h))
        # stacked rows integrate along the last axis, each row as if alone
        rows = np.stack([g, g[::-1], 3.0 * g])
        stacked = running_integral(rows, h)
        assert stacked.shape == rows.shape
        for row, out in zip(rows, stacked):
            assert np.array_equal(out, _running_integral_reference(row, h))

    @pytest.mark.parametrize("n", [5, 7, 257])
    def test_sweep_wide_block_integrates_each_row_as_alone(self, n):
        # a (16, 2, n) block, the envelope pair of 16 sweep rows, takes
        # its end cells in numpy; each row integral alone takes the Python
        # path.  A row keeps the bits of its integral alone where that is
        # finite, and is not finite where it is not; a NaN's bits may differ
        rng = np.random.default_rng(n)
        block = rng.standard_normal((16, 2, n)) + 1j * rng.standard_normal((16, 2, n))
        block[2, 1, :4] = 1e308  # finite samples whose first cell overflows
        block[3, 1, [0, 3]] = complex(-np.inf, 1.0), complex(0.5, PAYLOAD_NAN)
        block[9, 0, -4:-2] = complex(np.inf, 0.0), complex(PAYLOAD_NAN, 1.0)
        block[12, 0, 1] = complex(np.nan, 2.0)
        h = np.pi / (n - 1)
        with np.errstate(invalid="ignore", over="ignore"):
            out = running_integral(block, h)
            alone = [[running_integral(row, h) for row in pair] for pair in block]
        assert out.shape == block.shape
        assert np.isfinite(block[2]).all() and not np.isfinite(out[2, 1, 1])
        assert not np.isfinite(out[3, 1, 1:]).any() and np.isfinite(out[4]).all()
        for pair, pair_alone in zip(out, alone):
            for row, row_alone in zip(pair, pair_alone):
                finite = np.isfinite(row)
                assert np.array_equal(finite, np.isfinite(row_alone))
                assert np.array_equal(row[finite].view(np.uint64),
                                      row_alone[finite].view(np.uint64))

    @pytest.mark.parametrize("n", [5, 7, 129, 257, 513, 1025])
    def test_block_row_sums_match_one_row_dot(self, n):
        # one call sums every row of a block to the bits of weights_c.dot(row)
        g = make_grid(n)
        rng = np.random.default_rng(n)

        def noise():
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        rows = [noise() * scale for scale in np.logspace(-300, 300, 13)]
        rows.append(rng.integers(-50, 50, n) * 5e-324 + 1j * rng.integers(-50, 50, n) * 5e-324)
        rows.append(np.copysign(0.0, rng.standard_normal(n))
                    + 1j * np.copysign(0.0, rng.standard_normal(n)))
        payload_nan = np.array([0x7FF8_0000_0000_1234], dtype=np.uint64).view(float)[0]
        for bad in (np.inf, -np.inf, complex(0.0, np.inf), payload_nan,
                    complex(1.0, payload_nan)):
            row = noise()
            row[rng.integers(n)] = bad
            rows.append(row)
        rows = np.array(rows)
        # _envelope_pair sums the contiguous half pair[0] of a (2, B, n) pair;
        # strided rows, such as pair[:, 0, :] of a (B, 2, n) stack, sum the same
        pair = np.stack([rows, noise() * np.ones_like(rows)], axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            for block in (rows, pair[:, 0, :], rows[:3], rows[::-1]):
                sums = _row_sums(block, g)
                one = np.array([g.weights_c.dot(row) for row in block])
                assert sums.shape == (len(block), 1)
                assert np.array_equal(sums[:, 0].view(np.uint64), one.view(np.uint64))

    @pytest.mark.parametrize("n", [5, 257, 1025])
    def test_tan_and_cos2_mass_tables(self, n):
        g = make_grid(n)
        cos, sin = np.cos(g.nodes), np.sin(g.nodes)
        assert np.array_equal(g.tan_c[1:-1], sin[1:-1] / cos[1:-1])
        assert g.tan_c[0] == 0 and g.tan_c[-1] == 0
        assert g.cos2_mass == np.dot(g.weights, cos * cos)
        assert not g.tan_c.flags.writeable
        with pytest.raises(ValueError):
            g.tan_c[0] = 0.0
        with pytest.raises(AttributeError):
            g.cos2_mass = 1.0

"""Property tests of invariants the solvers and sweeps rely on."""
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cglvortex import (
    CoreParams,
    GridFunction,
    InvalidArgument,
    SweepRecord,
    SweepSpec,
    apply_green_op,
    cubic_forcing,
    emit_results,
    enforce_solvability,
    load_records,
    make_grid,
    project_mean,
    run_sweep,
    solvability_residual,
    solve,
)
from cglvortex.reduction import DEFAULT_NODES
from cglvortex.sweep import CSV_COLUMNS, METHODS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)

GRID = make_grid(129)
# the rectangle points of acceptance criterion 6
CRITERION6_POINTS = [
    -3.5 + 0.75j, -2.0 + 1.5j, -1.0 + 0.25j, -0.5 + 1.0j, 0.5 + 0.5j,
    1.0 + 0.0j, 1.5 + 1.25j, 2.0 + 0.5j, 3.0 + 1.0j, 3.5 + 1.5j,
]

# inside the default rectangle's convergence region at |eps| <= 0.8
rhos = st.builds(
    complex,
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-1.5, 1.5, allow_nan=False),
)
moduli = st.floats(0.3, 0.8, allow_nan=False)
not_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# coefficients of cos x, sin x, cos 2x, sin 2x, ...
trig_coeffs = st.lists(
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
)


def trig(coeffs):
    x = GRID.nodes
    vals = np.zeros(GRID.n_nodes, dtype=complex)
    for k, c in enumerate(coeffs):
        vals += c * (np.cos, np.sin)[k % 2]((k // 2 + 1) * x)
    return GridFunction(GRID, vals)


phases = st.floats(0.0, 2 * np.pi, allow_nan=False)
# examples per method: shooting is the slowest solver
PER_METHOD = pytest.mark.parametrize("method,examples", [
    pytest.param("fixed_point", 25, id="fixed_point"),
    pytest.param("finite_difference", 25, id="finite_difference"),
    pytest.param("shooting", 10, id="shooting"),
])


@PER_METHOD
def test_r_gauge_invariant(method, examples):
    # eps -> e^{i theta} eps multiplies U by the same phase and keeps r:
    # every solver solves at kappa = rho |eps|^2 and only the rescale
    # rounds.  The unrotated eps is abs(eps), so that both solves see the
    # same kappa to the bit
    @settings(PROPERTY, max_examples=examples)
    @given(rho=rhos, modulus=moduli, theta=phases)
    def check(rho, modulus, theta):
        eps = modulus * np.exp(1j * theta)
        b = solve(method, rho, abs(eps), GRID)
        rot = solve(method, rho, eps, GRID)
        assert b.converged and rot.converged
        assert rot.iterations == b.iterations
        assert abs(rot.r - b.r) <= 2e-15 * abs(b.r)
        phase = eps / abs(eps)
        assert np.max(np.abs(rot.U.values - phase * b.U.values)) <= 2e-15 * abs(eps)

    check()


@PER_METHOD
def test_amplitude_covariance(method, examples):
    # U = eps W and r = |eps|^2 s: solving at (rho, eps) is solving at
    # (rho |eps|^2, 1) and scaling back; kappa is drawn where every method
    # converges at eps = 1.  At the criterion-6 points, on the CLI's
    # default grid, (rho / 4, eps = 2i) is kappa = rho to the bit
    # (|2i|^2 = 4): the same iterations to the same verdict as at
    # (rho, eps = 1), with r four times as large within 1e-15 relative
    grid = make_grid(DEFAULT_NODES)
    for rho in CRITERION6_POINTS:
        one = solve(method, rho, 1.0, grid)
        b = solve(method, rho / 4, 2j, grid)
        assert one.converged, rho
        assert (b.converged, b.iterations) == (one.converged, one.iterations), rho
        assert abs(b.r - 4 * one.r) <= 1e-15 * abs(4 * one.r), rho

    @settings(PROPERTY, max_examples=examples)
    @given(kappa=rhos, modulus=st.floats(0.3, 2.0, allow_nan=False), theta=phases)
    @example(kappa=1e-3 * 0.3**2, modulus=0.3, theta=0.0)
    def check(kappa, modulus, theta):
        eps = modulus * np.exp(1j * theta)
        rho = kappa / abs(eps) ** 2
        b = solve(method, rho, eps, GRID)
        one = solve(method, rho * abs(eps) ** 2, 1.0, GRID)
        assert (b.converged, b.iterations) == (one.converged, one.iterations)
        assert np.max(np.abs(b.U.values - eps * one.U.values)) <= 2e-15 * b.U.sup_norm
        assert abs(b.r - abs(eps) ** 2 * one.r) <= 2e-15 * abs(b.r)

    check()


@PER_METHOD
def test_conjugate_rho_conjugates_branch(method, examples):
    # mirror_conjugate relies on this: rho -> conj rho gives conj r, conj U
    @settings(PROPERTY, max_examples=examples)
    @given(rho=rhos, eps=moduli)
    def check(rho, eps):
        b = solve(method, rho, eps, GRID)
        c = solve(method, rho.conjugate(), eps, GRID)
        assert b.converged and c.converged
        assert abs(c.r - b.r.conjugate()) <= 1e-12 * max(1.0, abs(b.r))
        assert np.max(np.abs(c.U.values - b.U.values.conjugate())) <= 1e-12 * max(1.0, eps)

    check()


@PROPERTY
@given(coeffs=trig_coeffs)
# all in the cos x mode: enforce_solvability leaves only roundoff, which
# apply_green_op must still accept
@example(coeffs=[0.6875])
def test_green_response_mean_free(coeffs):
    f = enforce_solvability(trig(coeffs))
    assert abs(project_mean(apply_green_op(f))) <= 1e-12


@PROPERTY
@given(coeffs=trig_coeffs, rho=rhos, scale=st.floats(0.0, 1.0, allow_nan=False))
def test_cubic_forcing_solvable(coeffs, rho, scale):
    f = trig(coeffs)
    vals = f.values - project_mean(f)
    w = GridFunction(GRID, scale * vals / max(np.max(np.abs(vals)), 1e-300))
    n = cubic_forcing(w, rho)
    assert abs(solvability_residual(n)) <= 1e-10 * n.sup_norm


@settings(PROPERTY, max_examples=6)
@given(
    method=st.sampled_from(METHODS),
    re=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2, max_size=2),
    im=st.lists(st.floats(0.0, 1.5, allow_nan=False), min_size=2, max_size=2),
    re_steps=st.integers(2, 3),
    eps=moduli,
    warm_start=st.booleans(),
)
def test_sweep_csv_deterministic(method, re, im, re_steps, eps, warm_start):
    spec = SweepSpec(
        mode="rectangle", method=method, eps=eps, n_nodes=65,
        re_min=min(re), re_max=max(re), re_steps=re_steps,
        im_min=min(im), im_max=max(im), im_steps=2, warm_start=warm_start,
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        for path in paths:
            emit_results(run_sweep(spec), "csv", path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# every float, NaN, the infinities and -0.0 among them
cells = st.floats()
counts = st.integers(0, 10**9)
records = st.builds(
    SweepRecord, rho_re=cells, rho_im=cells, method=st.sampled_from(METHODS),
    converged=st.booleans(), r_re=cells, r_im=cells, iterations=counts,
    zero_count=counts, extra_zeros=counts, symmetry_defect=cells,
    min_abs_v=cells, ode_residual=cells, accelerated_at=st.none() | counts,
)
ODD_RECORD = SweepRecord(
    -0.0, math.inf, "shooting", False, math.nan, -math.inf, 0, 0, 0,
    -0.0, 5e-324, 1.7976931348623157e308, accelerated_at=148,
)


def written(rec):
    """The cells of rec as text: -0.0, NaN and the infinities as written."""
    return [repr(getattr(rec, col)) for col in CSV_COLUMNS]


def float_columns(rec, pred):
    """The columns of rec that hold a float satisfying pred."""
    return [col for col in CSV_COLUMNS
            if isinstance(getattr(rec, col), float) and pred(getattr(rec, col))]


def nan_free(rec):
    """rec with its NaN cells as None, so that == holds between NaN cells."""
    return replace(rec, **dict.fromkeys(float_columns(rec, math.isnan)))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(PROPERTY, max_examples=100)
@given(recs=st.lists(records, min_size=1, max_size=4))
@example(recs=[ODD_RECORD])
def test_records_survive_emission(fmt, recs):
    # equality ignores accelerated_at, which is not emitted; JSON writes an
    # infinity as null, which reads back as NaN
    expect = recs
    if fmt == "json":
        expect = [replace(r, **dict.fromkeys(float_columns(r, math.isinf), math.nan)) for r in recs]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"records.{fmt}"
        emit_results(recs, fmt, path)
        back = load_records(path, fmt)
    assert [written(b) for b in back] == [written(r) for r in expect]
    assert [nan_free(b) for b in back] == [nan_free(r) for r in expect]


@PROPERTY
@given(
    bad=not_finite,
    field=st.sampled_from(["rho_re", "rho_im", "eps_re", "eps_im"]),
    finite=st.floats(-10.0, 10.0, allow_nan=False),
)
def test_core_params_reject_nonfinite(bad, field, finite):
    parts = {"rho_re": finite, "rho_im": finite, "eps_re": 1.0, "eps_im": finite}
    parts[field] = bad
    with pytest.raises(InvalidArgument):
        CoreParams(rho=complex(parts["rho_re"], parts["rho_im"]),
                   eps=complex(parts["eps_re"], parts["eps_im"]))


@PROPERTY
@given(rho=rhos, zero=st.sampled_from([0, 0.0, 0j, -0.0]))
def test_core_params_reject_zero_eps(rho, zero):
    with pytest.raises(InvalidArgument):
        CoreParams(rho=rho, eps=zero)

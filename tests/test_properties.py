"""Property tests of invariants the solvers and sweeps rely on."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cglvortex import CoreParams, InvalidArgument, make_grid, solve

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)

GRID = make_grid(129)

# inside the default rectangle's convergence region at |eps| <= 0.8
rhos = st.builds(
    complex,
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-1.5, 1.5, allow_nan=False),
)
moduli = st.floats(0.3, 0.8, allow_nan=False)
not_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@PROPERTY
@given(rho=rhos, modulus=moduli, theta=st.floats(0.0, 2 * np.pi, allow_nan=False))
def test_r_gauge_invariant(rho, modulus, theta):
    # eps -> e^{i theta} eps multiplies U by the same phase and keeps r
    b = solve("fixed_point", rho, modulus, GRID)
    rot = solve("fixed_point", rho, modulus * np.exp(1j * theta), GRID)
    assert b.converged and rot.converged
    assert abs(rot.r - b.r) <= 1e-12 * max(1.0, abs(rho))


@pytest.mark.parametrize("method", ["fixed_point", "finite_difference"])
@PROPERTY
@given(rho=rhos, eps=moduli)
def test_conjugate_rho_conjugates_branch(method, rho, eps):
    # mirror_conjugate relies on this: rho -> conj rho gives conj r, conj U
    b = solve(method, rho, eps, GRID)
    c = solve(method, rho.conjugate(), eps, GRID)
    assert b.converged and c.converged
    assert abs(c.r - b.r.conjugate()) <= 1e-12 * max(1.0, abs(b.r))
    assert np.max(np.abs(c.U.values - b.U.values.conjugate())) <= 1e-12 * max(1.0, eps)


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

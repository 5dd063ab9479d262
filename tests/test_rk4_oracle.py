"""Shooting's RK4 lanes against a plain copy of the lanes, bit for bit.

The library's _rk4_lanes writes every stage into arrays it allocates once
per call and takes the stages in pairs, two stacked stage points in one
force call.  The oracle below is the lanes with one force call per stage
and a fresh array for every stage and every term; each element goes
through the same operations with the same operands in the same order, so
the two must agree in every bit (compared as uint64 views of the float
parts, which also tells -0.0 from 0.0).  The layouts tested include 129
nodes (128 lanes of 16 steps) and 513 nodes (two output intervals per
lane, so the F1 that a pair carries into the next step crosses an output
point).
"""
import numpy as np
import pytest

from cglvortex import make_grid
from cglvortex.direct import (
    _DIRECTION_LAM, _DIRECTION_U, _DIRECTION_V, ESCAPE_CAP, _rk4_lanes, _segments,
)


def _rk4_lanes_oracle(rho, lam, u0, v0, h, stride, m, tangents=True):
    u0 = np.asarray(u0, dtype=complex)
    U = np.empty((7 if tangents else 1,) + u0.shape, dtype=complex)
    V = np.empty_like(U)
    U[0], V[0] = u0, v0
    if tangents:
        U[1:] = _DIRECTION_U[:, None]
        V[1:] = _DIRECTION_V[:, None]
    dlam = _DIRECTION_LAM[4:, None]
    out = np.empty((m + 1,) + U.shape, dtype=complex)
    out[0] = U
    hh = 0.5 * h
    h6 = h / 6.0
    hsq4, hsq2, hsq6 = h * h / 4.0, h * h / 2.0, h * h / 6.0

    c0 = -1.0 - lam

    def force(U):
        u = U[0]
        F = (c0 + rho * (u.real * u.real + u.imag * u.imag)) * U
        if tangents:
            dU = U[1:]
            F[1:] += (2.0 * rho * u) * (u.real * dU.real + u.imag * dU.imag)
            F[5:] -= dlam * u
        return F

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m + 1):
            for _ in range(stride):
                F1 = force(U)
                P = U + hh * V
                F2 = force(P)
                F3 = force(P + hsq4 * F1)
                Q = U + h * V
                F4 = force(Q + hsq2 * F2)
                F23 = F2 + F3
                U = Q + hsq6 * (F1 + F23)
                V = V + h6 * (F1 + 2.0 * F23 + F4)
            out[j] = U
        escaped = not (np.max(np.abs(out[:, 0])) < ESCAPE_CAP
                       and np.all(np.isfinite(U)) and np.all(np.isfinite(V)))
    return None if escaped else (out, U, V)


def _bits(lanes):
    return None if lanes is None else [a.shape for a in lanes] + [
        a.view(float).view(np.uint64).tobytes() for a in lanes]


@pytest.mark.parametrize("tangents", [True, False])
@pytest.mark.parametrize("n_nodes", [9, 33, 129, 257, 513])
def test_lanes_match_oracle_bitwise(n_nodes, tangents):
    # random starts on shooting's layout, with the complex lam shooting
    # passes and with the real rho, lam that a real kappa or a test gives
    stride, h, wseg = _segments(make_grid(n_nodes))
    m, k_seg = wseg.shape[0] - 1, wseg.shape[1]
    rng = np.random.default_rng(n_nodes)
    cases = 0
    for rho, lam in ((2.0 + 0.5j, 1.1 - 0.3j), (-3.5, -2.4 + 0.1j), (4.0, 3.0), (0.0, 0.0)):
        for _ in range(3):
            u0 = rng.normal(size=k_seg) + 1j * rng.normal(size=k_seg)
            v0 = rng.normal(size=k_seg) + 1j * rng.normal(size=k_seg)
            u0[0] = 0.0
            args = (rho, lam, u0, v0, h, stride, m)
            got = _rk4_lanes(*args, tangents=tangents)
            assert _bits(got) == _bits(_rk4_lanes_oracle(*args, tangents=tangents))
            cases += got is not None
    assert cases >= 6  # most lanes stay bounded


@pytest.mark.parametrize("tangents", [True, False])
def test_escape_matches_oracle(tangents):
    args = (9.0, 0.0, np.zeros(2), np.array([1.0, 20.0]), np.pi / 2048, 8, 256)
    assert _rk4_lanes(*args, tangents=tangents) is None
    assert _rk4_lanes_oracle(*args, tangents=tangents) is None

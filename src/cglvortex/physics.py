"""Maps between the physical equation parameters and the reduced ones,
periodic extension of branches, and the time-independent residual of the
rotating-wave substitution in the full equation.

The equation  u_t = (1 + i nu) u_xx + (R - (1 + i mu)|u|^2) u  admits
rotating waves u(x, t) = U(n x) e^{-i omega t}; eliminating time gives the
reduced problem with

    rho = (1 + i mu) / ((1 + i nu) n^2),
    r   = (R + i omega - (1 + i nu) n^2) / (1 + i mu).

We take (mu, nu, n, eps) as inputs and derive (r, R, omega).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ExtensionError, InvalidArgument, InvalidState
from .greens import jump_increment
from .reduction import Branch, asymptotic_r, ode_forcing


def _check_n(n: int) -> None:
    """InvalidArgument unless n is an integer (numpy's too, not a bool),
    n >= 1 and n^2 is a finite float: the parameter maps scale by n^2."""
    square = math.inf
    # a bool is an Integral, and True would pass as n = 1
    if isinstance(n, Integral) and not isinstance(n, bool):
        try:
            square = float(int(n) ** 2)  # int: a numpy square would wrap
        except OverflowError:  # an int square past the float range
            pass
    if not (square < math.inf and n >= 1):
        raise InvalidArgument("n must be >= 1, an integer, with n^2 a finite float")


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of one rotating-wave solution."""

    R: float
    mu: float
    nu: float
    n: int
    omega: float

    def __post_init__(self):
        _check_n(self.n)


def rho_from_physical(mu: float, nu: float, n: int) -> complex:
    """rho = (1 + i mu) / ((1 + i nu) n^2).  InvalidArgument when it is not
    finite or underflows to 0 (nu n^2 past the float range, say): no solve
    has such a rho."""
    _check_n(n)
    rho = complex(1.0, mu) / (complex(1.0, nu) * n * n)
    if not (math.isfinite(rho.real) and math.isfinite(rho.imag)) or rho == 0:
        raise InvalidArgument(
            "rho = (1 + i mu) / ((1 + i nu) n^2) is not finite or underflows to 0")
    return rho


def physical_from_r(r: complex, mu: float, nu: float, n: int) -> PhysParams:
    """Invert the definition of r: R and omega from a computed branch.
    InvalidArgument when r has an infinite part, or when a finite r gives
    an R or omega that is not finite (mu r or nu n^2 past the float range);
    the r of a diverged branch (NaN) gives NaN."""
    _check_n(n)
    if math.isinf(r.real) or math.isinf(r.imag):
        raise InvalidArgument(f"r has an infinite part: {r}")
    z = complex(1.0, mu) * r
    R, omega = z.real + n * n, z.imag + nu * n * n
    if math.isfinite(r.real) and math.isfinite(r.imag) and not (
            math.isfinite(R) and math.isfinite(omega)):
        raise InvalidArgument("R or omega is not finite: (1 + i mu) r or nu n^2 overflows")
    return PhysParams(R=R, mu=mu, nu=nu, n=n, omega=omega)


def mu_nu_from_rho(rho: complex, n: int) -> tuple[float, float]:
    """Dispersion constants (mu, nu) whose reduced parameter equals rho.

    Unique when Im rho is nonzero; a real rho lies in the physical image
    only at rho = 1/n^2 (there mu = nu, normalized to (0, 0))."""
    _check_n(n)
    a, b = rho.real * n * n, rho.imag * n * n
    if abs(b) < 1e-14:
        if abs(a - 1.0) < 1e-12:
            return 0.0, 0.0
        raise InvalidArgument(
            f"rho = {rho} has no physical preimage for n = {n}"
        )
    nu = (a - 1.0) / b
    mu = b + a * nu
    return mu, nu


def asymptotic_physical(eps: complex, mu: float, nu: float, n: int) -> PhysParams:
    """Small-amplitude series for R and omega through fourth order in |eps|:
    the first-order series for r at rho_from_physical(mu, nu, n), mapped
    by physical_from_r.

    Near the bifurcation point omega also satisfies
    omega = mu R + (nu - mu) n^2 + O((R - n^2)^2)."""
    r = asymptotic_r(rho_from_physical(mu, nu, n), eps, 1)
    return physical_from_r(r, mu, nu, n)


@dataclass(frozen=True, eq=False)
class VortexSolution:
    """One 2 pi period of the rotating wave u(x) = U(n x).

    nodes cover [-pi/(2n), -pi/(2n) + 2 pi) uniformly; values sample u,
    envelope samples v(n x) (pi/n periodic in x).  |u| is time
    independent, so the zero set of the wave is stationary."""

    nodes: np.ndarray
    values: np.ndarray
    envelope: np.ndarray
    n: int

    def __post_init__(self):
        for a in (self.nodes, self.values, self.envelope):
            a.setflags(write=False)


# floor of the jump gate; on coarse grids the gate is h^4, the order of the
# Simpson error in int f sin, and either is scaled up by sup|f| for large
# forcings
JUMP_GATE = 1e-10


def extend_solution(branch: Branch, n: int) -> VortexSolution:
    """Periodic extension of a branch to one 2 pi period of u = U(n x).

    The envelope is continued pi-periodically, so the profile obeys
    U(x + pi) = -U(x); that continuation is consistent exactly when the
    envelope jump int f sin of the branch forcing vanishes.  The gate
    rejects a jump above max(JUMP_GATE, h^4) max(1, sup|f|): symmetric
    branches leave only quadrature and solver error, which falls about
    as h^5.
    """
    if not branch.converged:
        raise InvalidState("cannot extend a non-converged branch")
    _check_n(n)
    grid = branch.grid
    m = grid.n_nodes - 1
    h = grid.spacing
    forcing = ode_forcing(branch.v, branch.params.rho, branch.r)
    jump = abs(jump_increment(forcing))
    if jump > max(JUMP_GATE, h**4) * max(1.0, forcing.sup_norm):
        raise ExtensionError(
            f"envelope jump {jump:.3e} blocks the periodic extension"
        )
    v_open = branch.v.values[:-1]
    # one 2 pi period of U in its own argument = two sign-flipped copies,
    # then u(x) = U(n x) tiles that pattern n times
    v_ext = np.tile(v_open, 2 * n)
    j = np.arange(2 * n * m)
    y = -np.pi / 2 + j * h          # argument of U
    x = y / n                        # argument of u
    u_ext = v_ext * np.cos(y)
    return VortexSolution(nodes=x, values=u_ext, envelope=v_ext, n=int(n))


def cgl_residual(sol: VortexSolution, p: PhysParams) -> float:
    """Sup residual of the rotating-wave substitution in the full equation.

    Checks  -i omega u = (1 + i nu) u_xx + (R - (1 + i mu)|u|^2) u  at the
    extension nodes.  u = V C with V the (smooth) envelope and
    C = cos(n x); V is differentiated by cyclic centered differences while
    the cosine factor and its derivatives are exact, so the residual
    carries only the envelope discretization error, O(h^2).
    """
    if p.n != sol.n:
        raise InvalidArgument("solution and parameters disagree in n")
    x = sol.nodes
    hx = x[1] - x[0]
    nn = sol.n
    V = sol.envelope
    u = sol.values
    C = np.cos(nn * x)
    Cp = -nn * np.sin(nn * x)
    # the cyclic neighbours V[i + 1] and V[i - 1], sliced from V padded
    # by its last sample in front and its first behind
    padded = np.concatenate((V[-1:], V, V[:1]))
    after, before = padded[2:], padded[:-2]
    d1 = (after - before) / (2 * hx)
    d2 = (after - 2 * V + before) / (hx * hx)
    u_xx = d2 * C + 2 * d1 * Cp - nn * nn * V * C
    absq = (u * u.conjugate()).real
    resid = (
        -1j * p.omega * u
        - complex(1.0, p.nu) * u_xx
        - (p.R - complex(1.0, p.mu) * absq) * u
    )
    return float(np.max(np.abs(resid)))

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

from dataclasses import dataclass

import numpy as np

from .errors import ExtensionError, InvalidArgument, InvalidState
from .greens import jump_increment
from .reduction import Branch, ode_forcing


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of one rotating-wave solution."""

    R: float
    mu: float
    nu: float
    n: int
    omega: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidArgument("n must be >= 1")


def rho_from_physical(mu: float, nu: float, n: int) -> complex:
    """rho = (1 + i mu) / ((1 + i nu) n^2)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    return complex(1.0, mu) / (complex(1.0, nu) * n * n)


def physical_from_r(r: complex, mu: float, nu: float, n: int) -> PhysParams:
    """Invert the definition of r: R and omega from a computed branch."""
    z = complex(1.0, mu) * r
    return PhysParams(
        R=z.real + n * n, mu=mu, nu=nu, n=n, omega=z.imag + nu * n * n
    )


def r_from_physical(R: float, omega: float, mu: float, nu: float, n: int) -> complex:
    """r = (R + i omega - (1 + i nu) n^2) / (1 + i mu)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    return (complex(R, omega) - complex(1.0, nu) * n * n) / complex(1.0, mu)


def mu_nu_from_rho(rho: complex, n: int) -> tuple[float, float]:
    """Dispersion constants (mu, nu) whose reduced parameter equals rho.

    Unique when Im rho is nonzero; a real rho lies in the physical image
    only at rho = 1/n^2 (there mu = nu, normalized to (0, 0))."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
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


def asymptotic_R(eps: complex, mu: float, nu: float, n: int) -> float:
    """Small-amplitude series for R through fourth order in |eps|."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    s = abs(eps) ** 2
    coef = (1.0 - mu * mu + 2.0 * mu * nu) / (32.0 * n * n * (1.0 + nu * nu))
    return n * n + 0.75 * s * (1.0 - coef * s)


def asymptotic_omega(eps: complex, mu: float, nu: float, n: int) -> float:
    """Small-amplitude series for omega through fourth order in |eps|.

    Near the bifurcation point omega also satisfies
    omega = mu R + (nu - mu) n^2 + O((R - n^2)^2)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    s = abs(eps) ** 2
    coef = (mu * mu * nu + 2.0 * mu - nu) / (32.0 * n * n * (1.0 + nu * nu))
    return nu * n * n + 0.75 * s * (mu - coef * s)


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


# absolute floor of the jump gate; scaled up by sup|f| for large forcings
JUMP_GATE = 1e-10


def extend_solution(
    branch: Branch, n: int, *, enforce_jump_gate: bool = True
) -> VortexSolution:
    """Periodic extension of a branch to one 2 pi period of u = U(n x).

    The envelope is continued pi-periodically, so the profile obeys
    U(x + pi) = -U(x); that continuation is consistent exactly when the
    envelope jump int f sin of the branch forcing vanishes, which the
    gate checks (symmetric branches pass with large margin).
    """
    if not branch.converged:
        raise InvalidState("cannot extend a non-converged branch")
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    if enforce_jump_gate:
        forcing = ode_forcing(branch.v, branch.params.rho, branch.r)
        jump = abs(jump_increment(forcing))
        if jump > JUMP_GATE * max(1.0, forcing.sup_norm):
            raise ExtensionError(
                f"envelope jump {jump:.3e} blocks the periodic extension"
            )
    grid = branch.grid
    m = grid.n_nodes - 1
    h = grid.spacing
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
    d1 = (np.roll(V, -1) - np.roll(V, 1)) / (2 * hx)
    d2 = (np.roll(V, -1) - 2 * V + np.roll(V, 1)) / (hx * hx)
    u_xx = d2 * C + 2 * d1 * Cp - nn * nn * V * C
    absq = (u * u.conjugate()).real
    resid = (
        -1j * p.omega * u
        - complex(1.0, p.nu) * u_xx
        - (p.R - complex(1.0, p.mu) * absq) * u
    )
    return float(np.max(np.abs(resid)))

"""Analytic test problems: exact solutions, sources, and boundary data.

Both catalog families have separable solutions, so every derivative the
right-hand sides need reduces to z-profile derivatives. Profiles of the form

    sum_{j,e} A_{j,e} sin(c z)^j cos(c z)^e * exp(-(a - b sin(c z)) / c)

are closed under d/dz, so `_SineExpProfile` differentiates them mechanically
instead of relying on hand-expanded formulas; the finite-difference
cross-check in the test suite guards the few remaining hand-coded pieces.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import BoundaryData, Field3D, SourceSpec
from .grid import CoefficientProfile, Domain, Grid3D, make_grid, sample_profile
from .stencil import SchemeKind


class _SineExpProfile:
    """A trig polynomial in (sin cz, cos cz), optionally times exp(-(a-b sin cz)/c)."""

    def __init__(self, terms, a, b, c, with_exp=True):
        self.terms = dict(terms)  # (sin_power, cos_power) -> coefficient
        self.a = a
        self.b = b
        self.c = c
        self.with_exp = with_exp

    def derivative(self) -> "_SineExpProfile":
        new = {}

        def add(j, e, coef):
            if coef != 0.0:
                new[(j, e)] = new.get((j, e), 0.0) + coef

        for (j, e), coef in self.terms.items():
            if j >= 1:
                add(j - 1, e + 1, coef * j * self.c)
            if e >= 1:
                add(j + 1, e - 1, -coef * e * self.c)
            if self.with_exp:
                add(j, e + 1, coef * self.b)
        # reduce cos powers via cos^2 = 1 - sin^2 so e stays in {0, 1};
        # one differentiation of an in-range term never pushes e past 2
        reduced = {}

        def put(j, e, coef):
            if coef != 0.0:
                reduced[(j, e)] = reduced.get((j, e), 0.0) + coef

        for (j, e), coef in new.items():
            if e >= 2:
                put(j, e - 2, coef)
                put(j + 2, e - 2, -coef)
            else:
                put(j, e, coef)
        return _SineExpProfile(reduced, self.a, self.b, self.c, self.with_exp)

    def __call__(self, z):
        s = np.sin(self.c * z)
        w = np.cos(self.c * z)
        total = np.zeros(np.shape(s) or (), dtype=float)
        for (j, e), coef in self.terms.items():
            total = total + coef * s**j * w**e
        if self.with_exp:
            total = total * np.exp(-(self.a - self.b * s) / self.c)
        return total


@dataclass
class ProblemSpec:
    """A fully specified boundary-value problem ready for the direct solver."""

    scheme: SchemeKind
    grid: Grid3D
    profile: CoefficientProfile
    source: SourceSpec
    boundary: BoundaryData
    analytic: Optional[Callable] = None
    label: str = ""
    pde_residual: Optional[Callable] = None  # continuous-equation residual, for checks


def helmholtz_problem(a: float, b: float, c: float, beta: float, gamma: float,
                      scheme: SchemeKind, n: int) -> ProblemSpec:
    """Wave problem on [0, pi]^3 with coefficient k(z) = a - b sin(c z).

    The exact solution sin(beta x) sin(gamma y) exp(-k(z)/c) requires
    beta^2 + gamma^2 = a^2 + b^2; the matching source is
    -b (2a + c) sin(c z) exp(-k(z)/c) sin(beta x) sin(gamma y).
    """
    if n < 1:
        raise ValueError(f"grid count must be >= 1, got {n}")
    if c == 0:
        raise ValueError("c must be nonzero")
    if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
        raise ValueError("wave problems pair with the 2/4/6 schemes only")
    lhs, rhs = beta**2 + gamma**2, a**2 + b**2
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
        raise ValueError(
            f"solution constraint violated: beta^2 + gamma^2 = {lhs} != a^2 + b^2 = {rhs}")

    domain = Domain(0.0, math.pi, 0.0, math.pi, 0.0, math.pi)
    grid = make_grid(domain, n, n, n)

    k2_fn = lambda z: (a - b * np.sin(c * z)) ** 2
    k2_z_fn = lambda z: -2.0 * b * c * np.cos(c * z) * (a - b * np.sin(c * z))
    k2_zz_fn = lambda z: (2.0 * b**2 * c**2 * np.cos(c * z) ** 2
                          + 2.0 * b * c**2 * np.sin(c * z) * (a - b * np.sin(c * z)))
    profile = sample_profile(k2_fn, k2_z_fn, k2_zz_fn, 0.0, grid)

    # z-profiles: g for the solution, psi = sin(cz) g for the source
    g = _SineExpProfile({(0, 0): 1.0}, a, b, c)
    g2 = g.derivative().derivative()
    psi = [_SineExpProfile({(1, 0): 1.0}, a, b, c)]
    for _ in range(4):
        psi.append(psi[-1].derivative())

    c0 = -b * (2.0 * a + c)
    bx, gy = beta, gamma

    def u(x, y, z):
        return np.sin(bx * x) * np.sin(gy * y) * g(z)

    def angular(x, y):
        return np.sin(bx * x) * np.sin(gy * y)

    def separable(*terms):
        # c0 * angular(x, y) * sum(coef * psi[k](z)): the z sum is formed on
        # the column, then one n^3 product; f, f_z and f_zz (one term with
        # coef 1) keep the factor order of c0 * angular * psi bit for bit
        def fn(x, y, z):
            column = sum(coef * psi[k](z) for coef, k in terms)
            return c0 * angular(x, y) * column
        return fn

    source = SourceSpec(f=separable((1.0, 0)), f_z=separable((1.0, 1)),
                        f_xx=separable((-bx**2, 0)), f_yy=separable((-gy**2, 0)),
                        f_zz=separable((1.0, 2)),
                        lap_f=separable((-(bx**2 + gy**2), 0), (1.0, 2)),
                        d4_f=separable((bx**4 + gy**4, 0), (1.0, 4)),
                        f_xxyy=separable((bx**2 * gy**2, 0)),
                        f_xxzz=separable((-bx**2, 2)), f_yyzz=separable((-gy**2, 2)))

    def pde_residual(x, y, z):
        # laplacian(u) + k^2 u - f, assembled from the closed forms
        lap_u = -(bx**2 + gy**2) * u(x, y, z) + angular(x, y) * g2(z)
        return lap_u + k2_fn(z) * u(x, y, z) - source.f(x, y, z)

    return ProblemSpec(
        scheme=scheme,
        grid=grid,
        profile=profile,
        source=source,
        boundary=BoundaryData.from_function(u),
        analytic=u,
        label=f"helmholtz a={a} b={b} c={c} beta={beta} gamma={gamma}",
        pde_residual=pde_residual,
    )


def convdiff_problem(gamma: float, n: int) -> ProblemSpec:
    """Convection-diffusion on [0, sqrt 2]^2 x [0, 1] with zero source.

    The solution sin(pi x / sqrt 2) sin(pi y / sqrt 2) Z(z) interpolates
    boundary values 1x and 2x the horizontal mode at z = 0 and z = 1; Z is a
    combination of exp((-gamma/2 +- sigma) z) with sigma = sqrt(pi^2 + gamma^2/4),
    evaluated in a scaled form that stays finite for strongly convective gamma.
    """
    if n < 1:
        raise ValueError(f"grid count must be >= 1, got {n}")
    gamma = float(gamma)  # rejects complex input
    if gamma == 0.0:
        raise ValueError("convection coefficient must be nonzero")

    root2 = math.sqrt(2.0)
    domain = Domain(0.0, root2, 0.0, root2, 0.0, 1.0)
    grid = make_grid(domain, n, n, n)
    profile = CoefficientProfile(
        k2=np.zeros(n + 2, dtype=complex),
        k2_z=np.zeros(n + 2, dtype=complex),
        k2_zz=np.zeros(n + 2, dtype=complex),
        gamma=complex(gamma),
    )

    sigma = math.sqrt(math.pi**2 + gamma**2 / 4.0)
    r_plus = -gamma / 2.0 + sigma
    r_minus = -gamma / 2.0 - sigma
    # Z(z) = (e^{-gamma z/2} [2 e^{gamma/2} sinh(sigma z) + sinh(sigma(1-z))]) / sinh(sigma)
    # rewritten with decayed exponentials so nothing overflows for |gamma| ~ 100
    decay = math.exp(-2.0 * sigma)
    denom = 1.0 - decay
    q = math.exp(gamma / 2.0 - sigma)
    amp_plus = (2.0 * q - decay) / denom
    amp_minus = (1.0 - 2.0 * q) / denom

    p = math.pi / root2

    def z_profile(z, order=0):
        return (amp_plus * r_plus**order * np.exp(r_plus * z)
                + amp_minus * r_minus**order * np.exp(r_minus * z))

    def u(x, y, z):
        return np.sin(p * x) * np.sin(p * y) * z_profile(z)

    def pde_residual(x, y, z):
        ang = np.sin(p * x) * np.sin(p * y)
        lap_u = -2.0 * p**2 * ang * z_profile(z) + ang * z_profile(z, order=2)
        return lap_u + gamma * ang * z_profile(z, order=1)

    return ProblemSpec(
        scheme=SchemeKind.CONVECTION_DIFFUSION_4,
        grid=grid,
        profile=profile,
        source=SourceSpec.zero(),
        boundary=BoundaryData.from_function(u),
        analytic=u,
        label=f"convdiff gamma={gamma}",
        pde_residual=pde_residual,
    )


def error_metrics(u_numeric: Field3D, analytic, grid: Grid3D):
    """(max_err, rel_l2_err) of a numeric solution against the exact one.

    max_err is the maximum absolute difference over interior nodes; the L2
    error is relative, plain Euclidean norms over interior samples.
    """
    if analytic is None:
        raise ValueError("no analytic solution available")
    x = grid.x_nodes()[None, None, :]
    y = grid.y_nodes()[None, :, None]
    z = grid.z_nodes()[:, None, None]
    exact = np.broadcast_to(np.asarray(analytic(x, y, z), dtype=complex), grid.shape)
    diff = u_numeric.values - exact
    max_err = float(np.abs(diff).max())
    l2_err = float(np.linalg.norm(diff.ravel()) / np.linalg.norm(exact.ravel()))
    return max_err, l2_err

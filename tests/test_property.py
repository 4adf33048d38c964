"""Property tests: the solver against the dense LU oracle on small random cases.

Each catalog case draws anisotropic extents of at most 8 per axis, a scheme,
real or complex k^2(z), right-hand side and walls, and an execution mode
with its worker and part counts, so that both the float64 and the
complex128 path run through every mode. The general cases draw the
coefficient table itself: any real or complex (A, B, C, D) whose spectral
systems are diagonally dominant, solved through solve_stencil. A
deterministic non-catalog member, variable diffusion along z, is checked
against the dense LU and for its second-order convergence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helmfft.assembly import BoundaryData, Field3D
from helmfft.grid import CoefficientProfile, Domain, make_grid
from helmfft.oracle import dense_solve
from helmfft.problems import error_metrics
from helmfft.solver import (Partitioned, Sequential, SharedWorkers, SolverConfig,
                            solve_discrete, solve_stencil)
from helmfft.stencil import SchemeKind, coefficient_table


@st.composite
def modes(draw, n_y, n_z):
    kind = draw(st.sampled_from(["seq", "shared", "parts"]))
    if kind == "seq":
        return Sequential()
    if kind == "shared":
        return SharedWorkers(draw(st.integers(1, min(3, n_z))))
    parts = draw(st.integers(1, min(3, n_y, n_z)))
    return Partitioned(parts, draw(st.integers(1, min(2, n_z // parts))))


@st.composite
def cases(draw):
    n_x, n_y, n_z = (draw(st.integers(1, 8)) for _ in range(3))
    scheme = draw(st.sampled_from(list(SchemeKind)))
    if scheme is SchemeKind.SIXTH_ORDER:  # its weights need one step in all directions
        h = draw(st.sampled_from([0.125, 0.25, 0.5]))  # (h (n + 1)) / (n + 1) == h
        domain = Domain(0, h * (n_x + 1), 0, h * (n_y + 1), 0, h * (n_z + 1))
    else:
        domain = Domain(0, draw(st.floats(0.5, 4.0)), 0, draw(st.floats(0.5, 4.0)),
                        0, draw(st.floats(0.5, 4.0)))
    complex_k2, complex_rhs, complex_walls = (draw(st.booleans()) for _ in range(3))
    return {"grid": make_grid(domain, n_x, n_y, n_z), "scheme": scheme,
            "complex_k2": complex_k2, "complex_rhs": complex_rhs,
            "complex_walls": complex_walls, "mode": draw(modes(n_y, n_z)),
            "seed": draw(st.integers(0, 2**32 - 1))}


def random_values(rng, shape, is_complex):
    values = rng.standard_normal(shape)
    return values + 1j * rng.standard_normal(shape) if is_complex else values


@settings(max_examples=60, deadline=None)
@given(cases())
def test_solver_matches_dense_oracle(case):
    grid, scheme = case["grid"], case["scheme"]
    rng = np.random.default_rng(case["seed"])
    n = grid.n_z + 2
    if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
        gamma = rng.uniform(-4, 4) + (1j * rng.uniform(-2, 2) if case["complex_k2"] else 0)
        profile = CoefficientProfile(np.zeros(n, complex), np.zeros(n, complex),
                                     np.zeros(n, complex), complex(gamma))
    else:
        # k^2 <= 0 keeps every spectral system away from resonance
        k2 = -rng.uniform(0.5, 3.0, n) / grid.h_z**2 * 0.1
        if case["complex_k2"]:
            k2 = k2 + 1j * rng.uniform(-1, 1, n)
        profile = CoefficientProfile(k2.astype(complex),
                                     rng.uniform(-1, 1, n).astype(complex),
                                     rng.uniform(-1, 1, n).astype(complex))
    rhs = Field3D(random_values(rng, grid.shape, case["complex_rhs"]))
    walls = BoundaryData.from_array(
        random_values(rng, (n, grid.n_y + 2, grid.n_x + 2), case["complex_walls"]))

    u, _ = solve_discrete(rhs, walls, scheme, profile, grid,
                          SolverConfig(mode=case["mode"]))
    real = not (case["complex_k2"] or case["complex_rhs"] or case["complex_walls"])
    assert u.values.dtype == (np.float64 if real else np.complex128)
    expect = dense_solve(rhs.values, walls.closed_box(grid),
                         coefficient_table(scheme, profile, grid), grid)
    scale = np.abs(expect).max()
    assert np.abs(u.ravel() - expect).max() <= 1e-11 * scale, case


def random_table(rng, n_z, is_complex):
    """An (A, B, C, D) table whose spectral systems are diagonally dominant.

    For every mode the eigenvalue of a level operator is at most
    4|a| + 2|b| + 2|c| + |d| in magnitude and that of the row's own level at
    least |d| - 4|a| - 2|b| - 2|c|, so a centre weight larger than all these
    bounds by a margin keeps each tridiagonal system away from resonance and
    its elimination stable without pivoting.
    """
    A, B, C, D = (random_values(rng, (n_z, 3), is_complex) for _ in range(4))
    bound = 4 * np.abs(A) + 2 * np.abs(B) + 2 * np.abs(C)
    reach = bound[:, 1] + (bound + np.abs(D))[:, [0, 2]].sum(axis=1)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, n_z)) if is_complex else \
        rng.choice([-1.0, 1.0], n_z)
    D[:, 1] = (reach + rng.uniform(0.5, 2.0, n_z)) * phase
    return A, B, C, D


@st.composite
def table_cases(draw):
    n_x, n_y, n_z = (draw(st.integers(1, 8)) for _ in range(3))
    domain = Domain(0, draw(st.floats(0.5, 4.0)), 0, draw(st.floats(0.5, 4.0)),
                    0, draw(st.floats(0.5, 4.0)))
    complex_table, complex_rhs, complex_walls = (draw(st.booleans()) for _ in range(3))
    return {"grid": make_grid(domain, n_x, n_y, n_z), "complex_table": complex_table,
            "complex_rhs": complex_rhs, "complex_walls": complex_walls,
            "mode": draw(modes(n_y, n_z)), "seed": draw(st.integers(0, 2**32 - 1))}


@settings(max_examples=60, deadline=None)
@given(table_cases())
def test_random_table_matches_dense_oracle(case):
    grid = case["grid"]
    rng = np.random.default_rng(case["seed"])
    table = random_table(rng, grid.n_z, case["complex_table"])
    rhs = Field3D(random_values(rng, grid.shape, case["complex_rhs"]))
    walls = BoundaryData.from_array(random_values(
        rng, (grid.n_z + 2, grid.n_y + 2, grid.n_x + 2), case["complex_walls"]))

    u, _ = solve_stencil(table, rhs, walls, grid, SolverConfig(mode=case["mode"]))
    real = not (case["complex_table"] or case["complex_rhs"] or case["complex_walls"])
    assert u.values.dtype == (np.float64 if real else np.complex128)
    expect = dense_solve(rhs.values, walls.closed_box(grid), table, grid)
    scale = np.abs(expect).max()
    assert np.abs(u.ravel() - expect).max() <= 1e-11 * scale, case


# variable diffusion d/dz(kappa(z) du/dz) + u_xx + u_yy = f on the unit cube,
# with kappa = 1 + z^2 and u = sin(x) cos(y) exp(z), so f = (z^2 + 2z - 1) u
def kappa(z):
    return 1.0 + z**2


def exact(x, y, z):
    return np.sin(x) * np.cos(y) * np.exp(z)


def diffusion_table(grid):
    """Second-order weights, scaled by h_z^2: kappa at the half levels
    couples the levels below and above, and the centre balances the row."""
    z = grid.z_nodes()
    k_lo, k_hi = kappa(z - grid.h_z / 2), kappa(z + grid.h_z / 2)
    r_zx, r_zy = grid.h_z**2 / grid.h_x**2, grid.h_z**2 / grid.h_y**2
    A, B, C, D = (np.zeros((grid.n_z, 3)) for _ in range(4))
    B[:, 1], C[:, 1] = r_zx, r_zy
    D[:, 0], D[:, 2] = k_lo, k_hi
    D[:, 1] = -(k_lo + k_hi) - 2.0 * (r_zx + r_zy)
    return A, B, C, D


def diffusion_solve(n, mode=Sequential()):
    grid = make_grid(Domain(0, 1, 0, 1, 0, 1), n, n, n)
    x, y = grid.x_nodes()[None, None, :], grid.y_nodes()[None, :, None]
    z = grid.z_nodes()[:, None, None]
    rhs = Field3D(grid.h_z**2 * (z**2 + 2 * z - 1) * exact(x, y, z))
    walls = BoundaryData.from_function(exact)
    table = diffusion_table(grid)
    u, _ = solve_stencil(table, rhs, walls, grid, SolverConfig(mode=mode))
    return grid, table, rhs, walls, u


def test_variable_diffusion_matches_dense_lu():
    for mode in (Sequential(), SharedWorkers(2), Partitioned(2), Partitioned(3, 2)):
        grid, table, rhs, walls, u = diffusion_solve(7, mode)
        assert u.values.dtype == np.float64
        expect = dense_solve(rhs.values, walls.closed_box(grid), table, grid)
        assert np.abs(u.ravel() - expect).max() <= 1e-12 * np.abs(expect).max(), mode


def test_variable_diffusion_second_order():
    errors = []
    for n in (15, 31):
        grid, _, _, _, u = diffusion_solve(n)
        errors.append(error_metrics(u, exact, grid)[0])
    order = np.log2(errors[0] / errors[1])  # h = 1/16 and 1/32
    assert 1.9 <= order <= 2.1, (errors, order)

"""Property test: the solver against the dense LU oracle on small random cases.

Each case draws anisotropic extents of at most 8 per axis, a scheme, real or
complex k^2(z), right-hand side and walls, and an execution mode with its
worker and part counts, so that both the float64 and the complex128 path
run through every mode.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helmfft.assembly import BoundaryData, Field3D
from helmfft.grid import CoefficientProfile, Domain, make_grid
from helmfft.oracle import dense_solve
from helmfft.solver import (Partitioned, Sequential, SharedWorkers, SolverConfig,
                            solve_discrete)
from helmfft.stencil import SchemeKind


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
    expect = dense_solve(rhs.values, walls.closed_box(grid), scheme, profile, grid)
    scale = np.abs(expect).max()
    assert np.abs(u.ravel() - expect).max() <= 1e-11 * scale, case

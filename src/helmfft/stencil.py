"""27-point stencil weights as one table per scheme, and the sine modes' cosines.

Every scheme couples three consecutive z-levels. At a given row level l the
weights form a 3 x 3 x 3 cube described by four values per level nu in
{l-1, l, l+1}:

    a_nu  -> the four corner neighbors (i +- 1, j +- 1) of level nu
    b_nu  -> the two x-neighbors (i +- 1, j)
    c_nu  -> the two y-neighbors (i, j +- 1)
    d_nu  -> the center (i, j)

`coefficient_table` turns a scheme and a sampled profile into these weights
for every row at once: four (n_z, 3) arrays (A, B, C, D), row level by level
offset. That table is the operator; the fold, the residual, the spectral
sweep and the dense oracle all take it, so any table of this form is solved
the same way (see solver.solve_stencil), not only the catalog schemes.

The in-plane operator built from one level's (a, b, c, d) is diagonalized by
the 2D type-I sine basis, with eigenvalues in closed form

    4 a cos(pi n / (n_x+1)) cos(pi m / (n_y+1))
      + 2 b cos(pi n / (n_x+1)) + 2 c cos(pi m / (n_y+1)) + d

built from the cosines of `mode_cosines`. The sweep's kernel evaluates
them in registers as ((4a cxy + 2b cx) + 2c cy) + d with cxy = cy cx
(see tridiag); `oracle.eigenvalue` evaluates one mode.

The system is scaled so that the right-hand side is h_z^2 times the scheme's
source functional (see assembly.build_rhs); the weights below already include
that scaling via the step ratios R_zx = h_z^2/h_x^2 and R_zy = h_z^2/h_y^2.
"""

import enum

import numpy as np

from .errors import UnsupportedSchemeError, check_finite
from .grid import CoefficientProfile, Grid3D


class SchemeKind(enum.Enum):
    SECOND_ORDER = "2"
    FOURTH_ORDER = "4"
    SIXTH_ORDER = "6"
    CONVECTION_DIFFUSION_4 = "cd4"


def coefficient_table(scheme: SchemeKind, profile: CoefficientProfile, grid: Grid3D):
    """All row weights as complex (n_z, 3) arrays (A, B, C, D).

    Row index is 0-based (row 0 is level l = 1); the second axis is the level
    offset + 1, so [:, 0] is level l-1, [:, 1] level l and [:, 2] level l+1.
    The weights depend on z only, so the table is O(n_z) in memory and is
    built for all rows at once. The profile is checked first (see
    check_profile).

    Second order has five nonzero weights per row. Fourth order is compact,
    with corners on the center level only. Sixth order needs one step in
    every direction. Convection-diffusion is the fourth-order table (the
    profile must carry k2 = 0) with the up and down levels skewed by the
    convection number g = gamma h_z, so gamma = 0 gives the fourth-order
    table bit for bit.
    """
    check_profile(profile, grid)
    n_z = grid.n_z
    A, B, C, D = (np.zeros((n_z, 3), dtype=complex) for _ in range(4))
    hz2 = grid.h_z**2
    r_zx, r_zy = hz2 / grid.h_x**2, hz2 / grid.h_y**2
    k2m, k2c, k2p = profile.k2[:n_z], profile.k2[1:n_z + 1], profile.k2[2:n_z + 2]

    if scheme is SchemeKind.SECOND_ORDER:
        B[:, 1] = r_zx
        C[:, 1] = r_zy
        D[:, 0] = D[:, 2] = 1.0
        D[:, 1] = -2.0 * (r_zx + r_zy + 1.0) + hz2 * k2c

    elif scheme is SchemeKind.SIXTH_ORDER:
        if not grid.uniform:
            raise UnsupportedSchemeError(
                f"sixth-order scheme needs h_x = h_y = h_z, "
                f"got ({grid.h_x}, {grid.h_y}, {grid.h_z})"
            )
        h = grid.h_z
        h2, h3, h4 = h**2, h**3, h**4
        k2z = profile.k2_z[1:n_z + 1]
        k2zz = profile.k2_zz[1:n_z + 1]
        A[:, 0] = A[:, 2] = 1.0 / 30.0
        B[:, 0] = C[:, 0] = 1.0 / 10.0 + h2 * k2m / 90.0 - h3 * k2z / 120.0
        B[:, 2] = C[:, 2] = 1.0 / 10.0 + h2 * k2p / 90.0 + h3 * k2z / 120.0
        D[:, 0] = 7.0 / 15.0 - h2 * k2m / 90.0 - (h3 * k2z / 20.0) * (1.0 / 3.0 + h2 * k2m / 6.0)
        D[:, 2] = 7.0 / 15.0 - h2 * k2p / 90.0 + (h3 * k2z / 20.0) * (1.0 / 3.0 + h2 * k2p / 6.0)
        A[:, 1] = 1.0 / 10.0 + h2 * k2c / 90.0
        B[:, 1] = C[:, 1] = 7.0 / 15.0 - h2 * k2c / 90.0
        # np.power, not **: an array's square is a product, which rounds
        # differently from the scalar power
        D[:, 1] = (-64.0 / 15.0 + 14.0 * h2 * k2c / 15.0 - h4 * np.power(k2c, 2.0) / 20.0
                   + h4 * k2zz / 20.0)

    elif scheme in (SchemeKind.FOURTH_ORDER, SchemeKind.CONVECTION_DIFFUSION_4):
        if scheme is SchemeKind.CONVECTION_DIFFUSION_4 and profile.k2.any():
            raise ValueError("convection-diffusion weights expect a zero k^2 profile")
        B[:, 0] = B[:, 2] = (1.0 + r_zx) / 12.0
        C[:, 0] = C[:, 2] = (1.0 + r_zy) / 12.0
        D[:, 0] = 2.0 / 3.0 - (r_zx + r_zy) / 6.0 + hz2 * k2m / 12.0
        D[:, 2] = 2.0 / 3.0 - (r_zx + r_zy) / 6.0 + hz2 * k2p / 12.0
        A[:, 1] = (r_zx + r_zy) / 12.0
        B[:, 1] = (4.0 * r_zx - r_zy - 1.0 + hz2 * k2c / 2.0) / 6.0
        C[:, 1] = (4.0 * r_zy - r_zx - 1.0 + hz2 * k2c / 2.0) / 6.0
        D[:, 1] = -4.0 * (1.0 + r_zx + r_zy) / 3.0 + hz2 * k2c / 2.0
        if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
            g = profile.gamma * grid.h_z
            # (1 + R)(2 +- g)/24 written as the diffusion weight times (1 +- g/2)
            B[:, 0] *= 1.0 - g / 2.0
            B[:, 2] *= 1.0 + g / 2.0
            C[:, 0] *= 1.0 - g / 2.0
            C[:, 2] *= 1.0 + g / 2.0
            D[:, 0] -= (g / 12.0) * (4.0 - r_zx - r_zy - g)
            D[:, 2] += (g / 12.0) * (4.0 - r_zx - r_zy + g)
            D[:, 1] -= g**2 / 6.0

    else:
        raise ValueError(f"unknown scheme {scheme}")
    return A, B, C, D


def check_profile(profile: CoefficientProfile, grid: Grid3D):
    """A profile of other than n_z + 2 levels raises ValueError naming both
    lengths; a non-finite value NonFiniteInputError naming the array and the index."""
    if len(profile.k2) != grid.n_z + 2:
        raise ValueError(f"profile has {len(profile.k2)} levels, "
                         f"the grid's closed z-nodes {grid.n_z + 2}")
    for name in ("k2", "k2_z", "k2_zz", "gamma"):
        check_finite(name, np.asarray(getattr(profile, name)))


def check_table(table, grid: Grid3D):
    """table as four complex128 (n_z, 3) arrays (A, B, C, D), every entry finite.

    A wrong count or shape raises ValueError; a non-finite entry raises
    NonFiniteInputError with field "table" and index (l, l + offset) for
    the weight at level l + offset of row level l.
    """
    table = tuple(np.asarray(w, dtype=complex) for w in table)
    shapes = [w.shape for w in table]
    if shapes != [(grid.n_z, 3)] * 4:
        raise ValueError(f"a coefficient table is four ({grid.n_z}, 3) arrays, "
                         f"got shapes {shapes}")
    for w in table:
        check_finite("table", w, lambda idx: (idx[0] + 1, idx[0] + idx[1]))
    return table


def mode_cosines(grid: Grid3D):
    """cos(pi n/(n_x+1)) for n = 1..n_x and cos(pi m/(n_y+1)) for m = 1..n_y."""
    cx = np.cos(np.pi * np.arange(1, grid.n_x + 1) / (grid.n_x + 1))
    cy = np.cos(np.pi * np.arange(1, grid.n_y + 1) / (grid.n_y + 1))
    return cx, cy


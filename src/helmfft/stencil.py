"""27-point stencil weights for each scheme and the plane-operator eigenvalues.

Every scheme couples three consecutive z-levels. At a given row level l the
weights form a 3 x 3 x 3 cube described by four values per level nu in
{l-1, l, l+1}:

    a_nu  -> the four corner neighbors (i +- 1, j +- 1) of level nu
    b_nu  -> the two x-neighbors (i +- 1, j)
    c_nu  -> the two y-neighbors (i, j +- 1)
    d_nu  -> the center (i, j)

The in-plane operator built from one level's (a, b, c, d) is diagonalized by
the 2D type-I sine basis; `eigenvalue_plane` gives its spectrum in closed form

    4 a cos(pi n / (n_x+1)) cos(pi m / (n_y+1))
      + 2 b cos(pi n / (n_x+1)) + 2 c cos(pi m / (n_y+1)) + d

for every mode (n, m) at once (`oracle.eigenvalue` evaluates one mode).

The system is scaled so that the right-hand side is h_z^2 times the scheme's
source functional (see assembly.build_rhs); the weights below already include
that scaling via the step ratios R_zx = h_z^2/h_x^2 and R_zy = h_z^2/h_y^2.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSchemeError
from .grid import CoefficientProfile, Grid3D


class SchemeKind(enum.Enum):
    SECOND_ORDER = "2"
    FOURTH_ORDER = "4"
    SIXTH_ORDER = "6"
    CONVECTION_DIFFUSION_4 = "cd4"


@dataclass(frozen=True)
class StencilCoefficients:
    """Weights (a, b, c, d) at levels (l-1, l, l+1) for one row level.

    Each field is a complex ndarray of shape (3,) indexed by level offset + 1,
    i.e. index 0 is level l-1, index 1 is level l, index 2 is level l+1.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    r_zx: float
    r_zy: float

    def level(self, offset):
        """(a, b, c, d) at level l + offset, offset in {-1, 0, +1}."""
        k = offset + 1
        return self.a[k], self.b[k], self.c[k], self.d[k]

    def row_sum(self):
        """Weighted sum over all 27 positions (4a + 2b + 2c + d per level)."""
        return complex(np.sum(4 * self.a + 2 * self.b + 2 * self.c + self.d))


def _check_level(grid, l):
    if not 1 <= l <= grid.n_z:
        raise IndexError(f"row level {l} outside 1..{grid.n_z}")


def _ratios(grid):
    return grid.h_z**2 / grid.h_x**2, grid.h_z**2 / grid.h_y**2


def coefficients_second(profile: CoefficientProfile, grid: Grid3D, l: int) -> StencilCoefficients:
    """Second-order weights: five nonzero values per row."""
    _check_level(grid, l)
    r_zx, r_zy = _ratios(grid)
    a = np.zeros(3, dtype=complex)
    b = np.zeros(3, dtype=complex)
    c = np.zeros(3, dtype=complex)
    d = np.zeros(3, dtype=complex)
    b[1] = r_zx
    c[1] = r_zy
    d[0] = d[2] = 1.0
    d[1] = -2.0 * (r_zx + r_zy + 1.0) + grid.h_z**2 * profile.k2[l]
    return StencilCoefficients(a, b, c, d, r_zx, r_zy)


def coefficients_fourth(profile: CoefficientProfile, grid: Grid3D, l: int) -> StencilCoefficients:
    """Fourth-order compact weights; corners appear on the center level only."""
    _check_level(grid, l)
    r_zx, r_zy = _ratios(grid)
    hz2 = grid.h_z**2
    k2m, k2c, k2p = profile.k2[l - 1], profile.k2[l], profile.k2[l + 1]

    a = np.zeros(3, dtype=complex)
    b = np.zeros(3, dtype=complex)
    c = np.zeros(3, dtype=complex)
    d = np.zeros(3, dtype=complex)
    b[0] = b[2] = (1.0 + r_zx) / 12.0
    c[0] = c[2] = (1.0 + r_zy) / 12.0
    d[0] = 2.0 / 3.0 - (r_zx + r_zy) / 6.0 + hz2 * k2m / 12.0
    d[2] = 2.0 / 3.0 - (r_zx + r_zy) / 6.0 + hz2 * k2p / 12.0
    a[1] = (r_zx + r_zy) / 12.0
    b[1] = (4.0 * r_zx - r_zy - 1.0 + hz2 * k2c / 2.0) / 6.0
    c[1] = (4.0 * r_zy - r_zx - 1.0 + hz2 * k2c / 2.0) / 6.0
    d[1] = -4.0 * (1.0 + r_zx + r_zy) / 3.0 + hz2 * k2c / 2.0
    return StencilCoefficients(a, b, c, d, r_zx, r_zy)


def coefficients_sixth(profile: CoefficientProfile, grid: Grid3D, l: int) -> StencilCoefficients:
    """Sixth-order compact weights; requires a uniform step in all directions."""
    _check_level(grid, l)
    if not grid.uniform:
        raise UnsupportedSchemeError(
            f"sixth-order scheme needs h_x = h_y = h_z, "
            f"got ({grid.h_x}, {grid.h_y}, {grid.h_z})"
        )
    h = grid.h_z
    h2, h3, h4 = h**2, h**3, h**4
    k2m, k2c, k2p = profile.k2[l - 1], profile.k2[l], profile.k2[l + 1]
    k2z = profile.k2_z[l]
    k2zz = profile.k2_zz[l]

    a = np.zeros(3, dtype=complex)
    b = np.zeros(3, dtype=complex)
    c = np.zeros(3, dtype=complex)
    d = np.zeros(3, dtype=complex)
    a[0] = a[2] = 1.0 / 30.0
    b[0] = c[0] = 1.0 / 10.0 + h2 * k2m / 90.0 - h3 * k2z / 120.0
    b[2] = c[2] = 1.0 / 10.0 + h2 * k2p / 90.0 + h3 * k2z / 120.0
    d[0] = 7.0 / 15.0 - h2 * k2m / 90.0 - (h3 * k2z / 20.0) * (1.0 / 3.0 + h2 * k2m / 6.0)
    d[2] = 7.0 / 15.0 - h2 * k2p / 90.0 + (h3 * k2z / 20.0) * (1.0 / 3.0 + h2 * k2p / 6.0)
    a[1] = 1.0 / 10.0 + h2 * k2c / 90.0
    b[1] = c[1] = 7.0 / 15.0 - h2 * k2c / 90.0
    d[1] = -64.0 / 15.0 + 14.0 * h2 * k2c / 15.0 - h4 * k2c**2 / 20.0 + h4 * k2zz / 20.0
    return StencilCoefficients(a, b, c, d, 1.0, 1.0)


def coefficients_convdiff(profile: CoefficientProfile, grid: Grid3D, l: int) -> StencilCoefficients:
    """Fourth-order weights for diffusion with z-direction convection gamma.

    Built on top of the plain fourth-order weights (the profile must carry
    k2 = 0 for convection problems), so gamma = 0 reduces to them bit for
    bit. The convection number g = gamma h_z skews the up/down levels.
    """
    if profile.k2.any():
        raise ValueError("convection-diffusion weights expect a zero k^2 profile")
    base = coefficients_fourth(profile, grid, l)
    r_zx, r_zy = base.r_zx, base.r_zy
    g = profile.gamma * grid.h_z

    a = base.a.copy()
    b = base.b.copy()
    c = base.c.copy()
    d = base.d.copy()
    # (1 + R)(2 +- g)/24 written as the diffusion weight times (1 +- g/2)
    b[0] = base.b[0] * (1.0 - g / 2.0)
    b[2] = base.b[2] * (1.0 + g / 2.0)
    c[0] = base.c[0] * (1.0 - g / 2.0)
    c[2] = base.c[2] * (1.0 + g / 2.0)
    d[0] = base.d[0] - (g / 12.0) * (4.0 - r_zx - r_zy - g)
    d[2] = base.d[2] + (g / 12.0) * (4.0 - r_zx - r_zy + g)
    d[1] = base.d[1] - g**2 / 6.0
    return StencilCoefficients(a, b, c, d, r_zx, r_zy)


_BUILDERS = {
    SchemeKind.SECOND_ORDER: coefficients_second,
    SchemeKind.FOURTH_ORDER: coefficients_fourth,
    SchemeKind.SIXTH_ORDER: coefficients_sixth,
    SchemeKind.CONVECTION_DIFFUSION_4: coefficients_convdiff,
}


def coefficients_for(scheme: SchemeKind, profile, grid, l) -> StencilCoefficients:
    """Dispatch to the scheme's coefficient builder."""
    return _BUILDERS[scheme](profile, grid, l)


def coefficient_table(scheme: SchemeKind, profile, grid):
    """All row coefficients as (n_z, 3) arrays (A, B, C, D).

    Row index is 0-based (row 0 is level l = 1); the second axis is the level
    offset + 1 as in StencilCoefficients. Coefficients are O(n_z) in memory
    because they depend on z only; nothing per-plane is ever materialized.
    """
    n_z = grid.n_z
    A = np.empty((n_z, 3), dtype=complex)
    B = np.empty((n_z, 3), dtype=complex)
    C = np.empty((n_z, 3), dtype=complex)
    D = np.empty((n_z, 3), dtype=complex)
    for l in range(1, n_z + 1):
        cf = coefficients_for(scheme, profile, grid, l)
        A[l - 1] = cf.a
        B[l - 1] = cf.b
        C[l - 1] = cf.c
        D[l - 1] = cf.d
    return A, B, C, D


def mode_cosines(grid: Grid3D):
    """cos(pi n/(n_x+1)) for n = 1..n_x and cos(pi m/(n_y+1)) for m = 1..n_y."""
    cx = np.cos(np.pi * np.arange(1, grid.n_x + 1) / (grid.n_x + 1))
    cy = np.cos(np.pi * np.arange(1, grid.n_y + 1) / (grid.n_y + 1))
    return cx, cy


def eigenvalue_plane(a, b, c, d, cx, cy, cxy):
    """Eigenvalues for every (n, m) at once, shape (len(cy), len(cx)).

    a, b, c, d are one level's scalar weights; cx, cy come from mode_cosines
    (cy may be a slice for a pencil range) and cxy is their outer product
    cy[:, None] * cx, which does not depend on the level.
    """
    return 4.0 * a * cxy + 2.0 * b * cx + 2.0 * c * cy[:, None] + d

"""Computational box, grid geometry, and the sampled z-profile of the coefficient.

Conventions used throughout the package:

- "n interior points" means n unknowns per direction; the closed grid has
  n + 2 nodes with indices 0 and n + 1 on the boundary planes.
- the step is h = (hi - lo) / (n + 1), so node i sits at lo + i * h.
- sampled coefficient profiles are stored as complex double precision. A
  profile whose imaginary parts are all zero is real, and a solve whose
  right-hand side and boundary values are real as well runs in float64
  (see assembly.fold_dirichlet).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Domain:
    """Rectangular box [x_lo, x_hi] x [y_lo, y_hi] x [z_lo, z_hi]."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    z_lo: float
    z_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi and self.z_lo < self.z_hi):
            raise ValueError(
                f"degenerate domain: [{self.x_lo}, {self.x_hi}] x "
                f"[{self.y_lo}, {self.y_hi}] x [{self.z_lo}, {self.z_hi}]"
            )


@dataclass(frozen=True)
class Grid3D:
    """Uniform grid on a Domain with n_x, n_y, n_z interior points per direction."""

    domain: Domain
    n_x: int
    n_y: int
    n_z: int
    h_x: float
    h_y: float
    h_z: float

    def x(self, i):
        """Coordinate of node index i (0 = low boundary, n_x + 1 = high boundary)."""
        return self.domain.x_lo + i * self.h_x

    def y(self, j):
        return self.domain.y_lo + j * self.h_y

    def z(self, l):
        return self.domain.z_lo + l * self.h_z

    def x_nodes(self, closed=False):
        """Interior x coordinates, or all n_x + 2 closed-grid coordinates."""
        idx = np.arange(0, self.n_x + 2) if closed else np.arange(1, self.n_x + 1)
        return self.domain.x_lo + idx * self.h_x

    def y_nodes(self, closed=False):
        idx = np.arange(0, self.n_y + 2) if closed else np.arange(1, self.n_y + 1)
        return self.domain.y_lo + idx * self.h_y

    def z_nodes(self, closed=False):
        idx = np.arange(0, self.n_z + 2) if closed else np.arange(1, self.n_z + 1)
        return self.domain.z_lo + idx * self.h_z

    @property
    def shape(self):
        """Interior array shape in storage order (n_z, n_y, n_x); x varies fastest."""
        return (self.n_z, self.n_y, self.n_x)

    @property
    def uniform(self):
        return self.h_x == self.h_y == self.h_z


def make_grid(domain: Domain, n_x: int, n_y: int, n_z: int) -> Grid3D:
    """Build a Grid3D with steps h = (hi - lo) / (n + 1) in each direction."""
    for name, n in (("n_x", n_x), ("n_y", n_y), ("n_z", n_z)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    h_x = (domain.x_hi - domain.x_lo) / (n_x + 1)
    h_y = (domain.y_hi - domain.y_lo) / (n_y + 1)
    h_z = (domain.z_hi - domain.z_lo) / (n_z + 1)
    return Grid3D(domain, int(n_x), int(n_y), int(n_z), h_x, h_y, h_z)


@dataclass(frozen=True)
class CoefficientProfile:
    """Sampled k^2(z) and its first two z-derivatives, plus the convection gamma.

    Each array has n_z + 2 entries covering z-levels 0 .. n_z + 1 (both boundary
    planes included). Helmholtz problems carry gamma = 0; the convection-diffusion
    scheme carries k2 identically zero and a nonzero gamma.
    """

    k2: np.ndarray
    k2_z: np.ndarray
    k2_zz: np.ndarray
    gamma: complex = 0.0

    def __post_init__(self):
        n = len(self.k2)
        if len(self.k2_z) != n or len(self.k2_zz) != n:
            raise ValueError(
                f"profile arrays disagree in length: {n}, {len(self.k2_z)}, {len(self.k2_zz)}"
            )

    @property
    def n_levels(self):
        return len(self.k2)


def sample_profile(k2_fn, k2_z_fn, k2_zz_fn, gamma, grid: Grid3D) -> CoefficientProfile:
    """Sample k^2 and its z-derivatives at every closed-grid z-level.

    The three callables take z (scalar or ndarray) and must broadcast over
    numpy arrays. They are the *analytic* values; no numerical differentiation
    happens here.
    """
    z = grid.z_nodes(closed=True)
    k2 = np.asarray(k2_fn(z), dtype=complex) * np.ones_like(z, dtype=complex)
    k2_z = np.asarray(k2_z_fn(z), dtype=complex) * np.ones_like(z, dtype=complex)
    k2_zz = np.asarray(k2_zz_fn(z), dtype=complex) * np.ones_like(z, dtype=complex)
    return CoefficientProfile(k2=k2, k2_z=k2_z, k2_zz=k2_zz, gamma=complex(gamma))


def constant_profile(k2_value, grid: Grid3D, gamma=0.0) -> CoefficientProfile:
    """Profile for a z-independent coefficient (derivatives identically zero)."""
    n = grid.n_z + 2
    return CoefficientProfile(
        k2=np.full(n, complex(k2_value)),
        k2_z=np.zeros(n, dtype=complex),
        k2_zz=np.zeros(n, dtype=complex),
        gamma=complex(gamma),
    )

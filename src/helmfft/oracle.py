"""Reference implementations: dense assembly and solves for small grids.

Everything here is written as plain loops over the stencil, dense kernels or
one mode at a time, so it shares no code path with the matrix-free
application, the fast sine transform, or the batched Thomas sweeps it is used
to verify. The dense matrices are intended for grids up to ~8^3 (the full
matrix is (n_x n_y n_z)^2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .grid import CoefficientProfile, Grid3D
from .stencil import SchemeKind, StencilCoefficients, coefficients_for
from .tridiag import PIVOT_RTOL

_NEIGHBORS = (
    # (di, dj, weight picker)
    (-1, -1, "a"), (1, -1, "a"), (-1, 1, "a"), (1, 1, "a"),
    (-1, 0, "b"), (1, 0, "b"),
    (0, -1, "c"), (0, 1, "c"),
    (0, 0, "d"),
)


def _weight(cf: StencilCoefficients, name: str, offset: int) -> complex:
    return {"a": cf.a, "b": cf.b, "c": cf.c, "d": cf.d}[name][offset + 1]


def row_index(i: int, j: int, l: int, grid: Grid3D) -> int:
    """Linear row of interior node (i, j, l), all 1-based."""
    return (i - 1) + grid.n_x * (j - 1) + grid.n_x * grid.n_y * (l - 1)


def dense_matrix(scheme: SchemeKind, profile: CoefficientProfile,
                 grid: Grid3D) -> np.ndarray:
    """Full interior operator matrix, rows/columns in x-fastest order."""
    n = grid.n_x * grid.n_y * grid.n_z
    A = np.zeros((n, n), dtype=complex)
    for l in range(1, grid.n_z + 1):
        cf = coefficients_for(scheme, profile, grid, l)
        for j in range(1, grid.n_y + 1):
            for i in range(1, grid.n_x + 1):
                row = row_index(i, j, l, grid)
                for dl in (-1, 0, 1):
                    ll = l + dl
                    if not 1 <= ll <= grid.n_z:
                        continue
                    for di, dj, name in _NEIGHBORS:
                        ii, jj = i + di, j + dj
                        if 1 <= ii <= grid.n_x and 1 <= jj <= grid.n_y:
                            A[row, row_index(ii, jj, ll, grid)] += _weight(cf, name, dl)
    return A


def dense_boundary_fold(boundary_ext: np.ndarray, scheme: SchemeKind,
                        profile: CoefficientProfile, grid: Grid3D) -> np.ndarray:
    """Per-row sum of stencil weight x boundary value, as a flat vector.

    boundary_ext is a closed-box array (n_z+2, n_y+2, n_x+2); only entries on
    the boundary lattice are read.
    """
    n = grid.n_x * grid.n_y * grid.n_z
    out = np.zeros(n, dtype=complex)
    for l in range(1, grid.n_z + 1):
        cf = coefficients_for(scheme, profile, grid, l)
        for j in range(1, grid.n_y + 1):
            for i in range(1, grid.n_x + 1):
                row = row_index(i, j, l, grid)
                acc = 0.0 + 0.0j
                for dl in (-1, 0, 1):
                    ll = l + dl
                    for di, dj, name in _NEIGHBORS:
                        ii, jj = i + di, j + dj
                        on_boundary = (ii in (0, grid.n_x + 1) or jj in (0, grid.n_y + 1)
                                       or ll in (0, grid.n_z + 1))
                        if on_boundary:
                            acc += _weight(cf, name, dl) * boundary_ext[ll, jj, ii]
                out[row] = acc
    return out


def dense_solve(rhs_interior: np.ndarray, boundary_ext: np.ndarray,
                scheme: SchemeKind, profile: CoefficientProfile,
                grid: Grid3D) -> np.ndarray:
    """LAPACK solve of the dense system with the boundary folded; flat result."""
    A = dense_matrix(scheme, profile, grid)
    f = np.asarray(rhs_interior, dtype=complex).reshape(-1).copy()
    f -= dense_boundary_fold(boundary_ext, scheme, profile, grid)
    return np.linalg.solve(A, f)


def dense_plane_matrix(a: complex, b: complex, c: complex, d: complex,
                       n_x: int, n_y: int) -> np.ndarray:
    """One level's in-plane operator as a dense (n_x n_y) x (n_x n_y) matrix."""
    n = n_x * n_y
    C = np.zeros((n, n), dtype=complex)
    for j in range(1, n_y + 1):
        for i in range(1, n_x + 1):
            row = (i - 1) + n_x * (j - 1)
            for di, dj, name in _NEIGHBORS:
                ii, jj = i + di, j + dj
                if 1 <= ii <= n_x and 1 <= jj <= n_y:
                    w = {"a": a, "b": b, "c": c, "d": d}[name]
                    C[row, (ii - 1) + n_x * (jj - 1)] += w
    return C


def dense_sine_matrix(n: int) -> np.ndarray:
    """Orthonormal 1D sine kernel, built here independently of the fast path."""
    idx = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(idx, idx) / (n + 1))


def dense_sine_matrix_2d(n_x: int, n_y: int) -> np.ndarray:
    """2D eigenvector matrix in x-fastest vector order (kron of 1D kernels)."""
    return np.kron(dense_sine_matrix(n_y), dense_sine_matrix(n_x))


def dst2d_reference(plan, plane: np.ndarray) -> np.ndarray:
    """Dense O(N^2)-per-line evaluation of the 2D sine transform of one plane."""
    if plane.shape != (plan.n_y, plan.n_x):
        raise ValueError(f"plane shape {plane.shape} != plan ({plan.n_y}, {plan.n_x})")
    return dense_sine_matrix(plan.n_y) @ plane @ dense_sine_matrix(plan.n_x)


def eigenvalue(coeffs: StencilCoefficients, level_offset: int, n: int, m: int,
               grid: Grid3D) -> complex:
    """Eigenvalue of the level's plane operator for sine mode (n, m), 1-based.

    The plane operator with weights (a, b, c, d) acting on the interior grid
    has eigenvectors sin(pi n i / (n_x + 1)) sin(pi m j / (n_y + 1)) and
    eigenvalues

        4 a cos(pi n / (n_x+1)) cos(pi m / (n_y+1))
          + 2 b cos(pi n / (n_x+1)) + 2 c cos(pi m / (n_y+1)) + d.
    """
    if not 1 <= n <= grid.n_x:
        raise IndexError(f"mode n={n} outside 1..{grid.n_x}")
    if not 1 <= m <= grid.n_y:
        raise IndexError(f"mode m={m} outside 1..{grid.n_y}")
    a, b, c, d = coeffs.level(level_offset)
    cx = np.cos(np.pi * n / (grid.n_x + 1))
    cy = np.cos(np.pi * m / (grid.n_y + 1))
    return 4.0 * a * cx * cy + 2.0 * b * cx + 2.0 * c * cy + d


@dataclass(frozen=True)
class SpectralSystem:
    """Tridiagonal system for one sine-mode pair (n, m), rows l = 1..n_z.

    sub[l-1] couples to level l-1 (unused in the first row), diag[l-1] to
    level l, sup[l-1] to level l+1 (unused in the last row). Each entry comes
    from the coefficients generated at its own row, so the bands are not
    constant when the coefficient varies with z.
    """

    n: int
    m: int
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray


def assemble_system(n: int, m: int, scheme: SchemeKind, profile: CoefficientProfile,
                    grid: Grid3D) -> SpectralSystem:
    """Spectral system for mode (n, m), both 1-based."""
    n_z = grid.n_z
    sub = np.zeros(n_z, dtype=complex)
    diag = np.zeros(n_z, dtype=complex)
    sup = np.zeros(n_z, dtype=complex)
    for l in range(1, n_z + 1):
        cf = coefficients_for(scheme, profile, grid, l)
        if l > 1:
            sub[l - 1] = eigenvalue(cf, -1, n, m, grid)
        diag[l - 1] = eigenvalue(cf, 0, n, m, grid)
        if l < n_z:
            sup[l - 1] = eigenvalue(cf, +1, n, m, grid)
    return SpectralSystem(n=n, m=m, sub=sub, diag=diag, sup=sup)


def solve_system(system: SpectralSystem, rhs: np.ndarray) -> np.ndarray:
    """Thomas forward elimination / back substitution for one system."""
    n_z = len(system.diag)
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (n_z,):
        raise ValueError(f"rhs length {rhs.shape} != system size {n_z}")

    scale = max(
        np.abs(system.sub).max(), np.abs(system.diag).max(), np.abs(system.sup).max()
    )
    if scale == 0.0:
        raise SingularSystemError("all-zero system", n=system.n, m=system.m)
    cp = np.zeros(n_z, dtype=complex)
    x = rhs.copy()
    denom = system.diag[0]
    for l in range(n_z):
        if l > 0:
            denom = system.diag[l] - system.sub[l] * cp[l - 1]
        if abs(denom) < PIVOT_RTOL * scale:
            raise SingularSystemError(
                f"vanishing pivot at row {l + 1} (|pivot|={abs(denom):.3e})",
                n=system.n, m=system.m,
            )
        if l < n_z - 1:
            cp[l] = system.sup[l] / denom
        if l > 0:
            x[l] = (x[l] - system.sub[l] * x[l - 1]) / denom
        else:
            x[l] = x[l] / denom
    for l in range(n_z - 2, -1, -1):
        x[l] -= cp[l] * x[l + 1]
    return x


def sweep_reference(w, cp, table, cx, cy, m_offset=0):
    """The Thomas sweep of `tridiag._sweep`, one level at a time.

    Same arguments and result, bit for bit: w is a (n_z, M, n_x) slab solved
    in place, cp scratch of its shape, table the (A, B, C, D) weights, cx and
    cy the mode cosines of the slab's (n, m) and m_offset its first mode.
    Each level's eigenvalue planes are rebuilt with full-size temporaries
    and each pivot plane is screened as it is formed.
    """
    A, B, C, D = table
    n_z = w.shape[0]
    scale = max(float(np.abs(t).max()) for t in (A, B, C, D))
    threshold = PIVOT_RTOL * scale
    cxy = cy[:, None] * cx

    def lam(l, k):
        return 4.0 * A[l, k] * cxy + 2.0 * B[l, k] * cx + 2.0 * C[l, k] * cy[:, None] + D[l, k]

    def check(denom, l):
        if float(np.abs(denom).min()) >= threshold:
            return
        mi, ni = np.argwhere(np.abs(denom) < threshold)[0]
        raise SingularSystemError(
            f"vanishing pivot at row {l + 1} for mode "
            f"(n={ni + 1}, m={m_offset + mi + 1})",
            n=int(ni + 1), m=int(m_offset + mi + 1),
        )

    denom = lam(0, 1)
    check(denom, 0)
    cp[0] = lam(0, 2) / denom
    w[0] = w[0] / denom
    for l in range(1, n_z):
        low = lam(l, 0)
        mid = lam(l, 1)
        denom = mid - low * cp[l - 1]
        check(denom, l)
        if l < n_z - 1:
            cp[l] = lam(l, 2) / denom
        w[l] = (w[l] - low * w[l - 1]) / denom
    for l in range(n_z - 2, -1, -1):
        w[l] -= cp[l] * w[l + 1]

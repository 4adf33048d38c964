"""Output checks that run outside the timed region.

Each check works a few z-planes at a time, so that checking a solution
allocates little next to the solve itself and leaves the process's peak
resident set to the program.
"""

import hashlib

import numpy as np

CHUNK = 16  # z-planes per check step

# (di, dj) in-plane offsets and the level weight that multiplies each
_PLANE_OFFSETS = (
    ((-1, -1), 0), ((1, -1), 0), ((-1, 1), 0), ((1, 1), 0),
    ((-1, 0), 1), ((1, 0), 1),
    ((0, -1), 2), ((0, 1), 2),
    ((0, 0), 3),
)


def fingerprint(values):
    """Digest of an array's bytes: equal digests mean bitwise-equal outputs."""
    return hashlib.blake2b(np.ascontiguousarray(values).data, digest_size=16).hexdigest()


def all_finite(values):
    return all(bool(np.isfinite(values[z0:z0 + CHUNK]).all())
               for z0 in range(0, values.shape[0], CHUNK))


def relative_residual(hf, u, case):
    """||A u - F|| / ||F|| with the 27-point operator applied to u plus its walls.

    F is the unfolded right-hand side, so the boundary values enter through
    the operator rather than through the program's own fold.
    """
    grid = case.grid
    n_z, n_y, n_x = grid.shape
    weights = hf.coefficient_table(case.scheme, case.profile, grid)
    box = None if case.boundary.known_zero else case.boundary.closed_box(grid)
    rhs = case.rhs()
    res2 = rhs2 = 0.0
    for z0 in range(0, n_z, CHUNK):
        z1 = min(z0 + CHUNK, n_z)
        # closed-grid planes z0 .. z1 + 1 around interior rows z0 .. z1 - 1
        ext = np.zeros((z1 - z0 + 2, n_y + 2, n_x + 2), dtype=complex)
        if box is not None:
            ext[:] = box[z0:z1 + 2]
        lo, hi = max(z0 - 1, 0), min(z1 + 1, n_z)
        ext[lo - z0 + 1:hi - z0 + 1, 1:-1, 1:-1] = u[lo:hi]
        out = -rhs[z0:z1]
        for k in range(3):
            for (di, dj), which in _PLANE_OFFSETS:
                w = weights[which][z0:z1, k]
                if np.any(w):
                    block = ext[k:k + z1 - z0, 1 + dj:1 + dj + n_y, 1 + di:1 + di + n_x]
                    out += w[:, None, None] * block
        res2 += float(np.vdot(out, out).real)
        rhs2 += float(np.vdot(rhs[z0:z1], rhs[z0:z1]).real)
    return (res2 / rhs2) ** 0.5


def max_error(u, case):
    """Largest absolute difference from the analytic solution on interior nodes."""
    grid = case.grid
    x = grid.x_nodes()[None, None, :]
    y = grid.y_nodes()[None, :, None]
    z = grid.z_nodes()
    worst = 0.0
    for z0 in range(0, grid.n_z, CHUNK):
        exact = case.analytic(x, y, z[z0:z0 + CHUNK, None, None])
        worst = max(worst, float(np.abs(u[z0:z0 + CHUNK] - exact).max()))
    return worst

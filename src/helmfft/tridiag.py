"""Assembly and solution of the decoupled spectral tridiagonal systems.

After the 2D sine transform, each mode pair (n, m) obeys an n_z x n_z
tridiagonal system whose row l couples the transformed values at levels
l-1, l, l+1 with the eigenvalues of that row's three level operators.
Systems for different (n, m) are fully independent, so the batched solver
sweeps all modes of a y-range at once with vectorized Thomas elimination
(LU without pivoting, O(n_z) per line). The one-mode reference
(`assemble_system`, `solve_system`) lives in `oracle`.
"""

import numpy as np

from .errors import SingularSystemError
from .grid import CoefficientProfile, Grid3D
from .stencil import SchemeKind, coefficient_table, eigenvalue_plane, mode_cosines

# pivot smaller than this multiple of the system's band scale is treated as
# a resonant (singular) spectral system
PIVOT_RTOL = 1e-14

# bytes of one level of an m-block in the blocked sweep, so that the level's
# eigenvalue planes, pivots and cp row stay in a core's L2 however many modes
# the slab holds
SWEEP_BLOCK_BYTES = 256 * 1024


def solve_all(transformed_rhs, scheme: SchemeKind, profile: CoefficientProfile,
              grid: Grid3D, pencil_range=None) -> None:
    """Solve the spectral systems for a y-range of modes, in place.

    transformed_rhs holds the 2D-transformed right-hand side, shape
    (n_z, n_y, n_x); on return the range's z-lines contain the transformed
    solution. pencil_range is a 0-based half-open (start, stop) over the
    m-mode index (None = all). Disjoint ranges may run concurrently.
    """
    values = transformed_rhs.values if hasattr(transformed_rhs, "values") else transformed_rhs
    n_z, n_y, n_x = values.shape
    start, stop = (0, n_y) if pencil_range is None else pencil_range
    if not 0 <= start <= stop <= n_y:
        raise IndexError(f"pencil range ({start}, {stop}) outside 0..{n_y}")
    if start == stop:
        return
    solve_slab(values[:, start:stop, :], scheme, profile, grid, m_start=start)


def solve_slab(values: np.ndarray, scheme: SchemeKind, profile: CoefficientProfile,
               grid: Grid3D, m_start: int = 0) -> None:
    """Sweep a (n_z, M, n_x) slab in place; local row j is global mode m_start + j.

    This is the entry point for partitioned execution, where a part holds a
    private y-slab rather than a view into the full field. The slab is swept
    in m-blocks of at most SWEEP_BLOCK_BYTES per level, so the per-level
    working set does not grow with the slab; every line's arithmetic is the
    same as in one sweep over the whole slab. A float64 slab is swept with
    the real part of the coefficient table, which needs a real profile.
    """
    n_z, n_m, n_x = values.shape
    if n_m == 0:
        return
    table = coefficient_table(scheme, profile, grid)
    if not np.iscomplexobj(values):
        if any(np.any(w.imag) for w in table):
            raise ValueError("a float64 slab needs a real profile; this one has "
                             "a nonzero imaginary part")
        table = tuple(w.real for w in table)
    cx, cy = mode_cosines(grid)
    rows = max(1, SWEEP_BLOCK_BYTES // (n_x * values.itemsize))
    n_blocks = -(-n_m // rows)
    bounds = [n_m * b // n_blocks for b in range(n_blocks + 1)]
    # one multiplier buffer serves every block: its pages fault in once per slab
    cp = np.empty((n_z, -(-n_m // n_blocks), n_x), dtype=values.dtype)
    for m0, m1 in zip(bounds[:-1], bounds[1:]):
        m = m_start + m0
        _sweep(values[:, m0:m1, :], cp[:, :m1 - m0, :], table, cx,
               cy[m:m_start + m1], m_offset=m)


def _sweep(w, cp, table, cx, cy, m_offset=0):
    """Vectorized Thomas sweep over every (n, m) line of a (n_z, M, n_x) slab.

    cp is scratch of w's shape for the elimination multipliers.

    Pivots are screened against the magnitude of the generating stencil
    weights (one scalar per sweep); eigenvalue magnitudes are bounded by a
    small multiple of it, so a pivot far below that scale marks a resonant
    system. Only on failure is the offending mode located.
    """
    A, B, C, D = table
    n_z = w.shape[0]
    scale = max(float(np.abs(t).max()) for t in (A, B, C, D))
    threshold = PIVOT_RTOL * scale
    cxy = cy[:, None] * cx  # the same at every level

    def lam(l, k):
        return eigenvalue_plane(A[l, k], B[l, k], C[l, k], D[l, k], cx, cy, cxy)

    def check(denom, l):
        if float(np.abs(denom).min()) >= threshold:
            return
        bad = np.abs(denom) < threshold
        mi, ni = np.argwhere(bad)[0]
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

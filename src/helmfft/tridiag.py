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

# bytes of scratch of one batch of levels in the sweep: four planes of the
# m-block per level (three eigenvalue planes and the pivot magnitudes). A
# batch holds as many levels as fit, at least one, so that fewer and larger
# numpy calls build the eigenvalues. Twice this budget let the freed scratch
# raise glibc's dynamic mmap threshold, after which some 159^3 two-part
# socket solves kept one to three exchange blocks resident on the heap
SWEEP_BATCH_BYTES = 1024 * 1024


def solve_slab(values: np.ndarray, scheme: SchemeKind, profile: CoefficientProfile,
               grid: Grid3D, m_start: int = 0) -> None:
    """Sweep a (n_z, M, n_x) slab in place; local row j is global mode m_start + j.

    Each of a part's workers sweeps one y-range of the part's slab this way;
    disjoint ranges may run concurrently. The slab is swept in m-blocks of
    at most SWEEP_BLOCK_BYTES per level, so the per-level working set does
    not grow with the slab; every line's arithmetic is the same as in one
    sweep over the whole slab. A float64 slab is swept with the real part
    of the coefficient table, which needs a real profile.
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

    The forward elimination runs in batches of L levels, L as many as fit
    SWEEP_BATCH_BYTES at four planes a level. One eigenvalue_plane call
    writes the batch's (L, 3, M, n_x) eigenvalue planes into one buffer;
    each level then takes six out= calls, and its pivots overwrite its
    middle plane. Every value is computed with the same operations in the
    same order as one level at a time, so the result does not depend on L.

    Pivots are screened once per batch against the magnitude of the
    generating stencil weights (one scalar per sweep); eigenvalue
    magnitudes are bounded by a small multiple of it, so a pivot far below
    that scale marks a resonant system. The first failing level of the
    batch and its first failing mode are named; the divisions past a zero
    pivot raise no warning.
    """
    A, B, C, D = table
    n_z, n_m, n_x = w.shape
    scale = max(float(np.abs(t).max()) for t in (A, B, C, D))
    threshold = PIVOT_RTOL * scale
    cxy = cy[:, None] * cx  # the same at every level
    depth = max(1, min(n_z, SWEEP_BATCH_BYTES // (4 * w[0].nbytes)))
    lam = np.empty((depth, 3, n_m, n_x), dtype=w.dtype)
    weights = [t[:, :, None, None] for t in table]

    for l0 in range(0, n_z, depth):
        l1 = min(l0 + depth, n_z)
        batch = lam[:l1 - l0]
        eigenvalue_plane(*(t[l0:l1] for t in weights), cx, cy, cxy, out=batch)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for l, (low, denom, up) in enumerate(batch, start=l0):
                if l:  # denom = mid - low * cp[l-1], with cp[l] as scratch
                    np.multiply(low, cp[l - 1], out=cp[l])
                    np.subtract(denom, cp[l], out=denom)
                np.divide(up, denom, out=cp[l])
                if l:  # w[l] = (w[l] - low * w[l-1]) / denom
                    np.multiply(low, w[l - 1], out=low)
                    np.subtract(w[l], low, out=w[l])
                np.divide(w[l], denom, out=w[l])
        _screen(batch[:, 1], threshold, l0, m_offset)
    tmp = lam[0, 0]  # a plane of scratch that stays in cache
    for l in range(n_z - 2, -1, -1):  # w[l] -= cp[l] * w[l+1]
        np.multiply(cp[l], w[l + 1], out=tmp)
        np.subtract(w[l], tmp, out=w[l])


def _screen(pivots, threshold, l0, m_offset):
    """Raise SingularSystemError at the first pivot of levels l0.. below threshold.

    pivots is a batch's (L, M, n_x) pivot planes; a NaN pivot fails too.
    """
    mags = np.abs(pivots)
    if mags.min() >= threshold:
        return
    k, mi, ni = np.argwhere(~(mags >= threshold))[0]
    raise SingularSystemError(
        f"vanishing pivot at row {l0 + k + 1} for mode "
        f"(n={ni + 1}, m={m_offset + mi + 1})",
        n=int(ni + 1), m=int(m_offset + mi + 1),
    )

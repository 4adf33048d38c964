"""Right-hand sides, Dirichlet folding, and matrix-free application of the operator.

Fields live on interior nodes only, stored as (n_z, n_y, n_x) arrays so the
x index varies fastest in memory; the flattened order matches the row
ordering of the assembled linear system. A field is float64 or complex128.
Boundary values never enter the unknown vector: they are folded into the
right-hand side once, and the solver works with homogeneous data from then
on. The fold decides the solve's dtype: float64 when the right-hand side,
the profile and the boundary values are all real, complex128 otherwise.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteInputError, UnsupportedSchemeError
from .grid import CoefficientProfile, Grid3D
from .stencil import SchemeKind, coefficient_table

# (di, dj) -> which weight of the level multiplies that neighbor
_PLANE_OFFSETS = (
    ((-1, -1), "a"), ((1, -1), "a"), ((-1, 1), "a"), ((1, 1), "a"),
    ((-1, 0), "b"), ((1, 0), "b"),
    ((0, -1), "c"), ((0, 1), "c"),
    ((0, 0), "d"),
)


@dataclass
class Field3D:
    """Real or complex scalar field on the interior nodes.

    values has shape (n_z, n_y, n_x); the linear index of interior node
    (i, j, l), all 1-based, is (i-1) + n_x*(j-1) + n_x*n_y*(l-1). A float64
    array is kept as it is; any other array is converted to complex128.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        self.values = values if values.dtype == np.float64 else np.asarray(values, dtype=complex)
        if self.values.ndim != 3:
            raise ValueError(f"Field3D needs a 3D array, got ndim={self.values.ndim}")

    @classmethod
    def zeros(cls, grid: Grid3D) -> "Field3D":
        return cls(np.zeros(grid.shape, dtype=complex))

    @property
    def extents(self):
        """(n_x, n_y, n_z)."""
        n_z, n_y, n_x = self.values.shape
        return (n_x, n_y, n_z)

    def copy(self) -> "Field3D":
        return Field3D(self.values.copy())

    def ravel(self) -> np.ndarray:
        """Flattened values in system row order (x fastest)."""
        return self.values.reshape(-1)


class BoundaryData:
    """Dirichlet values on every node of the closed-box boundary lattice.

    Constructed either from a callable u(x, y, z) (must broadcast over numpy
    arrays) or from an explicit closed-box array of shape
    (n_z+2, n_y+2, n_x+2) whose interior entries are ignored.
    """

    def __init__(self, fn: Optional[Callable] = None, array: Optional[np.ndarray] = None,
                 known_zero: bool = False):
        if (fn is None) == (array is None):
            raise ValueError("provide exactly one of fn or array")
        self._fn = fn
        self._array = None if array is None else np.asarray(array, dtype=complex)
        self.known_zero = known_zero

    @classmethod
    def zero(cls) -> "BoundaryData":
        return cls(fn=lambda x, y, z: np.zeros(np.broadcast(x, y, z).shape, dtype=complex),
                   known_zero=True)

    @classmethod
    def from_function(cls, fn) -> "BoundaryData":
        return cls(fn=fn)

    @classmethod
    def from_array(cls, array) -> "BoundaryData":
        return cls(array=array)

    def faces(self, grid: Grid3D):
        """The six faces of the closed box: (z_lo, z_hi, y_lo, y_hi, x_lo, x_hi).

        A z face has shape (n_y+2, n_x+2), a y face (n_z+2, n_x+2) and an x
        face (n_z+2, n_y+2). Where faces meet at an edge or corner, the later
        face in this order holds the box's value. A callable's faces keep the
        dtype it returns (real data stays real and half the size); the box
        is complex.
        """
        shape = (grid.n_z + 2, grid.n_y + 2, grid.n_x + 2)
        if self._array is not None:
            if self._array.shape != shape:
                raise ValueError(
                    f"boundary array shape {self._array.shape} != closed box {shape}"
                )
            a = self._array
            return (a[0], a[-1], a[:, 0], a[:, -1], a[:, :, 0], a[:, :, -1])
        x = grid.x_nodes(closed=True)
        y = grid.y_nodes(closed=True)
        z = grid.z_nodes(closed=True)
        n_z2, n_y2, n_x2 = shape

        def face(values, face_shape):
            return np.broadcast_to(np.asarray(values), face_shape)

        return (face(self._fn(x[None, :], y[:, None], z[0]), (n_y2, n_x2)),
                face(self._fn(x[None, :], y[:, None], z[-1]), (n_y2, n_x2)),
                face(self._fn(x[None, :], y[0], z[:, None]), (n_z2, n_x2)),
                face(self._fn(x[None, :], y[-1], z[:, None]), (n_z2, n_x2)),
                face(self._fn(x[0], y[None, :], z[:, None]), (n_z2, n_y2)),
                face(self._fn(x[-1], y[None, :], z[:, None]), (n_z2, n_y2)))

    def closed_box(self, grid: Grid3D) -> np.ndarray:
        """(n_z+2, n_y+2, n_x+2) array: boundary values set, interior zero."""
        return _paint_box(self.faces(grid), grid, (0, 0, 0),
                          (grid.n_z + 2, grid.n_y + 2, grid.n_x + 2))


def _paint_box(faces, grid: Grid3D, lo, hi, dtype=complex) -> np.ndarray:
    """Closed-box values on the nodes lo <= (l, j, i) < hi; interior nodes zero.

    The faces are painted z, y, x, so a later face wins where faces meet.
    """
    (l0, j0, i0), (l1, j1, i1) = lo, hi
    out = np.zeros((l1 - l0, j1 - j0, i1 - i0), dtype=dtype)
    z_lo, z_hi, y_lo, y_hi, x_lo, x_hi = faces
    for f, l in ((z_lo, 0), (z_hi, grid.n_z + 1)):
        if l0 <= l < l1:
            out[l - l0] = f[j0:j1, i0:i1]
    for f, j in ((y_lo, 0), (y_hi, grid.n_y + 1)):
        if j0 <= j < j1:
            out[:, j - j0] = f[l0:l1, i0:i1]
    for f, i in ((x_lo, 0), (x_hi, grid.n_x + 1)):
        if i0 <= i < i1:
            out[:, :, i - i0] = f[l0:l1, j0:j1]
    return out


@dataclass
class SourceSpec:
    """Source f and the analytic derivatives each scheme's RHS may need.

    All callables take (x, y, z) and must broadcast over numpy arrays. The
    fourth-order RHS needs none of the derivatives (a discrete operator is
    applied to f sampled on the closed grid). The sixth-order RHS needs f_z,
    lap_f, d4_f and the three mixed fourth derivatives; convection-diffusion
    needs f_z, f_xx, f_yy, f_zz.
    """

    f: Callable
    f_z: Optional[Callable] = None
    f_xx: Optional[Callable] = None
    f_yy: Optional[Callable] = None
    f_zz: Optional[Callable] = None
    lap_f: Optional[Callable] = None          # f_xx + f_yy + f_zz
    d4_f: Optional[Callable] = None           # f_xxxx + f_yyyy + f_zzzz (pure, no mixed)
    f_xxyy: Optional[Callable] = None
    f_xxzz: Optional[Callable] = None
    f_yyzz: Optional[Callable] = None

    @classmethod
    def zero(cls) -> "SourceSpec":
        z = lambda x, y, zz: np.zeros(np.broadcast(x, y, zz).shape)
        return cls(f=z, f_z=z, f_xx=z, f_yy=z, f_zz=z,
                   lap_f=z, d4_f=z, f_xxyy=z, f_xxzz=z, f_yyzz=z)

    def require(self, names):
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"source is missing required derivatives: {missing}")


# bytes of one z-chunk of a right-hand side build: the formulas run on a
# chunk's samples at a time, so no full-volume sample is made, while each
# numpy call still covers about 10^5 values
RHS_CHUNK_BYTES = 1024 * 1024


def _interior_coords(grid, planes=None):
    """Open-grid coordinate arrays broadcastable to (n_z, n_y, n_x).

    With planes = (l0, l1) the z coordinate covers the 0-based interior
    planes l0 .. l1-1 only.
    """
    x = grid.x_nodes()[None, None, :]
    y = grid.y_nodes()[None, :, None]
    z = grid.z_nodes()[slice(*planes) if planes else slice(None), None, None]
    return x, y, z


def _sample_interior(fn, grid, planes=None):
    """fn on the interior nodes (of planes (l0, l1) when given): float64 for
    real values, complex128 otherwise.

    The array may be fn's own or a broadcast of a smaller one, so callers
    only read it.
    """
    x, y, z = _interior_coords(grid, planes)
    return _float_or_complex(fn(x, y, z))


def _float_or_complex(raw) -> np.ndarray:
    raw = np.asarray(raw)
    return raw.astype(complex if np.iscomplexobj(raw) else float, copy=False)


def _is_real(values) -> bool:
    """True when values have no nonzero imaginary part."""
    return not np.iscomplexobj(values) or not np.any(np.imag(values))


def _profile_is_real(profile: CoefficientProfile) -> bool:
    """k2, k2_z, k2_zz and gamma have zero imaginary parts (an O(n_z) test)."""
    return all(_is_real(v) for v in (profile.k2, profile.k2_z, profile.k2_zz, profile.gamma))


def _works_real(values: np.ndarray, profile: CoefficientProfile, faces) -> bool:
    """values are float64 and the profile and the boundary faces (None for a
    known-zero boundary) have zero imaginary parts, so float64 is exact."""
    return (values.dtype == np.float64 and _profile_is_real(profile)
            and (faces is None or all(_is_real(f) for f in faces)))


class _ComplexSample(Exception):
    """A source callable returned complex values for a float64 right-hand side."""


def _inline(extent, fn):
    fn((0, extent))


def build_rhs(scheme: SchemeKind, source: SourceSpec, profile: CoefficientProfile,
              grid: Grid3D, dtype=complex, run=None) -> Field3D:
    """Scheme-specific right-hand side F on the interior nodes.

    Second order:   F = h_z^2 f.
    Fourth order:   F = h_z^2 (f + (1/12) * sum of undivided second differences
                    of f), with f sampled on the closed grid so boundary-adjacent
                    rows see the ring values.
    Sixth order:    F = h^2 (f + h^2/12 lap f + h^4/360 d4 f
                    + h^4/90 (f_xxyy + f_xxzz + f_yyzz))
                    - (h^4/20) k^2 f + (h^6/60) (k^2)_z f_z,
                    where d4 is the pure fourth-derivative sum; the last two
                    terms are the source parts of the variable-coefficient
                    correction operator, carried over to the right-hand side.
    Convection-diffusion: F = h_z^2 (f + h_x^2/12 f_xx + h_y^2/12 f_yy
                    + h_z^2/12 (gamma f_z + f_zz)).

    The field is built in z-chunks of about RHS_CHUNK_BYTES. A chunk's
    formulas run on samples of the chunk's own planes (fourth order: with
    one more closed-grid plane on each side), so no full-volume sample is
    made. run(extent, fn) calls fn((l0, l1)) on disjoint plane ranges that
    cover range(extent), for example on the solve's threads, and each range
    is built chunk by chunk; by default the caller's thread builds it all.
    A node's arithmetic does not depend on the chunks, so every split and
    every run gives the same bits.

    With the default dtype, complex, the field is complex128, as callers
    that combine it with complex data need. With dtype=None it follows the
    data: float64 when the profile and every source sample are real, which
    is how the solver builds it, and complex128 otherwise (a complex sample
    in any chunk restarts the whole build in complex).
    """
    run = run or _inline
    _check_source(scheme, source, grid)
    if dtype is None:
        if _profile_is_real(profile):
            try:
                return Field3D(_chunked_rhs(scheme, source, profile, grid, True, run))
            except _ComplexSample:
                pass  # a complex source: build the complex right-hand side
    elif np.dtype(dtype) != np.complex128:
        raise ValueError(f"dtype must be complex or None, got {dtype!r}")
    return Field3D(_chunked_rhs(scheme, source, profile, grid, False, run))


def _check_source(scheme, source, grid):
    """Reject a scheme the grid or the source cannot serve, before any chunk."""
    if scheme is SchemeKind.SIXTH_ORDER:
        if not grid.uniform:
            raise UnsupportedSchemeError("sixth-order RHS needs a uniform grid step")
        source.require(["f_z", "lap_f", "d4_f", "f_xxyy", "f_xxzz", "f_yyzz"])
    elif scheme is SchemeKind.CONVECTION_DIFFUSION_4:
        source.require(["f_z", "f_xx", "f_yy", "f_zz"])
    elif scheme not in (SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER):
        raise ValueError(f"unknown scheme {scheme}")


def _chunked_rhs(scheme, source, profile, grid, real, run):
    """The right-hand side array, built chunk by chunk through run."""
    out = np.empty(grid.shape, dtype=float if real else complex)
    depth = max(1, RHS_CHUNK_BYTES // out[0].nbytes)

    def build(planes):
        for l0 in range(planes[0], planes[1], depth):
            l1 = min(l0 + depth, planes[1])
            _scheme_rhs(scheme, source, profile, grid, (l0, l1), out[l0:l1])

    run(grid.n_z, build)
    return out


def _scheme_rhs(scheme, source, profile, grid, planes, out):
    """The formulas of build_rhs on planes (l0, l1), written into out.

    A float64 out takes real samples only. Real samples enter a complex
    right-hand side as they are: a product or sum with a zero imaginary
    part is the same in complex arithmetic, so the complex result matches
    one built from complex samples bit for bit. The fourth-order division
    is the exception: its complex build converts the samples first.
    """
    dtype = out.dtype
    real = dtype == np.float64
    l0, l1 = planes

    def checked(values):
        if real and np.iscomplexobj(values):
            raise _ComplexSample
        return values

    def sample(fn):
        return checked(_sample_interior(fn, grid, planes))

    hz2 = grid.h_z**2
    if scheme is SchemeKind.SECOND_ORDER:
        np.multiply(hz2, sample(source.f), out=out)

    elif scheme is SchemeKind.FOURTH_ORDER:
        # closed-grid planes l0 .. l1+1 are the chunk's rows and one more each side
        x = grid.x_nodes(closed=True)[None, None, :]
        y = grid.y_nodes(closed=True)[None, :, None]
        z = grid.z_nodes(closed=True)[l0:l1 + 2, None, None]
        shape = (l1 - l0 + 2, grid.n_y + 2, grid.n_x + 2)
        fc = checked(_float_or_complex(source.f(x, y, z)))
        fc = np.broadcast_to(np.asarray(fc, dtype=dtype), shape)
        core = fc[1:-1, 1:-1, 1:-1]
        neighbors = (fc[1:-1, 1:-1, :-2] + fc[1:-1, 1:-1, 2:]
                     + fc[1:-1, :-2, 1:-1] + fc[1:-1, 2:, 1:-1]
                     + fc[:-2, 1:-1, 1:-1] + fc[2:, 1:-1, 1:-1])
        # a complex division by 12 multiplies by 1/12; the float64 build does
        # the same, so a real right-hand side that the fold widens to complex
        # (for a complex boundary) equals the complex build bit for bit
        twelfth = neighbors * (1.0 / 12.0) if real else neighbors / 12.0
        np.multiply(hz2, 0.5 * core + twelfth, out=out)

    elif scheme is SchemeKind.SIXTH_ORDER:
        h2 = hz2
        h4 = h2 * h2
        k2, k2_z = (profile.k2.real, profile.k2_z.real) if real else (profile.k2, profile.k2_z)
        k2_col = k2[1 + l0:1 + l1][:, None, None]
        k2z_col = k2_z[1 + l0:1 + l1][:, None, None]
        # one buffer besides out and f, which is only read; the terms are
        # combined in the formula's order, and each complex product keeps its
        # factor order (scale first), because a complex product is not
        # bitwise commutative
        f = sample(source.f)
        rhs = np.multiply(h2 / 12.0, sample(source.lap_f), out=out)
        rhs += f
        term = np.multiply(h4 / 360.0, sample(source.d4_f), out=np.empty(out.shape, dtype))
        rhs += term
        np.copyto(term, sample(source.f_xxyy))
        term += sample(source.f_xxzz)
        term += sample(source.f_yyzz)
        rhs += np.multiply(h4 / 90.0, term, out=term)
        np.multiply(h2, rhs, out=rhs)
        rhs -= np.multiply((h4 / 20.0) * k2_col, f, out=term)
        rhs += np.multiply((h2 * h4 / 60.0) * k2z_col, sample(source.f_z), out=term)

    else:  # convection-diffusion
        gamma = np.real(profile.gamma) if real else profile.gamma
        f = sample(source.f)
        fxx = sample(source.f_xx)
        fyy = sample(source.f_yy)
        fz = sample(source.f_z)
        fzz = sample(source.f_zz)
        np.multiply(hz2, f + (grid.h_x**2 / 12.0) * fxx + (grid.h_y**2 / 12.0) * fyy
                    + (hz2 / 12.0) * (gamma * fz + fzz), out=out)


def _accumulate(ext: np.ndarray, table) -> np.ndarray:
    """Apply the 27-point operator to a closed box; returns its interior result.

    ext holds the nodes around a box of rows, one more on each side, and
    table the (A, B, C, D) weights of the box's row levels.
    """
    A, B, C, D = table
    out = np.zeros(tuple(e - 2 for e in ext.shape), dtype=np.result_type(ext, *table))
    n_z, n_y, n_x = out.shape
    weights = {"a": A, "b": B, "c": C, "d": D}
    for dl in (-1, 0, 1):
        k = dl + 1
        zs = slice(1 + dl, 1 + dl + n_z)
        for (di, dj), name in _PLANE_OFFSETS:
            w = weights[name][:, k]
            if not np.any(w):
                continue
            block = ext[zs, 1 + dj:1 + dj + n_y, 1 + di:1 + di + n_x]
            out += w[:, None, None] * block
    return out


def apply_stencil(u: Field3D, boundary: BoundaryData, scheme: SchemeKind,
                  profile: CoefficientProfile, grid: Grid3D) -> Field3D:
    """Matrix-free A*u, including contributions from the boundary lattice.

    A float64 u with a real profile and real boundary values (a known-zero
    boundary counts as real) is painted and accumulated in float64, and the
    result is float64: the real part of the complex path's result. Any
    other input works in complex128.
    """
    if u.values.shape != grid.shape:
        raise ValueError(f"field shape {u.values.shape} != grid {grid.shape}")
    faces = None if boundary.known_zero else boundary.faces(grid)
    table = coefficient_table(scheme, profile, grid)
    real = _works_real(u.values, profile, faces)
    if real:  # the imaginary parts are zero, so dropping them is exact
        table = tuple(w.real for w in table)
        if faces is not None:
            faces = tuple(np.real(f) for f in faces)
    closed = (grid.n_z + 2, grid.n_y + 2, grid.n_x + 2)
    dtype = float if real else complex
    if faces is None:
        ext = np.zeros(closed, dtype=dtype)
    else:
        ext = _paint_box(faces, grid, (0, 0, 0), closed, dtype)
    ext[1:-1, 1:-1, 1:-1] = u.values
    return Field3D(_accumulate(ext, table))


def fold_dirichlet(rhs: Field3D, boundary: BoundaryData, scheme: SchemeKind,
                   profile: CoefficientProfile, grid: Grid3D) -> Field3D:
    """Move known boundary values to a copy of the right-hand side.

    Every interior row loses the sum of (stencil weight x boundary value) over
    its neighbors on the boundary lattice; rows without boundary neighbors are
    copied unchanged. Only the six boundary-adjacent layers are computed, so
    the cost past the copy is O(n^2). The right-hand side, the profile and the
    boundary values are checked first: a non-finite value raises
    NonFiniteInputError naming the field and the node.

    The copy is float64 when the right-hand side is float64 and the profile
    and the boundary faces have zero imaginary parts (a known-zero boundary
    counts as real), and complex128 otherwise; the solve runs in its dtype.
    """
    if rhs.values.shape != grid.shape:
        raise ValueError(f"rhs shape {rhs.values.shape} != grid {grid.shape}")
    _check_profile(profile)
    faces = None if boundary.known_zero else boundary.faces(grid)
    if faces is not None:
        _check_faces(faces, grid)
    real = _works_real(rhs.values, profile, faces)
    values = np.empty(grid.shape, dtype=float if real else complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (plane, src) in enumerate(zip(values, rhs.values)):
            np.copyto(plane, src)
            # screened while the plane is in cache: a non-finite entry makes
            # the sum non-finite (so may an overflow, which the full check clears)
            if not np.isfinite(plane.sum()):
                _check_finite("rhs", plane, lambda ji, l=l: (l + 1, ji[0] + 1, ji[1] + 1))
    if faces is None or not any(np.any(f) for f in faces):
        return Field3D(values)
    table = coefficient_table(scheme, profile, grid)
    if real:  # the imaginary parts are zero, so dropping them is exact
        faces = tuple(np.real(f) for f in faces)
        table = tuple(w.real for w in table)
    for lo, hi in _boundary_layers(grid):
        # rows lo..hi-1 are nodes lo+1..hi; their neighbors are nodes lo..hi+1
        ext = _paint_box(faces, grid, lo, tuple(h + 2 for h in hi), values.dtype)
        rows = [w[lo[0]:hi[0]] for w in table]
        values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] -= _accumulate(ext, rows)
    return Field3D(values)


def _boundary_layers(grid: Grid3D):
    """Disjoint boxes (lo, hi) of 0-based interior rows, (l, j, i) order.

    Together they hold every row with a boundary neighbor: the planes l = 1
    and n_z, then the rows j = 1 and n_y of the planes between, then the
    columns i = 1 and n_x of the rows between.
    """
    n_z, n_y, n_x = grid.shape
    boxes = [((l, 0, 0), (l + 1, n_y, n_x)) for l in sorted({0, n_z - 1})]
    if n_z > 2:
        boxes += [((1, j, 0), (n_z - 1, j + 1, n_x)) for j in sorted({0, n_y - 1})]
        if n_y > 2:
            boxes += [((1, 1, i), (n_z - 1, n_y - 1, i + 1)) for i in sorted({0, n_x - 1})]
    return boxes


def _check_finite(name, values, node):
    """Raise NonFiniteInputError at the first non-finite entry of values.

    node maps the entry's index in values to the node index reported.
    """
    finite = np.isfinite(values)
    if not finite.all():
        first = tuple(int(k) for k in np.argwhere(~finite)[0])
        at = node(first)
        raise NonFiniteInputError(
            f"{name} is not finite at node {at}: {values[first]}", field=name, index=at)


def _check_profile(profile: CoefficientProfile):
    for name in ("k2", "k2_z", "k2_zz"):
        _check_finite(name, np.asarray(getattr(profile, name)), lambda idx: idx)
    _check_finite("gamma", np.asarray(profile.gamma), lambda idx: idx)


def _check_faces(faces, grid: Grid3D):
    """Check the boundary faces; nodes are (l, j, i) on the closed grid."""
    last = (grid.n_z + 1, grid.n_y + 1, grid.n_x + 1)
    for k, face in enumerate(faces):
        axis, at = k // 2, (0, last[k // 2])[k % 2]
        _check_finite("boundary", face,
                      lambda idx, axis=axis, at=at: idx[:axis] + (at,) + idx[axis:])


def residual_l2(u: Field3D, rhs_folded: Field3D, scheme: SchemeKind,
                profile: CoefficientProfile, grid: Grid3D) -> float:
    """Absolute Euclidean norm of A*u - F with boundary data already folded.

    Because rhs_folded carries the boundary contribution, the operator is
    applied here with homogeneous boundary values, in float64 when u and
    the profile are real (see apply_stencil).
    """
    if u.values.shape != rhs_folded.values.shape:
        raise ValueError(
            f"extent mismatch: {u.values.shape} vs {rhs_folded.values.shape}"
        )
    au = apply_stencil(u, BoundaryData.zero(), scheme, profile, grid)
    return float(np.linalg.norm((au.values - rhs_folded.values).ravel()))

"""Orthonormal 2D type-I discrete sine transform, applied plane by plane.

The 1D kernel is S[n, i] = sqrt(2/(N+1)) sin(pi n i / (N+1)) (1-based n, i),
which is symmetric and orthogonal, so forward and inverse are the same map and
no normalization flag exists to get wrong. The 2D transform is the x-pass
followed by the y-pass; every mode of the solver shares this exact arithmetic,
which keeps results bit-identical across worker counts.

The 1D pass is scipy's O(N log N) sine transform; the dense reference used to
cross-check it is `oracle.dst2d_reference`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.fft


@dataclass(frozen=True)
class TransformPlan:
    """Extents of the (n_y, n_x) planes a transform acts on."""

    n_x: int
    n_y: int


def make_plan(n_x: int, n_y: int) -> TransformPlan:
    """Create a transform plan for (n_y, n_x) planes."""
    if n_x < 1 or n_y < 1:
        raise ValueError(f"plan extents must be >= 1, got ({n_x}, {n_y})")
    return TransformPlan(n_x=n_x, n_y=n_y)


def dst_lines(values: np.ndarray, axis: int, overwrite_x: bool = False) -> np.ndarray:
    """Orthonormal DST-I along one axis of an array (the 1D pass)."""
    return scipy.fft.dst(values, type=1, norm="ortho", axis=axis, overwrite_x=overwrite_x)


def dst2d(plan: TransformPlan, plane: np.ndarray) -> np.ndarray:
    """2D orthonormal sine transform of one (n_y, n_x) plane."""
    if plane.shape != (plan.n_y, plan.n_x):
        raise ValueError(f"plane shape {plane.shape} != plan ({plan.n_y}, {plan.n_x})")
    return dst_lines(dst_lines(plane, axis=1), axis=0)


def transform_stack(plan: TransformPlan, field3d, plane_range: Optional[tuple] = None) -> None:
    """Transform a range of z-planes of a field in place.

    plane_range is a 0-based half-open (start, stop) over the z index; None
    means all planes. Concurrent callers must use disjoint ranges. Each plane
    is transformed in its own memory, which needs a contiguous x axis; a
    field whose x axis is strided is rejected with ValueError.
    """
    values = field3d.values if hasattr(field3d, "values") else field3d
    if values.shape[1:] != (plan.n_y, plan.n_x):
        raise ValueError(f"plane shape {values.shape[1:]} != plan ({plan.n_y}, {plan.n_x})")
    n_z = values.shape[0]
    start, stop = (0, n_z) if plane_range is None else plane_range
    if not 0 <= start <= stop <= n_z:
        raise IndexError(f"plane range ({start}, {stop}) outside 0..{n_z}")
    if plan.n_x > 1 and values.strides[2] != values.itemsize:
        raise ValueError(f"x axis stride {values.strides[2]} is not the item size "
                         f"{values.itemsize}; planes cannot be transformed in place")
    # plane at a time: both 1D passes run while the plane is still in cache
    for l in range(start, stop):
        _dst2d_in_place(values[l])


def _dst2d_in_place(plane: np.ndarray) -> None:
    """Both 1D passes over one plane, written into the plane's own memory.

    A complex plane is viewed as a real (n_y, n_x, 2) array, so each pass
    transforms the real and imaginary lines together and no temporary plane
    is allocated. The per-line arithmetic is that of dst2d, bit for bit.
    """
    if np.iscomplexobj(plane):
        plane = plane.view(plane.real.dtype).reshape(plane.shape + (2,))
    out = dst_lines(dst_lines(plane, axis=1, overwrite_x=True), axis=0, overwrite_x=True)
    if not np.may_share_memory(out, plane):  # the backend declined to overwrite
        plane[...] = out

"""Orthonormal 2D type-I discrete sine transform, applied plane by plane.

The 1D kernel is S[n, i] = sqrt(2/(N+1)) sin(pi n i / (N+1)) (1-based n, i),
which is symmetric and orthogonal, so forward and inverse are the same map and
no normalization flag exists to get wrong. The 2D transform is the x-pass
followed by the y-pass; every mode of the solver shares this exact arithmetic,
which keeps results bit-identical across worker counts.

There is one kernel: transform_stack runs both passes over each plane in the
plane's own memory, and dst2d runs it on a copy. It takes float64 and
complex128 only, with none of scipy.fft's input rules: any other dtype
raises ValueError. A complex plane is viewed as a real (n_y, n_x, 2) array,
so a pass transforms a line's real and imaginary parts together.

The 1D pass is pocketfft's O(N log N) DST-I, scipy's compiled
`scipy.fft._pocketfft.pypocketfft`, loaded from its file under that name: this
skips the `scipy.fft` package init, several times the rest of the import, and a
later `import scipy.fft` reuses it. If the file is not found, a plain import of
that name gives the same module. The dense reference is `oracle.dst2d_reference`.
"""

import os
import sys
from dataclasses import dataclass
from importlib import import_module, machinery, util
from typing import Optional

import numpy as np

_PFFT_NAME = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """scipy's pocketfft extension, without running scipy.fft's package init."""
    scipy_spec, spec = util.find_spec("scipy"), None  # find_spec imports nothing
    if scipy_spec is not None and _PFFT_NAME not in sys.modules:
        folder = os.path.join(scipy_spec.submodule_search_locations[0], "fft", "_pocketfft")
        spec = machinery.FileFinder(folder, (machinery.ExtensionFileLoader,
                                             machinery.EXTENSION_SUFFIXES)).find_spec(_PFFT_NAME)
    if spec is not None:
        sys.modules[_PFFT_NAME] = module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return import_module(_PFFT_NAME)  # the module just loaded, else the plain import


_pfft = _load_pocketfft()


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


def dst2d(plan: TransformPlan, plane: np.ndarray) -> np.ndarray:
    """2D orthonormal sine transform of one (n_y, n_x) plane of any layout,
    into a new C-ordered array: complex128 for a complex plane, float64 for
    any other."""
    if plane.shape != (plan.n_y, plan.n_x):
        raise ValueError(f"plane shape {plane.shape} != plan ({plan.n_y}, {plan.n_x})")
    # C order: a transposed plane's copy would keep its strided x axis
    out = np.array(plane, dtype=complex if np.iscomplexobj(plane) else float, order="C")
    transform_stack(plan, out[None])
    return out


def transform_stack(plan: TransformPlan, field3d, plane_range: Optional[tuple] = None) -> None:
    """Transform a range of z-planes of a float64 or complex128 field in place.

    plane_range is a 0-based half-open (start, stop) over the z index; None
    means all planes. Concurrent callers must use disjoint ranges. Each plane
    is transformed in its own memory, which needs a contiguous x axis; a
    field whose x axis is strided, or of any other dtype, is rejected with
    ValueError before any plane is written.
    """
    values = field3d.values if hasattr(field3d, "values") else field3d
    if values.shape[1:] != (plan.n_y, plan.n_x):
        raise ValueError(f"plane shape {values.shape[1:]} != plan ({plan.n_y}, {plan.n_x})")
    if values.dtype not in (np.float64, np.complex128):
        raise ValueError(f"field dtype {values.dtype} is not float64 or complex128")
    n_z = values.shape[0]
    start, stop = (0, n_z) if plane_range is None else plane_range
    if not 0 <= start <= stop <= n_z:
        raise IndexError(f"plane range ({start}, {stop}) outside 0..{n_z}")
    if plan.n_x > 1 and values.strides[2] != values.itemsize:
        raise ValueError(f"x axis stride {values.strides[2]} is not the item size "
                         f"{values.itemsize}; planes cannot be transformed in place")
    if values.dtype == np.complex128:  # as real (n_z, n_y, n_x, 2), see above
        values = values.view(np.float64).reshape(values.shape + (2,))
    # plane at a time: both 1D passes run while the plane is still in cache;
    # the arguments are type 1, the axis, norm "ortho", the output, one thread
    for plane in values[start:stop]:
        _pfft.dst(plane, 1, (1,), 1, plane, 1)
        _pfft.dst(plane, 1, (0,), 1, plane, 1)

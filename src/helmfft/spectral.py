"""Orthonormal 2D type-I discrete sine transform, applied plane by plane.

The 1D kernel is S[n, i] = sqrt(2/(N+1)) sin(pi n i / (N+1)) (1-based n, i),
which is symmetric and orthogonal, so forward and inverse are the same map and
no normalization flag exists to get wrong. The 2D transform is the x-pass
followed by the y-pass; every mode of the solver shares this exact arithmetic,
which keeps results bit-identical across worker counts.

transform_stack runs both passes over each plane in the plane's own memory,
and dst2d runs it on a copy. It takes float64 and complex128 only, with none
of scipy.fft's input rules: any other dtype raises ValueError. A complex plane
is viewed as a real (n_y, n_x, 2) array, so a pass transforms a line's real
and imaginary parts together.

Each axis of a plan takes one of two 1D kernels, by a fixed rule on its length
N and the dtype (make_plan), never timed, so every process and mode agrees.
pocketfft's O(N log N) DST-I, a real FFT of length 2(N + 1), serves complex
planes, planes of one line, N > 400, and 150 < N <= 400 when N + 1 has no
prime factor above 7. Otherwise BLAS applies S at half the multiply-adds
(_fold), in products of at most 2^18 multiply-adds, which OpenBLAS runs on
the calling thread: no BLAS thread wakes, and the bits do not depend on the
BLAS thread count, as those of whole-plane products at N = 250 do. One real
plane on one thread, pocketfft -> dense, in ms (2-vCPU host, best of five
medians of 7 passes over 16 planes):

    N     63     125   126   159   172   200   240   249   250   251   319   400
    ms  .063    .39  1.73   .30  3.77  1.89  13.0   .86  8.18  1.07  2.25  24.8
     -> .051    .16   .16   .29   .42   .61   .90   .97  1.00  1.07  3.36  6.64

pocketfft is scipy's compiled `scipy.fft._pocketfft.pypocketfft`, loaded from
its file under that name: this skips the `scipy.fft` package init, several
times the rest of the import, and a later `import scipy.fft` reuses it. If the
file is not found, a plain import of that name gives the same module. The
dense reference is `oracle.dst2d_reference`.
"""

import functools
import os
import sys
from dataclasses import dataclass, field
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

GEMM_MADDS = 1 << 18  # OpenBLAS runs a gemm of M*N*K <= 65536 * 4 on its caller's thread
DENSE_MAX_N = 400     # a longer axis takes pocketfft
DENSE_ANY_N = 150     # a shorter one takes the dense kernel
SMOOTH_PRIME = 7      # between them, dense iff n + 1 has a larger prime factor


@functools.lru_cache(maxsize=8)
def _sine_halves(n: int) -> tuple:
    """S's first n - n // 2 rows at its even modes and first n // 2 rows at
    its odd modes, read-only; each sine is taken of an angle <= pi / 2."""
    k = np.arange(1, n + 1)
    j = np.outer(k, k) % (2 * n + 2)  # the angle pi j / (n + 1), below 2 pi
    sign, j = np.where(j > n + 1, -1.0, 1.0), j % (n + 1)  # then sin(pi - x) = sin(x)
    s = sign * np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.minimum(j, n + 1 - j) / (n + 1))
    even, odd = s[:n - n // 2, 0::2].copy(), s[:n // 2, 1::2].copy()
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


def _fold(src: np.ndarray, dst: np.ndarray) -> None:
    """Along axis 0, src[i] + src[n-1-i] and an odd n's middle row into dst's first
    n - n // 2 rows, src[i] - src[n-1-i] into the rest; S[n-1-i, k] = (-1)^k S[i, k]."""
    h, e = src.shape[0] // 2, src.shape[0] - src.shape[0] // 2
    np.add(src[:h], src[:e - 1:-1], out=dst[:h])
    np.subtract(src[:h], src[:e - 1:-1], out=dst[e:])
    dst[h:e] = src[h:e]


@dataclass(frozen=True)
class TransformPlan:
    """Extents of the (n_y, n_x) planes a transform acts on, and each dense axis's
    _sine_halves and blocks of lines for real planes (None: pocketfft)."""

    n_x: int
    n_y: int
    dense_x: Optional[tuple] = field(default=None, repr=False, compare=False)
    dense_y: Optional[tuple] = field(default=None, repr=False, compare=False)

    def kernels(self, dtype) -> tuple:
        """"dense" or "pocketfft" for the x and the y axis of planes of dtype."""
        real = np.dtype(dtype) == np.float64
        return tuple("dense" if real and d else "pocketfft" for d in (self.dense_x, self.dense_y))


def make_plan(n_x: int, n_y: int) -> TransformPlan:
    """Create a transform plan for (n_y, n_x) planes."""
    if n_x < 1 or n_y < 1:
        raise ValueError(f"plan extents must be >= 1, got ({n_x}, {n_y})")
    dense = [None, None]
    for axis, (n, lines) in enumerate(((n_x, n_y), (n_y, n_x))):
        m, p = n + 1, 2
        while p * p <= m:  # divide out each p; m ends as n + 1's largest prime factor
            m, p = (m // p, p) if m % p == 0 else (m, p + 1)
        # numpy would run gemv for a plane of one line, which OpenBLAS threads sooner
        if n <= DENSE_MAX_N and (n <= DENSE_ANY_N or m > SMOOTH_PRIME) and min(n, lines) > 1:
            size = min(lines, GEMM_MADDS // (n - n // 2) ** 2)  # >= 2 lines a product
            starts = (min(i, lines - size) for i in range(0, lines, size))  # last ends at lines
            dense[axis] = _sine_halves(n) + ([slice(i, i + size) for i in starts],)
    return TransformPlan(n_x, n_y, *dense)


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
    dense_x, dense_y = (plan.dense_x, plan.dense_y) if values.dtype == np.float64 else (None,) * 2
    if values.dtype == np.complex128:  # as real (n_z, n_y, n_x, 2), see above
        values = values.view(np.float64).reshape(values.shape + (2,))
    a, b = np.empty((2, plan.n_y, plan.n_x)) if dense_x or dense_y else (None, None)
    e_x, e_y = plan.n_x - plan.n_x // 2, plan.n_y - plan.n_y // 2
    # plane at a time, in cache; pocketfft's arguments: type 1, axis, norm "ortho",
    # output, one thread. A dense pass folds the lines into a, then multiplies them
    # by S's halves a block at a time, the x pass into b with even x modes first
    for plane in values[start:stop]:
        if dense_x is None:
            _pfft.dst(plane, 1, (1,), 1, plane, 1)
        else:
            _fold(plane.T, a.T)
            for r in dense_x[2]:
                np.matmul(a[r, :e_x], dense_x[0], out=b[r, :e_x])
                np.matmul(a[r, e_x:], dense_x[1], out=b[r, e_x:])
            plane[:, 0::2], plane[:, 1::2] = b[:, :e_x], b[:, e_x:]
        if dense_y is None:
            _pfft.dst(plane, 1, (0,), 1, plane, 1)
        else:
            _fold(plane, a)
            for c in dense_y[2]:
                np.matmul(dense_y[0].T, a[:e_y, c], out=plane[0::2, c])
                np.matmul(dense_y[1].T, a[e_y:, c], out=plane[1::2, c])

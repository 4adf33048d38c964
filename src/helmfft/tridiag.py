"""Solution of the decoupled spectral tridiagonal systems by one compiled sweep.

After the 2D sine transform, each mode pair (n, m) obeys an n_z x n_z
tridiagonal system whose row l couples the transformed values at levels
l-1, l, l+1 with the eigenvalues of that row's three level operators.
`solve_slab` checks its table and takes it in the slab's dtype, then solves
a y-range's independent lines by Thomas elimination (LU without pivoting,
O(n_z) per line) in the C kernel of `_sweep.c`, which releases the
interpreter lock and repeats numpy's operations in numpy's order, in eight
lanes on a CPU with AVX-512 (`KERNEL.lanes`): on every CPU its bits are those
of `oracle.sweep_reference`. On first import the kernel is compiled with
sysconfig's CC; without a C compiler the import fails. The one-mode
reference (`assemble_system`, `solve_system`) lives in `oracle`.
"""

import contextlib
import ctypes
import os
import shlex
import sysconfig
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np

try:  # CPython's builtin BLAKE2, without hashlib's OpenSSL import
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from .errors import SingularSystemError
from .grid import Grid3D
from .stencil import check_table, mode_cosines

# pivot smaller than this multiple of the system's band scale is treated as
# a resonant (singular) spectral system
PIVOT_RTOL = 1e-14

_SOURCE = Path(__file__).with_name("_sweep.c")
# no contraction and no auto-vectorization, so each value is rounded as
# numpy rounds it: gcc 12 fuses Smith's (ar + ai rat, ai - ar rat) pair into
# vfmaddsub under -ffp-contract=off unless SLP vectorization is off too, and
# contraction would fuse the AVX-512 intrinsics, gcc's vector operations
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-tree-vectorize", "-fno-tree-slp-vectorize",
          "-fPIC", "-shared")

# the library's file, numpy's multiply form it repeats, the mode columns it
# sweeps at a time on this CPU (8 with AVX-512, else 1), and its two sweeps
Kernel = namedtuple("Kernel", "path multiply lanes real complex")


def _numpy_multiply_form() -> str:
    """"fma" if numpy's complex product is re = fma(ar, br, -ai bi),
    im = fma(ar, bi, ai br), else "plain". Both parts of this product, fused
    and rounded once, differ from the plain form's."""
    a, b = complex(1 + 2.0**-26, 1 + 2.0**-25), complex(1 + 2.0**-27, 1 + 2.0**-27)
    fused = complex(float.fromhex("-0x1.0000002p-26"), float.fromhex("0x1.0000008000001p+1"))
    return "fma" if (np.full(8, a) * np.full(8, b))[-1] == fused else "plain"


def _cache_dir() -> Path:
    """The package's __pycache__, or a per-user directory under the
    temporary directory when the package cannot be written."""
    directory = Path(__file__).with_name("__pycache__")
    with contextlib.suppress(OSError):
        directory.mkdir(exist_ok=True)
    if os.access(directory, os.W_OK):
        return directory
    directory = Path(tempfile.gettempdir()) / f"helmfft-{os.getuid()}"
    directory.mkdir(mode=0o700, exist_ok=True)
    if directory.stat().st_uid != os.getuid():
        raise ImportError(f"{directory} belongs to another user; not loading a kernel from it")
    return directory


def _load_kernel(directory, cc=None) -> Kernel:
    """Load the kernel from directory, compiled there first if missing, with
    the compiler argument list cc (default sysconfig's CC). Its file name
    hashes the source, the flags, numpy's multiply form and the platform. It
    is written under a temporary name and published with os.replace, so
    concurrent first loads each find a whole file."""
    multiply = _numpy_multiply_form()
    flags = _FLAGS + (("-mfma", "-DSWEEP_FMA") if multiply == "fma" else ())
    tag = repr((flags, multiply, sysconfig.get_platform())).encode()
    key = blake2b(_SOURCE.read_bytes() + tag, digest_size=8).hexdigest()
    path = Path(directory) / f"_sweep-{key}.so"
    if not path.exists():
        import subprocess  # only to compile: the costliest import here
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc") if cc is None else cc
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.stem, suffix=".tmp")
        os.close(fd)
        try:
            try:
                done = subprocess.run([*cc, *flags, str(_SOURCE), "-o", tmp, "-lm"],
                                      capture_output=True, text=True)
            except OSError as exc:
                raise ImportError(f"helmfft builds its sweep kernel with a C compiler; "
                                  f"CC {shlex.join(cc)!r} could not be run: {exc}") from exc
            if done.returncode:
                raise ImportError(f"CC {shlex.join(cc)!r} failed on {_SOURCE}:\n{done.stderr}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    lib = ctypes.CDLL(str(path))
    for sweep in (lib.sweep_real, lib.sweep_complex):
        sweep.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 3 \
            + [ctypes.c_double] + [ctypes.c_void_p] * 2
        sweep.restype = ctypes.c_int64
    return Kernel(path, multiply, lib.sweep_lanes(), lib.sweep_real, lib.sweep_complex)


KERNEL = _load_kernel(_cache_dir())


def solve_slab(values: np.ndarray, table, grid: Grid3D, m_start: int = 0) -> None:
    """Sweep a (n_z, M, n_x) slab in place; local row j is global mode m_start + j.

    values, a writeable float64 or complex128 array of whole x-rows, may be
    a worker's y-range view of a shared slab; workers sweep concurrently.
    table, the (A, B, C, D) coefficient table, is checked (see check_table)
    and taken in the slab's dtype: a float64 slab takes its real parts, and
    a nonzero imaginary part raises TypeError. The multipliers take one
    (n_z, n_x) scratch per call. Pivots are screened against the largest
    stencil weight, which bounds the eigenvalues within a small multiple, so
    a pivot below PIVOT_RTOL times it, or a NaN pivot, marks a resonant
    system: SingularSystemError names the first in (level, m, n) order. An
    all-zero table fails its first pivot.
    """
    dtype, (n_z, n_m, n_x) = values.dtype, values.shape
    if dtype not in (np.float64, np.complex128):
        raise TypeError(f"the sweep takes float64 or complex128 slabs, got {dtype}")
    if (n_z, n_x) != (grid.n_z, grid.n_x) or not 0 <= m_start <= m_start + n_m <= grid.n_y:
        raise ValueError(f"slab {values.shape} from mode row {m_start} is not a y-range "
                         f"of grid {grid.shape}")
    size = dtype.itemsize
    if values.strides[1:] != (n_x * size, size) or values.strides[0] < n_m * n_x * size \
            or values.strides[0] % size or not values.flags.writeable:
        raise ValueError(f"slab strides {values.strides} are not whole x-rows of a "
                         f"writeable {dtype} array")
    table = check_table(table, grid)
    if dtype == np.float64 and any(np.any(w.imag) for w in table):
        raise TypeError("a table with nonzero imaginary parts cannot sweep a float64 slab")
    A, B, C, D = (w.real if dtype == np.float64 else w for w in table)
    scale = max(float(np.abs(w).max()) for w in (A, B, C, D))
    weights = np.stack([4.0 * A, 2.0 * B, 2.0 * C, D], axis=-1)
    cx, cy = mode_cosines(grid)
    cp, failed = np.empty((n_z, n_x), dtype), np.zeros(3, np.int64)
    sweep = KERNEL.complex if dtype == np.complex128 else KERNEL.real
    if n_m and sweep(values.ctypes.data, values.strides[0] // size, n_x, n_z, n_m, n_x,
                     weights.ctypes.data, cx.ctypes.data, cy[m_start:].ctypes.data,
                     PIVOT_RTOL * scale or np.inf, cp.ctypes.data, failed.ctypes.data):
        l, m, n = (int(i) + 1 for i in failed)
        raise SingularSystemError(f"vanishing pivot at row {l} for mode "
                                  f"(n={n}, m={m_start + m})", n=n, m=m_start + m)

import contextlib
import importlib
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helmfft import spectral
from helmfft.assembly import Field3D
from helmfft.grid import Domain, constant_profile, make_grid
from helmfft.oracle import dense_plane_matrix, dst2d_reference, eigenvalue
from helmfft.spectral import dst2d, make_plan, transform_stack
from helmfft.stencil import SchemeKind, coefficient_table


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def random_plane(n_y, n_x, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_y, n_x)) + 1j * rng.standard_normal((n_y, n_x))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@contextlib.contextmanager
def reloaded_spectral(mp):
    """Reload helmfft.spectral under mp's patches, yielding the names its file
    loader loaded; the module's first namespace, classes included, is restored."""
    saved, loaded = dict(vars(spectral)), []
    module_from_spec = importlib.util.module_from_spec
    mp.setattr(importlib.util, "module_from_spec",
               lambda spec: loaded.append(spec.name) or module_from_spec(spec))
    try:
        importlib.reload(spectral)
        yield loaded
    finally:
        vars(spectral).update(saved)


@pytest.fixture(params=["direct", "plain"])
def route(request, tmp_path):
    """helmfft.spectral with pocketfft loaded from its file (as imported), or
    reloaded with the file looking missing, so the plain import supplies it."""
    if request.param == "direct":
        yield spectral
        return
    find_spec = importlib.util.find_spec
    no_file = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    no_file.submodule_search_locations.append(str(tmp_path))  # a scipy without pocketfft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.util, "find_spec",
                   lambda n, package=None: no_file if n == "scipy" else find_spec(n, package))
        mp.delitem(sys.modules, spectral._PFFT_NAME)
        with reloaded_spectral(mp) as loaded:
            assert loaded == []  # not the file loader, so the plain import
            assert spectral._pfft is sys.modules[spectral._PFFT_NAME]
            yield spectral


class TestPlan:
    def test_trivial_plan_is_identity(self):
        plan = make_plan(1, 1)
        plane = np.array([[2.0 + 1.0j]])
        assert np.allclose(dst2d(plan, plane), plane, atol=1e-15)

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            make_plan(0, 3)

    def test_shape_checked(self):
        plan = make_plan(4, 5)
        with pytest.raises(ValueError):
            dst2d(plan, np.zeros((4, 4), dtype=complex))


class TestKernel:
    def test_basis_vector_line(self):
        # first basis vector of a 3-point line maps to (1/2, 1/sqrt 2, 1/2)
        out = dst2d(make_plan(3, 1), np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(out, [[0.5, 1 / math.sqrt(2), 0.5]], atol=1e-15)

    def test_single_mode_becomes_delta(self):
        n_x, n_y = 8, 6
        n0, m0 = 3, 2
        i = np.arange(1, n_x + 1)
        j = np.arange(1, n_y + 1)
        plane = (np.sin(math.pi * m0 * j / (n_y + 1))[:, None]
                 * np.sin(math.pi * n0 * i / (n_x + 1))[None, :]).astype(complex)
        out = dst2d(make_plan(n_x, n_y), plane)
        expect = np.zeros_like(out)
        expect[m0 - 1, n0 - 1] = math.sqrt((n_x + 1) * (n_y + 1)) / 2.0
        assert np.abs(out - expect).max() < 1e-12

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 125])
    def test_involution(self, n, real):
        """Complex planes take pocketfft, real ones (n > 1) the dense kernel."""
        plane = random_plane(n, n, seed=n)
        plane = plane.real.copy() if real else plane
        plan = make_plan(n, n)
        twice = dst2d(plan, dst2d(plan, plane))
        assert np.abs(twice - plane).max() <= 1e-13 * np.abs(plane).max()

    def test_norm_preservation(self):
        plane = random_plane(17, 23, seed=1)
        out = dst2d(make_plan(23, 17), plane)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(plane), rel=1e-13)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("n_x,n_y", [(3, 3), (8, 5), (16, 16), (64, 32), (2, 9),
                                         (125, 126)])
    def test_fast_path_matches_dense_reference(self, n_x, n_y, real):
        """Odd and even extents of both kernels (real planes are dense)."""
        plane = random_plane(n_y, n_x, seed=n_x + n_y)
        plane = plane.real.copy() if real else plane
        plan = make_plan(n_x, n_y)
        fast = dst2d(plan, plane)
        dense = dst2d_reference(plan, plane)
        assert np.abs(fast - dense).max() < 1e-14 * max(1.0, np.abs(dense).max())


class TestDiagonalization:
    @pytest.mark.parametrize("scheme", [SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER,
                                        SchemeKind.SIXTH_ORDER,
                                        SchemeKind.CONVECTION_DIFFUSION_4])
    def test_transform_diagonalizes_plane_operator(self, scheme):
        n = 6
        grid = make_grid(Domain(0, math.pi, 0, math.pi, 0, math.pi), n, n, n)
        prof = constant_profile(2.0, grid) if scheme is not \
            SchemeKind.CONVECTION_DIFFUSION_4 else constant_profile(0.0, grid, gamma=-4.0)
        table = coefficient_table(scheme, prof, grid)
        plan = make_plan(n, n)
        for offset in (-1, 0, 1):
            a, b, c, d = (w[1, offset + 1] for w in table)  # row level 2
            C = dense_plane_matrix(a, b, c, d, n, n)
            for (n0, m0) in [(1, 1), (2, 5), (4, 3)]:
                mode = np.zeros((n, n), dtype=complex)
                mode[m0 - 1, n0 - 1] = 1.0
                plane = dst2d(plan, mode)
                applied = (C @ plane.reshape(-1)).reshape(n, n)
                back = dst2d(plan, applied)
                lam = eigenvalue(table, 2, offset, n0, m0, grid)
                assert np.abs(back - lam * mode).max() < 1e-12


class TestTransformStack:
    @pytest.mark.parametrize("shape", [(5, 4), (5, 5), (4, 4), (20,)])
    def test_plane_of_another_shape_rejected(self, shape):
        plan = make_plan(5, 4)  # planes of 4 rows of 5
        stack = np.zeros((2,) + shape)
        with pytest.raises(ValueError, match=r"plane shape .* != plan \(4, 5\)"):
            transform_stack(plan, stack)
        assert not stack.any()
        with pytest.raises(ValueError, match=r"plane shape .* != plan \(4, 5\)"):
            dst2d_reference(plan, np.zeros(shape))

    def test_per_plane_delta(self):
        n = 5
        plan = make_plan(n, n)
        i = np.arange(1, n + 1)
        field = Field3D(np.zeros((3, n, n), dtype=complex))
        for l, (n0, m0) in enumerate([(1, 1), (2, 3), (5, 4)]):
            field.values[l] = (np.sin(math.pi * m0 * i / (n + 1))[:, None]
                               * np.sin(math.pi * n0 * i / (n + 1))[None, :])
        transform_stack(plan, field)
        for l, (n0, m0) in enumerate([(1, 1), (2, 3), (5, 4)]):
            expect = np.zeros((n, n))
            expect[m0 - 1, n0 - 1] = (n + 1) / 2.0
            assert np.abs(field.values[l] - expect).max() < 1e-12

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_disjoint_halves_equal_full(self, real):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((8, 6, 7)) + (0 if real else
                                                 1j * rng.standard_normal((8, 6, 7)))
        plan = make_plan(7, 6)
        full = Field3D(data.copy())
        transform_stack(plan, full)
        halves = Field3D(data.copy())
        transform_stack(plan, halves, (0, 3))
        transform_stack(plan, halves, (3, 8))
        assert np.array_equal(full.values, halves.values)

    def test_empty_range_is_noop(self):
        data = random_plane(4, 4, seed=2).reshape(1, 4, 4).repeat(3, axis=0)
        field = Field3D(data.copy())
        transform_stack(make_plan(4, 4), field, (1, 1))
        assert np.array_equal(field.values, data)

    def test_range_validated(self):
        field = Field3D(np.zeros((4, 3, 3), dtype=complex))
        with pytest.raises(IndexError):
            transform_stack(make_plan(3, 3), field, (0, 5))

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("window", [(slice(2, 7), slice(None)),
                                        (slice(1, 6), slice(2, 9))])
    def test_in_place_on_non_contiguous_view(self, window, real):
        """Complex planes take pocketfft, real ones the dense kernel."""
        rng = np.random.default_rng(41)
        big = rng.standard_normal((4, 9, 10)) + (0 if real else
                                                  1j * rng.standard_normal((4, 9, 10)))
        original = big.copy()
        view = big[:, window[0], window[1]]
        assert not view.flags.c_contiguous
        plan = make_plan(view.shape[2], view.shape[1])
        assert plan.kernels(view.dtype) == (("dense",) * 2 if real else ("pocketfft",) * 2)
        transform_stack(plan, view)
        inside = np.zeros(big.shape, dtype=bool)
        inside[:, window[0], window[1]] = True
        for l in range(big.shape[0]):
            plane = original[l][window]
            assert np.array_equal(big[l][window], dst2d(plan, plane))
            assert np.abs(big[l][window] - dst2d_reference(plan, plane)).max() < 1e-14
        assert np.array_equal(big[~inside], original[~inside])

    def test_strided_x_axis_rejected_untouched(self):
        rng = np.random.default_rng(43)
        big = rng.standard_normal((3, 5, 8)) + 1j * rng.standard_normal((3, 5, 8))
        original = big.copy()
        with pytest.raises(ValueError):
            transform_stack(make_plan(4, 5), big[:, :, ::2])
        assert np.array_equal(big, original)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float16, np.float32,
                                       np.complex64, ">f8"])
    def test_other_dtypes_rejected_untouched(self, dtype):
        field = np.arange(24).reshape(2, 3, 4).astype(dtype)
        original = field.copy()
        with pytest.raises(ValueError):
            transform_stack(make_plan(4, 3), field)
        assert same_bits(field, original)


def contract_input(case):
    rng = np.random.default_rng(53)
    base = rng.standard_normal((6, 9))
    unaligned = np.zeros(base.nbytes + 1, np.uint8)[1:].view(np.float64).reshape(base.shape)
    unaligned[...] = base
    return {"unaligned": unaligned,
            "float16": base.astype(np.float16),
            "int32": np.round(100 * base).astype(np.int32),
            "bool": base > 0,
            "float32": base.astype(np.float32),
            "big-endian": base.astype(">f8"),
            "complex128": base + 1j * rng.standard_normal((6, 9)),
            "complex64": (base + 1j * rng.standard_normal((6, 9))).astype(np.complex64),
            "strided": rng.standard_normal((12, 19))[::2, 1::2],
            "strided-complex": random_plane(13, 9, seed=5)[1::2, :]}[case]


def contract_layout(values, layout):
    """A view of a case's array: the whole plane, its transpose (x axis
    strided), one row (the x pass alone) or one column (the y pass alone)."""
    return {"plane": values, "transposed": values.T,
            "row": values[2:3], "column": values[:, 4:5]}[layout]


def expected_dst2d(plan, cast):
    """The bits dst2d must give for an input cast to float64 or complex128:
    where both axes take pocketfft, scipy.fft.dst(type=1, norm="ortho") along
    x and then y; where one takes the dense kernel, those of a fresh
    C-ordered copy, after checking them against the dense reference."""
    import scipy.fft

    if plan.kernels(cast.dtype) == ("pocketfft", "pocketfft"):
        return scipy.fft.dst(scipy.fft.dst(cast, type=1, norm="ortho", axis=1),
                             type=1, norm="ortho", axis=0)
    out = np.array(cast, order="C")
    transform_stack(plan, out[None])
    reference = dst2d_reference(plan, cast)
    assert np.abs(out - reference).max() <= 1e-14 * np.abs(reference).max()
    return out


class TestInputContract:
    """dst2d works in float64, or complex128 for complex input, gives the
    bits of its plan's kernel on each axis (expected_dst2d) on the input cast
    to that dtype, and leaves its input as it was, whatever its layout."""

    @pytest.mark.parametrize("layout", ["plane", "transposed", "row", "column"])
    @pytest.mark.parametrize("case", ["float16", "int32", "bool", "float32", "big-endian",
                                      "unaligned", "complex128", "complex64", "strided",
                                      "strided-complex"])
    def test_bitwise_per_kernel(self, case, layout):
        values = contract_layout(contract_input(case), layout)
        original = values.copy()
        cast = values.astype(complex if np.iscomplexobj(values) else float)
        plan = make_plan(values.shape[1], values.shape[0])
        assert same_bits(dst2d(plan, values), expected_dst2d(plan, cast))
        assert same_bits(values, original)

    @pytest.mark.parametrize("shape", [(9, 9), (6, 9), (159, 125), (125, 159), (251, 250)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_bitwise_per_kernel_sizes(self, shape, real):
        """Square and non-square planes; (159, 125) has a dense x axis and a
        pocketfft y axis, (125, 159) the reverse."""
        rng = np.random.default_rng(shape[0] * shape[1])
        values = rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))
        plan = make_plan(shape[1], shape[0])
        expect = expected_dst2d(plan, values)
        assert same_bits(dst2d(plan, values.T.copy().T), expect)  # Fortran order
        flipped = values[::-1].copy()[::-1]  # rows at a negative stride
        transform_stack(plan, flipped[None])
        assert same_bits(flipped.copy(), expect)
        window = np.zeros((shape[0] + 3, shape[1] + 5), values.dtype)
        window[1:-2, 2:-3] = values
        stack = np.stack([window, window])[:, 1:-2, 2:-3]  # strided rows
        transform_stack(plan, stack, (1, 2))
        transform_stack(plan, stack, (0, 1))
        assert same_bits(stack[0].copy(), expect) and same_bits(stack[1].copy(), expect)


class TestKernelRule:
    """Real planes: dense iff n <= 400 and (n <= 150 or n + 1 has a prime
    factor > 7); complex planes and planes of one line keep pocketfft."""

    @pytest.mark.parametrize("n,kernel", [
        (2, "dense"), (63, "dense"), (125, "dense"), (126, "dense"),
        (150, "dense"), (151, "dense"), (159, "pocketfft"), (172, "dense"),
        (200, "dense"), (239, "pocketfft"), (240, "dense"), (249, "pocketfft"),
        (250, "dense"), (251, "pocketfft"), (255, "pocketfft"), (256, "dense"),
        (300, "dense"), (319, "pocketfft"), (335, "pocketfft"), (400, "dense"),
        (401, "pocketfft"), (671, "pocketfft")])
    def test_rule_table(self, n, kernel):
        plan = make_plan(n, 4)
        assert plan.kernels(np.float64) == (kernel, "dense")
        assert plan.kernels(np.complex128) == ("pocketfft", "pocketfft")
        assert make_plan(4, n).kernels(np.float64) == ("dense", kernel)

    def test_one_line_keeps_pocketfft(self):
        for n_x, n_y in ((125, 1), (1, 125), (1, 1)):
            assert make_plan(n_x, n_y).kernels(np.float64) == ("pocketfft", "pocketfft")

    def test_sine_halves_shared_and_read_only(self):
        plan = make_plan(125, 63)
        assert plan.dense_x[0] is make_plan(125, 9).dense_x[0]
        assert not any(half.flags.writeable for half in plan.dense_x[:2] + plan.dense_y[:2])
        assert plan == make_plan(125, 63) and make_plan(159, 9).dense_x is None


class TestBlasThreads:
    def test_dense_bits_do_not_depend_on_blas_threads(self):
        """Each dense product stays below OpenBLAS's threading size, so one
        BLAS thread and two give the same bits, with the solve's two pool
        threads transforming at once. Products of whole planes at n = 250
        would not: OpenBLAS threads them and their bits change."""
        code = (
            "import hashlib, numpy as np, helmfft as hf\n"
            "rng = np.random.default_rng(61)\n"
            "for n, planes in ((125, 125), (250, 8)):\n"
            "    stack = rng.standard_normal((planes, n, n))\n"
            "    plan = hf.make_plan(n, n)\n"
            "    assert plan.kernels(stack.dtype) == ('dense', 'dense')\n"
            "    hf.transform_stack(plan, stack)\n"
            "    print(hashlib.blake2b(stack.tobytes()).hexdigest())\n"
            "p = hf.helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0,"
            " hf.SchemeKind.SIXTH_ORDER, 33)\n"
            "u = hf.solve_direct(p, hf.SolverConfig(mode=hf.SharedWorkers(2))).values\n"
            "assert u.dtype == np.float64\n"
            "print(hashlib.blake2b(u.tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.split())
        assert digests[0] == digests[1]


class TestLoadRoutes:
    def test_stack_bitwise_on_each_route(self, route):
        """Each plane of a stack gets expected_dst2d's bits on either load
        route: real planes the dense kernel, complex ones pocketfft."""
        rng = np.random.default_rng(59)
        real = rng.standard_normal((3, 7, 10))
        plan = route.make_plan(10, 7)
        for data in (real, real + 1j * rng.standard_normal(real.shape)):
            field = data.copy()
            route.transform_stack(plan, field)
            for l in range(data.shape[0]):
                assert same_bits(field[l], expected_dst2d(plan, data[l]))

    def test_registered_module_is_reused(self, monkeypatch):
        """Once the module is imported (by scipy.fft, say), a load reuses it."""
        with reloaded_spectral(monkeypatch) as loaded:
            assert loaded == [] and spectral._pfft is sys.modules[spectral._PFFT_NAME]

    def test_import_leaves_scipy_fft_unloaded(self):
        """A fresh `import helmfft` loads pocketfft alone; scipy.fft reuses it."""
        code = ("import sys, numpy as np, helmfft\n"
                "assert 'scipy.fft' not in sys.modules, sorted(sys.modules)\n"
                "import scipy.fft\n"
                "pfft = sys.modules['scipy.fft._pocketfft.pypocketfft']\n"
                "assert pfft is helmfft.spectral._pfft\n"
                "assert scipy.fft._pocketfft.realtransforms.pfft is pfft\n"
                "x = np.arange(1.0, 8.0).reshape(1, 7)\n"
                "plan = helmfft.make_plan(7, 1)\n"
                "assert plan.kernels(x.dtype) == ('pocketfft', 'pocketfft')\n"
                "assert np.array_equal(scipy.fft.dst(x, type=1, norm='ortho'),\n"
                "                      helmfft.spectral.dst2d(plan, x))\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestScalingShape:
    def test_line_transform_near_linear_cost(self):
        """Doubling the line length should far undercut the quadratic ratio.

        A dense kernel would cost 4x per doubling; the fast path's per-line
        work is ~2.25x at these sizes. Measured on one plane of a fixed batch
        of lines, whose y pass (twice the lines, same length) costs 2x,
        minimum of several repeats to shrug off scheduler noise.
        """
        batch = 128
        sizes = (256, 512)
        times = []
        for n in sizes:
            data = random_plane(batch, n, seed=n)[None]
            plan = make_plan(n, batch)
            best = math.inf
            for _ in range(7):
                t0 = time.perf_counter()
                transform_stack(plan, data)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        assert times[1] / times[0] <= 2.6

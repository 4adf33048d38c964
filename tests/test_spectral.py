import math
import time

import numpy as np
import pytest

from helmfft.assembly import Field3D
from helmfft.grid import Domain, constant_profile, make_grid
from helmfft.oracle import dense_plane_matrix, dst2d_reference, eigenvalue
from helmfft.spectral import dst2d, dst_lines, make_plan, transform_stack
from helmfft.stencil import SchemeKind, coefficient_table


def random_plane(n_y, n_x, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_y, n_x)) + 1j * rng.standard_normal((n_y, n_x))


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
        out = dst_lines(np.array([1.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-15)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 125])
    def test_involution(self, n):
        plane = random_plane(n, n, seed=n)
        plan = make_plan(n, n)
        twice = dst2d(plan, dst2d(plan, plane))
        assert np.abs(twice - plane).max() <= 1e-13 * np.abs(plane).max()

    def test_norm_preservation(self):
        plane = random_plane(17, 23, seed=1)
        out = dst2d(make_plan(23, 17), plane)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(plane), rel=1e-13)

    @pytest.mark.parametrize("n_x,n_y", [(3, 3), (8, 5), (16, 16), (64, 32)])
    def test_fast_path_matches_dense_reference(self, n_x, n_y):
        plane = random_plane(n_y, n_x, seed=n_x + n_y)
        plan = make_plan(n_x, n_y)
        fast = dst2d(plan, plane)
        dense = dst2d_reference(plan, plane)
        assert np.abs(fast - dense).max() < 1e-12 * max(1.0, np.abs(dense).max())


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

    def test_disjoint_halves_equal_full(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((8, 6, 7)) + 1j * rng.standard_normal((8, 6, 7))
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

    @pytest.mark.parametrize("window", [(slice(2, 7), slice(None)),
                                        (slice(1, 6), slice(2, 9))])
    def test_in_place_on_non_contiguous_view(self, window):
        rng = np.random.default_rng(41)
        big = rng.standard_normal((4, 9, 10)) + 1j * rng.standard_normal((4, 9, 10))
        original = big.copy()
        view = big[:, window[0], window[1]]
        assert not view.flags.c_contiguous
        plan = make_plan(view.shape[2], view.shape[1])
        transform_stack(plan, view)
        inside = np.zeros(big.shape, dtype=bool)
        inside[:, window[0], window[1]] = True
        for l in range(big.shape[0]):
            plane = original[l][window]
            assert np.array_equal(big[l][window], dst2d(plan, plane))
            assert np.abs(big[l][window] - dst2d_reference(plan, plane)).max() < 1e-12
        assert np.array_equal(big[~inside], original[~inside])

    def test_result_lands_in_place_when_backend_copies(self, monkeypatch):
        from helmfft import spectral

        def copying_dst(values, axis, overwrite_x=False):
            return dst_lines(values.copy(), axis)

        rng = np.random.default_rng(47)
        data = rng.standard_normal((2, 5, 6)) + 1j * rng.standard_normal((2, 5, 6))
        plan = make_plan(6, 5)
        field = data.copy()
        monkeypatch.setattr(spectral, "dst_lines", copying_dst)
        transform_stack(plan, field)
        for l in range(2):
            assert np.array_equal(field[l], dst2d(plan, data[l]))

    def test_strided_x_axis_rejected_untouched(self):
        rng = np.random.default_rng(43)
        big = rng.standard_normal((3, 5, 8)) + 1j * rng.standard_normal((3, 5, 8))
        original = big.copy()
        with pytest.raises(ValueError):
            transform_stack(make_plan(4, 5), big[:, :, ::2])
        assert np.array_equal(big, original)


class TestScalingShape:
    def test_line_transform_near_linear_cost(self):
        """Doubling the line length should far undercut the quadratic ratio.

        A dense kernel would cost 4x per doubling; the fast path's per-line
        work is ~2.25x at these sizes. Measured on a fixed batch of lines,
        minimum of several repeats to shrug off scheduler noise.
        """
        batch = 128
        sizes = (256, 512)
        times = []
        for n in sizes:
            data = random_plane(batch, n, seed=n)
            best = math.inf
            for _ in range(7):
                t0 = time.perf_counter()
                dst_lines(data, axis=1)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        assert times[1] / times[0] <= 2.6

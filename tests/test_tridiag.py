import math
import os
import platform
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from helmfft.assembly import Field3D
from helmfft.errors import SingularSystemError
from helmfft.grid import CoefficientProfile, Domain, constant_profile, make_grid
from helmfft.oracle import (SpectralSystem, assemble_system, dense_matrix,
                            dense_sine_matrix_2d, solve_system, sweep_reference)
from helmfft.stencil import SchemeKind, coefficient_table, mode_cosines
from helmfft import tridiag
from helmfft.tridiag import solve_slab

PI = math.pi


def make_system(sub, diag, sup, n=1, m=1):
    return SpectralSystem(n=n, m=m, sub=np.asarray(sub, dtype=complex),
                          diag=np.asarray(diag, dtype=complex),
                          sup=np.asarray(sup, dtype=complex))


class TestSolveSystem:
    def test_hand_solved_poisson_line(self):
        system = make_system([0, -1, -1], [2, 2, 2], [-1, -1, 0])
        x = solve_system(system, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(x, [0.75, 0.5, 0.25], atol=1e-15)

    def test_identity_returns_rhs(self):
        system = make_system([0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0])
        rhs = np.array([1 + 2j, -3.0, 0.5j, 4.0])
        assert np.array_equal(solve_system(system, rhs), rhs)

    def test_against_dense_lu(self):
        rng = np.random.default_rng(11)
        n = 50
        diag = 4.0 + rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sub = rng.standard_normal(n) * 0.5 + 0.3j
        sup = rng.standard_normal(n) * 0.5 - 0.2j
        sub[0] = 0.0
        sup[-1] = 0.0
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_system(make_system(sub, diag, sup), rhs)
        A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        expect = np.linalg.solve(A, rhs)
        assert np.abs(x - expect).max() < 1e-12 * np.abs(expect).max()

    def test_singular_pivot_detected(self):
        system = make_system([0, 1], [0, 1], [1, 0])
        with pytest.raises(SingularSystemError):
            solve_system(system, np.array([1.0, 1.0]))

    def test_length_checked(self):
        system = make_system([0, -1], [2, 2], [-1, 0])
        with pytest.raises(ValueError):
            solve_system(system, np.zeros(3))


class TestAssembleSystem:
    def test_minimal_mode_line(self):
        # z extent chosen so all three steps equal pi/2
        grid = make_grid(Domain(0, PI, 0, PI, 0, 2 * PI), 1, 1, 3)
        prof = constant_profile(0.0, grid)
        table = coefficient_table(SchemeKind.SECOND_ORDER, prof, grid)
        system = assemble_system(1, 1, table, grid)
        assert np.allclose(system.diag, -6.0, atol=1e-14)
        assert np.allclose(system.sub[1:], 1.0, atol=1e-15)
        assert np.allclose(system.sup[:-1], 1.0, atol=1e-15)

    def test_constant_coefficient_rows_identical(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 4, 6)
        prof = constant_profile(5.0, grid)
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
        system = assemble_system(2, 3, table, grid)
        assert np.allclose(system.diag, system.diag[0], atol=0)
        assert np.allclose(system.sub[1:], system.sub[1], atol=0)
        assert np.allclose(system.sup[:-1], system.sup[0], atol=0)

    @pytest.mark.parametrize("scheme", [SchemeKind.SECOND_ORDER,
                                        SchemeKind.FOURTH_ORDER,
                                        SchemeKind.SIXTH_ORDER])
    def test_blocks_of_transformed_dense_operator(self, scheme):
        """Conjugating the dense operator by the plane sine basis must leave
        exactly the assembled tridiagonal bands in each mode's block row."""
        n = 4
        rng = np.random.default_rng(13)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), n, n, n)
        prof = CoefficientProfile(
            k2=rng.standard_normal(n + 2) + 0.2j * rng.standard_normal(n + 2),
            k2_z=rng.standard_normal(n + 2) + 0j,
            k2_zz=rng.standard_normal(n + 2) + 0j)
        table = coefficient_table(scheme, prof, grid)
        A = dense_matrix(table, grid)
        V = dense_sine_matrix_2d(n, n)
        Q = np.kron(np.eye(n), V)  # block-diagonal transform over z-levels
        B = Q.T @ A @ Q
        plane = n * n
        for (n0, m0) in [(1, 1), (2, 3), (4, 4)]:
            system = assemble_system(n0, m0, table, grid)
            idx = (n0 - 1) + n * (m0 - 1)
            for l in range(n):
                row = l * plane + idx
                assert abs(B[row, row] - system.diag[l]) < 1e-12
                if l > 0:
                    assert abs(B[row, row - plane] - system.sub[l]) < 1e-12
                if l < n - 1:
                    assert abs(B[row, row + plane] - system.sup[l]) < 1e-12
                # everything else in the row vanishes after diagonalization
                others = np.abs(B[row]).sum() - abs(B[row, row]) \
                    - (abs(B[row, row - plane]) if l > 0 else 0.0) \
                    - (abs(B[row, row + plane]) if l < n - 1 else 0.0)
                assert others < 1e-11


class TestSolveSlabRanges:
    """solve_slab on y-ranges of a field: values[:, a:b, :] with m_start=a."""

    def test_zero_rhs(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 4, 4)
        prof = constant_profile(1.0, grid)
        field = Field3D.zeros(grid)
        solve_slab(field.values, coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)
        assert not np.any(field.values)

    def test_disjoint_ranges_bitwise_equal(self):
        rng = np.random.default_rng(17)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 5, 6, 4)
        prof = constant_profile(3.0, grid)
        data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        full = Field3D(data.copy())
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
        solve_slab(full.values, table, grid)
        split = Field3D(data.copy())
        solve_slab(split.values[:, 0:2, :], table, grid, m_start=0)
        solve_slab(split.values[:, 2:6, :], table, grid, m_start=2)
        assert np.array_equal(full.values, split.values)

    def test_mode_order_independence(self):
        rng = np.random.default_rng(19)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 5, 3)
        prof = constant_profile(2.0, grid)
        data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        table = coefficient_table(SchemeKind.SECOND_ORDER, prof, grid)
        forward = Field3D(data.copy())
        for m in range(5):
            solve_slab(forward.values[:, m:m + 1, :], table, grid, m_start=m)
        backward = Field3D(data.copy())
        for m in reversed(range(5)):
            solve_slab(backward.values[:, m:m + 1, :], table, grid, m_start=m)
        assert np.array_equal(forward.values, backward.values)

    def test_matches_per_line_solver(self):
        rng = np.random.default_rng(23)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 3, 4, 5)
        prof = CoefficientProfile(
            k2=rng.standard_normal(7) + 0j,
            k2_z=rng.standard_normal(7) + 0j,
            k2_zz=rng.standard_normal(7) + 0j)
        data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        batched = Field3D(data.copy())
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
        solve_slab(batched.values, table, grid)
        for m0 in range(1, 5):
            for n0 in range(1, 4):
                system = assemble_system(n0, m0, table, grid)
                line = solve_system(system, data[:, m0 - 1, n0 - 1])
                assert np.abs(batched.values[:, m0 - 1, n0 - 1] - line).max() < 1e-13

    def test_linearity(self):
        rng = np.random.default_rng(29)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 4, 4)
        prof = constant_profile(1.5, grid)
        f1 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f2 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        alpha, beta = 0.7 - 0.2j, 1.3 + 0.4j
        combo = Field3D(alpha * f1 + beta * f2)
        table = coefficient_table(SchemeKind.SECOND_ORDER, prof, grid)
        solve_slab(combo.values, table, grid)
        s1 = Field3D(f1.copy())
        s2 = Field3D(f2.copy())
        solve_slab(s1.values, table, grid)
        solve_slab(s2.values, table, grid)
        expect = alpha * s1.values + beta * s2.values
        assert np.abs(combo.values - expect).max() < 1e-12 * np.abs(expect).max()

    def test_real_systems_give_real_solutions(self):
        rng = np.random.default_rng(31)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 4, 6)
        prof = constant_profile(7.0, grid)  # real coefficient
        data = rng.standard_normal(grid.shape).astype(complex)
        field = Field3D(data)
        solve_slab(field.values, coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)
        assert np.abs(field.values.imag).max() <= 1e-14

    def test_resonant_mode_reported(self):
        # one unknown per direction: the single eigenvalue is -6 + h^2 k^2,
        # so k^2 = 6/h^2 makes the system exactly singular
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 1, 1, 1)
        prof = constant_profile(6.0 / grid.h_z**2, grid)
        field = Field3D(np.ones(grid.shape, dtype=complex))
        with pytest.raises(SingularSystemError) as err:
            solve_slab(field.values, coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)
        assert err.value.n == 1 and err.value.m == 1


def slab_grid(n_z, n_y, n_x):
    """A grid whose mode cosines are cos(pi k / (n + 1)) of the slab's extents."""
    return make_grid(Domain(0, PI, 0, PI, 0, PI), n_x, n_y, n_z)


def bits(values):
    return values.view(np.uint64)


class TestBlockedSweep:
    """solve_slab on y-range views of one slab, as each worker of a part sweeps."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_views_of_one_slab_bitwise_equal_one_sweep(self, dtype):
        # the views' level stride is the slab's n_y n_x, not their rows' n_m n_x;
        # they are swept at once on threads, as the kernel releases the GIL
        table, data, _, _ = TestBatchedSweep.table_and_data(dtype, 6, 11, 7, seed=37)
        grid = slab_grid(6, 11, 7)
        whole = data.copy()
        solve_slab(whole, table, grid)
        expect = data.copy()
        cx, cy = mode_cosines(grid)
        sweep_reference(expect, np.empty_like(expect), table, cx, cy)
        assert np.array_equal(bits(whole), bits(expect))
        split = data.copy()
        ranges = [(0, 3), (3, 4), (4, 11)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            for f in [pool.submit(solve_slab, split[:, a:b], table, grid, a)
                      for a, b in ranges]:
                f.result()
        assert np.array_equal(bits(split), bits(whole))

    def test_resonant_mode_in_later_range_named_globally(self):
        # one level: mode (n, m) has the single eigenvalue
        # 2 r_zx cos_n + 2 r_zy cos_m - 2 (r_zx + r_zy + 1) + h_z^2 k^2,
        # so this k^2 makes only mode (3, 10) singular
        grid = make_grid(Domain(0, PI, 0, 2.0, 0, 1.5), 5, 12, 1)
        r_zx = grid.h_z**2 / grid.h_x**2
        r_zy = grid.h_z**2 / grid.h_y**2
        cx, cy = mode_cosines(grid)
        k2 = 2.0 * (r_zx + r_zy + 1.0 - r_zx * cx[2] - r_zy * cy[9]) / grid.h_z**2
        prof = constant_profile(k2, grid)
        table = coefficient_table(SchemeKind.SECOND_ORDER, prof, grid)
        for start in (0, 6):
            values = np.ones(grid.shape, dtype=complex)
            with pytest.raises(SingularSystemError) as err:
                solve_slab(values[:, start:, :], table, grid, m_start=start)
            assert (err.value.n, err.value.m) == (3, 10)

    def test_slab_layout_and_dtypes_checked(self):
        table, data, _, _ = TestBatchedSweep.table_and_data(complex, 4, 5, 6, seed=39)
        grid = slab_grid(4, 5, 6)
        with pytest.raises(ValueError, match="strides"):
            solve_slab(data[:, :, ::-1], table, grid)
        with pytest.raises(ValueError, match="y-range"):
            solve_slab(data[:, 2:], table, grid, m_start=4)
        with pytest.raises(TypeError):
            solve_slab(data.real.copy(), table, grid)  # a complex table on a real slab
        with pytest.raises(TypeError):
            solve_slab(data.astype(np.complex64), table, grid)


class TestBatchedSweep:
    """solve_slab's kernel against oracle.sweep_reference, numpy one level at a time."""

    @staticmethod
    def table_and_data(dtype, n_z, n_y, n_x, seed, rows="random"):
        # random weights with a dominant centre: generic complex values make
        # every product's rounding, and so its operand order, matter
        rng = np.random.default_rng(seed)

        def draw(*shape):
            values = rng.standard_normal(shape)
            return values + 1j * rng.standard_normal(shape) if dtype is complex else values

        A, B, C, D = (0.3 * draw(n_z, 3) for _ in range(4))
        D[:, 1] += 8.0
        if rows == "layered":  # runs of three equal rows, as in a constant band
            A, B, C, D = (t[np.arange(n_z) // 3 * 3] for t in (A, B, C, D))
        elif rows == "zero-columns":  # as at fourth order
            A[:, 0] = A[:, 2] = 0.0
        cx = np.cos(PI * np.arange(1, n_x + 1) / (n_x + 1))
        cy = np.cos(PI * np.arange(1, n_y + 1) / (n_y + 1))
        return (A, B, C, D), draw(n_z, n_y, n_x), cx, cy

    @staticmethod
    def assert_matches_reference(table, data, m_offset):
        n_z, n_y, n_x = data.shape
        grid = slab_grid(n_z, n_y, n_x)
        cx, cy = mode_cosines(grid)
        expect = data[:, m_offset:].copy()
        sweep_reference(expect, np.empty_like(expect), table, cx, cy[m_offset:],
                        m_offset=m_offset)
        got = data[:, m_offset:].copy()
        solve_slab(got, table, grid, m_offset)
        assert got.dtype == expect.dtype
        assert np.array_equal(bits(got), bits(expect))

    @pytest.mark.parametrize("rows", ["random", "layered", "zero-columns"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n_z", [1, 2, 3, 4, 5, 14])
    def test_bitwise_equal_to_per_level_reference(self, dtype, n_z, rows):
        # n_x from 1 to 17: every tail of 0 to 7 columns after no, one or two
        # blocks of eight lanes
        for n_x in range(1, 18):
            table, data, _, _ = self.table_and_data(dtype, n_z, 9, n_x, seed=41 + n_z + 100 * n_x,
                                                    rows=rows)
            for m_offset in (0, 3):
                self.assert_matches_reference(table, data, m_offset)

    def test_pivots_with_larger_imaginary_part_bitwise(self):
        # imaginary centres make |Im| > |Re| at every pivot: Smith's second branch
        table, data, cx, cy = self.table_and_data(complex, 9, 8, 7, seed=47)
        A, B, C, D = table
        D[:, 1] = 8.0j + 0.3 * D[:, 1].real
        mid = 4.0 * A[0, 1] * np.outer(cy, cx) + 2.0 * B[0, 1] * cx \
            + 2.0 * C[0, 1] * cy[:, None] + D[0, 1]
        assert (np.abs(mid.imag) > np.abs(mid.real)).all()
        for m_offset in (0, 3):
            self.assert_matches_reference((A, B, C, D), data, m_offset)

    def test_smith_branches_mixed_within_a_vector_bitwise(self):
        # centres 8 cx + 4j: in each of the two blocks of eight columns (cx
        # from 0.99 to 0.31, then from 0.16 to -0.81) some lanes have
        # |Re| >= |Im| and take Smith's first branch, the others the second
        table, data, cx, cy = self.table_and_data(complex, 9, 5, 19, seed=71)
        A, B, C, D = table
        A[:, 1], B[:, 1], C[:, 1], D[:, 1] = 0.0, 4.0, 0.0, 4.0j
        mid = 2.0 * B[0, 1] * cx + D[0, 1]
        for block in (mid[:8], mid[8:16]):
            first = np.abs(block.real) >= np.abs(block.imag)
            assert first.any() and not first.all()
        for m_offset in (0, 2):
            self.assert_matches_reference((A, B, C, D), data, m_offset)

    @staticmethod
    def resonant(table, cx, cy, row, n0, m0):
        """Zero row's coupling below and give its plane operator the
        eigenvalue 2 cx + 2 cy - 2 (cx_n0 + cy_m0), which is 0 at (n0, m0)."""
        A, B, C, D = table
        for t in (A, B, C, D):
            t[row] = 0.0
        B[row, 1] = C[row, 1] = 1.0
        D[row, 1] = -2.0 * (cx[n0 - 1] + cy[m0 - 1])

    @pytest.mark.parametrize("n_x", [5, 13])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_resonant_row_named(self, dtype, n_x):
        # row 6 (level index 5) is resonant for mode (n, m) = (2, 5) alone;
        # at n_x = 13 the mode is a lane of the first block of eight
        n_z, n_y = 9, 7
        table, data, cx, cy = self.table_and_data(dtype, n_z, n_y, n_x, seed=43)
        row, n0, m0 = 5, 2, 5
        self.resonant(table, cx, cy, row, n0, m0)
        self.assert_names(table, data, cx, cy, 0, row, n0, m0)

    @staticmethod
    def assert_names(table, data, cx, cy, m_offset, row, n0, m0):
        """The reference and the kernel both name mode (n0, m0) at row."""
        grid = slab_grid(*data.shape)
        for sweep in (lambda w: sweep_reference(w, np.empty_like(w), table, cx,
                                                cy[m_offset:], m_offset),
                      lambda w: solve_slab(w, table, grid, m_offset)):
            w = data[:, m_offset:].copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSystemError) as err:
                    sweep(w)
            assert (err.value.n, err.value.m) == (n0, m0)
            assert f"row {row + 1} " in str(err.value)
            assert f"(n={n0}, m={m0})" in str(err.value)

    @pytest.mark.parametrize("n_x", [5, 13])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_first_of_two_resonant_modes_named(self, dtype, n_x):
        # the kernel sweeps mode row 5 before row 7, but the reference names
        # the lowest level first: row 3's mode (4, 7) before row 6's (2, 5);
        # at n_x = 13 both fail in lanes of a block of eight
        n_z, n_y = 9, 8
        table, data, cx, cy = self.table_and_data(dtype, n_z, n_y, n_x, seed=53)
        self.resonant(table, cx, cy, 5, 2, 5)
        self.resonant(table, cx, cy, 2, 4, 7)
        for m_offset in (0, 4):
            self.assert_names(table, data, cx, cy, m_offset, 2, 4, 7)

    @pytest.mark.parametrize("n", [7, 15])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_two_resonant_modes_of_one_row_named_by_lower_m(self, dtype, n):
        # on a square plane 2 cx + 2 cy is symmetric: (2, 5) and (5, 2) are
        # both resonant at row 4, and (n, m) = (5, 2) comes first
        table, data, cx, cy = self.table_and_data(dtype, 6, n, n, seed=59)
        self.resonant(table, cx, cy, 3, 2, 5)
        self.assert_names(table, data, cx, cy, 0, 3, 5, 2)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_two_lanes_of_one_block_named_by_lower_n(self, dtype):
        # row 4's eigenvalue 2e (cx - c0), with c0 halfway between the mode
        # cosines of n = 3 and 4 and e = 4e-13, is below the threshold
        # (1e-14 times the centre's weight of about 8) at those two columns
        # of every mode row, both lanes of the first block of eight
        table, data, cx, cy = self.table_and_data(dtype, 6, 4, 12, seed=67)
        A, B, C, D = table
        for t in (A, B, C, D):
            t[3] = 0.0
        B[3, 1], D[3, 1] = 4e-13, -4e-13 * (cx[2] + cx[3])
        for m_offset in (0, 2):
            self.assert_names(table, data, cx, cy, m_offset, 3, 3, m_offset + 1)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_all_zero_table_fails_its_first_pivot(self, dtype):
        # a zero scale would leave a zero threshold that row 1's zero
        # pivots pass; every pivot fails instead, before any division by 0
        _, data, cx, cy = self.table_and_data(dtype, 4, 3, 9, seed=73)
        table = tuple(np.zeros((4, 3), dtype) for _ in range(4))
        for m_offset in (0, 1):
            self.assert_names(table, data, cx, cy, m_offset, 0, 1, m_offset + 1)

    @pytest.mark.parametrize("n_x", [6, 11])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_pivot_named(self, dtype, n_x):
        # weights near the largest double: row 2's centre and lower plane
        # operators overflow to inf for the modes with cx > 0.6, so their
        # pivots are inf - inf; every other pivot clears the threshold. At
        # n_x = 11 the NaN pivots are lanes of the first block of eight
        n_z, n_y = 4, 3
        _, data, cx, cy = self.table_and_data(dtype, n_z, n_y, n_x, seed=61)
        A, B, C, D = (np.zeros((n_z, 3), dtype) for _ in range(4))
        D[:, 1] = D[:, 2] = 1e300
        B[1, 0] = B[1, 1] = 0.89e308
        D[1, 0] = D[1, 1] = 1.7e308
        grid = slab_grid(n_z, n_y, n_x)
        with np.errstate(over="ignore", invalid="ignore"):
            for m_offset in (0, 1):
                expect = data[:, m_offset:].copy()
                with pytest.raises(SingularSystemError) as ref:
                    sweep_reference(expect, np.empty_like(expect), (A, B, C, D), cx,
                                    cy[m_offset:], m_offset)
                with pytest.raises(SingularSystemError) as err:
                    solve_slab(data[:, m_offset:].copy(), (A, B, C, D), grid, m_offset)
                assert str(err.value) == str(ref.value)
                assert (err.value.n, err.value.m) == (1, m_offset + 1)
                assert "row 2 " in str(err.value)


class TestPassedTable:
    """The solver builds the coefficient table once per solve and passes it,
    in the slab's dtype, to each slab."""

    @pytest.mark.parametrize("kind", ["real", "complex-data", "complex-profile"])
    def test_passed_table_bitwise_equal_reference(self, kind):
        rng = np.random.default_rng(53)
        grid = make_grid(Domain(0, 1.3, -0.2, 0.9, 0.1, 2.0), 9, 11, 7)
        k2 = rng.standard_normal(9) + (0.4j * rng.standard_normal(9)
                                       if kind == "complex-profile" else 0.0)
        prof = CoefficientProfile(k2=k2, k2_z=rng.standard_normal(9),
                                  k2_zz=rng.standard_normal(9))
        data = rng.standard_normal(grid.shape)
        if kind != "real":
            data = data + 1j * rng.standard_normal(grid.shape)
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
        if kind == "real":  # a float64 slab takes the real table
            table = tuple(w.real for w in table)
        cx, cy = mode_cosines(grid)
        for m_start in (0, 4):
            passed = data[:, m_start:].copy()
            solve_slab(passed, table, grid, m_start)
            # the kernel takes the real cosines with a +0 imaginary part, as
            # numpy's mixed products cast them in the reference
            expect = data[:, m_start:].copy()
            sweep_reference(expect, np.empty_like(expect), table, cx, cy[m_start:],
                            m_offset=m_start)
            assert np.array_equal(bits(passed), bits(expect))

    def test_complex_table_with_zero_imaginary_parts_sweeps_a_real_slab(self):
        rng = np.random.default_rng(59)
        grid = make_grid(Domain(0, 1.3, -0.2, 0.9, 0.1, 2.0), 9, 11, 7)
        prof = CoefficientProfile(k2=rng.standard_normal(9), k2_z=rng.standard_normal(9),
                                  k2_zz=rng.standard_normal(9))
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
        assert all(w.dtype == np.complex128 and not w.imag.any() for w in table)
        data = rng.standard_normal(grid.shape)
        passed, expect = data.copy(), data.copy()
        solve_slab(passed, table, grid)
        solve_slab(expect, tuple(w.real for w in table), grid)
        assert passed.dtype == np.float64
        assert np.array_equal(bits(passed), bits(expect))


class TestKernelBuild:
    """The sweep kernel is compiled into a cache directory on first load."""

    def test_concurrent_first_loads_share_one_file(self, tmp_path):
        src = os.path.dirname(os.path.dirname(tridiag.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys; from helmfft import tridiag; "
                "print(tridiag._load_kernel(sys.argv[1]).path)")
        procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
        paths = {out.strip() for out, _ in outs}
        assert len(paths) == 1
        # one library and no temporary file left behind
        assert [str(p) for p in tmp_path.iterdir()] == list(paths)

    def test_multiply_form_read_from_numpy(self):
        # the loader's probe: both parts of the exact products rounded once
        # (the fused form) differ from the plain form's
        a, b = complex(1 + 2.0**-26, 1 + 2.0**-25), complex(1 + 2.0**-27, 1 + 2.0**-27)
        ar, br, bi = map(Fraction, (a.real, b.real, b.imag))
        fused = complex(float(ar * br - Fraction(a.imag * b.imag)),
                        float(ar * bi + Fraction(a.imag * b.real)))
        plain = complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)
        assert fused.real != plain.real and fused.imag != plain.imag
        got = (np.full(8, a) * np.full(8, b))[-1]
        assert got in (fused, plain)
        assert tridiag.KERNEL.multiply == ("fma" if got == fused else "plain")

    def test_lanes_follow_the_cpu(self):
        # eight mode columns at a time where Linux reports AVX-512 F and DQ,
        # else the scalar loop alone
        try:
            with open("/proc/cpuinfo") as cpuinfo:
                flags = next((set(line.split(":", 1)[1].split()) for line in cpuinfo
                              if line.startswith("flags")), set())
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
        wide = platform.machine() == "x86_64" and {"avx512f", "avx512dq"} <= flags
        assert tridiag.KERNEL.lanes == (8 if wide else 1)

    def test_unwritable_package_falls_back_to_a_private_temporary_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tridiag.os, "access", lambda path, mode: False)
        monkeypatch.setattr(tridiag.tempfile, "tempdir", str(tmp_path))
        directory = tridiag._cache_dir()
        assert directory == tmp_path / f"helmfft-{os.getuid()}"
        assert directory.stat().st_mode & 0o777 == 0o700

    def test_missing_compiler_named(self, tmp_path):
        with pytest.raises(ImportError, match="helmfft-no-such-cc"):
            tridiag._load_kernel(tmp_path, cc=["helmfft-no-such-cc", "-pipe"])
        assert not any(tmp_path.iterdir())

    def test_failing_compiler_named(self, tmp_path):
        # a compiler that runs and exits nonzero
        with pytest.raises(ImportError, match="CC 'false' failed on .*_sweep.c"):
            tridiag._load_kernel(tmp_path, cc=["false"])
        assert not any(tmp_path.iterdir())

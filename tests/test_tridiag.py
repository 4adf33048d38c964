import math
import warnings

import numpy as np
import pytest

from helmfft.assembly import Field3D
from helmfft.errors import SingularSystemError
from helmfft.grid import CoefficientProfile, Domain, constant_profile, make_grid
from helmfft.oracle import (SpectralSystem, assemble_system, dense_matrix,
                            dense_sine_matrix_2d, solve_system, sweep_reference)
from helmfft import tridiag
from helmfft.stencil import SchemeKind, coefficient_table, mode_cosines
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
        system = assemble_system(1, 1, SchemeKind.SECOND_ORDER, prof, grid)
        assert np.allclose(system.diag, -6.0, atol=1e-14)
        assert np.allclose(system.sub[1:], 1.0, atol=1e-15)
        assert np.allclose(system.sup[:-1], 1.0, atol=1e-15)

    def test_constant_coefficient_rows_identical(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 4, 6)
        prof = constant_profile(5.0, grid)
        system = assemble_system(2, 3, SchemeKind.FOURTH_ORDER, prof, grid)
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
        A = dense_matrix(scheme, prof, grid)
        V = dense_sine_matrix_2d(n, n)
        Q = np.kron(np.eye(n), V)  # block-diagonal transform over z-levels
        B = Q.T @ A @ Q
        plane = n * n
        for (n0, m0) in [(1, 1), (2, 3), (4, 4)]:
            system = assemble_system(n0, m0, scheme, prof, grid)
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
        solve_slab(field.values, SchemeKind.SECOND_ORDER, prof, grid)
        assert not np.any(field.values)

    def test_disjoint_ranges_bitwise_equal(self):
        rng = np.random.default_rng(17)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 5, 6, 4)
        prof = constant_profile(3.0, grid)
        data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        full = Field3D(data.copy())
        solve_slab(full.values, SchemeKind.FOURTH_ORDER, prof, grid)
        split = Field3D(data.copy())
        solve_slab(split.values[:, 0:2, :], SchemeKind.FOURTH_ORDER, prof, grid, m_start=0)
        solve_slab(split.values[:, 2:6, :], SchemeKind.FOURTH_ORDER, prof, grid, m_start=2)
        assert np.array_equal(full.values, split.values)

    def test_mode_order_independence(self):
        rng = np.random.default_rng(19)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 5, 3)
        prof = constant_profile(2.0, grid)
        data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        forward = Field3D(data.copy())
        for m in range(5):
            solve_slab(forward.values[:, m:m + 1, :], SchemeKind.SECOND_ORDER, prof, grid,
                       m_start=m)
        backward = Field3D(data.copy())
        for m in reversed(range(5)):
            solve_slab(backward.values[:, m:m + 1, :], SchemeKind.SECOND_ORDER, prof, grid,
                       m_start=m)
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
        solve_slab(batched.values, SchemeKind.FOURTH_ORDER, prof, grid)
        for m0 in range(1, 5):
            for n0 in range(1, 4):
                system = assemble_system(n0, m0, SchemeKind.FOURTH_ORDER, prof, grid)
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
        solve_slab(combo.values, SchemeKind.SECOND_ORDER, prof, grid)
        s1 = Field3D(f1.copy())
        s2 = Field3D(f2.copy())
        solve_slab(s1.values, SchemeKind.SECOND_ORDER, prof, grid)
        solve_slab(s2.values, SchemeKind.SECOND_ORDER, prof, grid)
        expect = alpha * s1.values + beta * s2.values
        assert np.abs(combo.values - expect).max() < 1e-12 * np.abs(expect).max()

    def test_real_systems_give_real_solutions(self):
        rng = np.random.default_rng(31)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 4, 4, 6)
        prof = constant_profile(7.0, grid)  # real coefficient
        data = rng.standard_normal(grid.shape).astype(complex)
        field = Field3D(data)
        solve_slab(field.values, SchemeKind.SECOND_ORDER, prof, grid)
        assert np.abs(field.values.imag).max() <= 1e-14

    def test_resonant_mode_reported(self):
        # one unknown per direction: the single eigenvalue is -6 + h^2 k^2,
        # so k^2 = 6/h^2 makes the system exactly singular
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 1, 1, 1)
        prof = constant_profile(6.0 / grid.h_z**2, grid)
        field = Field3D(np.ones(grid.shape, dtype=complex))
        with pytest.raises(SingularSystemError) as err:
            solve_slab(field.values, SchemeKind.SECOND_ORDER, prof, grid)
        assert err.value.n == 1 and err.value.m == 1


class TestBlockedSweep:
    """solve_slab sweeps m-blocks; budgets of a few rows force many blocks."""

    @staticmethod
    def budget_rows(monkeypatch, rows, n_x):
        monkeypatch.setattr(tridiag, "SWEEP_BLOCK_BYTES", rows * n_x * 16)

    def test_many_blocks_bitwise_equal_one_sweep(self, monkeypatch):
        rng = np.random.default_rng(37)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 7, 11, 6)
        prof = CoefficientProfile(
            k2=rng.standard_normal(8) + 1j * rng.standard_normal(8),
            k2_z=rng.standard_normal(8) + 0j,
            k2_zz=rng.standard_normal(8) + 0j)
        scheme = SchemeKind.FOURTH_ORDER
        data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        table = coefficient_table(scheme, prof, grid)
        cx, cy = mode_cosines(grid)
        self.budget_rows(monkeypatch, 3, grid.n_x)
        for m_start in (0, 3):
            whole = data[:, m_start:].copy()
            tridiag._sweep(whole, np.empty_like(whole), table, cx, cy[m_start:],
                           m_offset=m_start)
            blocked = data[:, m_start:].copy()
            solve_slab(blocked, scheme, prof, grid, m_start=m_start)
            assert np.array_equal(blocked, whole)

    def test_resonant_mode_in_later_block_named_globally(self, monkeypatch):
        # one level: mode (n, m) has the single eigenvalue
        # 2 r_zx cos_n + 2 r_zy cos_m - 2 (r_zx + r_zy + 1) + h_z^2 k^2,
        # so this k^2 makes only mode (3, 10) singular
        grid = make_grid(Domain(0, PI, 0, 2.0, 0, 1.5), 5, 12, 1)
        r_zx = grid.h_z**2 / grid.h_x**2
        r_zy = grid.h_z**2 / grid.h_y**2
        cx, cy = mode_cosines(grid)
        k2 = 2.0 * (r_zx + r_zy + 1.0 - r_zx * cx[2] - r_zy * cy[9]) / grid.h_z**2
        prof = constant_profile(k2, grid)
        self.budget_rows(monkeypatch, 2, grid.n_x)
        for start in (0, 6):
            values = np.ones(grid.shape, dtype=complex)
            with pytest.raises(SingularSystemError) as err:
                solve_slab(values[:, start:, :], SchemeKind.SECOND_ORDER, prof, grid,
                           m_start=start)
            assert (err.value.n, err.value.m) == (3, 10)


class TestBatchedSweep:
    """_sweep eliminates in batches of levels; a small budget forces many."""

    DEPTH = 4

    @classmethod
    def budget_levels(cls, monkeypatch, w):
        # four planes of scratch per level
        monkeypatch.setattr(tridiag, "SWEEP_BATCH_BYTES", cls.DEPTH * 4 * w[0].nbytes)

    @staticmethod
    def table_and_data(dtype, n_z, n_y, n_x, seed):
        # random weights with a dominant centre: generic complex values make
        # every product's rounding, and so its operand order, matter
        rng = np.random.default_rng(seed)

        def draw(*shape):
            values = rng.standard_normal(shape)
            return values + 1j * rng.standard_normal(shape) if dtype is complex else values

        A, B, C, D = (0.3 * draw(n_z, 3) for _ in range(4))
        D[:, 1] += 8.0
        cx = np.cos(PI * np.arange(1, n_x + 1) / (n_x + 1))
        cy = np.cos(PI * np.arange(1, n_y + 1) / (n_y + 1))
        return (A, B, C, D), draw(n_z, n_y, n_x), cx, cy

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n_z", [1, 2, DEPTH - 1, DEPTH, DEPTH + 1, 3 * DEPTH + 2])
    def test_bitwise_equal_to_per_level_reference(self, monkeypatch, dtype, n_z):
        table, data, cx, cy = self.table_and_data(dtype, n_z, 9, 7, seed=41 + n_z)
        for m_offset in (0, 3):
            expect = data[:, m_offset:].copy()
            sweep_reference(expect, np.empty_like(expect), table, cx, cy[m_offset:],
                            m_offset=m_offset)
            got = data[:, m_offset:].copy()
            self.budget_levels(monkeypatch, got)
            tridiag._sweep(got, np.empty_like(got), table, cx, cy[m_offset:],
                           m_offset=m_offset)
            assert got.dtype == expect.dtype
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_resonant_row_in_mid_batch_named(self, monkeypatch, dtype):
        # level indices 4..7 form the second batch; row 6 (level index 5) has
        # no coupling to the level below and a plane operator whose eigenvalue
        # for mode (n, m) = (2, 5) is exactly 2 cx + 2 cy - 2 (cx + cy) = 0
        n_z, n_y, n_x = 9, 7, 5
        table, data, cx, cy = self.table_and_data(dtype, n_z, n_y, n_x, seed=43)
        A, B, C, D = (t.copy() for t in table)
        row, n0, m0 = 5, 2, 5
        for t in (A, B, C, D):
            t[row] = 0.0
        B[row, 1] = C[row, 1] = 1.0
        D[row, 1] = -2.0 * (cx[n0 - 1] + cy[m0 - 1])
        table = (A, B, C, D)
        for sweep in (sweep_reference, tridiag._sweep):
            w = data.copy()
            self.budget_levels(monkeypatch, w)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSystemError) as err:
                    sweep(w, np.empty_like(w), table, cx, cy)
            assert (err.value.n, err.value.m) == (n0, m0)
            assert f"row {row + 1} " in str(err.value)
            assert f"(n={n0}, m={m0})" in str(err.value)

import dataclasses
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from helmfft.errors import NonFiniteInputError, UnsupportedSchemeError
from helmfft.grid import Domain, constant_profile, make_grid, sample_profile
from helmfft.oracle import dense_plane_matrix, dense_sine_matrix_2d, eigenvalue
from helmfft.stencil import SchemeKind, check_table, coefficient_table

PI = math.pi

ALL_SCHEMES = [SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER,
               SchemeKind.SIXTH_ORDER, SchemeKind.CONVECTION_DIFFUSION_4]


def row(scheme, prof, grid, l):
    """The (a, b, c, d) weights of row level l, each indexed by level offset + 1."""
    A, B, C, D = coefficient_table(scheme, prof, grid)
    return SimpleNamespace(a=A[l - 1], b=B[l - 1], c=C[l - 1], d=D[l - 1])


def row_sum(cf):
    """Weighted sum over all 27 positions (4a + 2b + 2c + d per level)."""
    return complex(np.sum(4 * cf.a + 2 * cf.b + 2 * cf.c + cf.d))


def uniform_grid(n=4, k2=0.0, gamma=0.0):
    grid = make_grid(Domain(0, PI, 0, PI, 0, PI), n, n, n)
    return grid, constant_profile(k2, grid, gamma=gamma)


def stretched_grid(rx, ry, n=4, k2=0.0, gamma=0.0):
    """Grid with R_zx = rx and R_zy = ry for h_z fixed by the unit z-extent."""
    hz = 1.0 / (n + 1)
    hx = hz / math.sqrt(rx)
    hy = hz / math.sqrt(ry)
    grid = make_grid(Domain(0, hx * (n + 1), 0, hy * (n + 1), 0, 1.0), n, n, n)
    return grid, constant_profile(k2, grid, gamma=gamma)


class TestTableForm:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_four_complex_arrays_of_row_levels(self, scheme):
        grid, prof = uniform_grid(n=6, gamma=-2.0 if scheme
                                  is SchemeKind.CONVECTION_DIFFUSION_4 else 0.0)
        table = coefficient_table(scheme, prof, grid)
        assert len(table) == 4
        assert all(w.shape == (6, 3) and w.dtype == np.complex128 for w in table)
        assert all(c is w for c, w in zip(check_table(table, grid), table))  # no copies

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["k2", "k2_z", "k2_zz", "gamma"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_non_finite_profile_raises_before_table_arithmetic(self, scheme, name, bad):
        grid, prof = uniform_grid(n=5)
        if name == "gamma":
            prof = dataclasses.replace(prof, gamma=complex(bad))
        else:
            values = getattr(prof, name).copy()
            values[3] = bad
            prof = dataclasses.replace(prof, **{name: values})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no arithmetic on the bad value
            with pytest.raises(NonFiniteInputError) as err:
                coefficient_table(scheme, prof, grid)
        assert (err.value.field, err.value.index) == (name, () if name == "gamma" else (3,))

    @pytest.mark.parametrize("n_profile", [3, 9])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_profile_of_another_grid_names_both_lengths(self, scheme, n_profile):
        grid, _ = uniform_grid(n=5)
        _, prof = uniform_grid(n=n_profile, gamma=-2.0 if scheme
                               is SchemeKind.CONVECTION_DIFFUSION_4 else 0.0)
        with pytest.raises(ValueError, match=f"{n_profile + 2} levels.* 7$"):
            coefficient_table(scheme, prof, grid)


class TestSecondOrder:
    def test_uniform_zero_coefficient(self):
        grid, prof = uniform_grid()
        cf = row(SchemeKind.SECOND_ORDER, prof, grid, 2)
        assert cf.b[1] == 1.0 and cf.c[1] == 1.0
        assert cf.d[0] == 1.0 and cf.d[2] == 1.0
        assert cf.d[1] == -6.0
        assert np.all(cf.a == 0.0) and cf.b[0] == cf.b[2] == 0.0

    def test_wave_number_shifts_center(self):
        grid, _ = uniform_grid()
        prof = constant_profile(0.1 / grid.h_z**2, grid)
        cf = row(SchemeKind.SECOND_ORDER, prof, grid, 1)
        assert cf.d[1] == pytest.approx(-5.9, rel=1e-14)
        assert cf.b[1] == 1.0 and cf.d[0] == 1.0

    def test_anisotropic_steps(self):
        grid, prof = stretched_grid(0.25, 1.0)  # h_x = 2 h_z, h_y = h_z
        cf = row(SchemeKind.SECOND_ORDER, prof, grid, 1)
        assert cf.b[1] == pytest.approx(0.25, rel=1e-14)
        assert cf.c[1] == pytest.approx(1.0, rel=1e-14)
        assert cf.d[1] == pytest.approx(-4.5, rel=1e-14)


class TestFourthOrder:
    def test_uniform_zero_coefficient(self):
        grid, prof = uniform_grid()
        cf = row(SchemeKind.FOURTH_ORDER, prof, grid, 2)
        assert cf.b[0] == cf.b[2] == pytest.approx(1 / 6, rel=1e-15)
        assert cf.c[0] == cf.c[2] == pytest.approx(1 / 6, rel=1e-15)
        assert cf.d[0] == cf.d[2] == pytest.approx(1 / 3, rel=1e-15)
        assert cf.a[1] == pytest.approx(1 / 6, rel=1e-15)
        assert cf.b[1] == cf.c[1] == pytest.approx(1 / 3, rel=1e-15)
        assert cf.d[1] == pytest.approx(-4.0, rel=1e-15)
        assert cf.a[0] == cf.a[2] == 0.0

    def test_row_sum_identity_uniform(self):
        grid, prof = uniform_grid()
        cf = row(SchemeKind.FOURTH_ORDER, prof, grid, 2)
        assert abs(row_sum(cf)) < 1e-14

    def test_strong_anisotropy(self):
        grid, prof = stretched_grid(4.0, 1.0)
        cf = row(SchemeKind.FOURTH_ORDER, prof, grid, 1)
        assert cf.b[1] == pytest.approx(7 / 3, rel=1e-13)
        assert cf.c[1] == pytest.approx(-1 / 6, rel=1e-12)


class TestSixthOrder:
    def test_zero_coefficient_values_and_row_sum(self):
        grid, prof = uniform_grid()
        cf = row(SchemeKind.SIXTH_ORDER, prof, grid, 2)
        assert cf.a[0] == cf.a[2] == pytest.approx(1 / 30, rel=1e-15)
        assert cf.b[0] == cf.c[0] == cf.b[2] == cf.c[2] == pytest.approx(1 / 10, rel=1e-15)
        assert cf.d[0] == cf.d[2] == pytest.approx(7 / 15, rel=1e-15)
        assert cf.a[1] == pytest.approx(1 / 10, rel=1e-15)
        assert cf.b[1] == cf.c[1] == pytest.approx(7 / 15, rel=1e-15)
        assert cf.d[1] == pytest.approx(-64 / 15, rel=1e-15)
        assert abs(row_sum(cf)) < 1e-14

    def test_constant_coefficient_symmetry(self):
        # with (k^2)' = 0 the up/down weights coincide
        grid, prof = uniform_grid(k2=7.5)
        cf = row(SchemeKind.SIXTH_ORDER, prof, grid, 2)
        assert cf.b[2] == cf.b[0]
        assert cf.c[2] == cf.c[0]

    def test_rejects_anisotropic_grid(self):
        grid, prof = stretched_grid(4.0, 1.0)
        with pytest.raises(UnsupportedSchemeError):
            coefficient_table(SchemeKind.SIXTH_ORDER, prof, grid)

    def test_matches_independent_rederivation(self):
        # same weights recomputed through an independently written second
        # path (exact rational prefactors, different grouping)
        a, b, c = 10.0, 9.0, 10.0
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 125, 125, 125)
        prof = sample_profile(
            lambda z: (a - b * np.sin(c * z)) ** 2,
            lambda z: -2 * b * c * np.cos(c * z) * (a - b * np.sin(c * z)),
            lambda z: 2 * b**2 * c**2 * np.cos(c * z) ** 2
                      + 2 * b * c**2 * np.sin(c * z) * (a - b * np.sin(c * z)),
            0.0, grid)
        l = 1
        cf = row(SchemeKind.SIXTH_ORDER, prof, grid, l)
        h = grid.h_z
        k2m, k2c, k2p = prof.k2[l - 1], prof.k2[l], prof.k2[l + 1]
        k2z, k2zz = prof.k2_z[l], prof.k2_zz[l]
        F = Fraction
        expect = {
            ("a", 0): float(F(1, 30)),
            ("a", 2): float(F(1, 30)),
            ("b", 0): float(F(1, 10)) + h * h * k2m * float(F(1, 90))
                      - h**3 * k2z * float(F(1, 120)),
            ("b", 2): float(F(1, 10)) + h * h * k2p * float(F(1, 90))
                      + h**3 * k2z * float(F(1, 120)),
            ("d", 0): float(F(7, 15)) - h * h * k2m * float(F(1, 90))
                      - h**3 * k2z * float(F(1, 60)) - h**5 * k2z * k2m * float(F(1, 120)),
            ("d", 2): float(F(7, 15)) - h * h * k2p * float(F(1, 90))
                      + h**3 * k2z * float(F(1, 60)) + h**5 * k2z * k2p * float(F(1, 120)),
            ("a", 1): float(F(1, 10)) + h * h * k2c * float(F(1, 90)),
            ("b", 1): float(F(7, 15)) - h * h * k2c * float(F(1, 90)),
            ("d", 1): float(F(-64, 15)) + h * h * k2c * float(F(14, 15))
                      - h**4 * k2c**2 * float(F(1, 20)) + h**4 * k2zz * float(F(1, 20)),
        }
        got = {"a": cf.a, "b": cf.b, "c": cf.c, "d": cf.d}
        for (name, idx), value in expect.items():
            assert got[name][idx] == pytest.approx(value, abs=1e-14), (name, idx)
        assert np.allclose(cf.b, cf.c, atol=0)


class TestConvectionDiffusion:
    def test_reduces_to_fourth_order_without_convection(self):
        grid, prof = stretched_grid(2.0, 0.7)
        cf_cd = row(SchemeKind.CONVECTION_DIFFUSION_4, prof, grid, 2)
        cf_4 = row(SchemeKind.FOURTH_ORDER, prof, grid, 2)
        for name in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(cf_cd, name), getattr(cf_4, name)), name

    def test_unit_cell_convection_number(self):
        grid, _ = uniform_grid()
        prof = constant_profile(0.0, grid, gamma=1.0 / grid.h_z)  # gamma h_z = 1
        cf = row(SchemeKind.CONVECTION_DIFFUSION_4, prof, grid, 1)
        assert cf.b[2] == pytest.approx(0.25, rel=1e-13)
        assert cf.b[0] == pytest.approx(1 / 12, rel=1e-13)

    def test_rejects_nonzero_wave_coefficient(self):
        grid, _ = uniform_grid(n=4)
        prof = constant_profile(3.0, grid, gamma=-2.0)
        with pytest.raises(ValueError, match="zero k"):
            coefficient_table(SchemeKind.CONVECTION_DIFFUSION_4, prof, grid)

    @pytest.mark.parametrize("gamma", [-100.0, 1.0, 37.0])
    def test_row_sum_vanishes(self, gamma):
        grid, prof = stretched_grid(1.7, 0.4, gamma=gamma)
        cf = row(SchemeKind.CONVECTION_DIFFUSION_4, prof, grid, 2)
        scale = max(abs(v) for arr in (cf.a, cf.b, cf.c, cf.d) for v in arr)
        assert abs(row_sum(cf)) <= 1e-13 * max(scale, 1.0)


class TestRowSumProperty:
    @pytest.mark.parametrize("scheme", [SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER,
                                        SchemeKind.CONVECTION_DIFFUSION_4])
    def test_zero_row_sum_random_anisotropy(self, scheme):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rx, ry = rng.uniform(0.25, 4.0, size=2)
            grid, prof = stretched_grid(rx, ry)
            cf = row(scheme, prof, grid, 2)
            assert abs(row_sum(cf)) < 1e-13

    def test_zero_row_sum_uniform_sixth(self):
        for n in (3, 9, 17):
            grid, prof = uniform_grid(n=n)
            cf = row(SchemeKind.SIXTH_ORDER, prof, grid, (n + 1) // 2)
            assert abs(row_sum(cf)) < 1e-13


class TestEigenvalues:
    def test_single_mode_collapses_to_center_weight(self):
        grid, prof = uniform_grid(n=1, k2=3.0)
        table = coefficient_table(SchemeKind.SECOND_ORDER, prof, grid)
        lam = eigenvalue(table, 1, 0, 1, 1, grid)
        # cos(pi/2) = 0 so only the center weight survives
        assert lam == pytest.approx(-6.0 + grid.h_z**2 * 3.0, rel=1e-14)

    def test_fourth_order_middle_mode_lower_level(self):
        n = 5  # odd so the middle mode kills both cosines
        grid, prof = uniform_grid(n=n)
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
        lam = eigenvalue(table, 2, -1, (n + 1) // 2, (n + 1) // 2, grid)
        assert lam == pytest.approx(1 / 3, rel=1e-14)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_similarity_transform_oracle(self, scheme):
        """Dense conjugation by the sine basis reproduces the closed form."""
        n = 4
        rng = np.random.default_rng(3)
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), n, n, n)
        if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
            prof = constant_profile(0.0, grid, gamma=-3.0)
        else:
            from helmfft.grid import CoefficientProfile
            prof = CoefficientProfile(
                k2=rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2),
                k2_z=rng.standard_normal(n + 2) + 0j,
                k2_zz=rng.standard_normal(n + 2) + 0j)
        table = coefficient_table(scheme, prof, grid)
        cf = row(scheme, prof, grid, 2)
        V = dense_sine_matrix_2d(n, n)
        for offset in (-1, 0, 1):
            a, b, c, d = cf.a[offset + 1], cf.b[offset + 1], cf.c[offset + 1], cf.d[offset + 1]
            C = dense_plane_matrix(a, b, c, d, n, n)
            D = V.T @ C @ V
            off_diag = D - np.diag(np.diag(D))
            assert np.abs(off_diag).max() < 1e-12
            for m in range(1, n + 1):
                for nn in range(1, n + 1):
                    idx = (nn - 1) + n * (m - 1)
                    lam = eigenvalue(table, 2, offset, nn, m, grid)
                    assert abs(D[idx, idx] - lam) < 1e-12

    def test_second_order_spectrum_real_for_real_coefficient(self):
        grid, prof = uniform_grid(n=5, k2=13.0)
        table = coefficient_table(SchemeKind.SECOND_ORDER, prof, grid)
        for nn in range(1, 6):
            for m in range(1, 6):
                lam = eigenvalue(table, 3, 0, nn, m, grid)
                assert lam.imag == 0.0

    def test_mode_index_bounds(self):
        grid, prof = uniform_grid(n=3)
        table = coefficient_table(SchemeKind.SECOND_ORDER, prof, grid)
        with pytest.raises(IndexError):
            eigenvalue(table, 1, 0, 0, 1, grid)
        with pytest.raises(IndexError):
            eigenvalue(table, 1, 0, 1, 4, grid)

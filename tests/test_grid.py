import math

import numpy as np
import pytest

from helmfft.grid import (CoefficientProfile, Domain, constant_profile,
                          make_grid, sample_profile)

PI = math.pi
ROOT2 = math.sqrt(2.0)


class TestMakeGrid:
    def test_unit_cube_of_pi(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 125, 125, 125)
        assert grid.h_x == grid.h_y == grid.h_z == PI / 126

    def test_anisotropic_box(self):
        grid = make_grid(Domain(0, ROOT2, 0, ROOT2, 0, 1.0), 64, 64, 64)
        assert grid.h_x == pytest.approx(ROOT2 / 65, rel=1e-15)
        assert grid.h_y == pytest.approx(ROOT2 / 65, rel=1e-15)
        assert grid.h_z == pytest.approx(1.0 / 65, rel=1e-15)

    def test_interior_nodes_small(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 3, 3, 3)
        assert np.allclose(grid.x_nodes(), [PI / 4, PI / 2, 3 * PI / 4], rtol=1e-15)
        assert grid.x_nodes(closed=True)[0] == 0.0
        assert grid.x_nodes(closed=True)[4] == pytest.approx(PI, rel=1e-15)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_counts(self, bad):
        with pytest.raises(ValueError):
            make_grid(Domain(0, 1, 0, 1, 0, 1), bad, 4, 4)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rejects_an_extent_that_is_not_whole(self, axis, bad):
        # rounding 2.5 down to 2 with h_x = 1/3.5 leaves the last x node at 0.857
        extents = [3, 3, 3]
        extents[axis] = bad
        with pytest.raises(ValueError, match=f"{'n_' + 'xyz'[axis]} must be a whole number"):
            make_grid(Domain(0, 1, 0, 1, 0, 1), *extents)

    def test_whole_extents_of_any_number_type(self):
        grid = make_grid(Domain(0, 1, 0, 1, 0, 1), np.int64(4), 16.0, np.float64(5.0))
        assert (grid.n_x, grid.n_y, grid.n_z) == (4, 16, 5)
        assert all(type(n) is int for n in (grid.n_x, grid.n_y, grid.n_z))
        assert grid.y_nodes(closed=True)[-1] == pytest.approx(1.0, rel=1e-15)

    def test_rejects_degenerate_domain(self):
        with pytest.raises(ValueError):
            Domain(1.0, 1.0, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            Domain(0, 1, 2.0, 1.0, 0, 1)

    @pytest.mark.parametrize("lo,hi,n", [
        (0.0, PI, 7), (-1.3, 2.9, 33), (0.0, ROOT2, 64), (5.0, 11.0, 1),
    ])
    def test_step_spans_domain_exactly(self, lo, hi, n):
        grid = make_grid(Domain(lo, hi, lo, hi, lo, hi), n, n, n)
        for h in (grid.h_x, grid.h_y, grid.h_z):
            assert lo + (n + 1) * h == pytest.approx(hi, rel=1e-15, abs=1e-15)

    def test_closed_nodes_include_boundaries(self):
        grid = make_grid(Domain(0, 1, 0, 1, 0, 1), 4, 5, 6)
        z = grid.z_nodes(closed=True)
        assert len(z) == 8
        assert z[0] == 0.0 and z[-1] == pytest.approx(1.0, rel=1e-15)
        assert grid.shape == (6, 5, 4)


class TestSampleProfile:
    def test_constant_coefficient(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 8, 8, 8)
        prof = sample_profile(lambda z: 400.0 + 0 * z, lambda z: 0 * z,
                              lambda z: 0 * z, 0.0, grid)
        assert len(prof.k2) == 10
        assert np.all(prof.k2 == 400.0)
        assert np.all(prof.k2_z == 0.0)
        assert np.all(prof.k2_zz == 0.0)
        assert prof.gamma == 0.0

    def test_variable_coefficient_at_origin(self):
        # k(z) = 10 - 9 sin(10 z): k^2(0) = 100, (k^2)'(0) = 2*10*(-90) = -1800
        a, b, c = 10.0, 9.0, 10.0
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 8, 8, 8)
        prof = sample_profile(
            lambda z: (a - b * np.sin(c * z)) ** 2,
            lambda z: -2 * b * c * np.cos(c * z) * (a - b * np.sin(c * z)),
            lambda z: 2 * b**2 * c**2 * np.cos(c * z) ** 2
                      + 2 * b * c**2 * np.sin(c * z) * (a - b * np.sin(c * z)),
            0.0, grid)
        assert prof.k2[0] == pytest.approx(100.0, rel=1e-14)
        assert prof.k2_z[0] == pytest.approx(-1800.0, rel=1e-14)

    def test_convection_profile(self):
        grid = make_grid(Domain(0, 1, 0, 1, 0, 1), 5, 5, 5)
        prof = sample_profile(lambda z: 0 * z, lambda z: 0 * z, lambda z: 0 * z,
                              -100.0, grid)
        assert np.all(prof.k2 == 0.0)
        assert prof.gamma == -100.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CoefficientProfile(k2=np.zeros(5), k2_z=np.zeros(4), k2_zz=np.zeros(5))

    def test_derivative_samples_match_finite_differences(self):
        # refining the grid, centered differences of sampled k^2 converge to the
        # sampled first derivative at second order or better
        a, b, c = 10.0, 9.0, 10.0
        k2 = lambda z: (a - b * np.sin(c * z)) ** 2
        k2_z = lambda z: -2 * b * c * np.cos(c * z) * (a - b * np.sin(c * z))
        k2_zz = lambda z: (2 * b**2 * c**2 * np.cos(c * z) ** 2
                           + 2 * b * c**2 * np.sin(c * z) * (a - b * np.sin(c * z)))
        errs = []
        steps = []
        for n in (32, 64, 128):
            grid = make_grid(Domain(0, PI, 0, PI, 0, PI), n, n, n)
            prof = sample_profile(k2, k2_z, k2_zz, 0.0, grid)
            h = grid.h_z
            fd = (prof.k2[2:] - prof.k2[:-2]) / (2 * h)
            errs.append(np.abs(fd - prof.k2_z[1:-1]).max())
            steps.append(h)
        order = math.log(errs[0] / errs[-1]) / math.log(steps[0] / steps[-1])
        assert order >= 2.0 - 0.1

    def test_constant_profile_helper(self):
        grid = make_grid(Domain(0, 1, 0, 1, 0, 1), 3, 3, 3)
        prof = constant_profile(2.5 + 1j, grid, gamma=0.5)
        assert np.all(prof.k2 == 2.5 + 1j)
        assert prof.gamma == 0.5

import math

import numpy as np
import pytest

import helmfft as hf
from helmfft.assembly import Field3D
from helmfft.problems import (_SineExpProfile, convdiff_problem, error_metrics,
                              helmholtz_problem)
from helmfft.stencil import SchemeKind

PI = math.pi


class TestHelmholtzCatalog:
    def test_constant_coefficient_parameters(self):
        p = helmholtz_problem(20.0, 0.0, 10.0, 12.0, 16.0,
                              SchemeKind.SECOND_ORDER, 8)
        assert np.allclose(p.profile.k2, 400.0)
        # b = 0 kills the source identically
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, PI - 0.1, size=(50, 3))
        vals = p.source.f(pts[:, 0], pts[:, 1], pts[:, 2])
        assert np.abs(vals).max() == 0.0

    def test_solution_is_z_independent_when_constant(self):
        p = helmholtz_problem(20.0, 0.0, 10.0, 12.0, 16.0,
                              SchemeKind.SECOND_ORDER, 8)
        u1 = p.analytic(1.0, 1.3, 0.2)
        u2 = p.analytic(1.0, 1.3, 2.9)
        assert u1 == pytest.approx(u2, rel=1e-15)

    def test_constraint_enforced(self):
        with pytest.raises(ValueError, match="constraint"):
            helmholtz_problem(20.0, 0.0, 10.0, 12.0, 15.0,
                              SchemeKind.SECOND_ORDER, 8)

    def test_degenerate_transverse_mode_accepted(self):
        # gamma = 0 gives the zero solution and zero source; still solvable
        p = helmholtz_problem(1.0, 0.0, 1.0, 1.0, 0.0, SchemeKind.SECOND_ORDER, 6)
        u = hf.solve_direct(p)
        assert np.abs(u.values).max() < 1e-14

    def test_grid_count_validated(self):
        with pytest.raises(ValueError):
            helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SECOND_ORDER, 0)

    def test_convection_scheme_pairing_rejected(self):
        with pytest.raises(ValueError, match="2/4/6"):
            helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0,
                              SchemeKind.CONVECTION_DIFFUSION_4, 8)

    @pytest.mark.parametrize("params", [
        (20.0, 0.0, 10.0, 12.0, 16.0),
        (10.0, 9.0, 10.0, 10.0, 9.0),
    ])
    def test_equation_residual_at_random_points(self, params):
        p = helmholtz_problem(*params, SchemeKind.SIXTH_ORDER, 8)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.05, PI - 0.05, size=(100, 3))
        res = p.pde_residual(pts[:, 0], pts[:, 1], pts[:, 2])
        scale = max(1.0, np.abs(p.source.f(pts[:, 0], pts[:, 1], pts[:, 2])).max())
        assert np.abs(res).max() <= 1e-9 * scale

    def test_boundary_is_solution_restriction(self):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.FOURTH_ORDER, 6)
        ext = p.boundary.closed_box(p.grid)
        z = p.grid.z_nodes(closed=True)
        x = p.grid.x_nodes(closed=True)
        y = p.grid.y_nodes(closed=True)
        for (i, j, l) in [(0, 2, 3), (7, 1, 5), (3, 0, 2), (4, 7, 1), (2, 3, 0), (1, 4, 7)]:
            expect = p.analytic(x[i], y[j], z[l])
            assert ext[l, j, i] == pytest.approx(expect, rel=1e-13, abs=1e-15)


@pytest.fixture(scope="module")
def problem():
    return helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SIXTH_ORDER, 8)


class TestSourceDerivatives:
    """Finite-difference cross-checks of the analytic source callbacks."""

    @pytest.mark.parametrize("name,axis", [("f_z", 2), ("f_xx", 0), ("f_yy", 1),
                                           ("f_zz", 2)])
    def test_first_and_second_derivatives_converge(self, problem, name, axis):
        f = problem.source.f
        target = getattr(problem.source, name)
        point = np.array([1.1, 0.7, 1.9])
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            e = np.zeros(3)
            e[axis] = h
            up = f(*(point + e))
            dn = f(*(point - e))
            if name == "f_z":
                fd = (up - dn) / (2 * h)
            else:
                fd = (up - 2 * f(*point) + dn) / h**2
            errs.append(abs(fd - target(*point)))
        order = math.log(errs[0] / errs[-1]) / math.log(4.0)
        assert order >= 1.8

    def test_laplacian_consistent_with_parts(self, problem):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.2, PI - 0.2, size=(20, 3))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        s = problem.source
        total = s.f_xx(x, y, z) + s.f_yy(x, y, z) + s.f_zz(x, y, z)
        assert np.allclose(s.lap_f(x, y, z), total, rtol=1e-13)

    def test_fourth_derivatives_converge(self, problem):
        # pure fourth z-derivative via 5-point differences of f_zz
        s = problem.source
        point = (1.3, 0.9, 1.7)
        exact = (s.d4_f(*point)
                 - 10.0**4 * s.f(*point)    # remove the x and y parts
                 - 9.0**4 * s.f(*point))
        errs = []
        for h in (2e-2, 1e-2, 5e-3):
            fd = (s.f_zz(point[0], point[1], point[2] + h)
                  - 2 * s.f_zz(*point)
                  + s.f_zz(point[0], point[1], point[2] - h)) / h**2
            errs.append(abs(fd - exact))
        order = math.log(errs[0] / errs[-1]) / math.log(4.0)
        assert order >= 1.8

    def test_callables_match_their_closed_forms(self):
        # the closed forms, each evaluated in full on the interior nodes
        a, b, c, bx, gy = 10.0, 9.0, 10.0, 10.0, 9.0
        p = helmholtz_problem(a, b, c, bx, gy, SchemeKind.SIXTH_ORDER, 17)
        psi = [_SineExpProfile({(1, 0): 1.0}, a, b, c)]
        for _ in range(4):
            psi.append(psi[-1].derivative())
        x = p.grid.x_nodes()[None, None, :]
        y = p.grid.y_nodes()[None, :, None]
        z = p.grid.z_nodes()[:, None, None]
        ang = np.sin(bx * x) * np.sin(gy * y)
        c0 = -b * (2.0 * a + c)
        f = c0 * ang * psi[0](z)
        f_zz = c0 * ang * psi[2](z)
        expect = {"f": f, "f_z": c0 * ang * psi[1](z), "f_zz": f_zz,
                  "f_xx": -bx**2 * f, "f_yy": -gy**2 * f,
                  "lap_f": -(bx**2 + gy**2) * f + f_zz,
                  "d4_f": (bx**4 + gy**4) * c0 * ang * psi[0](z) + c0 * ang * psi[4](z),
                  "f_xxyy": bx**2 * gy**2 * f, "f_xxzz": -bx**2 * f_zz,
                  "f_yyzz": -gy**2 * f_zz}
        for name, values in expect.items():
            got = getattr(p.source, name)(x, y, z)
            assert got.shape == p.grid.shape and got.dtype == np.float64, name
            err = np.abs(got - values).max() / np.abs(values).max()
            assert err <= 1e-14, (name, err)
            if name in ("f", "f_z", "f_zz"):  # one profile: the same products
                assert np.array_equal(got, values), name

    def test_mixed_derivatives_are_separable_products(self, problem):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.2, PI - 0.2, size=(20, 3))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        s = problem.source
        assert np.allclose(s.f_xxyy(x, y, z), 100.0 * 81.0 * s.f(x, y, z), rtol=1e-13)
        assert np.allclose(s.f_xxzz(x, y, z), -100.0 * s.f_zz(x, y, z), rtol=1e-13)
        assert np.allclose(s.f_yyzz(x, y, z), -81.0 * s.f_zz(x, y, z), rtol=1e-13)


class TestConvectionDiffusionCatalog:
    def test_sigma_value(self):
        p = convdiff_problem(-100.0, 8)
        sigma = math.sqrt(PI**2 + 2500.0)
        # the z profile solves Z'' + gamma Z' - pi^2 Z = 0; verify via residual
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0.05, math.sqrt(2) - 0.05, 40),
                               rng.uniform(0.05, math.sqrt(2) - 0.05, 40),
                               rng.uniform(0.02, 0.98, 40)])
        res = p.pde_residual(pts[:, 0], pts[:, 1], pts[:, 2])
        assert np.abs(res).max() <= 1e-9
        assert sigma == pytest.approx(50.098599, abs=1e-5)

    def test_bottom_boundary_value(self):
        p = convdiff_problem(-100.0, 8)
        x, y = 0.3, 0.8
        expect = math.sin(PI * x / math.sqrt(2)) * math.sin(PI * y / math.sqrt(2))
        assert p.analytic(x, y, 0.0) == pytest.approx(expect, rel=1e-13)

    def test_top_boundary_value(self):
        p = convdiff_problem(-100.0, 8)
        x, y = 1.1, 0.25
        expect = 2 * math.sin(PI * x / math.sqrt(2)) * math.sin(PI * y / math.sqrt(2))
        assert p.analytic(x, y, 1.0) == pytest.approx(expect, rel=1e-13)

    def test_lateral_walls_vanish(self):
        p = convdiff_problem(-100.0, 8)
        assert abs(p.analytic(0.0, 0.7, 0.4)) < 1e-15
        assert abs(p.analytic(math.sqrt(2), 0.7, 0.4)) < 1e-12

    def test_source_is_zero(self):
        p = convdiff_problem(-100.0, 8)
        assert not np.any(p.source.f(np.array([0.3]), np.array([0.4]), np.array([0.5])))

    def test_zero_convection_rejected(self):
        with pytest.raises(ValueError):
            convdiff_problem(0.0, 8)

    def test_moderate_convection_also_valid(self):
        p = convdiff_problem(-4.0, 8)
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(0.05, 1.3, 30),
                               rng.uniform(0.05, 1.3, 30),
                               rng.uniform(0.02, 0.98, 30)])
        assert np.abs(p.pde_residual(pts[:, 0], pts[:, 1], pts[:, 2])).max() <= 1e-9


class TestErrorMetrics:
    def test_exact_solution_gives_zeros(self):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SECOND_ORDER, 6)
        g = p.grid
        x = g.x_nodes()[None, None, :]
        y = g.y_nodes()[None, :, None]
        z = g.z_nodes()[:, None, None]
        exact = Field3D(np.broadcast_to(
            np.asarray(p.analytic(x, y, z), dtype=complex), g.shape).copy())
        max_err, l2_err = error_metrics(exact, p.analytic, g)
        assert max_err == 0.0 and l2_err == 0.0

    def test_single_node_offset(self):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SECOND_ORDER, 6)
        g = p.grid
        x = g.x_nodes()[None, None, :]
        y = g.y_nodes()[None, :, None]
        z = g.z_nodes()[:, None, None]
        vals = np.broadcast_to(np.asarray(p.analytic(x, y, z), dtype=complex),
                               g.shape).copy()
        vals[2, 3, 1] += 1e-3
        max_err, _ = error_metrics(Field3D(vals), p.analytic, g)
        assert max_err == pytest.approx(1e-3, rel=1e-12)

    def test_requires_analytic(self):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SECOND_ORDER, 4)
        with pytest.raises(ValueError):
            error_metrics(Field3D.zeros(p.grid), None, p.grid)

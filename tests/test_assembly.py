import math
import threading
import tracemalloc

import numpy as np
import pytest

from helmfft.assembly import (BoundaryData, Field3D, SourceSpec, _accumulate,
                              _sample_interior, apply_stencil, build_rhs,
                              fold_dirichlet, residual_l2)
from helmfft.errors import NonFiniteInputError, UnsupportedSchemeError
from helmfft.grid import Domain, constant_profile, make_grid, sample_profile
from helmfft.oracle import dense_boundary_fold, dense_matrix, dense_solve, row_index
from helmfft.problems import ProblemSpec, helmholtz_problem
from helmfft.solver import Partitioned, Sequential, SharedWorkers, SolverConfig, solve_stencil
from helmfft import assembly, solver
from helmfft.stencil import SchemeKind, check_table, coefficient_table
from helmfft.tridiag import solve_slab

PI = math.pi

ALL_SCHEMES = [SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER,
               SchemeKind.SIXTH_ORDER, SchemeKind.CONVECTION_DIFFUSION_4]


def cube_grid(n, k2=0.0, gamma=0.0):
    grid = make_grid(Domain(0, PI, 0, PI, 0, PI), n, n, n)
    return grid, constant_profile(k2, grid, gamma=gamma)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field3D(rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def random_boundary(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.n_z + 2, grid.n_y + 2, grid.n_x + 2)
    ext = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BoundaryData.from_array(ext)


class TestField3D:
    def test_linear_index_order(self):
        grid, _ = cube_grid(3)
        field = Field3D(np.arange(27, dtype=complex).reshape(3, 3, 3))
        flat = field.ravel()
        for l in range(1, 4):
            for j in range(1, 4):
                for i in range(1, 4):
                    assert flat[row_index(i, j, l, grid)] == field.values[l - 1, j - 1, i - 1]

    @pytest.mark.parametrize("dtype, stored", [
        (np.float32, np.float64), (np.int64, np.float64), (">f8", np.float64),
        (np.complex64, np.complex128), (">c16", np.complex128)])
    def test_real_stays_real(self, dtype, stored):
        # the one rule of BoundaryData.from_array: real -> float64, complex -> complex128
        field = Field3D(np.ones((5, 4, 3), dtype=dtype))
        assert field.values.dtype == stored
        assert field.values.dtype.isnative

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Field3D(np.zeros((4, 4)))


class TestBoundaryData:
    def test_zero_boundary(self):
        grid, _ = cube_grid(3)
        ext = BoundaryData.zero().closed_box(grid)
        assert not np.any(ext)

    def test_function_fills_all_faces(self):
        grid, _ = cube_grid(2)
        bnd = BoundaryData.from_function(lambda x, y, z: x + 10 * y + 100 * z)
        ext = bnd.closed_box(grid)
        assert ext[0, 0, 0] == 0.0
        assert ext[-1, 0, 0] == pytest.approx(100 * PI, rel=1e-14)
        assert ext[0, -1, 2] == pytest.approx(grid.x_nodes(closed=True)[2] + 10 * PI, rel=1e-14)
        assert not np.any(ext[1:-1, 1:-1, 1:-1])

    def test_only_zero_is_known_zero(self):
        # the fold skips a known-zero boundary's walls, so no other
        # BoundaryData can claim to be one
        with pytest.raises(TypeError):
            BoundaryData(fn=lambda x, y, z: 1.0 + 0 * x, known_zero=True)
        assert BoundaryData.zero().known_zero
        assert not BoundaryData.from_function(lambda x, y, z: 0 * x).known_zero
        assert not BoundaryData.from_array(np.zeros((4, 4, 4))).known_zero

    def test_exactly_one_of_fn_or_array(self):
        for kwargs in ({}, {"fn": lambda x, y, z: 0 * x, "array": np.zeros((4, 4, 4))}):
            with pytest.raises(ValueError, match="exactly one of fn or array"):
                BoundaryData(**kwargs)

    def test_array_interior_ignored(self):
        grid, _ = cube_grid(2)
        full = np.ones((4, 4, 4), dtype=complex)
        ext = BoundaryData.from_array(full).closed_box(grid)
        assert not np.any(ext[1:-1, 1:-1, 1:-1])
        assert np.all(ext[0] == 1.0)

    def test_shape_mismatch(self):
        grid, _ = cube_grid(3)
        with pytest.raises(ValueError):
            BoundaryData.from_array(np.zeros((4, 4, 4))).closed_box(grid)

    def test_real_array_kept_float64(self):
        grid, _ = cube_grid(3)
        box = np.random.default_rng(6).standard_normal((5, 5, 5))
        bnd = BoundaryData.from_array(box)
        faces = bnd.faces(grid)
        assert all(f.dtype == np.float64 for f in faces)
        assert np.shares_memory(faces[0], box)  # no closed-box copy
        assert bnd.closed_box(grid).dtype == np.complex128
        ints = BoundaryData.from_array(np.ones((5, 5, 5), dtype=int)).faces(grid)
        assert ints[0].dtype == np.float64
        cplx = BoundaryData.from_array(box + 1j).faces(grid)
        assert cplx[0].dtype == np.complex128


class TestBuildRhs:
    def test_zero_source_all_schemes(self):
        grid, prof = cube_grid(4, gamma=-2.0)
        src = SourceSpec.zero()
        for scheme in ALL_SCHEMES:
            rhs = build_rhs(scheme, src, prof, grid)
            assert not np.any(rhs.values), scheme

    @pytest.mark.parametrize("n_profile", [3, 9])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_profile_of_another_grid_raises_before_any_sample(self, scheme, n_profile):
        grid, _ = cube_grid(5)
        _, prof = cube_grid(n_profile, gamma=-2.0)

        def unsampled(x, y, z):
            raise AssertionError("a source was sampled")

        src = SourceSpec(**{name: unsampled for name in (
            "f", "f_z", "f_xx", "f_yy", "f_zz", "lap_f", "d4_f", "f_xxyy", "f_xxzz",
            "f_yyzz")})
        with pytest.raises(ValueError, match=f"{n_profile + 2} levels.* 7$"):
            build_rhs(scheme, src, prof, grid, dtype=None)

    @pytest.mark.parametrize("dtype", [float, np.float64, np.complex64])
    def test_dtype_other_than_complex_or_none_rejected(self, dtype):
        grid, prof = cube_grid(4)
        with pytest.raises(ValueError, match="dtype must be complex or None"):
            build_rhs(SchemeKind.SECOND_ORDER, SourceSpec.zero(), prof, grid, dtype=dtype)

    def test_sixth_order_needs_a_uniform_grid(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, 2 * PI), 4, 4, 4)
        prof = constant_profile(1.0, grid)
        for dtype in (complex, None):
            with pytest.raises(UnsupportedSchemeError, match="uniform grid step"):
                build_rhs(SchemeKind.SIXTH_ORDER, SourceSpec.zero(), prof, grid, dtype=dtype)

    def test_constant_coefficient_catalog_source_vanishes(self):
        # the catalog's z-independent problem has an identically zero source
        from helmfft.problems import helmholtz_problem
        p = helmholtz_problem(20.0, 0.0, 10.0, 12.0, 16.0,
                              SchemeKind.SIXTH_ORDER, 5)
        rhs = build_rhs(p.scheme, p.source, p.profile, p.grid)
        assert not np.any(rhs.values)

    def test_second_order_is_scaled_sample(self):
        grid, prof = cube_grid(3)
        src = SourceSpec(f=lambda x, y, z: np.sin(x) * np.cos(y) + z)
        rhs = build_rhs(SchemeKind.SECOND_ORDER, src, prof, grid)
        x = grid.x_nodes()[None, None, :]
        y = grid.y_nodes()[None, :, None]
        z = grid.z_nodes()[:, None, None]
        expect = grid.h_z**2 * (np.sin(x) * np.cos(y) + z)
        assert np.allclose(rhs.values, expect, atol=1e-15)

    def test_fourth_order_annihilates_trilinear(self):
        # undivided second differences of a trilinear function vanish
        grid, prof = cube_grid(4)
        f = lambda x, y, z: (1 + 2 * x) * (3 - y) * (0.5 + z)
        rhs = build_rhs(SchemeKind.FOURTH_ORDER, SourceSpec(f=f), prof, grid)
        x = grid.x_nodes()[None, None, :]
        y = grid.y_nodes()[None, :, None]
        z = grid.z_nodes()[:, None, None]
        assert np.allclose(rhs.values, grid.h_z**2 * f(x, y, z), rtol=1e-13)

    def test_fourth_order_discrete_operator(self):
        # against a direct loop evaluation of f + (1/12) * undivided differences
        grid, prof = cube_grid(3)
        f = lambda x, y, z: np.exp(x) * np.sin(2 * y) + z**3
        rhs = build_rhs(SchemeKind.FOURTH_ORDER, SourceSpec(f=f), prof, grid)
        xs = grid.x_nodes(closed=True)
        ys = grid.y_nodes(closed=True)
        zs = grid.z_nodes(closed=True)
        for l in range(1, 4):
            for j in range(1, 4):
                for i in range(1, 4):
                    fc = f(xs[i], ys[j], zs[l])
                    d2 = (f(xs[i - 1], ys[j], zs[l]) - 2 * fc + f(xs[i + 1], ys[j], zs[l])
                          + f(xs[i], ys[j - 1], zs[l]) - 2 * fc + f(xs[i], ys[j + 1], zs[l])
                          + f(xs[i], ys[j], zs[l - 1]) - 2 * fc + f(xs[i], ys[j], zs[l + 1]))
                    expect = grid.h_z**2 * (fc + d2 / 12.0)
                    assert rhs.values[l - 1, j - 1, i - 1] == pytest.approx(expect, rel=1e-13)

    def test_sixth_order_requires_derivatives(self):
        grid, prof = cube_grid(3)
        with pytest.raises(ValueError, match="missing required derivatives"):
            build_rhs(SchemeKind.SIXTH_ORDER, SourceSpec(f=lambda x, y, z: x), prof, grid)

    def test_convdiff_requires_derivatives(self):
        grid, prof = cube_grid(3, gamma=1.0)
        with pytest.raises(ValueError, match="missing required derivatives"):
            build_rhs(SchemeKind.CONVECTION_DIFFUSION_4,
                      SourceSpec(f=lambda x, y, z: x), prof, grid)

    def test_convdiff_polynomial_source(self):
        # f = z^2: f_z = 2z, f_zz = 2, f_xx = f_yy = 0
        grid, prof = cube_grid(3, gamma=-5.0)
        src = SourceSpec(
            f=lambda x, y, z: z**2 + 0 * x + 0 * y,
            f_z=lambda x, y, z: 2 * z + 0 * x + 0 * y,
            f_xx=lambda x, y, z: 0 * x + 0 * y + 0 * z,
            f_yy=lambda x, y, z: 0 * x + 0 * y + 0 * z,
            f_zz=lambda x, y, z: 2.0 + 0 * x + 0 * y + 0 * z,
        )
        rhs = build_rhs(SchemeKind.CONVECTION_DIFFUSION_4, src, prof, grid)
        z = grid.z_nodes()[:, None, None]
        hz2 = grid.h_z**2
        expect = hz2 * (z**2 + (hz2 / 12.0) * (-5.0 * 2 * z + 2.0)) * np.ones(grid.shape)
        assert np.allclose(rhs.values, expect, rtol=1e-14)


class TestFoldDirichlet:
    def test_zero_boundary_is_identity(self):
        grid, prof = cube_grid(3, k2=2.0)
        rhs = random_field(grid, 1)
        folded = fold_dirichlet(rhs, BoundaryData.zero(),
                                coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid), grid)
        assert np.array_equal(folded.values, rhs.values)

    def test_single_unknown_unit_boundary(self):
        grid, prof = cube_grid(1)
        rhs = Field3D.zeros(grid)
        bnd = BoundaryData.from_function(
            lambda x, y, z: np.ones(np.broadcast(x, y, z).shape))
        folded = fold_dirichlet(rhs, bnd, coefficient_table(SchemeKind.SECOND_ORDER, prof, grid),
                                grid)
        # the six face neighbors carry weights b, b, c, c, 1, 1 = 6 in total
        assert folded.values[0, 0, 0] == pytest.approx(-6.0, rel=1e-14)

    @pytest.mark.parametrize("walls", ["zero", "real", "complex"])
    @pytest.mark.parametrize("rhs_kind", ["real", "complex"])
    def test_fold_without_copy_works_in_the_rhs(self, rhs_kind, walls):
        # copy=False folds in the right-hand side's own array when it has the
        # working dtype, with the same bits as the copy; a real right-hand
        # side that complex walls widen is copied all the same
        grid, _, prof = chunk_case(SchemeKind.FOURTH_ORDER, "real")
        rng = np.random.default_rng(8)
        values = rng.standard_normal(grid.shape)
        if rhs_kind == "complex":
            values = values + 1j * rng.standard_normal(grid.shape)
        shape = (grid.n_z + 2, grid.n_y + 2, grid.n_x + 2)
        box = rng.standard_normal(shape)
        bnd = {"zero": BoundaryData.zero(), "real": BoundaryData.from_array(box),
               "complex": BoundaryData.from_array(box + 0.5j)}[walls]
        expect = fold_dirichlet(Field3D(values), bnd,
                                coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid), grid)
        assert not np.may_share_memory(expect.values, values)
        rhs = Field3D(values.copy())
        got = fold_dirichlet(rhs, bnd, coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid),
                             grid, copy=False)
        widened = rhs_kind == "real" and walls == "complex"
        assert np.shares_memory(got.values, rhs.values) == (not widened)
        assert got.values.dtype == expect.values.dtype
        assert np.array_equal(bits(got.values), bits(expect.values))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_fold_matches_dense_oracle(self, scheme):
        grid, prof = cube_grid(3, gamma=-2.0 if scheme
                               is SchemeKind.CONVECTION_DIFFUSION_4 else 0.0)
        rhs = random_field(grid, 2)
        bnd = random_boundary(grid, 3)
        folded = fold_dirichlet(rhs, bnd, coefficient_table(scheme, prof, grid), grid)
        oracle = rhs.ravel() - dense_boundary_fold(bnd.closed_box(grid),
                                                   coefficient_table(scheme, prof, grid), grid)
        assert np.abs(folded.ravel() - oracle).max() < 1e-13

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_fold_apply_duality(self, scheme):
        # applying with real boundary data equals applying with zero boundary
        # plus the folded contribution
        for n in (3, 6):
            grid, prof = cube_grid(n, k2=1.5 if scheme is not
                                   SchemeKind.CONVECTION_DIFFUSION_4 else 0.0,
                                   gamma=-1.0 if scheme
                                   is SchemeKind.CONVECTION_DIFFUSION_4 else 0.0)
            u = random_field(grid, 4)
            bnd = random_boundary(grid, 5)
            table = coefficient_table(scheme, prof, grid)
            with_bnd = apply_stencil(u, bnd, table, grid)
            without = apply_stencil(u, BoundaryData.zero(), table, grid)
            zero = Field3D.zeros(grid)
            contrib = -fold_dirichlet(zero, bnd, table, grid).values
            assert np.abs(with_bnd.values - (without.values + contrib)).max() < 1e-13


class TestApplyStencil:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_annihilates_constants(self, scheme):
        grid, prof = cube_grid(4, gamma=-3.0 if scheme
                               is SchemeKind.CONVECTION_DIFFUSION_4 else 0.0)
        ones = Field3D(np.ones(grid.shape, dtype=complex))
        bnd = BoundaryData.from_function(
            lambda x, y, z: np.ones(np.broadcast(x, y, z).shape))
        out = apply_stencil(ones, bnd, coefficient_table(scheme, prof, grid), grid)
        assert np.abs(out.values).max() < 1e-13

    def test_zero_in_zero_out(self):
        grid, prof = cube_grid(4, k2=9.0)
        out = apply_stencil(Field3D.zeros(grid), BoundaryData.zero(),
                            coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)
        assert not np.any(out.values)

    def test_matches_dense_matvec(self):
        grid, prof = cube_grid(4, k2=3.0 + 0.5j)
        u = random_field(grid, 6)
        out = apply_stencil(u, BoundaryData.zero(),
                            coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)
        A = dense_matrix(coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)
        assert np.abs(out.ravel() - A @ u.ravel()).max() < 1e-13

    def test_extent_mismatch(self):
        grid, prof = cube_grid(4)
        small = Field3D(np.zeros((2, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            apply_stencil(small, BoundaryData.zero(),
                          coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)


class TestResidual:
    def test_zero_everything(self):
        grid, prof = cube_grid(3)
        assert residual_l2(Field3D.zeros(grid), Field3D.zeros(grid),
                           coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid) == 0.0

    def test_single_entry_perturbation_is_column_norm(self):
        grid, prof = cube_grid(3, k2=2.0)
        scheme = SchemeKind.FOURTH_ORDER
        A = dense_matrix(coefficient_table(scheme, prof, grid), grid)
        u = random_field(grid, 7)
        rhs = apply_stencil(u, BoundaryData.zero(), coefficient_table(scheme, prof, grid), grid)
        eps = 1e-4
        k = row_index(2, 2, 2, grid)
        perturbed = u.copy()
        perturbed.values[1, 1, 1] += eps
        res = residual_l2(perturbed, rhs, coefficient_table(scheme, prof, grid), grid)
        assert res == pytest.approx(eps * np.linalg.norm(A[:, k]), rel=1e-10)

    def test_extent_mismatch(self):
        grid, prof = cube_grid(3)
        with pytest.raises(ValueError):
            residual_l2(Field3D.zeros(grid), Field3D(np.zeros((2, 2, 2), dtype=complex)),
                        coefficient_table(SchemeKind.SECOND_ORDER, prof, grid), grid)


# (n_x, n_y, n_z): faces that overlap (extent 1 or 2) or leave no inner rows
LAYER_EXTENTS = [(1, 1, 1), (1, 4, 3), (2, 2, 5), (5, 1, 2), (4, 3, 1), (6, 5, 7)]


def layer_case(scheme, extents, boundary_kind, seed=11):
    """A grid, profile, random RHS and boundary for the fold tests.

    Sixth order gets h = 1/4 in every direction (its weights need a uniform
    step); the other schemes get three different steps. Helmholtz schemes
    get a complex k^2(z), convection-diffusion a gamma.
    """
    n_x, n_y, n_z = extents
    if scheme is SchemeKind.SIXTH_ORDER:
        domain = Domain(0, 0.25 * (n_x + 1), 0, 0.25 * (n_y + 1), 0, 0.25 * (n_z + 1))
    else:
        domain = Domain(0, 1.3, -0.2, 0.9, 0.1, 2.0)
    grid = make_grid(domain, n_x, n_y, n_z)
    if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
        profile = constant_profile(0.0, grid, gamma=-3.7)
    else:
        profile = sample_profile(lambda z: (3 + 1j) * np.cos(2 * z) + 5,
                                 lambda z: -(6 + 2j) * np.sin(2 * z),
                                 lambda z: -(12 + 4j) * np.cos(2 * z), 0.0, grid)
    rhs = random_field(grid, seed)
    if boundary_kind == "array":
        bnd = random_boundary(grid, seed + 1)
    else:
        bnd = BoundaryData.from_function(
            lambda x, y, z: np.sin(3 * x + 0.3) * np.exp(y) * np.cos(z) + 1j * x * z)
    return grid, profile, rhs, bnd


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestFoldLayers:
    """The fold touches only the six boundary layers and matches the
    full-volume accumulation over the closed box bit for bit."""

    @pytest.mark.parametrize("boundary_kind", ["array", "function"])
    @pytest.mark.parametrize("extents", LAYER_EXTENTS)
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_bitwise_full_volume_fold(self, scheme, extents, boundary_kind):
        grid, prof, rhs, bnd = layer_case(scheme, extents, boundary_kind)
        folded = fold_dirichlet(rhs, bnd, coefficient_table(scheme, prof, grid), grid)
        table = coefficient_table(scheme, prof, grid)
        expect = rhs.values - _accumulate(bnd.closed_box(grid), table)
        assert np.array_equal(bits(folded.values), bits(expect))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_rows_without_boundary_neighbor_unchanged(self, scheme):
        grid, prof, rhs, bnd = layer_case(scheme, (6, 5, 7), "function")
        folded = fold_dirichlet(rhs, bnd, coefficient_table(scheme, prof, grid), grid)
        inner = (slice(1, -1),) * 3
        assert np.array_equal(bits(folded.values[inner]), bits(rhs.values[inner]))
        assert not np.array_equal(folded.values[0], rhs.values[0])
        assert not np.shares_memory(folded.values, rhs.values)

    def test_peak_allocation_near_one_field(self):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SIXTH_ORDER, 64)
        rhs = random_field(p.grid, 12)
        field_bytes = rhs.values.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            folded = fold_dirichlet(rhs, p.boundary,
                                    coefficient_table(p.scheme, p.profile, p.grid), p.grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert folded.values.nbytes == field_bytes
        assert peak <= 1.2 * field_bytes, peak / field_bytes


class TestSixthOrderRhsInPlace:
    @pytest.mark.parametrize("kind", ["catalog", "complex"])
    def test_bitwise_full_temporary_expression(self, kind):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SIXTH_ORDER, 23)
        grid, src, prof = p.grid, p.source, p.profile
        if kind == "complex":
            # any callables will do: the test is of the arithmetic, not the source
            def wave(a, b):
                return lambda x, y, z: np.exp(1j * (a * x - b * y)) * np.cos(a * z + b) - b

            src = SourceSpec(f=wave(1.1, 0.3), f_z=wave(-0.7, 2.0), lap_f=wave(2.3, -1.0),
                             d4_f=wave(0.4, 0.9), f_xxyy=wave(-1.6, 0.2),
                             f_xxzz=wave(0.8, -2.2), f_yyzz=wave(3.0, 1.4))
            prof = sample_profile(lambda z: (3 - 2j) * np.sin(z) - 4,
                                  lambda z: (3 - 2j) * np.cos(z),
                                  lambda z: -(3 - 2j) * np.sin(z), 0.0, grid)
        if kind == "catalog":  # real data: the right-hand side builds in float64
            got = build_rhs(p.scheme, src, prof, grid, dtype=None)
            assert got.values.dtype == np.float64
            k2, k2_z = prof.k2.real, prof.k2_z.real
        else:
            got = build_rhs(p.scheme, src, prof, grid)
            k2, k2_z = prof.k2, prof.k2_z

        def sample(fn):
            return _sample_interior(fn, grid)

        h2 = grid.h_z**2
        h4 = h2 * h2
        f = sample(src.f)
        mixed = sample(src.f_xxyy) + sample(src.f_xxzz) + sample(src.f_yyzz)
        k2_col = k2[1:-1][:, None, None]
        k2z_col = k2_z[1:-1][:, None, None]
        expect = h2 * (f + (h2 / 12.0) * sample(src.lap_f)
                       + (h4 / 360.0) * sample(src.d4_f) + (h4 / 90.0) * mixed)
        expect -= (h4 / 20.0) * k2_col * f
        expect += (h2 * h4 / 60.0) * k2z_col * sample(src.f_z)
        assert np.array_equal(bits(got.values), bits(expect))

    @pytest.mark.parametrize("held_dtype", [float, complex])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_samples_a_callable_holds_are_only_read(self, scheme, held_dtype):
        # a sample may be the callable's own array: building never writes to it
        grid, prof = cube_grid(4, k2=2.0, gamma=-1.5)
        rng = np.random.default_rng(17)
        held = {name: rng.standard_normal(grid.shape).astype(held_dtype)
                for name in ("f", "f_z", "f_xx", "f_yy", "f_zz", "lap_f", "d4_f",
                             "f_xxyy", "f_xxzz", "f_yyzz")}
        before = {name: a.copy() for name, a in held.items()}
        src = SourceSpec(**{name: (lambda a: lambda x, y, z: a)(a)
                            for name, a in held.items()})
        if scheme is SchemeKind.FOURTH_ORDER:  # samples f on the closed grid
            closed = rng.standard_normal((6, 6, 6)).astype(held_dtype)
            src.f, before["closed"], held["closed"] = (lambda x, y, z: closed,
                                                       closed.copy(), closed)
        for dtype in (complex, None):
            got = build_rhs(scheme, src, prof, grid, dtype=dtype)
            assert not any(np.shares_memory(got.values, a) for a in held.values())
        for name, a in held.items():
            assert np.array_equal(bits(a), bits(before[name])), name
        fresh = _sample_interior(lambda x, y, z: x + y + z, grid)
        assert fresh.shape == grid.shape and fresh.dtype == np.float64


class TestNonFiniteInput:
    def setup_method(self):
        self.grid, self.prof = cube_grid(4, k2=2.0)
        self.rhs = random_field(self.grid, 13)
        self.bnd = random_boundary(self.grid, 14)

    def fold(self, rhs=None, bnd=None, prof=None):
        # a profile is checked where it becomes a table
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof or self.prof, self.grid)
        return fold_dirichlet(rhs or self.rhs, bnd or self.bnd, table, self.grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_rhs_names_first_node(self, bad):
        rhs = self.rhs.copy()
        rhs.values[3, 0, 2] = bad
        rhs.values[3, 1, 0] = np.nan
        with pytest.raises(NonFiniteInputError) as err:
            self.fold(rhs=rhs)
        assert (err.value.field, err.value.index) == ("rhs", (4, 1, 3))
        assert "rhs" in str(err.value) and "(4, 1, 3)" in str(err.value)

    def test_overflowing_plane_sum_is_not_an_error(self):
        rhs = self.rhs.copy()
        rhs.values[2] = 1e308  # finite values whose plane sum overflows
        folded = self.fold(rhs=rhs, bnd=BoundaryData.zero())
        assert np.array_equal(folded.values, rhs.values)

    def test_rhs_checked_with_zero_boundary(self):
        rhs = self.rhs.copy()
        rhs.values[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteInputError) as err:
            self.fold(rhs=rhs, bnd=BoundaryData.zero())
        assert err.value.index == (1, 1, 1)

    @pytest.mark.parametrize("name", ["k2", "k2_z", "k2_zz"])
    def test_profile_array_names_level(self, name):
        arrays = {n: getattr(self.prof, n).copy() for n in ("k2", "k2_z", "k2_zz")}
        arrays[name][5] = np.nan
        prof = type(self.prof)(gamma=self.prof.gamma, **arrays)
        with pytest.raises(NonFiniteInputError) as err:
            self.fold(prof=prof)
        assert (err.value.field, err.value.index) == (name, (5,))

    def test_gamma(self):
        prof = constant_profile(0.0, self.grid, gamma=np.inf)
        with pytest.raises(NonFiniteInputError) as err:
            self.fold(prof=prof)
        assert err.value.field == "gamma"

    @pytest.mark.parametrize("node", [(0, 2, 3), (5, 0, 1), (2, 5, 4), (3, 1, 0),
                                      (4, 3, 5), (0, 0, 0)])
    def test_boundary_array_names_closed_node(self, node):
        ext = self.bnd.closed_box(self.grid)
        ext[node] = np.nan
        with pytest.raises(NonFiniteInputError) as err:
            self.fold(bnd=BoundaryData.from_array(ext))
        assert (err.value.field, err.value.index) == ("boundary", node)

    def test_boundary_function(self):
        top = self.grid.z_nodes(closed=True)[-1]
        bnd = BoundaryData.from_function(
            lambda x, y, z: np.where(z == top, np.nan, 1.0) + 0 * x + 0 * y)
        with pytest.raises(NonFiniteInputError) as err:
            self.fold(bnd=bnd)
        assert err.value.field == "boundary" and err.value.index == (5, 0, 0)

    def test_interior_of_boundary_array_ignored(self):
        ext = self.bnd.closed_box(self.grid)
        ext[2, 2, 2] = np.nan  # an interior node: never read
        folded = self.fold(bnd=BoundaryData.from_array(ext))
        assert np.isfinite(folded.values).all()


# each function that applies a table to a field, with the walls where it takes them
TABLE_USERS = {
    "fold": lambda u, bnd, table, grid: fold_dirichlet(u, bnd, table, grid),
    "apply": apply_stencil,
    "residual": lambda u, bnd, table, grid: residual_l2(u, u, table, grid),
    "dense_matrix": lambda u, bnd, table, grid: dense_matrix(table, grid),
    "dense_boundary_fold": lambda u, bnd, table, grid: dense_boundary_fold(
        bnd.closed_box(grid), table, grid),
    "dense_solve": lambda u, bnd, table, grid: dense_solve(
        u.values, bnd.closed_box(grid), table, grid),
    "sweep": lambda u, bnd, table, grid: solve_slab(u.values.copy(), table, grid),
    "solve_stencil": lambda u, bnd, table, grid: solve_stencil(table, u, bnd, grid),
}


class TestOperandChecks:
    """The fold, apply_stencil, residual_l2, the sweep, solve_stencil and the
    dense oracle check the table and the walls against the grid before any
    arithmetic."""

    def setup_method(self):
        self.grid, prof = cube_grid(5, k2=2.0)
        self.table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, self.grid)
        self.u = random_field(self.grid, 21)
        self.bnd = random_boundary(self.grid, 22)

    @pytest.mark.parametrize("user", sorted(TABLE_USERS))
    def test_table_of_another_grid_names_the_shapes(self, user):
        grid7, prof7 = cube_grid(7)  # the n_z + 2 rows of a 5-level grid's profile
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof7, grid7)
        with pytest.raises(ValueError, match=r"\(5, 3\) arrays, got shapes \[\(7, 3\)"):
            TABLE_USERS[user](self.u, self.bnd, table, self.grid)

    @pytest.mark.parametrize("user", sorted(TABLE_USERS))
    def test_non_finite_table_entry_names_its_row_and_level(self, user):
        table = [w.copy() for w in self.table]
        table[2][1, 0] = np.nan  # C weight of row level 2 at level 1
        with pytest.raises(NonFiniteInputError) as err:
            TABLE_USERS[user](self.u, self.bnd, table, self.grid)
        assert (err.value.field, err.value.index) == ("table", (2, 1))

    @pytest.mark.parametrize("node", [(0, 2, 3), (6, 1, 1), (3, 6, 0), (4, 1, 6)])
    def test_apply_stencil_names_a_non_finite_wall(self, node):
        ext = self.bnd.closed_box(self.grid)
        ext[node] = np.nan
        with pytest.raises(NonFiniteInputError) as err:
            apply_stencil(self.u, BoundaryData.from_array(ext), self.table, self.grid)
        assert (err.value.field, err.value.index) == ("boundary", node)

    @pytest.mark.parametrize("shape", [(6, 6, 6), (8, 8, 8), (7, 7, 6), (7, 7)])
    def test_oracle_rejects_a_box_of_another_shape(self, shape):
        box = np.zeros(shape)  # the 5^3 grid's closed box is 7 x 7 x 7
        with pytest.raises(ValueError, match=r"boundary_ext shape \(" + str(shape[0])):
            dense_boundary_fold(box, self.table, self.grid)
        with pytest.raises(ValueError, match="boundary_ext shape"):
            dense_solve(self.u.values, box, self.table, self.grid)


def chunk_case(scheme, kind):
    """A 7 x 6 x 11 grid, whose n_z no chunk depth of 2 or 3 divides, with a
    source and profile that are real (kind "real") or complex ("complex").

    Sixth order gets h = 1/4 in every direction; the other schemes get three
    different steps.
    """
    n_x, n_y, n_z = 7, 6, 11
    if scheme is SchemeKind.SIXTH_ORDER:
        domain = Domain(0, 0.25 * (n_x + 1), 0, 0.25 * (n_y + 1), 0, 0.25 * (n_z + 1))
    else:
        domain = Domain(0, 1.3, -0.2, 0.9, 0.1, 2.0)
    grid = make_grid(domain, n_x, n_y, n_z)
    cplx = kind == "complex"
    if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
        profile = constant_profile(0.0, grid, gamma=-3.7 + (0.5j if cplx else 0))
    else:
        s = 1 + 0.3j if cplx else 1.0
        profile = sample_profile(lambda z: 3 * s * np.cos(2 * z) + 5,
                                 lambda z: -6 * s * np.sin(2 * z),
                                 lambda z: -12 * s * np.cos(2 * z), 0.0, grid)

    def wave(a, b):  # any callables will do: the test is of the arithmetic
        if cplx:
            return lambda x, y, z: np.exp(1j * (a * x - b * y)) * np.cos(a * z + b) - b
        return lambda x, y, z: np.sin(a * x - b * y) * np.cos(a * z + b) - b

    source = SourceSpec(f=wave(1.1, 0.3), f_z=wave(-0.7, 2.0), f_xx=wave(0.5, 1.2),
                        f_yy=wave(-1.3, 0.4), f_zz=wave(2.1, -0.6), lap_f=wave(2.3, -1.0),
                        d4_f=wave(0.4, 0.9), f_xxyy=wave(-1.6, 0.2),
                        f_xxzz=wave(0.8, -2.2), f_yyzz=wave(3.0, 1.4))
    return grid, source, profile


def chunk_planes(monkeypatch, grid, planes, itemsize):
    """Make every right-hand side chunk `planes` z-planes deep."""
    monkeypatch.setattr(assembly, "RHS_CHUNK_BYTES", planes * grid.n_y * grid.n_x * itemsize)


# the schemes whose right-hand side reads no profile field
NO_PROFILE_RHS = (SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER)


class TestChunkedBuild:
    """build_rhs works z-chunk by z-chunk; small budgets force many chunks."""

    @pytest.mark.parametrize("kind, dtype", [("real", None), ("real", complex),
                                             ("complex", None)])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_chunks_bitwise_equal_one_chunk(self, monkeypatch, scheme, kind, dtype):
        grid, src, prof = chunk_case(scheme, kind)
        itemsize = 8 if (kind, dtype) == ("real", None) else 16
        # second and fourth order read no profile field, so their complex
        # source is found at the float64 build's first sample of f, and the
        # build starts again in complex
        restarts = int(dtype is None and kind == "complex" and scheme in NO_PROFILE_RHS)
        calls = []
        f = src.f
        src.f = lambda x, y, z: calls.append(np.size(z)) or f(x, y, z)
        monkeypatch.setattr(assembly, "RHS_CHUNK_BYTES", 1 << 40)
        whole = build_rhs(scheme, src, prof, grid, dtype=dtype).values
        assert whole.dtype.itemsize == itemsize
        for planes in (1, 2, 3):
            calls.clear()
            chunk_planes(monkeypatch, grid, planes, itemsize)
            got = build_rhs(scheme, src, prof, grid, dtype=dtype).values
            # one sample of f per chunk
            assert len(calls) == -(-grid.n_z // planes) + restarts
            assert got.dtype == whole.dtype
            assert np.array_equal(bits(got), bits(whole)), planes

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_source_complex_in_a_later_chunk_gives_complex_build(self, monkeypatch, scheme):
        # real profile; every sample is real on planes below z_cut and gains
        # an imaginary part above it, so only later chunks return complex
        grid, src, prof = chunk_case(scheme, "real")
        z_cut = grid.z_nodes(closed=True)[grid.n_z - 2]

        def later_complex(fn):
            def sample(x, y, z):
                values = fn(x, y, z)
                if np.any(z > z_cut):
                    values = values + 1j * np.maximum(z - z_cut, 0.0)
                return values
            return sample

        src = SourceSpec(**{name: later_complex(getattr(src, name))
                            for name in ("f", "f_z", "f_xx", "f_yy", "f_zz", "lap_f",
                                         "d4_f", "f_xxyy", "f_xxzz", "f_yyzz")})
        monkeypatch.setattr(assembly, "RHS_CHUNK_BYTES", 1 << 40)
        whole = build_rhs(scheme, src, prof, grid, dtype=None).values
        chunk_planes(monkeypatch, grid, 1, 8)
        got = build_rhs(scheme, src, prof, grid, dtype=None).values
        assert whole.dtype == got.dtype == np.complex128
        assert np.any(got.imag)
        assert np.array_equal(bits(got), bits(whole))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_solver_builds_on_its_layout_threads(self, monkeypatch, scheme, kind):
        # the solver reaches the build through helmfft.solver.build_rhs and
        # runs the chunks through its run= on the solve's pool and the
        # caller's thread, at most parts x workers threads; Sequential
        # builds on the caller's thread alone
        grid, src, prof = chunk_case(scheme, kind)
        problem = ProblemSpec(scheme=scheme, grid=grid, profile=prof, source=src,
                              boundary=BoundaryData.zero())
        built, runs, ranges, threads, planes = [], [], [], set(), []
        build, scheme_rhs = solver.build_rhs, assembly._scheme_rhs

        def recording_build(*args, run, **kwargs):
            def recording_run(extent, fn):
                def recording_range(planes):
                    ranges.append(planes)
                    return fn(planes)

                runs.append(extent)
                return run(extent, recording_range)

            built.append(build(*args, run=recording_run, **kwargs))
            return built[-1]

        def recording_chunk(scheme, source, profile, grid, chunk, out):
            threads.add(threading.get_ident())
            scheme_rhs(scheme, source, profile, grid, chunk, out)
            planes.extend(range(*chunk))  # not a chunk that found complex samples

        monkeypatch.setattr(solver, "build_rhs", recording_build)
        monkeypatch.setattr(assembly, "_scheme_rhs", recording_chunk)
        chunk_planes(monkeypatch, grid, 1, 8 if kind == "real" else 16)
        # a complex source under a profile the formula does not read fails
        # the float64 build at its first chunks, and the build runs again
        attempts = 2 if kind == "complex" and scheme in NO_PROFILE_RHS else 1
        expect = None
        for mode, n_threads in ((Sequential(), 1), (SharedWorkers(3), 3),
                                (Partitioned(3, 2), 6)):
            for record in (built, runs, ranges, threads, planes):
                record.clear()
            solution, _ = solver.solve_with_timings(problem, SolverConfig(mode=mode))
            assert runs == [grid.n_z] * attempts, mode
            assert sorted(ranges) == sorted(solver.plan_partition(grid.n_z, n_threads) * attempts)
            assert len(built) == 1 and sorted(planes) == list(range(grid.n_z))
            assert threading.get_ident() in threads and len(threads) <= n_threads, mode
            rhs = built[0].values
            assert rhs.dtype == (np.float64 if kind == "real" else np.complex128)
            if expect is None:
                expect = rhs, solution.values
            assert np.array_equal(bits(rhs), bits(expect[0])), mode
            assert np.array_equal(bits(solution.values), bits(expect[1])), mode


class TestRealResidual:
    """A float64 solution with real profile and walls is checked in float64."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_real_path_is_real_part_of_complex_path(self, scheme):
        grid, _, prof = chunk_case(scheme, "real")
        rng = np.random.default_rng(61)
        u = rng.standard_normal(grid.shape)
        rhs = rng.standard_normal(grid.shape)
        walls = BoundaryData.from_function(lambda x, y, z: np.sin(3 * x + 0.3) * np.exp(y) - z)
        table = coefficient_table(scheme, prof, grid)
        for bnd in (walls, BoundaryData.zero()):
            real = apply_stencil(Field3D(u), bnd, table, grid).values
            cplx = apply_stencil(Field3D(u.astype(complex)), bnd, table, grid).values
            assert real.dtype == np.float64 and cplx.dtype == np.complex128
            assert np.array_equal(real, cplx.real)
        res_real = residual_l2(Field3D(u), Field3D(rhs), table, grid)
        res_cplx = residual_l2(Field3D(u.astype(complex)), Field3D(rhs.astype(complex)),
                               table, grid)
        assert abs(res_real - res_cplx) <= 1e-12 * res_cplx

    def test_complex_data_keeps_complex_path(self):
        grid, _, prof = chunk_case(SchemeKind.FOURTH_ORDER, "complex")
        u = np.random.default_rng(62).standard_normal(grid.shape)
        out = apply_stencil(Field3D(u), BoundaryData.zero(),
                            coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid), grid).values
        assert out.dtype == np.complex128 and np.any(out.imag)

    def test_real_residual_peak_allocation_lower(self):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SIXTH_ORDER, 32)
        rng = np.random.default_rng(63)
        u, rhs = rng.standard_normal(p.grid.shape), rng.standard_normal(p.grid.shape)

        def peak(u, rhs):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                residual_l2(Field3D(u), Field3D(rhs),
                            coefficient_table(p.scheme, p.profile, p.grid), p.grid)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        real = peak(u, rhs)
        cplx = peak(u.astype(complex), rhs.astype(complex))
        assert real <= 0.6 * cplx, (real / u.nbytes, cplx / u.nbytes)

    def test_chunks_accumulate_into_the_result(self):
        # at 48^3 float64 a default chunk is a third of the field: each one
        # accumulates in the result's rows, where a returned chunk copied
        # into place read 4.40 fields for A*u and 4.26 for the residual
        # (3.40 and 3.26 now)
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SIXTH_ORDER, 48)
        table = coefficient_table(p.scheme, p.profile, p.grid)
        rng = np.random.default_rng(64)
        u, rhs = (Field3D(rng.standard_normal(p.grid.shape)) for _ in range(2))
        for name, fn, bound in (
                ("apply", lambda: apply_stencil(u, p.boundary, table, p.grid), 3.8),
                ("residual", lambda: residual_l2(u, rhs, table, p.grid), 3.7)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                fields = (tracemalloc.get_traced_memory()[1] - base) / u.values.nbytes
            finally:
                tracemalloc.stop()
            assert fields <= bound, (name, fields)


WALLS = {
    "zero": BoundaryData.zero(),
    "real": BoundaryData.from_function(lambda x, y, z: np.sin(3 * x + 0.3) * np.exp(y) - z),
    "complex": BoundaryData.from_function(
        lambda x, y, z: np.sin(3 * x + 0.3) * np.exp(y) + 1j * x * z),
}


def whole_box_apply(u, bnd, table, grid):
    """A*u accumulated on one closed box: the walls' closed_box with u inside,
    in float64 when u, the table and the walls are real."""
    table = check_table(table, grid)
    ext = bnd.closed_box(grid)
    if u.dtype == np.float64 and not any(np.any(w.imag) for w in table) \
            and not np.any(ext.imag):
        ext, table = ext.real.copy(), [w.real for w in table]
    ext[1:-1, 1:-1, 1:-1] = u
    return _accumulate(ext, table)


class TestChunkedApply:
    """apply_stencil and residual_l2 work z-chunk by z-chunk on painted boxes,
    with the bits of one whole closed box and about one field of memory."""

    @pytest.mark.parametrize("walls", sorted(WALLS))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_bitwise_one_closed_box(self, monkeypatch, scheme, kind, walls):
        grid, _, prof = chunk_case(scheme, kind)  # 7 x 6 x 11, three different steps
        table = coefficient_table(scheme, prof, grid)
        rng = np.random.default_rng(71)
        real_u = rng.standard_normal(grid.shape)
        cases = [(u, whole_box_apply(u, WALLS[walls], table, grid))
                 for u in (real_u, real_u + 1j * rng.standard_normal(grid.shape))]
        real_path = kind == "real" and walls != "complex"
        assert [expect.dtype for _, expect in cases] == [
            np.float64 if real_path else np.complex128, np.complex128]
        boxes, paint, default = [], assembly._paint_box, assembly.RHS_CHUNK_BYTES

        def recording_paint(faces, grid, lo, hi, dtype=complex):
            boxes.append((lo[0], hi[0]))
            return paint(faces, grid, lo, hi, dtype)

        monkeypatch.setattr(assembly, "_paint_box", recording_paint)
        for u, expect in cases:
            for planes in (1, 2, None):  # None: the default budget, one chunk here
                if planes is None:
                    monkeypatch.setattr(assembly, "RHS_CHUNK_BYTES", default)
                else:
                    chunk_planes(monkeypatch, grid, planes, expect.itemsize)
                boxes.clear()
                got = apply_stencil(Field3D(u), WALLS[walls], table, grid).values
                assert got.dtype == expect.dtype
                assert np.array_equal(bits(got), bits(expect)), planes
                depth = planes or grid.n_z
                # closed planes l0 .. l1+1 around each chunk's rows l0 .. l1-1
                assert boxes == [(l0, min(l0 + depth, grid.n_z) + 2)
                                 for l0 in range(0, grid.n_z, depth)]

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_peak_allocation_near_one_field(self, monkeypatch, dtype):
        p = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, SchemeKind.SIXTH_ORDER, 48)
        table = coefficient_table(p.scheme, p.profile, p.grid)
        rng = np.random.default_rng(73)
        u, rhs = (Field3D(rng.standard_normal(p.grid.shape).astype(dtype)) for _ in range(2))
        walls = WALLS["real" if dtype == np.float64 else "complex"]
        # 24 chunks: past the field, a chunk's box and its few chunk-sized
        # temporaries are all that is made
        chunk_planes(monkeypatch, p.grid, 2, u.values.itemsize)

        def peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                return (tracemalloc.get_traced_memory()[1] - base) / u.values.nbytes
            finally:
                tracemalloc.stop()

        # the result of apply_stencil is one field and counts here
        assert peak(lambda: apply_stencil(u, walls, table, p.grid)) <= 1.5
        assert peak(lambda: residual_l2(u, rhs, table, p.grid)) <= 1.5

    @pytest.mark.parametrize("u_kind, rhs_kind", [("real", "complex"), ("complex", "real"),
                                                  ("real", "real"), ("complex", "complex")])
    def test_residual_of_mixed_dtypes(self, u_kind, rhs_kind):
        grid, _, prof = chunk_case(SchemeKind.FOURTH_ORDER, "real")
        table = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
        rng = np.random.default_rng(75)

        def field(kind):
            values = rng.standard_normal(grid.shape)
            return values + 1j * rng.standard_normal(grid.shape) if kind == "complex" else values

        u, rhs = field(u_kind), field(rhs_kind)
        before = rhs.copy()
        au = apply_stencil(Field3D(u), BoundaryData.zero(), table, grid).values
        assert au.dtype == (np.float64 if u_kind == "real" else np.complex128)
        res = residual_l2(Field3D(u), Field3D(rhs), table, grid)
        assert res == float(np.linalg.norm((au - rhs).ravel()))
        assert np.array_equal(bits(rhs), bits(before))  # F is only read

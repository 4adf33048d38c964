import dataclasses
import math
import threading

import numpy as np
import pytest

from helmfft.assembly import BoundaryData, Field3D, SourceSpec, build_rhs
import helmfft.solver
from helmfft.errors import (InvalidPartitionError, NonFiniteInputError,
                            SingularSystemError)
from helmfft.grid import Domain, constant_profile, make_grid, sample_profile
from helmfft.oracle import dense_solve
from helmfft.problems import ProblemSpec, convdiff_problem, helmholtz_problem
from helmfft.solver import (Partitioned, Sequential, SharedWorkers, SolverConfig,
                            exchange_forward, exchange_inverse,
                            make_exchange_plan, plan_partition, solve_direct,
                            solve_discrete)
from helmfft.stencil import SchemeKind, mode_cosines
from helmfft.transport import InProcessMesh, socket_mesh
from helmfft.tridiag import solve_slab

PI = math.pi

ALL_SCHEMES = [SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER,
               SchemeKind.SIXTH_ORDER, SchemeKind.CONVECTION_DIFFUSION_4]


def cube(n, k2=0.0, gamma=0.0):
    grid = make_grid(Domain(0, PI, 0, PI, 0, PI), n, n, n)
    return grid, constant_profile(k2, grid, gamma=gamma)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field3D(rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def random_boundary(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.n_z + 2, grid.n_y + 2, grid.n_x + 2)
    return BoundaryData.from_array(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestPlanPartition:
    def test_uneven_split(self):
        assert [b - a for a, b in plan_partition(10, 4)] == [3, 3, 2, 2]

    def test_singletons(self):
        assert plan_partition(8, 8) == [(i, i + 1) for i in range(8)]

    def test_two_way_split(self):
        assert [b - a for a, b in plan_partition(125, 2)] == [63, 62]

    def test_disjoint_cover(self):
        for extent, parts in [(7, 3), (100, 7), (5, 5), (9, 1)]:
            ranges = plan_partition(extent, parts)
            assert ranges[0][0] == 0 and ranges[-1][1] == extent
            for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
                assert b0 == a1
            sizes = {b - a for a, b in ranges}
            assert len(sizes) <= 2
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidPartitionError):
            plan_partition(4, 5)
        with pytest.raises(InvalidPartitionError):
            plan_partition(4, 0)


class TestExchangePlan:
    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_block_extents_and_volume(self, parts):
        grid, _ = cube(9)
        plan = make_exchange_plan(grid, parts)
        z_sizes = [b - a for a, b in plan.partition.z_ranges]
        y_sizes = [b - a for a, b in plan.partition.y_ranges]
        for p in range(parts):
            for q in range(parts):
                assert plan.block_extents(p, q) == (grid.n_x, y_sizes[q], z_sizes[p])
        assert plan.total_volume() == grid.n_x * grid.n_y * grid.n_z


def run_exchange_roundtrip(field_values, parts):
    """All parts do forward then inverse exchange; returns the reassembled field."""
    n_z = field_values.shape[0]
    grid_like = field_values.shape
    plan_grid = make_grid(Domain(0, 1, 0, 1, 0, 1),
                          grid_like[2], grid_like[1], grid_like[0])
    ex_plan = make_exchange_plan(plan_grid, parts)
    mesh = InProcessMesh(parts, timeout=10.0)
    out = np.empty_like(field_values)
    y_slabs = [None] * parts
    barrier = threading.Barrier(parts)

    def worker(part):
        z0, z1 = ex_plan.partition.z_ranges[part]
        local = field_values[z0:z1].copy()
        y_slab = exchange_forward(ex_plan, mesh.endpoint(part), part, local)
        y_slabs[part] = y_slab.copy()
        barrier.wait()
        back = exchange_inverse(ex_plan, mesh.endpoint(part), part, y_slab)
        out[z0:z1] = back

    threads = [threading.Thread(target=worker, args=(p,)) for p in range(parts)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out, y_slabs, ex_plan


class TestExchange:
    def test_single_part_is_identity_without_transfer(self):
        values = np.arange(4 * 4 * 4, dtype=complex).reshape(4, 4, 4)
        grid, _ = cube(4)
        plan = make_exchange_plan(grid, 1)

        class NoTransport:
            def send(self, *a, **k):
                raise AssertionError("single part must not send")

            def receive(self, *a, **k):
                raise AssertionError("single part must not receive")

        y_slab = exchange_forward(plan, NoTransport(), 0, values.copy())
        assert np.array_equal(y_slab, values)
        back = exchange_inverse(plan, NoTransport(), 0, y_slab)
        assert np.array_equal(back, values)

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_roundtrip_is_identity(self, parts):
        values = np.arange(6 * 6 * 6, dtype=complex).reshape(6, 6, 6)
        out, _, _ = run_exchange_roundtrip(values, parts)
        assert np.array_equal(out, values)

    def test_forward_matches_transpose_oracle(self):
        rng = np.random.default_rng(37)
        values = rng.standard_normal((8, 8, 5)) + 1j * rng.standard_normal((8, 8, 5))
        out, y_slabs, plan = run_exchange_roundtrip(values, 4)
        for part, (y0, y1) in enumerate(plan.partition.y_ranges):
            assert np.array_equal(y_slabs[part], values[:, y0:y1, :])

    def test_extent_validation(self):
        grid, _ = cube(6)
        plan = make_exchange_plan(grid, 2)
        mesh = InProcessMesh(2)
        with pytest.raises(ValueError):
            exchange_forward(plan, mesh.endpoint(0), 0,
                             np.zeros((1, 6, 6), dtype=complex))
        with pytest.raises(ValueError):
            exchange_inverse(plan, mesh.endpoint(0), 0,
                             np.zeros((1, 3, 6), dtype=complex))


class TestSolveDiscrete:
    def test_zero_rhs_zero_boundary(self):
        grid, prof = cube(6, k2=4.0)
        u, timings = solve_discrete(Field3D.zeros(grid), BoundaryData.zero(),
                                    SchemeKind.SECOND_ORDER, prof, grid)
        assert not np.any(u.values)
        assert timings.total_s > 0

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_dense_oracle(self, scheme, n):
        k2 = 2.0 + 0.3j if scheme is not SchemeKind.CONVECTION_DIFFUSION_4 else 0.0
        gamma = -7.0 if scheme is SchemeKind.CONVECTION_DIFFUSION_4 else 0.0
        grid, prof = cube(n, k2=k2, gamma=gamma)
        rhs = random_field(grid, 41)
        bnd = random_boundary(grid, 43)
        u, _ = solve_discrete(rhs, bnd, scheme, prof, grid)
        expect = dense_solve(rhs.values, bnd.closed_box(grid), scheme, prof, grid)
        scale = np.abs(expect).max()
        assert np.abs(u.ravel() - expect).max() < 1e-12 * scale

    def test_anisotropic_grid_matches_dense_oracle(self):
        grid = make_grid(Domain(0, PI, 0, 2.0, 0, 1.0), 5, 4, 3)
        prof = constant_profile(1.0 + 0.2j, grid)
        rhs = random_field(grid, 83)
        bnd = random_boundary(grid, 89)
        for scheme in (SchemeKind.SECOND_ORDER, SchemeKind.FOURTH_ORDER):
            u, _ = solve_discrete(rhs, bnd, scheme, prof, grid)
            expect = dense_solve(rhs.values, bnd.closed_box(grid), scheme, prof, grid)
            assert np.abs(u.ravel() - expect).max() < 1e-12 * np.abs(expect).max()

    def test_anisotropic_extents_mode_equivalence(self):
        # distinct extents per axis surface any axis mixups in the plans
        grid = make_grid(Domain(0, PI, 0, 2.0, 0, 1.0), 9, 7, 6)
        prof = constant_profile(2.0, grid, gamma=0.0)
        rhs = random_field(grid, 97)
        bnd = random_boundary(grid, 101)
        ref, _ = solve_discrete(rhs, bnd, SchemeKind.FOURTH_ORDER, prof, grid)
        for config in (SolverConfig(mode=SharedWorkers(3)),
                       SolverConfig(mode=Partitioned(3)),
                       SolverConfig(mode=Partitioned(2, workers_per_part=2))):
            u, _ = solve_discrete(rhs, bnd, SchemeKind.FOURTH_ORDER, prof, grid,
                                  config)
            assert np.abs(u.values - ref.values).max() <= 1e-13

    def test_repeat_runs_bitwise_identical(self):
        grid, prof = cube(8, k2=3.0)
        rhs = random_field(grid, 47)
        bnd = random_boundary(grid, 53)
        config = SolverConfig(mode=SharedWorkers(2))
        u1, _ = solve_discrete(rhs, bnd, SchemeKind.FOURTH_ORDER, prof, grid, config)
        u2, _ = solve_discrete(rhs, bnd, SchemeKind.FOURTH_ORDER, prof, grid, config)
        assert np.array_equal(u1.values, u2.values)

    @pytest.mark.parametrize("config", [
        SolverConfig(mode=SharedWorkers(2)),
        SolverConfig(mode=SharedWorkers(3)),
        SolverConfig(mode=Partitioned(1)),
        SolverConfig(mode=Partitioned(2)),
        SolverConfig(mode=Partitioned(3, workers_per_part=2)),
        SolverConfig(mode=Partitioned(4, workers_per_part=2)),
    ])
    def test_modes_agree_with_sequential(self, config):
        grid, prof = cube(12, k2=5.0)
        rhs = random_field(grid, 59)
        bnd = random_boundary(grid, 61)
        ref, _ = solve_discrete(rhs, bnd, SchemeKind.FOURTH_ORDER, prof, grid)
        u, timings = solve_discrete(rhs, bnd, SchemeKind.FOURTH_ORDER, prof, grid,
                                    config)
        assert np.abs(u.values - ref.values).max() <= 1e-13
        if isinstance(config.mode, Partitioned):
            assert timings.exchange_s >= 0.0

    @pytest.mark.parametrize("zero_boundary", [True, False], ids=["zero", "nonzero"])
    @pytest.mark.parametrize("mode", [Sequential(), SharedWorkers(2), Partitioned(2),
                                      Partitioned(3, workers_per_part=2)],
                             ids=["seq", "shared2", "parts2", "parts3x2"])
    def test_caller_rhs_left_untouched(self, mode, zero_boundary):
        grid, prof = cube(8, k2=2.0)
        rhs = random_field(grid, 73)
        before = rhs.values.copy()
        bnd = BoundaryData.zero() if zero_boundary else random_boundary(grid, 79)
        u, _ = solve_discrete(rhs, bnd, SchemeKind.FOURTH_ORDER, prof, grid,
                              SolverConfig(mode=mode))
        assert np.array_equal(rhs.values, before)
        assert not np.may_share_memory(u.values, rhs.values)

    def test_phase_times_bounded_by_total(self):
        grid, prof = cube(16, k2=1.0)
        rhs = random_field(grid, 67)
        u, t = solve_discrete(rhs, BoundaryData.zero(), SchemeKind.SECOND_ORDER,
                              prof, grid, SolverConfig(mode=Partitioned(2)))
        assert t.setup_s + t.transform_s + t.exchange_s + t.tridiag_s <= t.total_s + 0.05

    @pytest.mark.parametrize("mode", [Sequential(), SharedWorkers(2), Partitioned(2)],
                             ids=["seq", "shared2", "parts2"])
    def test_non_finite_rhs_rejected_before_any_transform(self, mode, monkeypatch):
        transforms = []
        monkeypatch.setattr(helmfft.solver, "transform_stack",
                            lambda *args: transforms.append(args))
        grid, prof = cube(6, k2=2.0)
        rhs = random_field(grid, 71)
        rhs.values[2, 3, 4] = np.nan
        with pytest.raises(NonFiniteInputError) as err:
            solve_discrete(rhs, random_boundary(grid, 72), SchemeKind.FOURTH_ORDER,
                           prof, grid, SolverConfig(mode=mode))
        assert (err.value.field, err.value.index) == ("rhs", (3, 4, 5))
        assert transforms == []

    def test_resonance_reported_with_mode(self):
        grid = make_grid(Domain(0, PI, 0, PI, 0, PI), 1, 1, 1)
        prof = constant_profile(6.0 / grid.h_z**2, grid)
        with pytest.raises(SingularSystemError) as err:
            solve_discrete(Field3D(np.ones(grid.shape, dtype=complex)),
                           BoundaryData.zero(), SchemeKind.SECOND_ORDER, prof, grid)
        assert (err.value.n, err.value.m) == (1, 1)


class TestConfigValidation:
    def test_shared_worker_bound_per_plane(self):
        grid, prof = cube(4)
        config = SolverConfig(mode=SharedWorkers(5))
        with pytest.raises(InvalidPartitionError):
            solve_discrete(Field3D.zeros(grid), BoundaryData.zero(),
                           SchemeKind.SECOND_ORDER, prof, grid, config)

    def test_too_many_parts(self):
        grid, prof = cube(4)
        with pytest.raises(InvalidPartitionError):
            solve_discrete(Field3D.zeros(grid), BoundaryData.zero(),
                           SchemeKind.SECOND_ORDER, prof, grid,
                           SolverConfig(mode=Partitioned(5)))

    def test_workers_per_part_need_planes(self):
        grid, prof = cube(4)
        with pytest.raises(InvalidPartitionError):
            solve_discrete(Field3D.zeros(grid), BoundaryData.zero(),
                           SchemeKind.SECOND_ORDER, prof, grid,
                           SolverConfig(mode=Partitioned(2, workers_per_part=3)))


class TestComplexityShape:
    def test_doubling_extents_stays_near_loglinear(self):
        """Doubling every extent is 8x the data; the whole solve should stay
        under the 9.5x budget an n log n profile implies.

        Sizes 159 and 319 keep the sine-transform lengths (2(n+1) = 320, 640)
        in the same smooth-factor kernel regime; other size pairs would
        measure the FFT backend's factorization table rather than this
        solver's scaling. The 319^3 field (520 MiB) exceeds every cache level,
        but the 159^3 field (64 MiB) fits in a large shared L3 (e.g. 105 MiB).
        On such a host the small run is partly cache-resident and its time
        depends on L3 contention from other processes, so single pair ratios
        swing by about +-25% and the gate has less margin than where both
        fields spill. Runs are interleaved in (large, small) pairs, which
        cancels machine-state drift that a min-of-repeats estimator turns
        into bias, and the median of nine pairwise ratios is taken: an odd
        count makes the median one measured pair.
        """
        import statistics
        import time

        def run_once(rhs, prof, grid):
            t0 = time.perf_counter()
            solve_discrete(rhs, BoundaryData.zero(), SchemeKind.SECOND_ORDER,
                           prof, grid)
            return time.perf_counter() - t0

        grid_s, prof_s = cube(159, k2=1.0)
        grid_l, prof_l = cube(319, k2=1.0)
        rhs_s = random_field(grid_s, 73)
        rhs_l = random_field(grid_l, 79)
        run_once(rhs_s, prof_s, grid_s)  # warm-up
        run_once(rhs_l, prof_l, grid_l)
        ratios = [run_once(rhs_l, prof_l, grid_l) / run_once(rhs_s, prof_s, grid_s)
                  for _ in range(9)]
        assert statistics.median(ratios) <= 9.5


def real_anisotropic_problem(scheme):
    """A 17 x 13 x 11 problem whose profile, source and walls are all real."""
    n_x, n_y, n_z = 17, 13, 11
    if scheme is SchemeKind.SIXTH_ORDER:  # its weights need one step in all directions
        domain = Domain(0, 0.25 * (n_x + 1), 0, 0.25 * (n_y + 1), 0, 0.25 * (n_z + 1))
    else:
        domain = Domain(0, 1.3, -0.2, 0.9, 0.1, 2.0)
    grid = make_grid(domain, n_x, n_y, n_z)
    if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
        profile = constant_profile(0.0, grid, gamma=-3.7)
    else:
        profile = sample_profile(lambda z: 3.0 * np.cos(2 * z) + 5.0,
                                 lambda z: -6.0 * np.sin(2 * z),
                                 lambda z: -12.0 * np.cos(2 * z), 0.0, grid)

    def wave(a, b):  # any real callables will do: the test is of the arithmetic
        return lambda x, y, z: np.sin(a * x - b * y) * np.cos(a * z + b) - b

    source = SourceSpec(f=wave(1.1, 0.3), f_z=wave(-0.7, 2.0), f_xx=wave(0.5, 1.2),
                        f_yy=wave(-1.3, 0.4), f_zz=wave(2.1, -0.6), lap_f=wave(2.3, -1.0),
                        d4_f=wave(0.4, 0.9), f_xxyy=wave(-1.6, 0.2),
                        f_xxzz=wave(0.8, -2.2), f_yyzz=wave(3.0, 1.4))
    boundary = BoundaryData.from_function(
        lambda x, y, z: np.sin(3 * x + 0.3) * np.exp(y) * np.cos(z))
    return ProblemSpec(scheme, grid, profile, source, boundary)


def catalog_problem(scheme, n):
    if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
        return convdiff_problem(-100.0, n)
    return helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, scheme, n)


REAL_PATH_MODES = {
    "seq": SolverConfig(mode=Sequential()),
    "shared2": SolverConfig(mode=SharedWorkers(2)),
    "parts2": SolverConfig(mode=Partitioned(2)),
    "parts3x2": SolverConfig(mode=Partitioned(3, workers_per_part=2)),
    "sockets2": SolverConfig(mode=Partitioned(2), transport_factory=socket_mesh),
}


class TestRealPath:
    """Real problems solve in float64; the complex path is the reference."""

    @pytest.mark.parametrize("case", ["cube33", "anisotropic"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_matches_complex_path(self, scheme, case):
        p = catalog_problem(scheme, 33) if case == "cube33" else real_anisotropic_problem(scheme)
        u = solve_direct(p)
        rhs = build_rhs(p.scheme, p.source, p.profile, p.grid)
        v, _ = solve_discrete(rhs, p.boundary, p.scheme, p.profile, p.grid)
        assert u.values.dtype == np.float64 and v.values.dtype == np.complex128
        scale = np.abs(v.values).max()
        assert np.abs(u.values - v.values).max() <= 1e-13 * scale

    # a float64 slab receiving complex frames would warn here
    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    @pytest.mark.parametrize("problem", [
        lambda: catalog_problem(SchemeKind.SIXTH_ORDER, 14),
        lambda: real_anisotropic_problem(SchemeKind.FOURTH_ORDER),
    ], ids=["sixth-catalog", "fourth-anisotropic"])
    def test_modes_bitwise_equal(self, problem):
        p = problem()
        ref = solve_direct(p)
        assert ref.values.dtype == np.float64
        for name, config in REAL_PATH_MODES.items():
            u = solve_direct(p, config)
            assert u.values.dtype == np.float64, name
            assert np.array_equal(u.values, ref.values), name

    @pytest.mark.parametrize("complex_input", [None, "rhs", "profile", "boundary"])
    def test_any_complex_input_solves_complex(self, complex_input):
        p = real_anisotropic_problem(SchemeKind.FOURTH_ORDER)
        rhs = build_rhs(p.scheme, p.source, p.profile, p.grid, dtype=None).values
        profile, boundary = p.profile, p.boundary
        if complex_input == "rhs":
            rhs = rhs + 0.5j
        elif complex_input == "profile":
            profile = constant_profile(2.0 + 1e-3j, p.grid)
        elif complex_input == "boundary":
            boundary = BoundaryData.from_function(lambda x, y, z: 1.0 + 1j * x)
        u, _ = solve_discrete(Field3D(rhs), boundary, p.scheme, profile, p.grid)
        expect = np.float64 if complex_input is None else np.complex128
        assert u.values.dtype == expect

    def test_complex_typed_walls_with_zero_imaginary_part_solve_real(self):
        p = real_anisotropic_problem(SchemeKind.SECOND_ORDER)
        walls = BoundaryData.from_array(p.boundary.closed_box(p.grid))  # complex128
        rhs = build_rhs(p.scheme, p.source, p.profile, p.grid, dtype=None)
        u, _ = solve_discrete(rhs, walls, p.scheme, p.profile, p.grid)
        assert u.values.dtype == np.float64
        assert np.array_equal(u.values, solve_direct(p).values)

    @pytest.mark.parametrize("mode", ["seq", "shared2", "parts2"])
    def test_non_finite_rhs_rejected_before_any_transform(self, mode, monkeypatch):
        transforms = []
        monkeypatch.setattr(helmfft.solver, "transform_stack",
                            lambda *args: transforms.append(args))
        p = real_anisotropic_problem(SchemeKind.FOURTH_ORDER)
        rhs = build_rhs(p.scheme, p.source, p.profile, p.grid, dtype=None)
        assert rhs.values.dtype == np.float64
        rhs.values[2, 3, 4] = np.nan
        with pytest.raises(NonFiniteInputError) as err:
            solve_discrete(rhs, p.boundary, p.scheme, p.profile, p.grid,
                           REAL_PATH_MODES[mode])
        assert (err.value.field, err.value.index) == ("rhs", (3, 4, 5))
        nan_source = dataclasses.replace(
            p.source, f=lambda x, y, z: np.where(z > 1.0, np.nan, 1.0) + 0 * x * y)
        with pytest.raises(NonFiniteInputError):
            solve_direct(dataclasses.replace(p, source=nan_source), REAL_PATH_MODES[mode])
        assert transforms == []

    def test_resonant_real_k2_names_its_mode(self):
        # one level: mode (n, m) has the single eigenvalue
        # 2 r_zx cos_n + 2 r_zy cos_m - 2 (r_zx + r_zy + 1) + h_z^2 k^2,
        # so this real k^2 makes only mode (3, 10) singular
        grid = make_grid(Domain(0, PI, 0, 2.0, 0, 1.5), 5, 12, 1)
        r_zx = grid.h_z**2 / grid.h_x**2
        r_zy = grid.h_z**2 / grid.h_y**2
        cx, cy = mode_cosines(grid)
        k2 = 2.0 * (r_zx + r_zy + 1.0 - r_zx * cx[2] - r_zy * cy[9]) / grid.h_z**2
        with pytest.raises(SingularSystemError) as err:
            solve_discrete(Field3D(np.ones(grid.shape)), BoundaryData.zero(),
                           SchemeKind.SECOND_ORDER, constant_profile(k2, grid), grid)
        assert (err.value.n, err.value.m) == (3, 10)

    def test_real_slab_with_complex_profile_rejected(self):
        grid, prof = cube(4, k2=1.0 + 0.5j)
        with pytest.raises(ValueError):
            solve_slab(np.ones(grid.shape), SchemeKind.SECOND_ORDER, prof, grid)

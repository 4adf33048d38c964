import math
import threading

import numpy as np
import pytest

from helmfft.assembly import BoundaryData, Field3D
import helmfft.solver
from helmfft.errors import (InvalidPartitionError, NonFiniteInputError,
                            SingularSystemError)
from helmfft.grid import Domain, constant_profile, make_grid
from helmfft.oracle import dense_solve
from helmfft.solver import (Partitioned, Sequential, SharedWorkers, SolverConfig,
                            exchange_forward, exchange_inverse,
                            make_exchange_plan, plan_partition, solve_discrete)
from helmfft.stencil import SchemeKind
from helmfft.transport import InProcessMesh

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

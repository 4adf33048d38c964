"""Three-stage direct solve with sequential, shared-worker and partitioned modes.

The pipeline is always: build and fold the right-hand side, forward 2D sine
transform of every z-plane, solve the decoupled tridiagonal systems along z,
inverse transform. Every stage works in the dtype of the folded right-hand
side: float64 for a real problem, complex128 otherwise. Every mode is a
layout of one runner, p parts of t threads each:

- Partitioned(p, t): p parts each own a z-slab of the folded right-hand
  side, which they transform in place, and a y-slab of private storage;
  between the transform and tridiagonal stages every part sends each other
  part one block of extents n_x x kpy x kpz through a Transport, then the
  inverse redistribution runs after the solves, straight back into the
  z-slab. Each part's t threads split its z-planes and mode pencils.
  Blocks are sent in ascending destination-part order, as views, so a part
  holds its two slabs and no other slab-sized array: each sweep call keeps
  its multipliers in one (n_z, n_x) scratch.
- SharedWorkers(w) is the one-part layout (1, w) and Sequential is (1, 1).
  With no peers the z-slab is the y-slab: no exchange runs and no transport
  opens.

A solve runs on one pool of p x t - 1 threads and the caller's thread. Each
stage is a list of tasks that the caller hands out and waits for, so one
stage ends before the next begins; within a stage tasks touch disjoint data,
so repeated runs are bitwise reproducible and every mode yields the same
solution to roundoff.
"""

import contextlib
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .assembly import Field3D, BoundaryData, build_rhs, fold_dirichlet
from .errors import InvalidPartitionError
from .grid import CoefficientProfile, Grid3D
from .spectral import make_plan, transform_stack
from .stencil import SchemeKind, coefficient_table
from .transport import STAGE_FORWARD, STAGE_INVERSE, in_process_mesh
from . import tridiag

@dataclass(frozen=True)
class Sequential:
    pass


@dataclass(frozen=True)
class SharedWorkers:
    workers: int


@dataclass(frozen=True)
class Partitioned:
    parts: int
    workers_per_part: int = 1


Mode = Union[Sequential, SharedWorkers, Partitioned]


@dataclass(frozen=True)
class SolverConfig:
    mode: Mode = field(default_factory=Sequential)
    # factory(n_parts) -> list of transports, one per part; one part calls none
    transport_factory: Callable = in_process_mesh


@dataclass(frozen=True)
class PhaseTimings:
    """Wall times of one solve: setup_s to the end of the fold, then the
    caller's wall time for the stages, which run all parts at once (both
    transforms and both exchanges are summed), and total_s for the solve."""

    setup_s: float = 0.0
    transform_s: float = 0.0
    exchange_s: float = 0.0
    tridiag_s: float = 0.0
    total_s: float = 0.0


def plan_partition(extent: int, parts: int):
    """Split range(extent) into `parts` contiguous chunks, sizes differing by <= 1.

    Returns 0-based half-open (start, stop) tuples; the larger chunks go to
    the lower part indices.
    """
    if parts < 1 or parts > extent:
        raise InvalidPartitionError(f"cannot split {extent} indices into {parts} parts")
    base, rem = divmod(extent, parts)
    bounds = [p * base + min(p, rem) for p in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class ExchangePlan:
    """Block geometry of the z-slab <-> y-slab redistribution: each part's
    z-range (transform stages) and y-range (tridiagonal stage), 0-based
    half-open (start, stop) tuples from plan_partition."""

    n_x: int
    n_y: int
    n_z: int
    z_ranges: tuple
    y_ranges: tuple

    @property
    def n_parts(self):
        return len(self.z_ranges)

    def block_extents(self, sender: int, receiver: int):
        """(ext_x, ext_y, ext_z) of the forward block sender -> receiver."""
        z0, z1 = self.z_ranges[sender]
        y0, y1 = self.y_ranges[receiver]
        return (self.n_x, y1 - y0, z1 - z0)


def make_exchange_plan(grid: Grid3D, parts: int) -> ExchangePlan:
    return ExchangePlan(grid.n_x, grid.n_y, grid.n_z,
                        tuple(plan_partition(grid.n_z, parts)),
                        tuple(plan_partition(grid.n_y, parts)))


def exchange_forward(plan: ExchangePlan, transport, part: int, slabs) -> np.ndarray:
    """Redistribute this part's z-slab into its y-slab; returns the y-slab.

    slabs is the part's (z_slab, y_slab) pair, of shapes (kpz, n_y, n_x)
    and (n_z, kpy, n_x). The y-slab is overwritten and every value keeps
    its (i, j, l) identity.
    """
    return _redistribute(plan, transport, part, slabs, STAGE_FORWARD)[1]


def exchange_inverse(plan: ExchangePlan, transport, part: int, slabs) -> np.ndarray:
    """Inverse of exchange_forward: the y-slab back into the z-slab; returns the z-slab."""
    return _redistribute(plan, transport, part, slabs, STAGE_INVERSE)[0]


def _redistribute(plan: ExchangePlan, transport, part: int, slabs, stage):
    """Send every other part q its block and write the block q sends into
    place; this part's own block is copied across. Returns slabs.

    The z-slab's block q is its y-range of part q and the y-slab's block q
    its z-range of part q; the forward stage moves z-slab blocks into
    y-slab blocks and the inverse stage back. Blocks go out in ascending
    destination-part order as views, which the transport does not copy,
    and each block is received straight into its place in the target slab,
    so no staging array is made.
    """
    z_slab, y_slab = slabs
    (z0, z1), (y0, y1) = plan.z_ranges[part], plan.y_ranges[part]
    for name, slab, shape in (("z-slab", z_slab, (z1 - z0, plan.n_y, plan.n_x)),
                              ("y-slab", y_slab, (plan.n_z, y1 - y0, plan.n_x))):
        if slab.shape != shape:
            raise ValueError(f"{name} shape {slab.shape} != {shape}")

    def z_block(q):
        return z_slab[:, slice(*plan.y_ranges[q])]

    def y_block(q):
        return y_slab[slice(*plan.z_ranges[q])]

    source, target = (z_block, y_block) if stage == STAGE_FORWARD else (y_block, z_block)
    for q in range(plan.n_parts):
        if q == part:
            target(q)[...] = source(q)
        else:
            transport.send(q, stage, source(q))
    for q in range(plan.n_parts):
        if q != part:
            transport.receive(q, stage, target(q))
    return slabs


def _layout(mode: Mode, grid: Grid3D):
    """(parts, workers per part) of a mode, checked against the grid.

    Sequential and SharedWorkers(w) are the one-part layouts (1, 1) and
    (1, w); Partitioned(p, t) is (p, t).
    """
    if isinstance(mode, Sequential):
        parts, workers = 1, 1
    elif isinstance(mode, SharedWorkers):
        parts, workers = 1, mode.workers
    elif isinstance(mode, Partitioned):
        parts, workers = mode.parts, mode.workers_per_part
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if parts < 1 or workers < 1:
        raise ValueError(f"part and worker counts must be >= 1, got {parts} and {workers}")
    if parts > grid.n_z or parts > grid.n_y:
        raise InvalidPartitionError(
            f"{parts} parts exceed slab extents ({grid.n_z}, {grid.n_y})")
    if workers > grid.n_z // parts:
        raise InvalidPartitionError(
            f"{workers} workers per part need as many local planes; "
            f"smallest slab has {grid.n_z // parts}")
    return parts, workers


def _run_tasks(pool, tasks, failed):
    """Run every task: the caller's thread runs tasks[0], the pool (None:
    there is one task) the rest. Returns once all are done, which is the
    barrier between stages. A task that raises does not stop the others:
    its error is recorded, then failed(i) runs with its index; the first
    error recorded, the root cause, is raised at the end."""
    errors = []

    def run(i):
        try:
            tasks[i]()
        except BaseException as exc:
            errors.append(exc)
            failed(i)

    futures = [pool.submit(run, i) for i in range(1, len(tasks))]
    run(0)
    for f in futures:
        f.result()
    if errors:
        raise errors[0]


def solve_discrete(rhs: Field3D, boundary: BoundaryData, scheme: SchemeKind,
                   profile: CoefficientProfile, grid: Grid3D,
                   config: SolverConfig = SolverConfig()):
    """Solve a catalog scheme's 27-point system for a prebuilt right-hand side.

    The scheme and the profile become the coefficient table once, and the
    solve is solve_stencil's on that table.
    """
    return solve_stencil(coefficient_table(scheme, profile, grid), rhs, boundary, grid, config)


def solve_stencil(table, rhs: Field3D, boundary: BoundaryData, grid: Grid3D,
                  config: SolverConfig = SolverConfig()):
    """Solve the 27-point system of any coefficient table for a prebuilt right-hand side.

    table is four (n_z, 3) arrays (A, B, C, D) of row level by level offset
    (see stencil.coefficient_table), which the fold checks before any work and
    each sweep call again (see stencil.check_table). The solver needs the form
    only, not a catalog scheme, and solves any table whose spectral systems are
    not resonant. Returns (solution Field3D, PhaseTimings). rhs is the unfolded
    right-hand side; boundary values are folded here as part of setup. The
    solve runs in the folded copy's dtype (see fold_dirichlet): float64 when
    the right-hand side, the table and the boundary values are real.

    Every mode runs the same stages on its (parts, workers) layout, as
    tasks on the caller's thread and one pool of parts x workers - 1
    threads. A one-part layout has no peers, so its z-slab is its y-slab:
    it skips both exchanges and opens no transport. A part that fails in an
    exchange closes its transport, so a peer waiting for its blocks fails
    at once.
    """
    t_start = time.perf_counter()
    return _solve(t_start, lambda run: fold_dirichlet(rhs, boundary, table, grid),
                  table, grid, config)


def _solve(t_start, fold, table, grid, config):
    """The stages on a folded right-hand side and the table as given, timed from t_start.

    fold(run) returns the folded right-hand side, whose array the stages run
    in and which becomes the solution, and checks the table; run(extent, fn)
    runs fn on ranges of range(extent) on the solve's threads, for
    build_rhs's run=. A failed stage raises before the next one starts.
    """
    parts, workers = _layout(config.mode, grid)
    plan = make_plan(grid.n_x, grid.n_y)
    ex_plan = make_exchange_plan(grid, parts)
    z_ranges, y_ranges = ex_plan.z_ranges, ex_plan.y_ranges
    threads = parts * workers - 1
    with ThreadPoolExecutor(max_workers=threads) if threads else contextlib.nullcontext() as pool:
        def run(extent, fn):  # one range for each thread of the layout
            ranges = plan_partition(extent, min(parts * workers, extent))
            _run_tasks(pool, [functools.partial(fn, r) for r in ranges], lambda i: None)

        values = fold(run).values
        setup_s = time.perf_counter() - t_start

        transports = [None] if parts == 1 else config.transport_factory(parts)
        z_slabs = [values[z0:z1] for z0, z1 in z_ranges]
        # one part's z-slab is its y-slab
        y_slabs = z_slabs if parts == 1 else [
            np.empty((grid.n_z, y1 - y0, grid.n_x), values.dtype) for y0, y1 in y_ranges]

        def stage(fn, ranges=None, failed=lambda p: None):
            """The caller's wall time to run fn(p, r) for each part p and each
            worker's share r of ranges[p], counted from its start; or fn(p)."""
            if ranges is None:
                tasks = [functools.partial(fn, p) for p in range(parts)]
            else:
                tasks = [functools.partial(fn, p, r) for p, (a, b) in enumerate(ranges)
                         for r in plan_partition(b - a, min(workers, b - a))]
            t0 = time.perf_counter()
            _run_tasks(pool, tasks, failed)
            return time.perf_counter() - t0

        def transform(p, r):  # forward = inverse for this kernel
            transform_stack(plan, z_slabs[p], r)

        def sweep(p, r):
            tridiag.solve_slab(y_slabs[p][:, r[0]:r[1], :], table, grid, y_ranges[p][0] + r[0])

        def exchange(redistribute, p):
            redistribute(ex_plan, transports[p], p, (z_slabs[p], y_slabs[p]))

        def close(p):  # a peer waiting for this part's blocks fails at once
            transport, transports[p] = transports[p], None
            transport.close()

        try:
            transform_s = stage(transform, z_ranges)
            exchange_s = (stage(functools.partial(exchange, exchange_forward), failed=close)
                          if parts > 1 else 0.0)
            tridiag_s = stage(sweep, y_ranges)
            if parts > 1:
                exchange_s += stage(functools.partial(exchange, exchange_inverse), failed=close)
            y_slabs = None  # freed before the inverse transform
            transform_s += stage(transform, z_ranges)
        finally:
            # closing each transport as its part finished raised the socket
            # workload's peak RSS, so all close after the last stage
            for transport in transports:
                if transport is not None:
                    transport.close()

    timings = PhaseTimings(setup_s=setup_s, transform_s=transform_s, exchange_s=exchange_s,
                           tridiag_s=tridiag_s, total_s=time.perf_counter() - t_start)
    return Field3D(values), timings


def solve_direct(problem, config: SolverConfig = SolverConfig()) -> Field3D:
    """Build the scheme right-hand side for a problem and solve it.

    A problem whose source, profile and boundary values are real is solved
    in float64 throughout and returns a float64 solution.
    """
    solution, _ = solve_with_timings(problem, config)
    return solution


def solve_with_timings(problem, config: SolverConfig = SolverConfig()):
    """Like solve_direct but also returns the phase timing breakdown.

    The right-hand side's z-chunks are built on the layout's parts x
    workers threads, the solve's pool and the caller's, and count as
    setup. The solver owns that array, so the fold works in it and every
    stage after runs in it: one working field from the build to the
    solution. A right-hand side that the fold widens to complex is freed
    when the fold returns.
    """
    t_start = time.perf_counter()
    grid = problem.grid
    table = coefficient_table(problem.scheme, problem.profile, grid)

    def build_and_fold(run):
        rhs = build_rhs(problem.scheme, problem.source, problem.profile, grid,
                        dtype=None, run=run)
        return fold_dirichlet(rhs, problem.boundary, table, grid, copy=False)

    return _solve(t_start, build_and_fold, table, grid, config)

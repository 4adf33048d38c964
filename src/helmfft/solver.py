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
  Blocks are sent in ascending destination-part order, as views. Between
  the two exchanges the z-slab is dead and holds the sweep's multipliers,
  so a part holds its two slabs and no other slab-sized array.
- SharedWorkers(w) is the one-part layout (1, w) and Sequential is (1, 1).
  With no peers the z-slab is the y-slab: no exchange runs and no transport
  opens.

Stages are separated by barriers; within a stage workers touch disjoint data,
so repeated runs are bitwise reproducible and every mode yields the same
solution to roundoff.
"""

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .assembly import Field3D, BoundaryData, build_rhs, fold_dirichlet
from .errors import InvalidPartitionError
from .grid import CoefficientProfile, Grid3D
from .spectral import make_plan, transform_stack
from .stencil import SchemeKind, check_table, coefficient_table
from .transport import (STAGE_FORWARD, STAGE_INVERSE, InProcessMesh)
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
    # factory(n_parts) -> list of transports, one per part; None = in-process
    transport_factory: Optional[Callable] = None


@dataclass(frozen=True)
class PhaseTimings:
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
class PartitionPlan:
    """Per-part z-ranges (transform stages) and y-ranges (tridiagonal stage)."""

    z_ranges: tuple
    y_ranges: tuple

    @property
    def n_parts(self):
        return len(self.z_ranges)


def make_partition_plan(grid: Grid3D, parts: int) -> PartitionPlan:
    return PartitionPlan(
        z_ranges=tuple(plan_partition(grid.n_z, parts)),
        y_ranges=tuple(plan_partition(grid.n_y, parts)),
    )


@dataclass(frozen=True)
class ExchangePlan:
    """Block geometry of the z-slab <-> y-slab redistribution."""

    n_x: int
    n_y: int
    n_z: int
    partition: PartitionPlan

    @property
    def n_parts(self):
        return self.partition.n_parts

    def block_extents(self, sender: int, receiver: int):
        """(ext_x, ext_y, ext_z) of the forward block sender -> receiver."""
        z0, z1 = self.partition.z_ranges[sender]
        y0, y1 = self.partition.y_ranges[receiver]
        return (self.n_x, y1 - y0, z1 - z0)

    def total_volume(self):
        return sum(
            np.prod(self.block_extents(p, q))
            for p in range(self.n_parts) for q in range(self.n_parts)
        )


def make_exchange_plan(grid: Grid3D, parts: int) -> ExchangePlan:
    return ExchangePlan(n_x=grid.n_x, n_y=grid.n_y, n_z=grid.n_z,
                        partition=make_partition_plan(grid, parts))


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
    (z0, z1), (y0, y1) = plan.partition.z_ranges[part], plan.partition.y_ranges[part]
    for name, slab, shape in (("z-slab", z_slab, (z1 - z0, plan.n_y, plan.n_x)),
                              ("y-slab", y_slab, (plan.n_z, y1 - y0, plan.n_x))):
        if slab.shape != shape:
            raise ValueError(f"{name} shape {slab.shape} != {shape}")

    def z_block(q):
        return z_slab[:, slice(*plan.partition.y_ranges[q])]

    def y_block(q):
        return y_slab[slice(*plan.partition.z_ranges[q])]

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


def _executor(workers):
    """A pool of `workers` threads, or no pool (None) for one worker."""
    if workers > 1:
        return ThreadPoolExecutor(max_workers=workers)
    return contextlib.nullcontext()


def _run_stage(executor, workers, extent, fn):
    """Run fn over min(workers, extent) contiguous ranges of range(extent).

    Without an executor fn runs inline on the whole range. Otherwise this
    returns once every range is done, which is the barrier between stages.
    """
    if executor is None:
        fn((0, extent))
        return
    futures = [executor.submit(fn, r)
               for r in plan_partition(extent, min(workers, extent))]
    for f in futures:
        f.result()


def _transform_stage(executor, workers, plan, values):
    """One full 2D transform pass of a stack (forward = inverse for this kernel)."""
    _run_stage(executor, workers, values.shape[0],
               lambda r: transform_stack(plan, values, r))


def _sweep_stage(executor, workers, values, table, grid, m_offset, scratch):
    """Sweep the y-ranges of values on the workers; each takes the share of
    the contiguous scratch (None: its own) in proportion to its range."""
    n_m = values.shape[1]
    flat = None if scratch is None else scratch.reshape(-1)

    def sweep(r):
        share = None if flat is None else flat[r[0] * flat.size // n_m:r[1] * flat.size // n_m]
        tridiag.solve_slab(values[:, r[0]:r[1], :], table, grid, m_offset + r[0], share)

    _run_stage(executor, workers, n_m, sweep)


def solve_discrete(rhs: Field3D, boundary: BoundaryData, scheme: SchemeKind,
                   profile: CoefficientProfile, grid: Grid3D,
                   config: SolverConfig = SolverConfig()):
    """Solve a catalog scheme's 27-point system for a prebuilt right-hand side.

    The scheme and the profile become the coefficient table once, and the
    solve is solve_stencil's on that table.
    """
    t_start = time.perf_counter()
    table = coefficient_table(scheme, profile, grid)
    return _solve(t_start, lambda: rhs, boundary, table, grid, config, copy=True)


def solve_stencil(table, rhs: Field3D, boundary: BoundaryData, grid: Grid3D,
                  config: SolverConfig = SolverConfig()):
    """Solve the 27-point system of any coefficient table for a prebuilt right-hand side.

    table is four (n_z, 3) arrays (A, B, C, D) of row level by level offset
    (see stencil.coefficient_table); it is checked before any work (a wrong
    shape raises ValueError, a non-finite entry NonFiniteInputError). The
    solver needs the form only, not a catalog scheme, and solves any table
    whose spectral systems are not resonant. Returns (solution Field3D,
    PhaseTimings). rhs is the unfolded right-hand side; boundary values are
    folded here as part of setup. The solve runs in the folded copy's dtype
    (see fold_dirichlet): float64 when the right-hand side, the table and
    the boundary values are real.

    Every mode runs the same stages on its (parts, workers) layout: the
    caller's thread runs part 0 and each other part gets a thread of its
    own. A one-part layout has no peers, so its z-slab is its y-slab: it
    skips both exchanges and opens no transport. A part that fails closes
    its transport, so a peer waiting for its blocks fails at once.
    """
    t_start = time.perf_counter()
    table = check_table(table, grid)
    return _solve(t_start, lambda: rhs, boundary, table, grid, config, copy=True)


def _solve(t_start, take_rhs, boundary, table, grid, config, copy):
    """solve_stencil on a checked table, timed from t_start.

    take_rhs() returns the right-hand side, which only the fold holds. With
    copy=False the fold may work in its array; the stages then run in that
    one array, which becomes the solution (see fold_dirichlet), so a
    solver-built right-hand side is never copied, and one that the fold
    widens to complex is freed when the fold returns.
    """
    parts, workers = _layout(config.mode, grid)
    plan = make_plan(grid.n_x, grid.n_y)
    values = fold_dirichlet(take_rhs(), boundary, table, grid, copy=copy).values
    if values.dtype == np.float64:  # the fold found the table real
        table = tuple(w.real for w in table)
    setup_s = time.perf_counter() - t_start

    ex_plan = make_exchange_plan(grid, parts)
    if parts == 1:
        transports = [None]
    elif config.transport_factory is not None:
        transports = config.transport_factory(parts)
    else:
        mesh = InProcessMesh(parts)
        transports = [mesh.endpoint(p) for p in range(parts)]
    barrier = threading.Barrier(parts)
    part_times = [dict.fromkeys(("transform", "exchange", "tridiag"), 0.0)
                  for _ in range(parts)]
    errors = []

    def run_part(part):
        def stage(name, fn):
            barrier.wait()
            t0 = time.perf_counter()
            out = fn()
            part_times[part][name] += time.perf_counter() - t0
            return out

        transport = transports[part]
        try:
            z0, z1 = ex_plan.partition.z_ranges[part]
            y0, y1 = ex_plan.partition.y_ranges[part]
            z_slab = values[z0:z1]
            # one part's z-slab is its y-slab; with peers the z-slab is dead
            # between the exchanges and holds the sweep's multipliers
            y_slab, scratch = (z_slab, None) if transport is None else (
                np.empty((grid.n_z, y1 - y0, grid.n_x), values.dtype), z_slab)
            with _executor(workers) as executor:
                stage("transform", lambda: _transform_stage(executor, workers, plan, z_slab))
                if transport is not None:
                    stage("exchange", lambda: exchange_forward(
                        ex_plan, transport, part, (z_slab, y_slab)))
                stage("tridiag", lambda: _sweep_stage(executor, workers, y_slab, table,
                                                      grid, y0, scratch))
                if transport is not None:
                    stage("exchange", lambda: exchange_inverse(
                        ex_plan, transport, part, (z_slab, y_slab)))
                y_slab = None  # freed before the inverse transform
                stage("transform", lambda: _transform_stage(executor, workers, plan, z_slab))
        except BaseException as exc:  # propagate to the caller, release peers
            errors.append(exc)
            barrier.abort()
            if transport is not None:  # a peer waiting for this part fails at once
                transports[part] = None
                transport.close()

    threads = [threading.Thread(target=run_part, args=(p,)) for p in range(1, parts)]
    for t in threads:
        t.start()
    run_part(0)
    for t in threads:
        t.join()
    # a failed part has closed its own; the rest close only now, since closing
    # each as its part finished raised the socket workload's peak RSS
    for transport in transports:
        if transport is not None:
            transport.close()
    if errors:
        for exc in errors:  # prefer the root cause over broken-barrier fallout
            if not isinstance(exc, threading.BrokenBarrierError):
                raise exc
        raise errors[0]

    timings = PhaseTimings(setup_s=setup_s, total_s=time.perf_counter() - t_start,
                           **{f"{name}_s": max(t[name] for t in part_times)
                              for name in part_times[0]})
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

    The coefficient table is built first, which checks the profile. The
    right-hand side's z-chunks are then built on the layout's parts x
    workers threads, through the same stage runner as the solve, and
    count as setup. The solver owns that array, so the fold works in it
    and every stage after runs in it: one working field from the build to
    the solution.
    """
    t_start = time.perf_counter()
    grid = problem.grid
    table = coefficient_table(problem.scheme, problem.profile, grid)
    parts, workers = _layout(config.mode, grid)
    threads = parts * workers

    def build():
        with _executor(threads) as executor:
            return build_rhs(problem.scheme, problem.source, problem.profile, grid,
                             dtype=None,
                             run=lambda extent, fn: _run_stage(executor, threads, extent, fn))

    return _solve(t_start, build, problem.boundary, table, grid, config, copy=False)

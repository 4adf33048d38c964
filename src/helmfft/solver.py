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
  inverse redistribution runs after the solves. Each part's t threads split
  its z-planes and mode pencils. Blocks are sent in ascending
  destination-part order.
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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .assembly import Field3D, BoundaryData, build_rhs, fold_dirichlet
from .errors import InvalidPartitionError
from .grid import CoefficientProfile, Grid3D
from .spectral import make_plan, transform_stack
from .stencil import SchemeKind
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
    ranges = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


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


def exchange_forward(plan: ExchangePlan, transport, part: int,
                     z_slab: np.ndarray) -> np.ndarray:
    """Redistribute this part's z-slab into its y-slab.

    z_slab has shape (kpz, n_y, n_x); the result has shape (n_z, kpy, n_x)
    and preserves every value's (i, j, l) identity. Blocks go out in
    ascending destination-part order.
    """
    z_ranges, y_ranges = plan.partition.z_ranges, plan.partition.y_ranges
    z0, z1 = z_ranges[part]
    y0, y1 = y_ranges[part]
    if z_slab.shape != (z1 - z0, plan.n_y, plan.n_x):
        raise ValueError(f"z-slab shape {z_slab.shape} != "
                         f"{(z1 - z0, plan.n_y, plan.n_x)}")
    y_slab = np.empty((plan.n_z, y1 - y0, plan.n_x), dtype=z_slab.dtype)
    for q in range(plan.n_parts):
        qy0, qy1 = y_ranges[q]
        if q == part:
            y_slab[z0:z1] = z_slab[:, y0:y1, :]
        else:
            transport.send(q, STAGE_FORWARD,
                           np.ascontiguousarray(z_slab[:, qy0:qy1, :]))
    for q in range(plan.n_parts):
        if q == part:
            continue
        qz0, qz1 = z_ranges[q]
        block = transport.receive(q, STAGE_FORWARD, plan.block_extents(q, part))
        y_slab[qz0:qz1] = block
    return y_slab


def exchange_inverse(plan: ExchangePlan, transport, part: int,
                     y_slab: np.ndarray) -> np.ndarray:
    """Inverse of exchange_forward: y-slab back to the z-slab layout."""
    z_ranges, y_ranges = plan.partition.z_ranges, plan.partition.y_ranges
    z0, z1 = z_ranges[part]
    y0, y1 = y_ranges[part]
    if y_slab.shape != (plan.n_z, y1 - y0, plan.n_x):
        raise ValueError(f"y-slab shape {y_slab.shape} != "
                         f"{(plan.n_z, y1 - y0, plan.n_x)}")
    z_slab = np.empty((z1 - z0, plan.n_y, plan.n_x), dtype=y_slab.dtype)
    for q in range(plan.n_parts):
        qz0, qz1 = z_ranges[q]
        if q == part:
            z_slab[:, y0:y1, :] = y_slab[z0:z1]
        else:
            transport.send(q, STAGE_INVERSE,
                           np.ascontiguousarray(y_slab[qz0:qz1]))
    for q in range(plan.n_parts):
        if q == part:
            continue
        qy0, qy1 = y_ranges[q]
        ext_x, ext_y, ext_z = plan.block_extents(part, q)
        block = transport.receive(q, STAGE_INVERSE, (ext_x, qy1 - qy0, ext_z))
        z_slab[:, qy0:qy1, :] = block
    return z_slab


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


def _sweep_stage(executor, workers, values, scheme, profile, grid, m_offset=0):
    _run_stage(executor, workers, values.shape[1],
               lambda r: tridiag.solve_slab(values[:, r[0]:r[1], :], scheme, profile,
                                            grid, m_offset + r[0]))


def solve_discrete(rhs: Field3D, boundary: BoundaryData, scheme: SchemeKind,
                   profile: CoefficientProfile, grid: Grid3D,
                   config: SolverConfig = SolverConfig()):
    """Solve the 27-point system for a prebuilt right-hand side.

    Returns (solution Field3D, PhaseTimings). rhs is the unfolded right-hand
    side; boundary values are folded here as part of setup. The solve runs
    in the folded copy's dtype (see fold_dirichlet), so the solution of a
    real problem is float64.

    Every mode runs the same stages on its (parts, workers) layout: the
    caller's thread runs part 0 and each other part gets a thread of its
    own. A one-part layout has no peers, so its z-slab is its y-slab: it
    skips both exchanges and opens no transport. A part that fails closes
    its transport, so a peer waiting for its blocks fails at once.
    """
    t_start = time.perf_counter()
    parts, workers = _layout(config.mode, grid)
    plan = make_plan(grid.n_x, grid.n_y)
    # fold_dirichlet returns a new array, so the parts may work in it and
    # hand it back as the solution
    values = fold_dirichlet(rhs, boundary, scheme, profile, grid).values
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
            y0, _y1 = ex_plan.partition.y_ranges[part]
            local = y_slab = values[z0:z1]
            with _executor(workers) as executor:
                stage("transform", lambda: _transform_stage(executor, workers, plan, local))
                if transport is not None:
                    y_slab = stage("exchange", lambda: exchange_forward(
                        ex_plan, transport, part, local))
                stage("tridiag", lambda: _sweep_stage(executor, workers, y_slab, scheme,
                                                      profile, grid, m_offset=y0))
                if transport is not None:
                    local[...] = stage("exchange", lambda: exchange_inverse(
                        ex_plan, transport, part, y_slab))
                stage("transform", lambda: _transform_stage(executor, workers, plan, local))
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

    timings = PhaseTimings(
        setup_s=setup_s,
        transform_s=max(t["transform"] for t in part_times),
        exchange_s=max(t["exchange"] for t in part_times),
        tridiag_s=max(t["tridiag"] for t in part_times),
        total_s=time.perf_counter() - t_start,
    )
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
    workers threads, through the same stage runner as the solve.
    """
    t0 = time.perf_counter()
    parts, workers = _layout(config.mode, problem.grid)
    threads = parts * workers
    with _executor(threads) as executor:
        rhs = build_rhs(problem.scheme, problem.source, problem.profile, problem.grid,
                        dtype=None,
                        run=lambda extent, fn: _run_stage(executor, threads, extent, fn))
    rhs_s = time.perf_counter() - t0
    solution, timings = solve_discrete(rhs, problem.boundary, problem.scheme,
                                       problem.profile, problem.grid, config)
    return solution, replace(timings, setup_s=timings.setup_s + rhs_s,
                             total_s=timings.total_s + rhs_s)

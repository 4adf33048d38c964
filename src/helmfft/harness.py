"""Benchmark harness: convergence studies, scaling runs, and table emission."""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .assembly import BoundaryData, build_rhs, fold_dirichlet, residual_l2
from .problems import ProblemSpec, convdiff_problem, error_metrics, helmholtz_problem
from .solver import SolverConfig, Sequential, SharedWorkers, Partitioned, solve_stencil
from .stencil import SchemeKind, coefficient_table

# problem id -> factory(scheme, n); parameter sets follow the standard
# benchmark configurations for this solver family
PROBLEMS = {
    "const-k": lambda scheme, n: helmholtz_problem(20.0, 0.0, 10.0, 12.0, 16.0, scheme, n),
    "variable-k": lambda scheme, n: helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, scheme, n),
    "convdiff": lambda scheme, n: convdiff_problem(-100.0, n),
}


@dataclass
class MetricsRow:
    scheme: str
    grid: str
    max_err: float
    l2_err: float
    l2_res: float
    setup_s: float
    transform_s: float
    exchange_s: float
    tridiag_s: float
    total_s: float


def make_problem(problem_id: str, scheme: SchemeKind, n: int) -> ProblemSpec:
    if problem_id not in PROBLEMS:
        raise ValueError(f"unknown problem {problem_id!r}; know {sorted(PROBLEMS)}")
    if problem_id == "convdiff" and scheme is not SchemeKind.CONVECTION_DIFFUSION_4:
        raise ValueError("the convdiff problem runs with the cd4 scheme only")
    return PROBLEMS[problem_id](scheme, n)


def _grid_label(grid) -> str:
    if grid.n_x == grid.n_y == grid.n_z:
        return f"{grid.n_x}^3"
    return f"{grid.n_x}x{grid.n_y}x{grid.n_z}"


def measure(problem: ProblemSpec, config: SolverConfig, label_suffix: str = ""):
    """Solve one problem and collect every metric; returns (row, solution).

    The coefficient table is built once, and the right-hand side is built
    in the data's dtype, as in solve_with_timings, and folded once; their
    time counts as setup. The solve and the residual share the table and
    the folded right-hand side.
    """
    t0 = time.perf_counter()
    table = coefficient_table(problem.scheme, problem.profile, problem.grid)
    rhs = build_rhs(problem.scheme, problem.source, problem.profile, problem.grid, None)
    folded = fold_dirichlet(rhs, problem.boundary, table, problem.grid, copy=False)
    del rhs  # the unfolded array, where the fold copied it
    rhs_s = time.perf_counter() - t0
    solution, timings = solve_stencil(table, folded, BoundaryData.zero(), problem.grid, config)
    res = residual_l2(solution, folded, table, problem.grid)
    if problem.analytic is not None:
        max_err, l2_err = error_metrics(solution, problem.analytic, problem.grid)
    else:
        max_err = l2_err = float("nan")
    row = MetricsRow(
        scheme=problem.scheme.value,
        grid=_grid_label(problem.grid) + label_suffix,
        max_err=max_err,
        l2_err=l2_err,
        l2_res=res,
        setup_s=timings.setup_s + rhs_s,
        transform_s=timings.transform_s,
        exchange_s=timings.exchange_s,
        tridiag_s=timings.tridiag_s,
        total_s=timings.total_s + rhs_s,
    )
    return row, solution


def observed_orders(errors, steps):
    """log(err_i/err_{i+1}) / log(h_i/h_{i+1}) between consecutive grids."""
    orders = []
    for (e0, h0), (e1, h1) in zip(zip(errors, steps), zip(errors[1:], steps[1:])):
        orders.append(math.log(e0 / e1) / math.log(h0 / h1))
    return orders


def run_convergence(scheme: SchemeKind, problem_id: str, grid_sizes,
                    config: SolverConfig = SolverConfig()):
    """One solve per grid size; returns (rows, orders from max_err)."""
    if any(n0 >= n1 for n0, n1 in zip(grid_sizes, grid_sizes[1:])):
        raise ValueError("grid sizes must be strictly ascending")
    rows = []
    steps = []
    for n in grid_sizes:
        problem = make_problem(problem_id, scheme, n)
        row, _ = measure(problem, config)
        rows.append(row)
        steps.append(problem.grid.h_z)
    return rows, observed_orders([row.max_err for row in rows], steps)


def run_scaling(scheme: SchemeKind, problem_id: str, n: int, worker_counts,
                mode: str = "shared"):
    """Timing rows for a ladder of worker counts; output must not depend on them.

    mode "shared" treats the counts as shared-memory worker counts,
    "partitioned" as part counts (one worker per part), matching the two
    distribution strategies. The solutions across the ladder must agree
    bitwise before any times are reported.
    """
    rows = []
    reference = None
    for w in worker_counts:
        if mode == "shared":
            m = Sequential() if w == 1 else SharedWorkers(w)
        elif mode == "partitioned":
            m = Sequential() if w == 1 else Partitioned(w)
        else:
            raise ValueError(f"unknown scaling mode {mode!r}")
        config = SolverConfig(mode=m)
        problem = make_problem(problem_id, scheme, n)
        row, solution = measure(problem, config, label_suffix=f"/w{w}")
        if reference is None:
            reference = solution.values
        elif not np.array_equal(solution.values, reference):
            raise AssertionError(f"solution changed with {w} workers")
        rows.append(row)
    return rows


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def format_row(row):
    """The row's values as strings, in CSV_COLUMNS order."""
    cells = []
    for name in CSV_COLUMNS:
        value = getattr(row, name)
        if isinstance(value, str):
            cells.append(value)
        elif name in ("max_err", "l2_err", "l2_res"):
            cells.append(f"{value:.7e}")
        else:
            cells.append(f"{value:.8g}")
    return cells


def emit_table(rows, fmt: str, path):
    """Write rows as CSV or a markdown pipe table."""
    if fmt not in ("csv", "md"):
        raise ValueError(f"unknown table format {fmt!r}")
    if fmt == "csv":
        lines = [",".join(cells) for cells in [CSV_COLUMNS, *map(format_row, rows)]]
    else:
        lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
                 "|" + "|".join(["---"] * len(CSV_COLUMNS)) + "|"]
        lines += ["| " + " | ".join(format_row(row)) + " |" for row in rows]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path

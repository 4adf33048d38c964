"""Benchmark harness: convergence studies, scaling runs, and table emission."""

import math
import time
from dataclasses import dataclass

import numpy as np

from .assembly import build_rhs, fold_dirichlet, residual_l2
from .problems import ProblemSpec, convdiff_problem, error_metrics, helmholtz_problem
from .solver import SolverConfig, Sequential, SharedWorkers, Partitioned, solve_discrete
from .stencil import SchemeKind

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

    The right-hand side is built once, in the data's dtype as in
    solve_with_timings; its time counts as setup, and the residual refolds it.
    """
    t0 = time.perf_counter()
    rhs = build_rhs(problem.scheme, problem.source, problem.profile, problem.grid, None)
    rhs_s = time.perf_counter() - t0
    solution, timings = solve_discrete(rhs, problem.boundary, problem.scheme,
                                       problem.profile, problem.grid, config)
    folded = fold_dirichlet(rhs, problem.boundary, problem.scheme, problem.profile,
                            problem.grid)
    res = residual_l2(solution, folded, problem.scheme, problem.profile, problem.grid)
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
    if list(grid_sizes) != sorted(grid_sizes):
        raise ValueError("grid sizes must be ascending")
    rows = []
    errs = []
    steps = []
    for n in grid_sizes:
        problem = make_problem(problem_id, scheme, n)
        try:
            row, _ = measure(problem, config)
        except Exception as exc:
            rows.append(MetricsRow(scheme.value, f"{n}^3 FAILED({type(exc).__name__})",
                                   float("nan"), float("nan"), float("nan"),
                                   0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        rows.append(row)
        errs.append(row.max_err)
        steps.append(problem.grid.h_z)
    orders = observed_orders(errs, steps) if len(errs) >= 2 else []
    return rows, orders


def run_scaling(scheme: SchemeKind, problem_id: str, n: int, worker_counts,
                mode: str = "shared"):
    """Timing rows for a ladder of worker counts; output must not depend on them.

    mode "shared" treats the counts as shared-memory worker counts,
    "partitioned" as part counts (one worker per part), matching the two
    distribution strategies. The solutions across the ladder are compared and
    must agree to 1e-13 before any times are reported.
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
            reference = solution.values.copy()
        else:
            drift = float(np.abs(solution.values - reference).max())
            if drift > 1e-13:
                raise AssertionError(
                    f"solution changed with {w} workers: max deviation {drift:.3e}")
        rows.append(row)
    return rows


CSV_COLUMNS = ("scheme", "grid", "max_err", "l2_err", "l2_res",
               "setup_s", "transform_s", "exchange_s", "tridiag_s", "total_s")


def _format_value(name, value):
    if isinstance(value, str):
        return value
    if name in ("max_err", "l2_err", "l2_res"):
        return f"{value:.7e}"
    return f"{value:.8g}"


def emit_table(rows, fmt: str, path):
    """Write rows as CSV or a markdown pipe table."""
    if fmt not in ("csv", "md", "markdown"):
        raise ValueError(f"unknown table format {fmt!r}")
    lines = []
    if fmt == "csv":
        lines.append(",".join(CSV_COLUMNS))
        for row in rows:
            lines.append(",".join(
                _format_value(col, getattr(row, col)) for col in CSV_COLUMNS))
    else:
        lines.append("| " + " | ".join(CSV_COLUMNS) + " |")
        lines.append("|" + "|".join(["---"] * len(CSV_COLUMNS)) + "|")
        for row in rows:
            lines.append("| " + " | ".join(
                _format_value(col, getattr(row, col)) for col in CSV_COLUMNS) + " |")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path

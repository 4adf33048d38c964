"""Command line front end.

Verbs:
    solve        one direct solve, metrics printed (optionally written)
    convergence  a ladder of grids with observed orders
    scaling      a ladder of worker counts with phase timings

A plain key=value file can provide any flag via --config; explicit flags win.
Exit code 0 on success; on failure a single machine-readable JSON line goes to
stderr and the exit code is nonzero.
"""

import argparse
import json
import sys

import numpy as np

from .errors import SingularSystemError
from .harness import (CSV_COLUMNS, PROBLEMS, emit_table, format_row, make_problem, measure,
                      run_convergence, run_scaling)
from .oracle import dense_solve
from .solver import Partitioned, Sequential, SharedWorkers, SolverConfig
from .stencil import SchemeKind, coefficient_table

_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config_file(path):
    """Read key=value lines; blank lines and # comments are ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_parser():
    parser = argparse.ArgumentParser(prog="helmfft",
                                     description="FFT-diagonalization direct solver benchmarks")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--scheme", choices=[kind.value for kind in SchemeKind], default=None)
        p.add_argument("--problem", choices=sorted(PROBLEMS), default=None)
        p.add_argument("--grid", type=int, default=None, help="N for an N^3 grid")
        p.add_argument("--mode", choices=["seq", "shared", "partitioned"], default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--parts", type=int, default=None)
        p.add_argument("--format", choices=["csv", "md"], default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="key=value defaults file")

    p_solve = sub.add_parser("solve", help="single direct solve")
    common(p_solve)
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check against the dense solver (grids <= 8^3)")

    p_conv = sub.add_parser("convergence", help="grid-refinement study")
    common(p_conv)
    p_conv.add_argument("--grids", default=None, help="comma list, e.g. 125,250")

    p_scale = sub.add_parser("scaling", help="worker-count study")
    common(p_scale)
    p_scale.add_argument("--worker-list", default=None, help="comma list, e.g. 1,2,4")
    return parser, sub.choices


def _apply_config_file(args, parser):
    """Fill the flags left unset from the --config file; each value is
    converted and checked with its flag's own type and choices, and a
    switch takes 1/true/yes or 0/false/no in any case."""
    if args.config is None:
        return args
    actions = {action.dest: action for action in parser._actions}
    for key, value in parse_config_file(args.config).items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        current, action = getattr(args, key), actions.get(key)
        if current is not None and current is not False:
            continue  # given as a flag
        try:
            if current is False:  # a switch such as --oracle
                value = _SWITCH_VALUES[value.lower()]
            else:
                value = (action.type or str)(value)
                if action.choices is not None and value not in action.choices:
                    raise ValueError
        except (KeyError, ValueError):
            raise ValueError(f"config key {key!r}: bad value {value!r}") from None
        setattr(args, key, value)
    return args


def _defaults(args):
    if args.scheme is None:
        args.scheme = "cd4" if args.problem == "convdiff" else "4"
    if args.problem is None:
        args.problem = "convdiff" if args.scheme == "cd4" else "variable-k"
    if args.grid is None:
        args.grid = 16
    if args.mode is None:
        args.mode = "seq"
    if args.workers is None:
        args.workers = 1
    if args.parts is None:
        args.parts = 1
    if args.format is None:
        args.format = "csv"
    return args


def _solver_config(args):
    if args.mode == "seq":
        mode = Sequential()
    elif args.mode == "shared":
        mode = SharedWorkers(args.workers)
    else:
        mode = Partitioned(args.parts, args.workers)
    return SolverConfig(mode=mode)


def _print_rows(rows):
    for cells in [CSV_COLUMNS, *map(format_row, rows)]:
        print(" ".join(cells))


def _cmd_solve(args):
    if args.oracle and args.grid > 8:
        raise ValueError("--oracle is limited to grids of at most 8^3")
    problem = make_problem(args.problem, SchemeKind(args.scheme), args.grid)
    config = _solver_config(args)
    row, solution = measure(problem, config)
    _print_rows([row])
    if args.oracle:
        from .assembly import build_rhs
        rhs = build_rhs(problem.scheme, problem.source, problem.profile, problem.grid)
        ext = problem.boundary.closed_box(problem.grid)
        table = coefficient_table(problem.scheme, problem.profile, problem.grid)
        dense = dense_solve(rhs.values, ext, table, problem.grid)
        diff = np.abs(solution.ravel() - dense)
        scale = max(float(np.abs(dense).max()), 1e-300)
        rel = float(diff.max()) / scale
        print(f"oracle max relative deviation: {rel:.3e}")
        if rel > 1e-12:
            raise AssertionError(f"oracle mismatch: {rel:.3e} > 1e-12")
    return [row]


def _cmd_convergence(args):
    sizes = [int(tok) for tok in args.grids.split(",")] if args.grids else [args.grid]
    rows, orders = run_convergence(SchemeKind(args.scheme), args.problem, sizes,
                                   _solver_config(args))
    _print_rows(rows)
    for (n0, n1), order in zip(zip(sizes, sizes[1:]), orders):
        print(f"observed order {n0}->{n1}: {order:.3f}")
    return rows


def _cmd_scaling(args):
    counts = ([int(tok) for tok in args.worker_list.split(",")]
              if args.worker_list else [1, args.workers])
    mode = "partitioned" if args.mode == "partitioned" else "shared"
    rows = run_scaling(SchemeKind(args.scheme), args.problem, args.grid, counts, mode=mode)
    _print_rows(rows)
    base = rows[0].total_s
    for count, row in zip(counts, rows):
        speedup = base / row.total_s if row.total_s > 0 else float("nan")
        print(f"workers {count}: speedup {speedup:.2f}")
    return rows


def main(argv=None) -> int:
    parser, verbs = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, verbs[args.verb])
        args = _defaults(args)
        verb = {"solve": _cmd_solve, "convergence": _cmd_convergence,
                "scaling": _cmd_scaling}[args.verb]
        rows = verb(args)
        if args.out:
            emit_table(rows, args.format, args.out)
            print(f"wrote {args.out}")
        return 0
    except SingularSystemError as exc:
        print(json.dumps({"error": "singular-system", "n": exc.n, "m": exc.m,
                          "detail": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, AssertionError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

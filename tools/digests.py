"""BLAKE2b digests of the solver's solutions and coefficient tables, for
showing a change is bitwise.

    python3 tools/digests.py [--n 33] [--big]

Run from the repository root; the program is imported from `src/`. The
first line names the sweep kernel's library file, the complex multiply
form it was built for and the mode columns it sweeps at a time on this CPU
(8 with AVX-512, else 1); the files of two checkouts may differ. Each other
line is `case  mode  dtype  digest`; the mode `table` is the digest of the
case's coefficient_table (A, B, C and D in turn). The cases are the
criterion-9 problems (the catalog Helmholtz problem at 2nd, 4th and 6th
order and the convection-diffusion problem on an n^3 grid), each solved
twice:

- `direct`: solve_direct, the real path for these real problems
- `discrete`: solve_discrete on the complex build_rhs, as criterion 9 does

plus a fourth-order anisotropic problem with a complex profile, RHS and
walls, a sixth-order problem with a complex profile, RHS and walls, the
fourth-order complex problem on an odd 9 x 5 x 13 grid (whose z-slabs in
three parts hold fewer mode rows of sweep multipliers than the y-slabs,
or not one), and a real problem with complex walls (a fold that widens to
complex). `--big` adds the 125^3 sixth-order case of the README and the
socket workload's own case, built by `perfbench/workloads.py` from seed 1
(159^3 complex, whose exchange blocks cross a socket in many partial
writes). Every case runs in every mode. Then come a `measure` line for
each catalog problem (harness.measure under Sequential: the solution's
digest and repr(l2_res)), an `apply` line for each catalog problem (the
digest of apply_stencil on its Sequential direct solution with its walls;
`--big` adds the 125^3 sixth-order case, whose A*u takes many z-chunks)
and `dst2d` lines for seeded planes: a real and a
complex 9 x 13 plane, real 125^2 (dense kernel), 159^2 (pocketfft) and
250^2 (dense) planes and a complex 159^2 plane, each naming the kernel its
x and y axes took. The last line says whether all modes agreed bitwise.
Run it on two checkouts and diff the output.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import helmfft as hf  # noqa: E402

MODES = {
    "seq": hf.SolverConfig(mode=hf.Sequential()),
    "shared2": hf.SolverConfig(mode=hf.SharedWorkers(2)),
    "parts2": hf.SolverConfig(mode=hf.Partitioned(2)),
    "parts3x2": hf.SolverConfig(mode=hf.Partitioned(3, 2)),
    "parts3": hf.SolverConfig(mode=hf.Partitioned(3)),
    "sockets2": hf.SolverConfig(mode=hf.Partitioned(2),
                                transport_factory=hf.transport.socket_mesh),
    "sockets2x2": hf.SolverConfig(mode=hf.Partitioned(2, 2),
                                  transport_factory=hf.transport.socket_mesh),
}


SCHEMES = (("2nd", hf.SchemeKind.SECOND_ORDER), ("4th", hf.SchemeKind.FOURTH_ORDER),
           ("6th", hf.SchemeKind.SIXTH_ORDER), ("cd4", hf.SchemeKind.CONVECTION_DIFFUSION_4))


def catalog(scheme, n):
    if scheme is hf.SchemeKind.CONVECTION_DIFFUSION_4:
        return hf.convdiff_problem(-100.0, n)
    return hf.helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, scheme, n)


def complex_case(scheme, grid, seed):
    """(rhs, boundary, scheme, profile, grid) of a solve with a complex
    profile, right-hand side and walls."""
    profile = hf.sample_profile(lambda z: (3.0 + 1.0j) * np.cos(2 * z) + 5.0,
                                lambda z: -(6.0 + 2.0j) * np.sin(2 * z),
                                lambda z: -(12.0 + 4.0j) * np.cos(2 * z), 0.0, grid)
    boundary = hf.BoundaryData.from_function(
        lambda x, y, z: np.sin(3 * x + 0.3) * np.exp(y) * np.cos(z) + 0.5j * x)
    rng = np.random.default_rng(seed)
    rhs = hf.Field3D(rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return rhs, boundary, scheme, profile, grid


def cases(n, big):
    """(name, (scheme, profile, grid), solve(config) -> Field3D) triples."""
    for label, scheme in SCHEMES:
        p = catalog(scheme, n)
        operator = (p.scheme, p.profile, p.grid)
        yield f"{label}-{n}-direct", operator, lambda cfg, p=p: hf.solve_direct(p, cfg)
        rhs = hf.build_rhs(p.scheme, p.source, p.profile, p.grid)
        yield f"{label}-{n}-discrete", operator, lambda cfg, p=p, rhs=rhs: hf.solve_discrete(
            rhs, p.boundary, p.scheme, p.profile, p.grid, cfg)[0]
    for name, scheme, grid, seed in (
            ("cplx-aniso", hf.SchemeKind.FOURTH_ORDER,
             hf.make_grid(hf.Domain(0, 1.3, -0.2, 0.9, 0.1, 2.0), 11, 9, 13), 103),
            ("cplx-6th", hf.SchemeKind.SIXTH_ORDER,
             hf.make_grid(hf.Domain(0, 1.4, 0, 1.4, 0, 1.4), 13, 13, 13), 107),
            ("odd-aniso", hf.SchemeKind.FOURTH_ORDER,
             hf.make_grid(hf.Domain(0, 1.3, -0.2, 0.9, 0.1, 2.0), 9, 5, 13), 109)):
        args = complex_case(scheme, grid, seed)
        yield name, args[2:], lambda cfg, args=args: hf.solve_discrete(*args, cfg)[0]
    p = catalog(hf.SchemeKind.FOURTH_ORDER, n)
    exact = p.analytic
    widened = hf.ProblemSpec(p.scheme, p.grid, p.profile, p.source,
                             hf.BoundaryData.from_function(
                                 lambda x, y, z: exact(x, y, z) + 0.25j * x))
    yield f"widen-{n}", (p.scheme, p.profile, p.grid), \
        lambda cfg: hf.solve_direct(widened, cfg)
    if big:
        p = catalog(hf.SchemeKind.SIXTH_ORDER, 125)
        yield "6th-125-direct", (p.scheme, p.profile, p.grid), \
            lambda cfg: hf.solve_direct(p, cfg)
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        from workloads import FourthAbsorbPart2Socket as socket_workload
        size = socket_workload.n
        case = socket_workload.build(hf, socket_workload.make_inputs(1, size), size)
        yield f"absorb-{size}-socket", (case.scheme, case.profile, case.grid), case.solve


def digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for values in arrays:
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=33, help="catalog grid size")
    parser.add_argument("--big", action="store_true",
                        help="add the 125^3 sixth-order case and the socket workload's case")
    args = parser.parse_args()
    kernel = hf.tridiag.KERNEL
    print(f"kernel {kernel.path.name}  multiply={kernel.multiply}  lanes={kernel.lanes}",
          flush=True)
    agree = True
    for name, operator, solve in cases(args.n, args.big):
        table = hf.coefficient_table(*operator)
        print(f"{name:18s} {'table':10s} {table[0].dtype}  {digest(*table)}", flush=True)
        seen = set()
        for mode, config in MODES.items():
            u = solve(config).values
            seen.add(digest(u))
            print(f"{name:18s} {mode:10s} {u.dtype}  {digest(u)}", flush=True)
        agree = agree and len(seen) == 1
    for label, scheme in SCHEMES:
        row, u = hf.harness.measure(catalog(scheme, args.n), MODES["seq"])
        name = f"{label}-{args.n}-measure"
        print(f"{name:18s} {'seq':10s} {u.values.dtype}  {digest(u.values)}  "
              f"l2_res={row.l2_res!r}", flush=True)
    applied = [(label, scheme, args.n) for label, scheme in SCHEMES]
    if args.big:
        applied.append(("6th", hf.SchemeKind.SIXTH_ORDER, 125))
    for label, scheme, n in applied:
        p = catalog(scheme, n)
        table = hf.coefficient_table(p.scheme, p.profile, p.grid)
        au = hf.apply_stencil(hf.solve_direct(p, MODES["seq"]), p.boundary, table, p.grid).values
        print(f"{f'{label}-{n}-apply':18s} {'seq':10s} {au.dtype}  {digest(au)}", flush=True)
    rng = np.random.default_rng(113)
    real = rng.standard_normal((9, 13))
    planes = {"dst2d-real": real, "dst2d-complex": real + 1j * rng.standard_normal((9, 13))}
    for n in (125, 159, 250):
        planes[f"dst2d-real-{n}"] = rng.standard_normal((n, n))
    planes["dst2d-complex-159"] = planes["dst2d-real-159"] + 1j * rng.standard_normal((159, 159))
    for name, plane in planes.items():
        plan = hf.make_plan(plane.shape[1], plane.shape[0])
        out = hf.dst2d(plan, plane)
        kernel_x, kernel_y = plan.kernels(out.dtype)
        print(f"{name:18s} {'plane':10s} {out.dtype}  {digest(out)}  "
              f"x={kernel_x} y={kernel_y}", flush=True)
    print("all modes bitwise equal:", agree)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

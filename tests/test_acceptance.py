"""Acceptance suite: one check per shipping criterion, printed pass/fail lines.

The regression targets are the previously recorded benchmark errors for the
catalog problems; runs here must land within 1% of them (criteria 1-4), keep
the algebraic residual at the direct-solver floor (5), agree with the dense
oracle (6-7), satisfy the structural invariants (8), produce mode-independent
answers (9), scale (10, machine-permitting), and show the right convergence
orders (11).
"""

import math
import os
import threading

import numpy as np
import pytest

import helmfft as hf
from helmfft.assembly import (BoundaryData, Field3D, build_rhs, fold_dirichlet,
                              residual_l2)
from helmfft.grid import CoefficientProfile, Domain, constant_profile, make_grid
from helmfft.oracle import (dense_plane_matrix, dense_sine_matrix_2d, dense_solve,
                            eigenvalue)
from helmfft.problems import convdiff_problem, error_metrics, helmholtz_problem
from helmfft.solver import (Partitioned, Sequential, SharedWorkers, SolverConfig,
                            exchange_forward, exchange_inverse,
                            make_exchange_plan, plan_partition, solve_discrete,
                            solve_with_timings)
from helmfft.spectral import dst2d, make_plan
from helmfft.stencil import SchemeKind, coefficient_table
from helmfft.transport import in_process_mesh

HELMHOLTZ_SCHEMES = {
    "2": SchemeKind.SECOND_ORDER,
    "4": SchemeKind.FOURTH_ORDER,
    "6": SchemeKind.SIXTH_ORDER,
}

# regression targets: (scheme, grid) -> (max_err, l2_err)
VARIABLE_K_TARGETS = {
    ("2", 125): (5.7570466e-03, 6.4986713e-03),
    ("2", 250): (1.4853854e-03, 1.6510028e-03),
    ("4", 125): (3.4493268e-05, 3.5925614e-05),
    ("4", 250): (2.1782070e-06, 2.2582699e-06),
    ("6", 125): (2.1875397e-06, 1.9909214e-06),
    ("6", 250): (3.4942928e-08, 3.1643311e-08),
}

CONVDIFF_TARGETS = {
    64: 3.2612907e-03,
    128: 2.0579387e-04,
    256: 1.2939970e-05,
}

ORDER_BANDS = {"2": (1.8, 2.2), "4": (3.7, 4.3), "6": (5.6, 6.4)}


def report(number, ok, text, capfd=None):
    line = f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}  {text}"
    if capfd is not None:
        with capfd.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


def run_problem(problem):
    solution, timings = solve_with_timings(problem, SolverConfig())
    max_err, l2_err = error_metrics(solution, problem.analytic, problem.grid)
    rhs = build_rhs(problem.scheme, problem.source, problem.profile, problem.grid)
    table = coefficient_table(problem.scheme, problem.profile, problem.grid)
    folded = fold_dirichlet(rhs, problem.boundary, table, problem.grid)
    res = residual_l2(solution, folded, table, problem.grid)
    return {"max_err": max_err, "l2_err": l2_err, "l2_res": res,
            "h": problem.grid.h_z, "total_s": timings.total_s}


@pytest.fixture(scope="module")
def variable_k_results():
    results = {}
    for label, scheme in HELMHOLTZ_SCHEMES.items():
        for n in (125, 250):
            problem = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, scheme, n)
            results[(label, n)] = run_problem(problem)
    return results


@pytest.fixture(scope="module")
def convdiff_results():
    return {n: run_problem(convdiff_problem(-100.0, n)) for n in (64, 128, 256)}


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def check_regression(number, label, results, max_targets, l2_targets=None,
                     capfd=None):
    ok = True
    lines = []
    for key, target in max_targets.items():
        got = results[key]["max_err"]
        good = within(got, target, 0.01)
        ok &= good
        lines.append(f"{key}: max_err {got:.7e} vs {target:.7e}"
                     f" ({abs(got - target) / target * 100:.2f}%)")
        if l2_targets is not None:
            l2_got = results[key]["l2_err"]
            l2_target = l2_targets[key]
            good = within(l2_got, l2_target, 0.01)
            ok &= good
            lines.append(f"{key}: l2_err {l2_got:.7e} vs {l2_target:.7e}"
                         f" ({abs(l2_got - l2_target) / l2_target * 100:.2f}%)")
    report(number, ok, f"{label}: " + "; ".join(lines), capfd)
    return ok


def test_criterion_01_second_order_regression(variable_k_results, capfd):
    keys = [("2", 125), ("2", 250)]
    ok = check_regression(
        1, "second-order errors",
        variable_k_results,
        {k: VARIABLE_K_TARGETS[k][0] for k in keys},
        {k: VARIABLE_K_TARGETS[k][1] for k in keys}, capfd=capfd)
    assert variable_k_results[("2", 250)]["total_s"] < 120.0
    assert ok


def test_criterion_02_fourth_order_regression(variable_k_results, capfd):
    keys = [("4", 125), ("4", 250)]
    ok = check_regression(2, "fourth-order errors", variable_k_results,
                          {k: VARIABLE_K_TARGETS[k][0] for k in keys}, capfd=capfd)
    assert ok


def test_criterion_03_sixth_order_regression(variable_k_results, capfd):
    keys = [("6", 125), ("6", 250)]
    ok = check_regression(3, "sixth-order errors", variable_k_results,
                          {k: VARIABLE_K_TARGETS[k][0] for k in keys}, capfd=capfd)
    assert ok


def test_criterion_04_convection_diffusion_regression(convdiff_results, capfd):
    ok = check_regression(4, "convection-diffusion errors", convdiff_results,
                          CONVDIFF_TARGETS, capfd=capfd)
    assert ok


def test_criterion_05_residual_floor(variable_k_results, convdiff_results, capfd):
    worst = 0.0
    for results in (variable_k_results, convdiff_results):
        for info in results.values():
            worst = max(worst, info["l2_res"])
    ok = report(5, worst <= 1e-9, f"largest algebraic residual {worst:.3e} <= 1e-9",
                capfd)
    assert ok


def test_criterion_06_dense_oracle_equivalence(capfd):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (4, 6):
        grid = make_grid(Domain(0, math.pi, 0, math.pi, 0, math.pi), n, n, n)
        for scheme in SchemeKind:
            if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
                prof = constant_profile(0.0, grid, gamma=-5.0)
            else:
                prof = CoefficientProfile(
                    k2=rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2),
                    k2_z=rng.standard_normal(n + 2) + 0j,
                    k2_zz=rng.standard_normal(n + 2) + 0j)
            rhs = Field3D(rng.standard_normal(grid.shape)
                          + 1j * rng.standard_normal(grid.shape))
            shape = (n + 2, n + 2, n + 2)
            bnd = BoundaryData.from_array(rng.standard_normal(shape)
                                          + 1j * rng.standard_normal(shape))
            solution, _ = solve_discrete(rhs, bnd, scheme, prof, grid)
            expect = dense_solve(rhs.values, bnd.closed_box(grid),
                                 coefficient_table(scheme, prof, grid), grid)
            rel = np.abs(solution.ravel() - expect).max() / np.abs(expect).max()
            worst = max(worst, rel)
    ok = report(6, worst <= 1e-12,
                f"solver vs dense factorization, worst relative {worst:.3e} <= 1e-12",
                capfd)
    assert ok


def test_criterion_07_diagonalization_property(capfd):
    rng = np.random.default_rng(77)
    worst_off = 0.0
    worst_eig = 0.0
    for n in (4, 8):
        grid = make_grid(Domain(0, math.pi, 0, math.pi, 0, math.pi), n, n, n)
        V = dense_sine_matrix_2d(n, n)
        for scheme in SchemeKind:
            if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
                prof = constant_profile(0.0, grid, gamma=rng.uniform(-8, 8))
            else:
                prof = CoefficientProfile(
                    k2=rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2),
                    k2_z=rng.standard_normal(n + 2) + 0j,
                    k2_zz=rng.standard_normal(n + 2) + 0j)
            table = coefficient_table(scheme, prof, grid)
            for offset in (-1, 0, 1):
                a, b, c, d = (w[1, offset + 1] for w in table)  # row level 2
                D = V.T @ dense_plane_matrix(a, b, c, d, n, n) @ V
                off = D - np.diag(np.diag(D))
                worst_off = max(worst_off, float(np.abs(off).max()))
                for m in range(1, n + 1):
                    for nn in range(1, n + 1):
                        idx = (nn - 1) + n * (m - 1)
                        lam = eigenvalue(table, 2, offset, nn, m, grid)
                        worst_eig = max(worst_eig, abs(D[idx, idx] - lam))
    ok = report(7, worst_off <= 1e-12 and worst_eig <= 1e-12,
                f"plane operators diagonalized: off-diag {worst_off:.3e}, "
                f"eigenvalue dev {worst_eig:.3e} <= 1e-12", capfd)
    assert ok


def test_criterion_08_structural_invariants(capfd):
    rng = np.random.default_rng(88)
    checks = []

    # zero row sums for every scheme with no zeroth-order term
    for scheme in SchemeKind:
        if scheme is SchemeKind.SIXTH_ORDER:
            grid = make_grid(Domain(0, 1, 0, 1, 0, 1), 4, 4, 4)
            prof = constant_profile(0.0, grid)
        else:
            hz = 0.2
            rx, ry = rng.uniform(0.25, 4.0, size=2)
            grid = make_grid(Domain(0, 5 * hz / math.sqrt(rx), 0,
                                    5 * hz / math.sqrt(ry), 0, 1.0), 4, 4, 4)
            prof = constant_profile(0.0, grid)
        A, B, C, D = coefficient_table(scheme, prof, grid)
        checks.append(abs(np.sum(4 * A[1] + 2 * B[1] + 2 * C[1] + D[1])) < 1e-13)

    # convection weights reduce to the diffusion-only ones exactly
    grid = make_grid(Domain(0, 1, 0, 2, 0, 3), 5, 5, 5)
    prof = constant_profile(0.0, grid, gamma=0.0)
    cd = coefficient_table(SchemeKind.CONVECTION_DIFFUSION_4, prof, grid)
    f4 = coefficient_table(SchemeKind.FOURTH_ORDER, prof, grid)
    checks.append(all(np.array_equal(w_cd, w_4) for w_cd, w_4 in zip(cd, f4)))

    # transform involution and norm preservation
    plan = make_plan(13, 9)
    plane = rng.standard_normal((9, 13)) + 1j * rng.standard_normal((9, 13))
    twice = dst2d(plan, dst2d(plan, plane))
    checks.append(np.abs(twice - plane).max() <= 1e-13 * np.abs(plane).max())
    checks.append(abs(np.linalg.norm(dst2d(plan, plane)) - np.linalg.norm(plane))
                  <= 1e-13 * np.linalg.norm(plane))

    # exchange round-trip identity for 2, 3, 4 parts
    for parts in (2, 3, 4):
        grid = make_grid(Domain(0, 1, 0, 1, 0, 1), 6, 6, 6)
        plan_ex = make_exchange_plan(grid, parts)
        mesh = in_process_mesh(parts)
        values = (rng.standard_normal(grid.shape)
                  + 1j * rng.standard_normal(grid.shape))
        out = np.empty_like(values)
        barrier = threading.Barrier(parts)

        def worker(part):
            z0, z1 = plan_ex.z_ranges[part]
            y0, y1 = plan_ex.y_ranges[part]
            z_slab = values[z0:z1].copy()
            y_slab = exchange_forward(plan_ex, mesh[part], part,
                                      (z_slab, np.empty((6, y1 - y0, 6), dtype=complex)))
            barrier.wait()
            out[z0:z1] = exchange_inverse(plan_ex, mesh[part], part,
                                          (z_slab, y_slab))

        threads = [threading.Thread(target=worker, args=(p,))
                   for p in range(parts)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        checks.append(np.array_equal(out, values))

    # partition sizes: floor(N/np) or floor(N/np) + 1, larger chunks first
    for extent, parts in ((10, 4), (125, 2), (8, 8), (97, 5)):
        sizes = [b - a for a, b in plan_partition(extent, parts)]
        base = extent // parts
        checks.append(set(sizes) <= {base, base + 1})
        checks.append(sizes == sorted(sizes, reverse=True))

    ok = report(8, all(checks),
                f"structural invariants: {sum(checks)}/{len(checks)} hold", capfd)
    assert ok


def test_criterion_09_mode_equivalence(capfd):
    configs = [
        ("seq", SolverConfig(mode=Sequential())),
        ("shared2", SolverConfig(mode=SharedWorkers(2))),
        ("shared4", SolverConfig(mode=SharedWorkers(4))),
        ("parts2", SolverConfig(mode=Partitioned(2))),
        ("parts4", SolverConfig(mode=Partitioned(4, workers_per_part=2))),
    ]
    worst = 0.0
    for label, scheme in list(HELMHOLTZ_SCHEMES.items()) + [("cd4", SchemeKind.CONVECTION_DIFFUSION_4)]:
        if scheme is SchemeKind.CONVECTION_DIFFUSION_4:
            problem = convdiff_problem(-100.0, 64)
        else:
            problem = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0, scheme, 64)
        rhs = build_rhs(problem.scheme, problem.source, problem.profile,
                        problem.grid)
        reference = None
        for _name, config in configs:
            solution, _ = solve_discrete(rhs, problem.boundary, problem.scheme,
                                         problem.profile, problem.grid, config)
            if reference is None:
                reference = solution.values
            else:
                worst = max(worst, float(np.abs(solution.values - reference).max()))
    ok = report(9, worst <= 1e-13,
                f"sequential/shared/partitioned agreement on 64^3: "
                f"max deviation {worst:.3e} <= 1e-13", capfd)
    assert ok


class CountingTransport:
    """Wraps a transport and records the extents of every sent block."""

    def __init__(self, inner, log):
        self.inner = inner
        self.part = inner.part
        self.log = log

    def send(self, to_part, stage, block):
        self.log.append((self.part, to_part, block.shape))
        self.inner.send(to_part, stage, block)

    def receive(self, from_part, stage, out):
        return self.inner.receive(from_part, stage, out)

    def close(self):
        self.inner.close()


def test_criterion_10_scaling_and_exchange_volumes(variable_k_results, capfd):
    # hard part: every part ships blocks of exactly n_x * kpy * kpz values
    parts = 4
    problem = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0,
                                SchemeKind.SECOND_ORDER, 64)
    log = []

    def factory(n_parts):
        return [CountingTransport(t, log) for t in in_process_mesh(n_parts)]

    config = SolverConfig(mode=Partitioned(parts), transport_factory=factory)
    hf.solve_direct(problem, config)
    plan = make_exchange_plan(problem.grid, parts)
    volumes_ok = True
    seen_forward = set()
    for sender, receiver, shape in log:
        n_z, n_y, n_x = shape
        fwd = (n_x, n_y, n_z) == plan.block_extents(sender, receiver)
        # the inverse redistribution ships the mirror-image block
        inv = (n_x, n_y, n_z) == plan.block_extents(receiver, sender)
        if fwd:
            seen_forward.add((sender, receiver))
        volumes_ok &= fwd or inv
    volumes_ok &= len(seen_forward) == parts * (parts - 1)
    assert volumes_ok

    # soft part: thread speedup, only meaningful with enough cores
    cpus = os.cpu_count() or 1
    if cpus < 4:
        report(10, True, f"exchange volumes exact; speedup check skipped "
                         f"(machine-dependent criterion, {cpus} cores < 4)", capfd)
        pytest.skip(f"scaling speedup needs >= 4 cores, machine has {cpus}")
    problem = helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0,
                                SchemeKind.SECOND_ORDER, 256)
    _, t1 = solve_with_timings(problem, SolverConfig(mode=Sequential()))
    _, t4 = solve_with_timings(problem, SolverConfig(mode=SharedWorkers(4)))
    speedup = t1.total_s / t4.total_s
    ok = report(10, speedup >= 2.5,
                f"exchange volumes exact; 4-worker speedup {speedup:.2f}x >= 2.5x",
                capfd)
    assert ok


def test_criterion_11_convergence_orders(variable_k_results, capfd):
    ok = True
    parts = []
    for label in ("2", "4", "6"):
        fine = variable_k_results[(label, 250)]
        coarse = variable_k_results[(label, 125)]
        order = (math.log(coarse["max_err"] / fine["max_err"])
                 / math.log(coarse["h"] / fine["h"]))
        lo, hi = ORDER_BANDS[label]
        good = lo <= order <= hi
        ok &= good
        parts.append(f"scheme {label}: {order:.3f} in [{lo}, {hi}]")
    report(11, ok, "observed orders 125->250: " + "; ".join(parts), capfd)
    assert ok

"""helmfft benchmark: one workload's closed-loop solves, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. With
`--trace 0` the last line of standard output is the end-to-end result
(set-up time, warm solve median, peak RSS); with `--trace 1` it is the
per-layer result of a separate traced run, and the spans are written to
`perfbench/out/`. The line before the result is a detail record. The
workloads and metrics are described in perfbench/README.md.

`--smoke` runs the same workload at a tiny size; `--inject nan|mismatch`
corrupts the first warm solve, to show that the failure is counted.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

import numpy as np

import checks
import spans
from workloads import RECORDED_MAX_ERR, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Solve times vary from process to process (page placement, thread placement)
# as much as within one, so a run spreads its solves over fresh processes.
PROCESSES = 8           # fresh processes per end-to-end run
MIN_SOLVES = 1          # warm solves per loop, however long they take
RESIDUAL_RTOL = 1e-12   # relative residual a direct solve must reach
MAX_ERR_RTOL = 1e-6     # agreement with RECORDED_MAX_ERR (its 8 printed digits)
PROBE_TIMEOUT_S = 170


def import_program():
    """Import helmfft from this checkout's src/, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import helmfft
    if not os.path.abspath(helmfft.__file__).startswith(src + os.sep):
        raise SystemExit(f"helmfft came from {helmfft.__file__}, not from {src}")
    return helmfft


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_start(workload, seed, n):
    """Inputs, then the timed set-up: import, problem build, first solve."""
    inputs = workload.make_inputs(seed, n)
    t0 = time.perf_counter()
    hf = import_program()
    t1 = time.perf_counter()
    case = workload.build(hf, inputs, n)
    t2 = time.perf_counter()
    rss_before = peak_rss_mib()
    out = _solve(lambda: case.solve(case.config))
    t3 = time.perf_counter()
    return {"hf": hf, "case": case, "u": out, "setup_s": t3 - t0, "build_s": t2 - t1,
            "cold_s": t3 - t2, "rss_before_mib": rss_before}


_reported = []


def _solve(fn):
    """One solve; an exception is a failed solve, reported once, not an abort."""
    try:
        return fn().values
    except Exception:
        if not _reported:
            _reported.append(True)
            traceback.print_exc()
        return None


def output_fingerprint(values):
    """Fingerprint of a finite output, None for a missing or non-finite one."""
    if values is None or not checks.all_finite(values):
        return None
    return checks.fingerprint(values)


def reference_checks(hf, case, u, fingerprint, recorded):
    """Checks of the cold solve's output, whose fingerprint every solve must match."""
    t0 = time.perf_counter()
    result = {"fingerprint": fingerprint, "rel_res": None, "max_err": None}
    ok = fingerprint is not None
    if ok:
        result["rel_res"] = checks.relative_residual(hf, u, case)
        ok = result["rel_res"] <= RESIDUAL_RTOL
        if case.analytic is not None:
            result["max_err"] = checks.max_error(u, case)
            if recorded:
                ok = ok and abs(result["max_err"] / RECORDED_MAX_ERR - 1) <= MAX_ERR_RTOL
    result["ok"] = ok
    result["check_s"] = time.perf_counter() - t0
    return result


def closed_loop(case, config, seconds, ref_fp, inject=None, recorder=None):
    """Solve back to back for about `seconds`; returns (times, outputs passed)."""
    times, passed = [], 0
    poisoned = case.poisoned() if inject == "nan" else None
    t_start = time.perf_counter()
    while len(times) < MIN_SOLVES or (
            time.perf_counter() - t_start + median(times) <= seconds):
        first = not times
        solve = poisoned if poisoned and first else case.solve
        with recorder.solve() if recorder else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = _solve(lambda: solve(config))
            times.append(time.perf_counter() - t0)
        if inject == "mismatch" and first and out is not None:
            out.flat[0] += 1.0
        passed += ref_fp is not None and output_fingerprint(out) == ref_fp
        del out
    return times, passed


def tail(times, beyond=10):
    """Highest percentile with `beyond` samples above it; None if too few solves."""
    n = len(times)
    if n <= beyond:
        return None
    return {"pct": round(100.0 * (n - beyond) / n, 1),
            "s": sorted(times)[n - beyond - 1], "beyond": beyond, "samples": n}


def sequential_reference(hf, case, ref_fp):
    """(seconds, bitwise equal) of a Sequential solve of the same inputs."""
    t0 = time.perf_counter()
    out = _solve(lambda: case.solve(hf.SolverConfig(mode=hf.Sequential())))
    seconds = time.perf_counter() - t0
    return seconds, ref_fp is not None and output_fingerprint(out) == ref_fp


def probe(args, role, seconds=0.0):
    """Run this script in a fresh process in `role`; returns its JSON record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{role} probe exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def getconf(name):
    try:
        return int(subprocess.run(["getconf", name], capture_output=True,
                                  text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.SubprocessError):
        return 0


def commit():
    """The checkout's commit, read from .git if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return None


def machine_record(case):
    llc = getconf("LEVEL3_CACHE_SIZE")
    return {"commit": commit(), "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "llc_bytes": llc,
            "numpy": np.__version__, "scipy": __import__("scipy").__version__,
            "python": sys.version.split()[0],
            "field_bytes": case.field_bytes,
            "field_over_llc": case.field_bytes / llc if llc else None}


def copy_gbps(nbytes):
    """Computed copy bandwidth: each copy reads and writes `nbytes`."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return median(rates)


def result_line(attempted, failed, metrics, units):
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()}})


def units_of(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def session(workload, seed, n, seconds, inject=None, check=False):
    """One process's share of a run: cold start, then a closed loop.

    Warm outputs are compared with this process's cold output. With `check`
    the cold output is checked first; the checks allocate, so the peak RSS
    of a checked session is not reported.
    """
    start = cold_start(workload, seed, n)
    hf, case, u = start.pop("hf"), start.pop("case"), start.pop("u")
    start["fingerprint"] = output_fingerprint(u)
    ref = reference_checks(hf, case, u, start["fingerprint"], n == workload.n) if check else None
    del u
    start["times"], start["passed"] = closed_loop(
        case, case.config, seconds, start["fingerprint"], inject=inject)
    start["peak_rss_mib"] = peak_rss_mib()
    return start, hf, case, ref


def tally(records, ref):
    """(attempted, failed) solves of sessions, each matched against the reference.

    A session's warm solves were matched against its own cold output, so
    they pass only if that cold output matches the checked reference.
    """
    attempted = sum(1 + len(r["times"]) for r in records)
    passed = sum(1 + r["passed"] for r in records
                 if ref["ok"] and r["fingerprint"] == ref["fingerprint"])
    return attempted, attempted - passed


def run_plain(args, workload, n):
    """End-to-end run: sessions in fresh processes, the last one in this one."""
    share = args.seconds / PROCESSES
    records = [probe(args, "session", share) for _ in range(PROCESSES - 1)]
    own, hf, case, ref = session(workload, args.seed, n, share, args.inject, check=True)
    records.append(own)
    if isinstance(case.config.mode, hf.Partitioned):
        ref["ok"] = ref["ok"] and sequential_reference(hf, case, ref["fingerprint"])[1]
    times = [t for r in records for t in r["times"]]
    attempted, failed = tally(records, ref)
    setup = [r["setup_s"] for r in records]
    # the child sessions' peaks: the checks in this process allocate before its loop
    metrics = {"setup_s": median(setup), "solve_s.p50": median(times),
               "peak_rss_mib": median(r["peak_rss_mib"] for r in records[:-1])}
    detail = {"workload": workload.name, "seed": args.seed, "n": n,
              "field_mib": case.field_bytes / 2**20, "setup_s.samples": setup,
              "solve_s.tail": tail(times), "solves": len(times),
              "failed_frac": failed / attempted, "max_err": ref["max_err"],
              "check.rel_res": ref["rel_res"]}
    return attempted, failed, metrics, detail


def write_trace(workload, seed, machine, recorder):
    """Spans as JSON lines, machine record first; parts filled in per thread."""
    part_of = {(s.solve, s.thread): s.part for s in recorder.spans if s.part >= 0}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w") as f:
        f.write(json.dumps({"machine": machine}) + "\n")
        for s in recorder.spans:
            s.part = part_of.get((s.solve, s.thread), s.part)
            f.write(json.dumps(dataclasses.asdict(s)) + "\n")
    return os.path.relpath(path, ROOT)


def run_traced(args, workload, n):
    """Per-layer run: an untraced loop, then a traced loop on the same inputs."""
    # A child's ru_maxrss starts at this process's RSS (it survives exec), so
    # the unchecked session for memory.fields_at_peak starts while this one is small.
    memory = probe(args, "session")
    start, hf, case, ref = session(workload, args.seed, n, args.seconds / 2, check=True)
    plain = list(start["times"])
    recorder = spans.Recorder()
    config = case.config
    if config.transport_factory is not None:
        config = dataclasses.replace(config, transport_factory=spans.traced_factory(
            config.transport_factory, recorder))
    with spans.traced(hf, recorder):
        traced, traced_passed = closed_loop(case, config, args.seconds / 2,
                                            ref["fingerprint"], recorder=recorder)
    start["times"] += traced
    start["passed"] += traced_passed
    seq_s, seq_equal = sequential_reference(hf, case, ref["fingerprint"])
    if isinstance(case.config.mode, hf.Partitioned):
        ref["ok"] = ref["ok"] and seq_equal
    machine = machine_record(case)
    workers, field_mib = case.workers, case.field_bytes / 2**20
    del case, hf
    machine.update(probe(args, "copy"))
    attempted, failed = tally([start, memory], ref)
    trace_path = write_trace(workload.name, args.seed, machine, recorder)

    metrics = spans.layer_metrics(recorder.spans)
    accounted = metrics.pop("trace.accounted")
    p50 = median(plain)
    metrics.update({
        "problems.build_s": start["build_s"],
        "solver.cold_extra_s": start["cold_s"] - p50,
        "solver.seq_ref_s": seq_s,
        "solver.parallel_eff": seq_s / (p50 * workers),
        "memory.fields_at_peak": (memory["peak_rss_mib"] - memory["rss_before_mib"]) / field_mib,
        "check.rel_res": ref["rel_res"],
        "check.s": ref["check_s"],
        "machine.copy_gbps": machine["copy_gbps"],
        "trace.overhead_s": median(traced) - p50,
    })
    detail = {"workload": workload.name, "seed": args.seed, "n": n,
              "machine": machine, "trace": trace_path,
              "trace.accounted": accounted, "solves.untraced": len(plain),
              "solves.traced": len(traced), "failed_frac": failed / attempted,
              "max_err": ref["max_err"]}
    return attempted, failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject", choices=("nan", "mismatch"))
    parser.add_argument("--role", choices=("main", "session", "copy"), default="main")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    n = workload.smoke_n if args.smoke else workload.n

    if args.role == "session":
        print(json.dumps(session(workload, args.seed, n, args.seconds)[0]))
        return 0
    if args.role == "copy":
        nbytes = 2**24 if args.smoke else 4 * (getconf("LEVEL3_CACHE_SIZE") or 2**25)
        print(json.dumps({"copy_gbps": copy_gbps(nbytes), "copy_bytes": nbytes}))
        return 0

    section = "per_layer" if args.trace else "end_to_end"
    units = units_of(section)
    run = run_traced if args.trace else run_plain
    attempted, failed, metrics, detail = run(args, workload, n)
    print(json.dumps(detail))
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

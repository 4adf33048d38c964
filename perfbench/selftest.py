"""Tests of the benchmark itself, at a tiny size; under a minute on 2 cores.

    python3 perfbench/selftest.py

Every workload runs end to end in both modes, sockets included, and must
print every metric BENCHMARK.json names, with its unit. An injected NaN
right-hand side and a forced fingerprint mismatch must each be counted as
one failed solve. Exchange counts must repeat exactly. Without the program
beside it, the benchmark must exit non-zero and print no result. Exits
non-zero if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SOCKETS = "fourth-absorb-159-part2-socket"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace=0, *extra, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if done.returncode == 0 and lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names the workloads run.py knows")
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = result(bench(name, trace))
            units = {m["name"]: m["unit"] for m in spec[section]}
            check(res is not None and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, f"{name} trace={trace}: correct, no failures")
            got = {} if res is None else {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units, f"{name} trace={trace}: every {section} metric with its unit")
        for inject in ("nan", "mismatch"):
            res = result(bench(name, 0, "--inject", inject))
            check(res is not None and res["failed"] == 1 and not res["correct"],
                  f"{name}: injected {inject} counted as one failed solve")

    n = WORKLOADS[SOCKETS].smoke_n
    counts = []
    for _ in range(2):
        res = result(bench(SOCKETS, 1))
        counts.append(None if res is None else (res["metrics"]["transport.messages"]["value"],
                                                res["metrics"]["transport.bytes"]["value"]))
    check(counts[0] == counts[1] == (4, 16 * n**3),
          f"exchange counts repeat exactly: {counts}, expected (4, {16 * n**3})")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = bench(SOCKETS, 0, cwd=bare, run=os.path.join(bare, "perfbench", "run.py"))
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "without the program: non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

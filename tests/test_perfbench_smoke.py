"""The benchmark's contract at its smoke size: a clean run of every workload
is correct with no failed solve, and an injected NaN right-hand side is
counted as exactly one failed solve rather than aborting the run.

Each case runs `perfbench/run.py` as a subprocess from the repository root,
as the benchmark itself is run; about seven seconds per case on two cores.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sixth-vark-125-shared2", "fourth-absorb-159-part2-socket")


def bench(workload, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_is_correct(workload):
    result = bench(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_nan_counts_one_failed_solve(workload):
    result = bench(workload, "--inject", "nan")
    assert result["failed"] == 1 and not result["correct"]

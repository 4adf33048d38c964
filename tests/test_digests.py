"""tools/digests.py, the check that a change leaves every answer bitwise the
same, runs to completion and finds every mode in agreement.

The tool runs as a subprocess from the repository root, as it is run by
hand; about a second at --n 9.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_digests_small_run_finds_modes_bitwise_equal():
    done = subprocess.run([sys.executable, os.path.join("tools", "digests.py"), "--n", "9"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().splitlines()[-1] == "all modes bitwise equal: True"

"""One short benchmark run checks its own outputs against independent references."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_large_order_workload_is_correct():
    # --seconds 0 runs the warm-up sweep alone; run.py imports ./src, so
    # it runs from the root of the checkout
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "large-order", "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
    assert result["attempted"] > 0

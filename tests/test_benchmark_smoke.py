"""One short benchmark run checks its own outputs against independent references."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def assert_workload_correct(workload):
    """One warm-up sweep of a workload, seed 1, passes all its checks."""
    # --seconds 0 runs the warm-up sweep alone; run.py imports ./src, so
    # it runs from the root of the checkout
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
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


def test_large_order_workload_is_correct():
    assert_workload_correct("large-order")


def test_sum_sweep_workload_is_correct():
    assert_workload_correct("sum-sweep")


def test_oscillator_workload_is_correct():
    assert_workload_correct("oscillator")

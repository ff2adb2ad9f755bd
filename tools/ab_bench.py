"""Time a benchmark workload at a git ref and in the working tree, in one process each.

    python3 tools/ab_bench.py REF [--workload W] [--rounds R] [--sweeps K]

The `src` of REF is unpacked into a temporary directory by
`tools/ref_tree.py`.  One worker process per tree puts that tree's `src`
and the working tree's `benchmarks/` first on `sys.path`, under
`OPENBLAS_NUM_THREADS=1`, so both sides run the same workload code with
one BLAS thread.  Each worker builds `workloads.WORKLOADS[W](1)` once
and prints the digests of one sweep at seeds 1 and 42, which also warms
it up.  The driver then asks the workers in turn, ABBA (REF first in the
even rounds, the working tree first in the odd ones), for R rounds; each
reading is the median time of K sweeps in one worker.  It prints the
digests of both sides, the median of each side's readings, and the ratio
working tree / REF of each round as its median, its quartiles and the
number of rounds the working tree won (ratio below 1).  Long-lived
workers, alternated, see the same host noise: a self-comparison, REF
against a working tree at the same commit, shows how far the ratio
strays when nothing changed.  It needs two trees, one unpacked from REF
and the working tree: two workers always run on two paths, since one
path would be one tree measured twice.  Exits 0 when the digests of the
two sides agree, 1 when they differ, and 2 when REF cannot be unpacked
or a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import runpy
import subprocess
import sys
from typing import NamedTuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the ref unpacker shared with the other tools, loaded by its path
unpacked_src = runpy.run_path(os.path.join(ROOT, "tools", "ref_tree.py"))["unpacked_src"]

# One worker: argv holds the tree's src, the benchmarks directory and the
# workload.  It prints the digests at seeds 1 and 42 as one JSON line, then
# for every line K read from stdin the median of K timed sweeps at seed 1.
WORKER = """
import json, os, statistics, sys, time
src, benchmarks, name = sys.argv[1:4]
sys.path[:0] = [src, benchmarks]
import hermite_decay, workloads
if not os.path.abspath(hermite_decay.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"ab_bench: hermite_decay loads from {hermite_decay.__file__}, not from {src}")
digests = {}
for seed in (42, 1):
    workload = workloads.WORKLOADS[name](seed)
    digests[seed] = workload.digest(workload.sweep())
print(json.dumps([digests[1], digests[42]]), flush=True)
for line in sys.stdin:
    times = []
    for _ in range(int(line)):
        start = time.perf_counter()
        workload.sweep()
        times.append(time.perf_counter() - start)
    print(statistics.median(times), flush=True)
"""


class Comparison(NamedTuple):
    """Both sides' digests at seeds 1 and 42 and their readings, one a round, in seconds."""

    digests: tuple
    readings: tuple

    @property
    def ratios(self) -> np.ndarray:
        """The working tree's reading over REF's, round by round."""
        return np.divide(self.readings[1], self.readings[0])

    def lines(self, names) -> list[str]:
        """The report: digests, both medians, the ratio's median and quartiles, the wins."""
        out = [f"digests {name}: seed 1 {d1}, seed 42 {d42}"
               for name, (d1, d42) in zip(names, self.digests)]
        out.append("digests: " + ("equal" if self.digests[0] == self.digests[1] else "DIFFER"))
        out += [f"median sweep {name}: {np.median(side):.6f} s"
                for name, side in zip(names, self.readings)]
        q1, median, q3 = np.percentile(self.ratios, [25, 50, 75])
        wins = int(np.sum(self.ratios < 1.0))
        out.append(f"ratio {names[1]} / {names[0]}: median {median:.3f}, "
                   f"quartiles {q1:.3f}-{q3:.3f}, won {wins} of {self.ratios.size}")
        return out


def _reply(worker) -> str:
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"ab_bench: a worker exited with status {worker.wait()}")
    return line


def compare(srcs, workload: str, rounds: int, sweeps: int) -> Comparison:
    """Readings of the workload with the src of REF and of the working tree, alternated ABBA.

    srcs holds the two `src` directories, REF's first.  Each gets its own
    worker, however the paths are spelled; ValueError where both name one
    directory.
    """
    if len({os.path.realpath(src) for src in srcs}) < 2:
        raise ValueError("ab_bench: a comparison needs two separate trees")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    benchmarks = os.path.join(ROOT, "benchmarks")
    with contextlib.ExitStack() as stack:
        workers = [
            stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", WORKER, src, benchmarks, workload],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            ))
            for src in srcs
        ]
        try:
            digests = tuple(tuple(json.loads(_reply(worker))) for worker in workers)
            readings = ([], [])
            for r in range(rounds):
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    workers[side].stdin.write(f"{sweeps}\n")
                    workers[side].stdin.flush()
                    readings[side].append(float(_reply(workers[side])))
        except BaseException:
            for worker in workers:
                worker.kill()
            raise
    return Comparison(digests, readings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="git ref whose src is compared with the working tree")
    parser.add_argument("--workload", default="sum-sweep",
                        help="a name of benchmarks/workloads.WORKLOADS (default sum-sweep)")
    parser.add_argument("--rounds", type=int, default=12, help="ABBA rounds (default 12)")
    parser.add_argument("--sweeps", type=int, default=10,
                        help="sweeps timed per reading (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.sweeps < 1:
        parser.error("--rounds and --sweeps must be at least 1")
    try:
        with unpacked_src(ROOT, args.ref, "ab-bench-") as tree:
            found = compare([os.path.join(tree, "src"), os.path.join(ROOT, "src")],
                            args.workload, args.rounds, args.sweeps)
    except subprocess.CalledProcessError:
        print(f"ab_bench: cannot check out {args.ref!r}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"workload {args.workload}: {args.rounds} rounds of {args.sweeps} sweeps, ABBA, "
          "OPENBLAS_NUM_THREADS=1")
    for line in found.lines((args.ref, "working tree")):
        print(line)
    return 0 if found.digests[0] == found.digests[1] else 1


if __name__ == "__main__":
    sys.exit(main())

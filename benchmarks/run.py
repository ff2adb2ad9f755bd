"""Benchmark of the hermite-decay package on one workload.

    python3 benchmarks/run.py --workload sum-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The run builds the workload's inputs from --seed, runs one warm-up sweep,
then repeats the sweep for --seconds, checks every distinct output
against references computed apart from the package, and prints one JSON
object as its last line of standard output:

    {"correct": ..., "attempted": <points>, "failed": <points>, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (points_per_s,
sweep_s.p50, setup_s, peak_rss_mb); with --trace 1 the layer functions
are wrapped (see layer_trace.py) and the metrics are the per-layer ones, each
the median over the run's sweeps, plus the traced run's points_per_s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

_STARTED = time.perf_counter()
SRC = os.path.join(os.getcwd(), "src")

# setup_s is the median over this run's process and this many fresh ones,
# each timed from its process start to the end of its warm-up sweep
SETUP_PROBES = 2
# the traced run leaves its spans here
TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Put ./src first on the path; refuse to run without the package source."""
    if not os.path.isfile(os.path.join(SRC, "hermite_decay", "__init__.py")):
        sys.exit(f"benchmark: no package source at {SRC}/hermite_decay; run from the repo root")
    sys.path.insert(0, SRC)
    import hermite_decay

    if not os.path.abspath(hermite_decay.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported hermite_decay from {hermite_decay.__file__}, not {SRC}")


def _seconds_since_process_start() -> float:
    """Wall time since the kernel started this process, interpreter start-up included.

    Linux gives the start in clock ticks since boot (field 22 of
    /proc/self/stat), so the figure carries up to one tick (10 ms) of
    rounding.  Elsewhere it falls back to the time since run.py began.
    """
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError, AttributeError):
        return time.perf_counter() - _STARTED


def _setup_probe_seconds(args) -> float:
    """Set-up time of a fresh process, as that process measured it."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-probe",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"benchmark: setup probe exited with code {done.returncode}")
    return float(done.stdout.split()[-1])


def _write_trace(args, per_sweep, spans) -> str:
    """Per-sweep layer metrics of the run and the spans of its last sweep."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    origin = min((s.start for s in spans), default=0.0)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "per_sweep": per_sweep,
        "last_sweep_spans": [
            {**vars(s), "start": s.start - origin, "end": s.end - origin} for s in spans
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import layer_trace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = layer_trace.Tracer()
        tracer.install()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    outputs = {}  # digest -> [output, number of timed sweeps that gave it]
    warm = workload.sweep()
    outputs[workload.digest(warm)] = [warm, 0]
    setup_s = _seconds_since_process_start()
    if args.setup_probe:
        print(setup_s)
        return 0

    durations = []
    layer_metrics = []
    spans = []
    if tracer:
        tracer.take()
    run_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        out = workload.sweep()
        durations.append(time.perf_counter() - start)
        if tracer:
            spans = tracer.take()
            layer_metrics.append(layer_trace.sweep_metrics(spans, workload.cli_cells))
        outputs.setdefault(workload.digest(out), [out, 0])[1] += 1
        if time.perf_counter() - run_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(durations) * workload.points
    failed = 0
    unexpected = []
    for output, sweeps in outputs.values():
        check = workload.check(output)
        failed += check.failed * sweeps
        unexpected += check.unexpected
    for message in unexpected[:20]:
        print(f"check: {message}", file=sys.stderr)
    if len(outputs) > 1:
        unexpected.append("repeated sweeps gave different outputs")
        print(f"check: {len(outputs)} distinct outputs from identical sweeps", file=sys.stderr)

    points_per_s = attempted / sum(durations)
    setups = [setup_s]
    if tracer:
        metrics = {
            name: {"value": value, "unit": layer_trace.METRICS[name]}
            for name, value in layer_trace.median_metrics(layer_metrics).items()
        }
        metrics["trace.points_per_s"] = {"value": points_per_s, "unit": "1/s"}
        print(f"spans: {_write_trace(args, layer_metrics, spans)}", file=sys.stderr)
    else:
        setups += [_setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "points_per_s": {"value": points_per_s, "unit": "1/s"},
            "sweep_s.p50": {"value": statistics.median(durations), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(
        f"{args.workload} seed={args.seed}: {len(durations)} sweeps of {workload.points} points, "
        f"set-up {' '.join(f'{value:.3f}' for value in setups)} s, {failed} failed points",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Report drift of the README CLI commands and two library calls against another git ref.

    python3 tools/report_drift.py [REF]

Runs the README's `sum`, `sharpness` and `oscillator` commands,
`eval --order 30000` on 20 x in [1, 300], two far-x reports, a failing
`sum` report and two library reports, twice: on the package source of
this checkout's working tree, and on REF
(default HEAD), whose `src` is unpacked into a temporary directory by
`tools/ref_tree.py`.  That writes nothing under `.git`, so a run
that is killed leaves nothing behind in the repository.  The far-x
reports, a `sum` at kappa = 2, beta = 0, y = 1/4 on 12 x in [80, 1000]
and a log-spaced `sharpness` on 12 x in [80, 600], are where the sums
enter at their window and drop their head (decay_sum._sum_internals);
the README's sums stop at x = 60, which never does, so only these two
show the drift of that path.  The failing report, a `sum` on 4 x in
[2000, 3500], holds two rows whose analysis cutoff lies past the largest
order (x = 3000 and 3500), so it shows the drift of the error rows of a
grid, next to two far sums.  The CLI reports run neither `hermite_batch`
nor `hermite_moment_sweep`, so two library reports print them as CSV
with `repr` floats: `batch`, `hermite_batch` on 512 pairs with n <= 20000
and |x| <= 1000 drawn from a fixed seed, and `expand`, the 401
coefficients and quadrature errors of `oscillator.expand` on
e^(-tanh(1) pi x^2) to 400 terms, whose quadrature runs on
`hermite_moment_sweep`.  Each run is
`python3 -m hermite_decay.cli_report` in a fresh interpreter, or for a
library report `python3 -c` on its script, with that tree's `src` first
on the path.  For every report it prints whether the
two outputs are byte-identical, as `cmp` would; where they differ, it
prints the largest absolute and relative change of each column and
summary field, and how many rows moved.  Exits 0 when every report is
byte-identical, 1 when one differs, and 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import runpy
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the ref unpacker shared with the other tools, loaded by its path
unpacked_src = runpy.run_path(os.path.join(ROOT, "tools", "ref_tree.py"))["unpacked_src"]

REPORTS = {
    "sum": "sum --kappa 1 --beta 0.25 --y 0.5 --x-min 1 --x-max 60 --x-count 60",
    "sharpness": "sharpness --x-min 15 --x-max 60 --x-count 40 --x-log --y 0.5 --format json",
    "oscillator": (
        "oscillator --alpha 0.5 --n-terms 400 --x-min 0 --x-max 8 --x-count 80 --t-grid default"
    ),
    "eval": "eval --order 30000 --x-min 1 --x-max 300 --x-count 20",
    "sum-far": "sum --kappa 2 --beta 0 --y 0.25 --x-min 80 --x-max 1000 --x-count 12",
    "sharpness-far": (
        "sharpness --x-min 80 --x-max 600 --x-count 12 --x-log --y 0.5 --format json"
    ),
    "sum-fail": "sum --kappa 1 --beta 0.25 --y 0.5 --x-min 2000 --x-max 3500 --x-count 4",
}

# Library reports: scripts that print one CSV report each, every float by repr
LIBRARY = {
    "batch": """
import numpy as np
from hermite_decay.hermite_core import hermite_batch
rng = np.random.default_rng(20230)
orders = rng.integers(0, 20001, 512)
xs = rng.uniform(-1000.0, 1000.0, 512)
signs, logs = hermite_batch(orders, xs)
print("n,x,sign,log_abs_h")
for row in zip(orders.tolist(), xs.tolist(), signs.tolist(), logs.tolist()):
    print(",".join(map(repr, row)))
""",
    "expand": """
import math
import numpy as np
from hermite_decay.oscillator import expand
a = math.tanh(1.0) * math.pi
result = expand(lambda x: np.exp(-a * x * x), 400)
print("n,coefficient,quad_error")
for n, (c, error) in enumerate(zip(result.coeffs, result.quad_error)):
    print(f"{n},{c!r},{error!r}")
""",
}


def _run(tree: str, argv: list[str]) -> bytes:
    """Standard output of one report, python3 argv, on the package source under tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True)
    if done.returncode not in (0, 2):  # 2: a grid point failed, recorded in its row
        sys.stderr.write(done.stderr.decode())
        print(f"report_drift: `{' '.join(argv)}` exited {done.returncode} in {tree}",
              file=sys.stderr)
        raise SystemExit(2)
    return done.stdout


def _parse(text: str) -> tuple[list[str], list[list], dict]:
    """(columns, rows, summary fields) of a CSV or JSON report."""
    if text.lstrip().startswith("{"):
        report = json.loads(text)
        summary = {f"summary.{k}": v for k, v in report.get("summary", {}).items()}
        return report["columns"], report["rows"], summary
    lines = text.splitlines()
    summary = {}
    for line in lines:
        if line.startswith("# summary."):
            key, _, value = line[2:].partition("=")
            summary[key] = value
    body = [line for line in lines if not line.startswith("#")]
    return body[0].split(","), [row.split(",") for row in body[1:]], summary


def _number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _change(old, new) -> tuple[float, float] | None:
    """(absolute, relative) change of one value, None if it did not move."""
    if old == new:
        return None
    a, b = _number(old), _number(new)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    if a == b:  # the same number, written differently
        return 0.0, 0.0
    return abs(b - a), abs(b - a) / max(abs(a), abs(b))


def _drift(old_text: str, new_text: str) -> list[str]:
    """Lines describing the largest change of each column and summary field."""
    old_cols, old_rows, old_summary = _parse(old_text)
    new_cols, new_rows, new_summary = _parse(new_text)
    if old_cols != new_cols or len(old_rows) != len(new_rows):
        return [f"  layout changed: {len(old_rows)} rows of {old_cols} -> "
                f"{len(new_rows)} rows of {new_cols}"]
    lines = []
    for j, column in enumerate(new_cols):
        changes = [c for c in (_change(o[j], n[j]) for o, n in zip(old_rows, new_rows)) if c]
        if changes:
            lines.append(f"  {column}: {len(changes)} of {len(new_rows)} rows moved, largest "
                         f"absolute {max(c[0] for c in changes):.3g}, "
                         f"relative {max(c[1] for c in changes):.3g}")
    for key in sorted(set(old_summary) | set(new_summary)):
        change = _change(old_summary.get(key), new_summary.get(key))
        if change:
            lines.append(f"  {key}: {old_summary.get(key)} -> {new_summary.get(key)} "
                         f"(absolute {change[0]:.3g}, relative {change[1]:.3g})")
    return lines or ["  only the text outside the columns and summary changed"]


def _compare(tree: str) -> bool:
    """Run every report on the source under tree and on the working tree; whether one moved."""
    moved = False
    runs = {name: ["-m", "hermite_decay.cli_report", *command.split()]
            for name, command in REPORTS.items()}
    runs.update((name, ["-c", script]) for name, script in LIBRARY.items())
    for name, argv in runs.items():
        old, new = _run(tree, argv), _run(ROOT, argv)
        if old == new:
            print(f"{name}: byte-identical ({len(new)} bytes)")
            continue
        moved = True
        print(f"{name}: differs")
        print("\n".join(_drift(old.decode(), new.decode())))
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="git ref to compare against")
    args = parser.parse_args(argv)
    try:
        with unpacked_src(ROOT, args.ref, "report-drift-") as tree:
            return 1 if _compare(tree) else 0
    except subprocess.CalledProcessError:
        print(f"report_drift: cannot check out {args.ref!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Report drift of the README CLI commands against another git ref.

    python3 tools/report_drift.py [REF]

Runs the README's `sum`, `sharpness` and `oscillator` commands,
`eval --order 30000` on 20 x in [1, 300], and two far-x reports, twice:
on the package source of this checkout's working tree, and on REF
(default HEAD), whose `src` is unpacked by `git archive REF src | tar -x`
into a temporary directory.  That writes nothing under `.git`, so a run
that is killed leaves nothing behind in the repository.  The far-x
reports, a `sum` at kappa = 2, beta = 0, y = 1/4 on 12 x in [80, 1000]
and a log-spaced `sharpness` on 12 x in [80, 600], are where the sums
enter at their window and drop their head (decay_sum._sum_internals);
the README's sums stop at x = 60, which never does, so only these two
show the drift of that path.  Each run is
`python3 -m hermite_decay.cli_report` in a fresh interpreter with that
tree's `src` first on the path.  For every report it prints whether the
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
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
}


def _run(tree: str, args: str) -> bytes:
    """Standard output of one report on the package source under tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "hermite_decay.cli_report", *args.split()],
        cwd=tree, env=env, capture_output=True,
    )
    if done.returncode not in (0, 2):  # 2: a grid point failed, recorded in its row
        sys.stderr.write(done.stderr.decode())
        print(f"report_drift: `{args}` exited {done.returncode} in {tree}", file=sys.stderr)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="git ref to compare against")
    args = parser.parse_args(argv)
    moved = False
    with tempfile.TemporaryDirectory(prefix="report-drift-") as tree:
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", args.ref, "src"],
                                   stdout=subprocess.PIPE)
        unpacked = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or unpacked.returncode:
            print(f"report_drift: cannot check out {args.ref!r}", file=sys.stderr)
            return 2
        for name, report in REPORTS.items():
            old, new = _run(tree, report), _run(ROOT, report)
            if old == new:
                print(f"{name}: byte-identical ({len(new)} bytes)")
                continue
            moved = True
            print(f"{name}: differs")
            print("\n".join(_drift(old.decode(), new.decode())))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

"""Remake the stored references for the large-order workload's batch pairs.

    python3 benchmarks/make_refs.py

Run it from the root of a checkout.  It writes
benchmarks/data/batch_pairs.json: (n, x, sign, ln|h_n(x)|) rows, with
h_n(x) from the mpmath recurrence in references.py at REF_DPS digits.
The reference values need nothing from the package under test; it takes
about two minutes on one core.

- "seeded": POOL_SIZE pairs, n uniform on [0, 20000] and x uniform on
  [-SEEDED_ABS_X, SEEDED_ABS_X].  Each run's seed draws its pairs from
  this pool.
- "fixed": FIXED_SIZE pairs over the whole documented domain n <= 20000,
  |x| <= 1000, the same in every run.  (20000, 1000) and (5000, 900)
  come first: hermite_batch misses the 1e-10 contract there by 4.4e-9
  and 1.3e-9 in log.  The first also pins the highest order of every
  batch at 20000.
- "known_misses": [index into "fixed", ln|h| error] for each fixed pair
  that the package's hermite_batch (imported from ./src) misses by more
  than the 1e-10 contract when this script runs.  The benchmark counts
  these as failed points and keeps the run correct only while each stays
  within KNOWN_MISS_LOG_TOL with the sign right; any other miss makes
  the run incorrect.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from references import REF_DPS, HermiteRecurrence

MAX_ORDER = 20000
MAX_ABS_X = 1000.0
SEEDED_ABS_X = 128.0
POOL_SIZE = 1024
FIXED_SIZE = 64
GENERATOR_SEED = 20230
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "batch_pairs.json")
SRC = os.path.join(os.getcwd(), "src")
# |h/h_ref - 1| that hermite_exact documents; a larger error is a miss
HERMITE_REL_TOL = 1e-10


def _pairs(rng: np.random.Generator, count: int, abs_x: float) -> list[tuple[int, float]]:
    orders = rng.integers(0, MAX_ORDER + 1, count)
    xs = rng.uniform(-abs_x, abs_x, count)
    return [(int(n), float(x)) for n, x in zip(orders, xs)]


def _known_misses(rows: list) -> list[list]:
    """[index, ln|h| error] of the rows that hermite_batch misses today."""
    sys.path.insert(0, SRC)
    from hermite_decay.hermite_core import hermite_batch

    signs, logs = hermite_batch(
        np.array([r[0] for r in rows], dtype=np.int64), np.array([r[1] for r in rows])
    )
    misses = []
    for i, (n, x, sign, log) in enumerate(rows):
        error = float(logs[i]) - log
        if int(signs[i]) != sign or (sign != 0 and not abs(np.expm1(error)) <= HERMITE_REL_TOL):
            misses.append([i, error])
    return misses


def _one_row_per_line(payload: dict) -> str:
    """The payload as JSON with each (n, x, sign, log) row on a line of its own."""
    tables = ("seeded", "fixed", "known_misses")
    fields = [
        f"{json.dumps(key)}: {json.dumps(value)}"
        for key, value in payload.items()
        if key not in tables
    ]
    for key in tables:
        rows = ",\n  ".join(json.dumps(row) for row in payload[key])
        fields.append(f"{json.dumps(key)}: [\n  {rows}\n]")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def main() -> int:
    rng = np.random.default_rng(GENERATOR_SEED)
    seeded = _pairs(rng, POOL_SIZE, SEEDED_ABS_X)
    fixed = [(MAX_ORDER, MAX_ABS_X), (5000, 900.0)]
    fixed += _pairs(rng, FIXED_SIZE - len(fixed), MAX_ABS_X)
    recurrence = HermiteRecurrence()

    def rows(pairs):
        return [[n, x, *recurrence.log_value(n, x)] for n, x in pairs]

    fixed_rows = rows(fixed)
    payload = {
        "command": "python3 benchmarks/make_refs.py",
        "dps": REF_DPS,
        "seeded_abs_x": SEEDED_ABS_X,
        "columns": ["n", "x", "sign", "log_magnitude"],
        "seeded": rows(seeded),
        "fixed": fixed_rows,
        "known_misses": _known_misses(fixed_rows),
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as handle:
        handle.write(_one_row_per_line(payload))
    print(OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces each layer function at every name its callers
look up (``decay_sum.hermite_orders``, ``oscillator.basis_values``,
``cli_report.evolve_grid``, ...) with a wrapper that records a span:
name, thread, start, end, parent and a few counts.  Nothing inside the
package is changed, and the untraced run never installs the wrappers.

A span opened on a thread with no open span of its own (a CLI pool
worker) takes as parent the innermost open span of the main thread,
which in this benchmark is the ``cli_report.run`` that fed the pool.
Self time is a span's duration minus the union of its children's
intervals, children on pool threads included, so ``cli_report.run``
keeps only the time no point was being computed: grid set-up, pool
start and hand-off.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from hermite_decay import cli_report, decay_sum, hermite_core, oscillator
import hermite_decay

MODULES = {
    "hermite_core": hermite_core,
    "decay_sum": decay_sum,
    "oscillator": oscillator,
    "cli_report": cli_report,
}
_LOOKUP_SITES = (hermite_decay, *MODULES.values())


def _size(values) -> int:
    return int(np.size(values))


def _exact_name(args, kwargs) -> str:
    tier = "extended" if args[0] > hermite_core.EXTENDED_PRECISION_ORDER else "double"
    return f"hermite_core.hermite_exact.{tier}"


# (module, function, span name or a function of the call's arguments,
#  counts recorded on the span)
LAYERS = (
    ("hermite_core", "hermite_orders", None, lambda a, k: {"orders": a[0] + 1, "x": a[1]}),
    ("hermite_core", "hermite_values", None, lambda a, k: {"cells": (a[0] + 1) * _size(a[1])}),
    ("hermite_core", "hermite_moment_sweep", None, None),
    ("hermite_core", "hermite_exact", _exact_name, None),
    ("hermite_core", "hermite_batch", None, lambda a, k: {"pairs": _size(a[0])}),
    ("decay_sum", "direct_sum", None, None),
    ("decay_sum", "find_nmax", None, None),
    ("decay_sum", "sharpness_certificate", None, None),
    ("oscillator", "basis_values", None, None),
    ("oscillator", "evolve_grid", None, None),
    ("oscillator", "decay_certificate", None, None),
    ("oscillator", "expand", None, None),
    ("cli_report", "run", None, None),
    ("cli_report", "render", None, None),
)

# per-layer metrics reported by the traced run: name -> unit
METRICS = {
    "hermite_core.hermite_orders.s": "s",
    "hermite_core.hermite_orders.orders": "count",
    "hermite_core.hermite_values.s": "s",
    "hermite_core.hermite_values.cells": "count",
    "hermite_core.hermite_moment_sweep.s": "s",
    "hermite_core.hermite_exact.double.s": "s",
    "hermite_core.hermite_exact.extended.s": "s",
    "hermite_core.hermite_exact.extended.calls": "count",
    "hermite_core.hermite_batch.s": "s",
    "hermite_core.hermite_batch.pairs": "count",
    "decay_sum.direct_sum.self_s": "s",
    "decay_sum.direct_sum.calls": "count",
    "decay_sum.direct_sum.passes": "count",
    "decay_sum.direct_sum.useful_ratio": "ratio",
    "decay_sum.find_nmax.s": "s",
    "decay_sum.sharpness_certificate.self_s": "s",
    "oscillator.basis_values.s": "s",
    "oscillator.basis_values.calls": "count",
    "oscillator.basis_values.per_cell": "ratio",
    "oscillator.evolve_grid.self_s": "s",
    "oscillator.decay_certificate.self_s": "s",
    "oscillator.expand.self_s": "s",
    "cli_report.run.self_s": "s",
    "cli_report.render.s": "s",
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    counts: dict | None


class Tracer:
    """Records spans in memory; construct and install on the main thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._local.stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, original, counts_of):
        name_of = name if callable(name) else (lambda a, k: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            # slicing is atomic, so a pool thread never sees a half-popped stack
            parent = stack[-1] if stack else (self._main[-1:] or [None])[0]
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(
                        sid,
                        parent,
                        name_of(args, kwargs),
                        threading.get_ident(),
                        start,
                        end,
                        counts_of(args, kwargs) if counts_of else None,
                    )
                )

        return traced

    def install(self) -> None:
        for module_name, func, name, counts_of in LAYERS:
            original = getattr(MODULES[module_name], func)
            wrapper = self._wrap(name or f"{module_name}.{func}", original, counts_of)
            for site in _LOOKUP_SITES:
                if getattr(site, func, None) is original:
                    setattr(site, func, wrapper)

    def take(self) -> list[Span]:
        """The spans recorded since the last take."""
        spans, self.spans = self.spans, []
        return spans


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    pieces = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total, reach = 0.0, span.start
    for lo, hi in pieces:
        if hi > reach and hi > lo:
            total += hi - max(lo, reach)
            reach = hi
    return total


def sweep_metrics(spans: list[Span], cli_cells: int) -> dict[str, float]:
    """Per-layer metrics of one sweep from its spans."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for s in spans:
        total[s.name] += s.end - s.start
        self_time[s.name] += s.end - s.start - _covered(s, children[s.sid])
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            if key != "x":
                counts[f"{s.name}.{key}"] += value

    # a hermite_orders pass belongs to one truncation of S(x); consecutive
    # passes at the same x are the tail doublings of that truncation, and
    # only the last one's orders are kept
    passes, swept, useful = 0, 0, 0
    for s in spans:
        if s.name not in ("decay_sum.direct_sum", "decay_sum.sharpness_certificate"):
            continue
        orders = sorted(
            (c for c in children[s.sid] if c.name == "hermite_core.hermite_orders"),
            key=lambda c: c.start,
        )
        for i, c in enumerate(orders):
            passes += 1
            swept += c.counts["orders"]
            if i + 1 == len(orders) or orders[i + 1].counts["x"] != c.counts["x"]:
                useful += c.counts["orders"]

    def under_run(s: Span) -> bool:
        while s.parent in by_id:
            s = by_id[s.parent]
            if s.name == "cli_report.run":
                return True
        return False

    builds_in_cli = sum(
        1 for s in spans if s.name == "oscillator.basis_values" and under_run(s)
    )
    return {
        "hermite_core.hermite_orders.s": total["hermite_core.hermite_orders"],
        "hermite_core.hermite_orders.orders": counts["hermite_core.hermite_orders.orders"],
        "hermite_core.hermite_values.s": total["hermite_core.hermite_values"],
        "hermite_core.hermite_values.cells": counts["hermite_core.hermite_values.cells"],
        "hermite_core.hermite_moment_sweep.s": total["hermite_core.hermite_moment_sweep"],
        "hermite_core.hermite_exact.double.s": total["hermite_core.hermite_exact.double"],
        "hermite_core.hermite_exact.extended.s": total["hermite_core.hermite_exact.extended"],
        "hermite_core.hermite_exact.extended.calls": calls["hermite_core.hermite_exact.extended"],
        "hermite_core.hermite_batch.s": total["hermite_core.hermite_batch"],
        "hermite_core.hermite_batch.pairs": counts["hermite_core.hermite_batch.pairs"],
        "decay_sum.direct_sum.self_s": self_time["decay_sum.direct_sum"],
        "decay_sum.direct_sum.calls": calls["decay_sum.direct_sum"],
        "decay_sum.direct_sum.passes": passes,
        "decay_sum.direct_sum.useful_ratio": useful / swept if swept else 0.0,
        "decay_sum.find_nmax.s": total["decay_sum.find_nmax"],
        "decay_sum.sharpness_certificate.self_s": self_time["decay_sum.sharpness_certificate"],
        "oscillator.basis_values.s": total["oscillator.basis_values"],
        "oscillator.basis_values.calls": calls["oscillator.basis_values"],
        "oscillator.basis_values.per_cell": builds_in_cli / cli_cells if cli_cells else 0.0,
        "oscillator.evolve_grid.self_s": self_time["oscillator.evolve_grid"],
        "oscillator.decay_certificate.self_s": self_time["oscillator.decay_certificate"],
        "oscillator.expand.self_s": self_time["oscillator.expand"],
        "cli_report.run.self_s": self_time["cli_report.run"],
        "cli_report.render.s": total["cli_report.render"],
    }


def median_metrics(per_sweep: list[dict[str, float]]) -> dict[str, float]:
    """Median over sweeps of each metric; counts repeat exactly per sweep."""
    return {name: statistics.median(m[name] for m in per_sweep) for name in METRICS}

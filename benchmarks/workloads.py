"""The benchmark's workloads: inputs made from a seed, one sweep, and its checks.

Each workload repeats one fixed sweep, so every sweep of a run does the
same work.  A sweep calls the package only through module attributes
(``cli_report.run``, ``hermite_core.hermite_batch``, ...), so the traced
run sees every call through its wrappers.  ``check`` compares a sweep's
outputs with references.py and runs outside the timed sweeps.  It is the
only place that imports references.py, and with it mpmath, so the set-up
time and the peak memory of a run hold mpmath only where the package
itself loads it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from hermite_decay import cli_report, hermite_core, oscillator
from hermite_decay.cli_report import DEFAULT_T_GRID, GridSpec, SweepConfig

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# |h/h_ref - 1| allowed for a Hermite value: the contract hermite_exact documents.
HERMITE_REL_TOL = 1e-10
# |S/S_ref - 1| allowed for a weighted sum and for a sharpness ratio.
SUM_REL_TOL = 1e-10
# |Phi - Phi_ref| allowed for an evolved value; |Phi| <= 2^(1/4) throughout.
PHI_ABS_TOL = 1e-13
# ln|h| error up to which a listed hermite_batch miss counts as the known
# fault (today's worst is 4.4e-9); a larger one is a new fault.
KNOWN_MISS_LOG_TOL = 1e-7
# |c_n - c_ref| allowed for a quadrature coefficient: QuadratureSpec's default tolerance.
COEFF_ABS_TOL = 1e-10
# Criterion 01 of the acceptance suite: the compensated ratio stays in a
# 10:1 band with |slope| <= 0.05.
SHARPNESS_BAND = 10.0
SHARPNESS_SLOPE = 0.05


@dataclass
class Check:
    """Points of one sweep that missed their reference.

    unexpected lists the misses that are not a fault the workload counts
    on purpose; any entry makes the run incorrect.
    """

    failed: int = 0
    unexpected: list[str] = field(default_factory=list)

    def miss(self, count: int, message: str, expected: bool = False) -> None:
        self.failed += count
        if not expected:
            self.unexpected.append(message)


def _rel_miss(got: float, want: float, tol: float) -> bool:
    return not abs(math.expm1(got - want)) <= tol


def _references():
    """references.py, imported on first use because it loads mpmath."""
    import references

    return references


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class SumSweep:
    """`sum` and `sharpness` sweeps shaped like the README commands.

    x runs to about 150, where direct_sum truncates near n = 2e4, so
    decay_sum and hermite_orders do nearly all the work.
    """

    name = "sum-sweep"
    # mode, kappa, beta, y, x range, count, log spacing, format
    CASES = (
        ("sum", 1.0, 0.25, 0.5, 1.0, 150.0, 12, False, "csv"),
        ("sum", 2.0, 0.0, 0.25, 1.0, 150.0, 12, False, "csv"),
        ("sum", 2.0, 0.0, 1.0, 1.0, 150.0, 12, False, "csv"),
        ("sharpness", 1.0, 0.25, 0.5, 15.0, 60.0, 8, True, "json"),
        ("sharpness", 2.0, 0.25, 0.5, 15.0, 60.0, 8, True, "json"),
    )
    # grid ends move by at most this share, so the work per sweep moves by
    # about 1% between seeds
    JITTER = 0.005
    cli_cells = 0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.configs = []
        for mode, kappa, beta, y, start, stop, count, log, fmt in self.CASES:
            grid = GridSpec(
                start=start * (1.0 + self.JITTER * rng.random()),
                stop=stop * (1.0 - self.JITTER * rng.random()),
                count=count,
                log=log,
            )
            self.configs.append(
                SweepConfig(mode=mode, x_grid=grid, kappa=kappa, beta=beta, y=y, fmt=fmt)
            )
        self.points = sum(c.x_grid.count for c in self.configs)

    def sweep(self):
        out = []
        for config in self.configs:
            report = cli_report.run(config)
            out.append((report, cli_report.render(report)))
        return out

    def digest(self, outputs) -> str:
        return _digest(*(text for _, text in outputs))

    @cached_property
    def _recurrence(self):
        return _references().HermiteRecurrence()

    def _sum_log(self, x: float, config: SweepConfig) -> float:
        if config.kappa == 2.0 and config.beta == 0.0:
            return _references().mehler_sum_log(x, config.y)
        return self._recurrence.weighted_sum_log(x, config.kappa, config.beta, config.y)

    def check(self, outputs) -> Check:
        result = Check()
        for report, _ in outputs:
            config = report.config
            col = {name: i for i, name in enumerate(report.columns)}
            xs = list(config.x_grid.points())
            if len(report.rows) != len(xs):
                result.miss(len(xs), f"{config.mode}: {len(report.rows)} rows for {len(xs)} points")
                continue
            if config.mode == "sum":
                for row, x in zip(report.rows, xs):
                    want = self._sum_log(x, config)
                    if row[col["error"]] or _rel_miss(row[col["log_magnitude"]], want, SUM_REL_TOL):
                        result.miss(1, f"sum kappa={config.kappa} x={x}: {row} against ln S={want}")
                continue
            # sharpness: every ratio against the reference, then criterion 01's
            # band and slope over the sweep, which fail all its points at once
            args = (config.kappa, config.beta, config.y)
            envelope_log = _references().envelope_log
            ref_logs = [self._sum_log(x, config) - envelope_log(x, *args) for x in xs]
            bad = [
                (x, row)
                for row, x, want in zip(report.rows, xs, ref_logs)
                if row[col["error"]]
                or not row[col["ratio"]] > 0.0
                or _rel_miss(math.log(row[col["ratio"]]), want, SUM_REL_TOL)
                or not 0.0 < row[col["restricted_fraction"]] <= 1.0 + 1e-12
            ]
            summary = report.summary
            ref_slope = float(np.polyfit(np.log(xs), ref_logs, 1)[0])
            if (
                summary["ratio_max"] > SHARPNESS_BAND * summary["ratio_min"]
                or abs(summary["slope"]) > SHARPNESS_SLOPE
                or abs(summary["slope"] - ref_slope) > 1e-6
            ):
                result.miss(len(xs), f"sharpness kappa={config.kappa}: summary {summary}, "
                            f"reference slope {ref_slope}")
            elif bad:
                result.miss(len(bad), f"sharpness kappa={config.kappa}: {bad} against {ref_logs}")
        return result


class OscillatorSweep:
    """The README `oscillator` mode on fewer x points, plus `expand` and
    `decay_certificate` of the same Gaussian.

    The basis rebuild and the evolution products do the work; the CLI
    mode rebuilds the basis for every (x, t) cell.
    """

    name = "oscillator"
    ALPHA = 0.5
    N_TERMS = 400
    CLI_X_COUNT = 3
    CERT_X_MAX = 3.0
    CERT_X_COUNT = 16
    CERT_T_COUNT = 16

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        grid = GridSpec(
            start=0.05 * rng.random(), stop=8.0 - 0.05 * rng.random(), count=self.CLI_X_COUNT
        )
        self.config = SweepConfig(
            mode="oscillator",
            x_grid=grid,
            alpha=self.ALPHA,
            n_terms=self.N_TERMS,
            t_grid=DEFAULT_T_GRID,
        )
        self.cli_cells = grid.count * len(DEFAULT_T_GRID)
        self.cert_x = np.sort(rng.uniform(0.0, self.CERT_X_MAX, self.CERT_X_COUNT))
        self.cert_t = np.sort(rng.uniform(0.0, 0.5, self.CERT_T_COUNT))
        self.points = self.cli_cells + self.cert_x.size * self.cert_t.size
        # e^(-a pi x^2) with a = tanh(2 alpha) has the exact expansion
        # gaussian_coefficients(alpha, .) and evolves by Mehler's formula
        self.gauss_a = math.tanh(2.0 * self.ALPHA)
        self.coeffs = oscillator.gaussian_coefficients(self.ALPHA, self.N_TERMS)

    def _gaussian(self, x):
        return np.exp(-self.gauss_a * math.pi * np.asarray(x) ** 2)

    def sweep(self):
        report = cli_report.run(self.config)
        text = cli_report.render(report)
        expanded = oscillator.expand(self._gaussian, self.N_TERMS)
        cert = oscillator.decay_certificate(self.coeffs, self.ALPHA, self.cert_x, self.cert_t)
        return report, text, expanded, cert

    def digest(self, outputs) -> str:
        _, text, expanded, cert = outputs
        return _digest(text, expanded.coeffs, expanded.quad_error, cert)

    def check(self, outputs) -> Check:
        report, _, expanded, cert = outputs
        references = _references()
        result = Check()
        col = {name: i for i, name in enumerate(report.columns)}
        if len(report.rows) != self.cli_cells:
            result.miss(self.cli_cells, f"oscillator: {len(report.rows)} rows for {self.cli_cells} cells")
        else:
            for row in report.rows:
                want = references.evolved_gaussian(self.ALPHA, row[col["x"]], row[col["t"]])
                if (
                    row[col["error"]]
                    or not abs(row[col["phi_re"]] - want.real) <= PHI_ABS_TOL
                    or not abs(row[col["phi_im"]] - want.imag) <= PHI_ABS_TOL
                ):
                    result.miss(1, f"oscillator cell {row} against {want}")

        worst = max(
            abs(c - references.gaussian_coefficient(self.gauss_a, n))
            for n, c in enumerate(expanded.coeffs)
        )
        if not worst <= COEFF_ABS_TOL:
            result.unexpected.append(f"expand: coefficient off by {worst}")

        rate = math.tanh(self.ALPHA) * math.pi
        log_sup = max(
            math.log(abs(references.evolved_gaussian(self.ALPHA, x, t))) + rate * x * x
            for x in self.cert_x
            for t in self.cert_t
        )
        cells = self.cert_x.size * self.cert_t.size
        if (
            _rel_miss(math.log(cert.sup_weighted), log_sup, 1e-9)
            or cert.majorant_slack_min < -1e-9
            or cert.triangle_slack_min < -1e-9
        ):
            result.miss(cells, f"decay_certificate {cert} against sup {math.exp(log_sup)}")
        return result


class LargeOrderSweep:
    """CLI `eval` just above the mpmath hand-off order, plus `hermite_batch`
    on (n, x) pairs over n <= 20000, |x| <= 1000.

    The evaluation engines do all the work.  The fixed pairs include large
    |x|, where hermite_batch misses the 1e-10 contract: its rescaling
    ledger is summed without compensation.  The fixed pairs it missed when
    the references were made are listed in the data file; each counts as
    a failed point on purpose while it stays within KNOWN_MISS_LOG_TOL
    with the sign right.  Any other miss makes the run incorrect.  The
    seeded pairs come from |x| <= 128, where hermite_batch holds the
    contract with a wide margin, so the failed share is the same for
    every seed.

    The eval points run on one pool thread (``--jobs 1``).  Both are
    pure-Python mpmath loops bound by the GIL, so a second thread only adds
    lock hand-offs: on two cores it made the eval about 15% slower, and the
    slowdown grew when the machine was busy.
    """

    name = "large-order"
    EVAL_COUNT = 2
    SEEDED_PAIRS = 192

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        order = hermite_core.EXTENDED_PRECISION_ORDER + 1 + int(rng.integers(0, 32))
        grid = GridSpec(
            start=float(rng.uniform(1.0, 50.0)),
            stop=float(rng.uniform(500.0, 1000.0)),
            count=self.EVAL_COUNT,
        )
        self.config = SweepConfig(mode="eval", x_grid=grid, order=order, jobs=1)
        with open(os.path.join(DATA_DIR, "batch_pairs.json")) as handle:
            data = json.load(handle)
        pool = data["seeded"]
        picked = [pool[i] for i in sorted(rng.choice(len(pool), self.SEEDED_PAIRS, replace=False))]
        self.known_misses = {i for i, _ in data["known_misses"]}
        rows = data["fixed"] + picked
        self.orders = np.array([r[0] for r in rows], dtype=np.int64)
        self.xs = np.array([r[1] for r in rows], dtype=float)
        self.ref_signs = [r[2] for r in rows]
        self.ref_logs = [r[3] for r in rows]
        self.points = self.EVAL_COUNT + len(rows)
        self.cli_cells = 0

    def sweep(self):
        report = cli_report.run(self.config)
        text = cli_report.render(report)
        signs, logs = hermite_core.hermite_batch(self.orders, self.xs)
        return report, text, signs, logs

    def digest(self, outputs) -> str:
        _, text, signs, logs = outputs
        return _digest(text, signs.tobytes(), logs.tobytes())

    @staticmethod
    def _value_miss(sign: int, log: float, ref_sign: int, ref_log: float) -> bool:
        if sign != ref_sign:
            return True
        return ref_sign != 0 and _rel_miss(log, ref_log, HERMITE_REL_TOL)

    def check(self, outputs) -> Check:
        report, _, signs, logs = outputs
        recurrence = _references().HermiteRecurrence()
        result = Check()
        col = {name: i for i, name in enumerate(report.columns)}
        if len(report.rows) != self.EVAL_COUNT:
            result.miss(self.EVAL_COUNT, f"eval: {len(report.rows)} rows for {self.EVAL_COUNT} points")
        else:
            for row in report.rows:
                ref = recurrence.log_value(self.config.order, row[col["x"]])
                if row[col["error"]] or self._value_miss(
                    row[col["sign"]], row[col["log_magnitude"]], *ref
                ):
                    result.miss(1, f"eval n={self.config.order}: {row} against {ref}")
        for i in range(self.orders.size):
            sign, log = int(signs[i]), float(logs[i])
            if self._value_miss(sign, log, self.ref_signs[i], self.ref_logs[i]):
                known = (
                    i in self.known_misses
                    and sign == self.ref_signs[i]
                    and abs(log - self.ref_logs[i]) <= KNOWN_MISS_LOG_TOL
                )
                result.miss(
                    1,
                    f"hermite_batch n={self.orders[i]} x={self.xs[i]}: "
                    f"{log} against {self.ref_logs[i]}",
                    expected=known,
                )
        return result


WORKLOADS = {w.name: w for w in (SumSweep, OscillatorSweep, LargeOrderSweep)}

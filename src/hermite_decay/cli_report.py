"""Command-line sweeps, calibration fixtures, and CSV/JSON reports.

Each mode is declared once, in MODES: its help text, the SweepConfig
fields it reads, its row builder, and, for a mode that calibrate can
freeze, the frozen columns with their tolerances.  _PARAMETERS gives
each such field its flag type, default and validator, one of those of
hermite_core (_whole_number, _real, _positive, _array).  The parser,
calibrate's sub-parsers and the config checks all read these two tables.

Reports are deterministic given (config, library version): rows are
ordered by grid index, floats are emitted at 17 significant digits, and
nothing time- or host-dependent is written.  Values far below double
range stay readable through the separate log-magnitude columns.

Exit codes: 0 success, 1 config or usage error, 2 numeric failure in at
least one grid point, 3 fixture mismatch.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .decay_sum import (
    SumParams,
    _sums,
    envelope,
    envelope_power,
    find_nmax,
    sharpness_certificate,
)
from .hermite_core import _array, _positive, _real, _signed_exp, _whole_number, hermite_exact
from .oscillator import evolve_grid, gaussian_coefficients, vemuri_decay_check

DEFAULT_T_GRID = tuple(sorted({k / 64 for k in range(64)} | {(2 * k + 1) / 16 for k in range(8)}))

# numeric failures that belong in a row's error column rather than a traceback
_POINT_ERRORS = (ValueError, RuntimeError, OverflowError, ZeroDivisionError)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: count points from start to stop, linear or log.

    start < stop are finite numbers, kept as given, and count a whole
    number >= 2, kept as an int; ValueError naming the field otherwise
    (hermite_core._real, _whole_number).  A log grid needs start > 0.
    """

    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self):
        _real(self.start, "x_grid.start")
        _real(self.stop, "x_grid.stop")
        object.__setattr__(self, "count", _whole_number(self.count, "x_grid.count", 2))
        if not self.start < self.stop:
            raise ValueError("x_grid.start must be below x_grid.stop")
        if self.log and self.start <= 0.0:
            raise ValueError("x_grid.start must be positive for log spacing")

    def points(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: mode, parameters, grids, and output disposition.

    The mode's parameters (MODES[mode].parameters) are required, each
    checked by its validator in _PARAMETERS, and the others must stay
    unset: fixture_id hashes every field.  jobs, where set, is a whole
    number >= 1.  Each value is kept as given, but order, n_terms and
    jobs keep the int that _whole_number returns, so that order=3.0 and
    order=3 key one sweep.
    """

    mode: str
    x_grid: GridSpec
    kappa: float | None = None
    beta: float | None = None
    y: float | None = None
    alpha: float | None = None
    n_terms: int | None = None
    order: int | None = None
    t_grid: tuple[float, ...] = ()
    out: str | None = None
    fmt: str = "csv"
    fixture: str | None = None
    # accepted for scripts that pass --jobs; every mode runs in one thread
    jobs: int | None = None
    force: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {'|'.join(MODES)}, got {self.mode!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.jobs is not None:
            object.__setattr__(self, "jobs", _whole_number(self.jobs, "jobs", 1))
        for name, (kind, _, check) in _PARAMETERS.items():
            value = getattr(self, name)
            unset = value is None or (isinstance(value, tuple) and not value)
            if name in MODES[self.mode].parameters:
                if unset:
                    raise ValueError(f"{name} is required for mode {self.mode}")
                checked = check(value, name)
                if kind is int:
                    # the int _whole_number returns, so that 3.0 and 3 key one sweep
                    object.__setattr__(self, name, checked)
            elif not unset:
                # fixture_id hashes every field, so a value here would key
                # the sweep by a parameter that it never reads
                raise ValueError(f"mode {self.mode} does not read {name}")

    def sum_params(self) -> SumParams:
        return SumParams(kappa=self.kappa, beta=self.beta, y=self.y)

    def _echo(self) -> dict:
        """Every field by name, equal to dataclasses.asdict(self).

        asdict would deep-copy t_grid float by float; the fields are
        immutable, so only the GridSpec needs converting.
        """
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        echo["x_grid"] = asdict(self.x_grid)
        return echo

    def content_dict(self) -> dict:
        """Config echo without output disposition (out/fmt/fixture/jobs/force)."""
        return {
            k: v
            for k, v in self._echo().items()
            if k not in ("out", "fmt", "fixture", "jobs", "force")
        }

    def fixture_id(self) -> str:
        blob = json.dumps(self.content_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SweepReport:
    """Computed sweep: config echo, version, columns, and index-ordered rows."""

    config: SweepConfig
    version: str
    fixture_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: dict = field(default_factory=dict)

    @property
    def error_rows(self) -> list[int]:
        err = self.columns.index("error")
        return [i for i, row in enumerate(self.rows) if row[err]]


def _eval_point(config: SweepConfig, x: float) -> tuple:
    value = hermite_exact(config.order, x)
    return value.sign, value.logmag, value.to_float()


def _envelope_point(config: SweepConfig, x: float) -> tuple:
    value = envelope(x, config.sum_params())
    return value.to_float(), value.logmag, envelope_power(config.sum_params())


def _nmax_point(config: SweepConfig, x: float) -> tuple:
    y = config.y
    profile = find_nmax(x, y)
    asymptote_dev = profile.n_max - x * x / (2.0 * math.cosh(y) ** 2)
    peak_dev = profile.a_max + 0.5 * x * x * math.tanh(y)
    return (profile.n_max, profile.a_max, profile.lam, profile.truncation_n,
            asymptote_dev, peak_dev)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pointwise(columns: tuple[str, ...], point, failed):
    """Row builder that computes point(config, x) at each grid point.

    columns are those between x and error; failed(config) gives the
    cells of a point whose computation raised.
    """

    def rows(config: SweepConfig) -> tuple[tuple[str, ...], list[tuple], dict]:
        def one(x: float) -> tuple:
            try:
                return (x, *point(config, float(x)), "")
            except _POINT_ERRORS as exc:
                return (x, *failed(config), _error_text(exc))

        return ("x", *columns, "error"), [one(x) for x in config.x_grid.points()], {}

    return rows


def _sum_rows(config: SweepConfig) -> tuple[tuple[str, ...], list[tuple], dict]:
    # one grid of sums, so that their scans below the turning point share passes
    xs = config.x_grid.points()
    rows = []
    for x, total in zip(xs, _sums([float(x) for x in xs], config.sum_params())):
        if isinstance(total, _POINT_ERRORS):
            rows.append((x, math.nan, math.nan, _error_text(total)))
        elif isinstance(total, Exception):
            raise total
        else:
            rows.append((x, _signed_exp(1, total.log_s), total.log_s, ""))
    return ("x", "value", "log_magnitude", "error"), rows, {}


def _sharpness_rows(config: SweepConfig) -> tuple[tuple[str, ...], list[tuple], dict]:
    cert = sharpness_certificate(config.x_grid.points(), config.sum_params())
    rows = [
        (x, r, f, "")
        for x, r, f in zip(cert.x_grid, cert.ratios, cert.restricted_fractions)
    ]
    summary = {
        "slope": cert.slope,
        "ratio_min": cert.ratio_min,
        "ratio_max": cert.ratio_max,
        "restricted_ratio_min": cert.restricted_ratio_min,
    }
    return ("x", "ratio", "restricted_fraction", "error"), rows, summary


def _oscillator_rows(config: SweepConfig) -> tuple[tuple[str, ...], list[tuple], dict]:
    # one evolution table over (t grid x x grid), emitted x-outer, t-inner
    coeffs = gaussian_coefficients(config.alpha, config.n_terms)
    c_bound = vemuri_decay_check(coeffs, config.alpha)
    rate = math.tanh(config.alpha) * math.pi
    xs = config.x_grid.points()
    columns = ("x", "t", "phi_re", "phi_im", "phi_abs", "weighted",
               "weighted_log", "tail_radius", "error")
    summary = {"decay_constant": c_bound, "weight_rate": rate}
    try:
        values, tail = evolve_grid(coeffs, xs, config.t_grid, envelope=(config.alpha, c_bound))
    except _POINT_ERRORS as exc:
        failed = (math.nan,) * 6 + (_error_text(exc),)
        return columns, [(x, t, *failed) for x in xs for t in config.t_grid], summary
    with np.errstate(divide="ignore"):
        log_weighted = np.log(np.abs(values)) + rate * xs * xs
    rows = [
        (x, t, z.real, z.imag, abs(z), _signed_exp(1, lw), lw, tail, "")
        for x, phis, logs in zip(xs, values.T.tolist(), log_weighted.T.tolist())
        for t, z, lw in zip(config.t_grid, phis, logs)
    ]
    return columns, rows, summary


@dataclass(frozen=True)
class Mode:
    """One CLI mode: parameters are the SweepConfig fields it reads and
    offers as flags, all required; frozen maps the columns calibrate
    freezes to (absolute, relative) tolerances, empty if it cannot."""

    help: str
    parameters: tuple[str, ...]
    rows: Callable[[SweepConfig], tuple[tuple[str, ...], list[tuple], dict]]
    frozen: dict[str, tuple[float, float]] = field(default_factory=dict)


_SUM_PARAMETERS = ("kappa", "beta", "y")

MODES = {
    "eval": Mode(
        "h_n(x) along an x grid", ("order",),
        _pointwise(("sign", "log_magnitude", "value"), _eval_point,
                   lambda config: (0, math.nan, math.nan)),
    ),
    "sum": Mode(
        "weighted sum S(x) along an x grid", _SUM_PARAMETERS,
        _sum_rows,
    ),
    "envelope": Mode(
        "closed-form envelope along an x grid", _SUM_PARAMETERS,
        _pointwise(("value", "log_magnitude", "x_power"), _envelope_point,
                   lambda config: (math.nan, math.nan, envelope_power(config.sum_params()))),
    ),
    "nmax": Mode(
        "argument-function maximizer diagnostics", ("y",),
        _pointwise(("n_max", "a_max", "lambda", "truncation_n", "asymptote_dev", "peak_dev"),
                   _nmax_point,
                   lambda config: (math.nan, math.nan, math.nan, 0, math.nan, math.nan)),
        frozen={"n_max": (1e-6, 0.0), "a_max": (0.0, 1e-9), "lambda": (0.0, 1e-9)},
    ),
    # the slope and the evolution table couple all grid points, so these
    # modes are computed jointly
    "sharpness": Mode(
        "sum-to-envelope ratio certificate", _SUM_PARAMETERS, _sharpness_rows,
        frozen={"ratio": (0.0, 1e-9), "restricted_fraction": (1e-12, 1e-9)},
    ),
    "oscillator": Mode(
        "evolved Gaussian decay sweep", ("alpha", "n_terms", "t_grid"), _oscillator_rows,
    ),
}


def _parse_t_grid(text: str) -> tuple[float, ...]:
    if text == "default":
        return DEFAULT_T_GRID
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad t-grid {text!r}: comma-separated floats")


# flag type, default, and validator(value, name) of each mode parameter;
# kappa, beta and y follow SumParams
_PARAMETERS = {
    "order": (int, 0, _whole_number),
    "kappa": (float, 1.0, _positive),
    "beta": (float, 0.25, _real),
    "y": (float, 0.5, _positive),
    "alpha": (float, 0.5, _positive),
    "n_terms": (int, 400, partial(_whole_number, least=1)),
    "t_grid": (_parse_t_grid, DEFAULT_T_GRID, partial(_array, nonempty=True)),
}


def run(config: SweepConfig) -> SweepReport:
    """Execute the sweep; per-point numeric failures land in row error columns."""
    columns, rows, summary = MODES[config.mode].rows(config)
    return SweepReport(
        config=config,
        version=__version__,
        fixture_id=config.fixture_id(),
        columns=columns,
        rows=tuple(tuple(row) for row in rows),
        summary=summary,
    )


# the cell types a CSV row template takes; bool, int and np.integer are
# written as integers, by _format_cell
_FLOATS = frozenset((float, np.float64))


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".16e")


def _json_safe(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v):
            return v
        return _format_cell(v)
    return value


def to_csv(report: SweepReport) -> str:
    """Comment preamble (config echo), then an RFC-4180-style table.

    Rows are written through one template per report, "%.16e," for each
    column but the last and then "\\r\\n".  A row takes it when it has a
    cell for every column, its last cell (error, in every mode) is empty
    and the others are floats (float or np.float64; not bool, int or
    np.integer).  "%.16e" % v is _format_cell(v) for every float: it is
    format(v, ".16e") for a finite one, and "nan", "inf" or "-inf"
    otherwise.  Such fields need no quoting, so the text is the same as
    on the path every other row takes: _format_cell on each cell, then
    the csv writer, which quotes where needed.
    """
    buffer = io.StringIO()
    preamble = {
        "version": report.version,
        "fixture_id": report.fixture_id,
        "config": json.dumps(report.config._echo(), sort_keys=True),
    }
    preamble.update({f"summary.{k}": _format_cell(v) for k, v in sorted(report.summary.items())})
    for key, value in preamble.items():
        buffer.write(f"# {key}={value}\r\n")
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(report.columns)
    width = len(report.columns)
    template = "%.16e," * (width - 1) + "\r\n"
    for row in report.rows:
        # a lone empty field is written quoted, so a row needs two cells
        cells = tuple(row[:-1])
        if len(row) == width > 1 and row[-1] == "" and _FLOATS.issuperset(map(type, cells)):
            buffer.write(template % cells)
        else:
            writer.writerow([_format_cell(v) for v in row])
    return buffer.getvalue()


def to_json(report: SweepReport) -> str:
    payload = {
        "config": report.config._echo(),
        "version": report.version,
        "fixture_id": report.fixture_id,
        "columns": list(report.columns),
        "summary": {k: _json_safe(v) for k, v in report.summary.items()},
        "rows": [[_json_safe(v) for v in row] for row in report.rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render(report: SweepReport) -> str:
    return to_csv(report) if report.config.fmt == "csv" else to_json(report)


def fixture_dir() -> str:
    return os.environ.get("HERMITE_DECAY_FIXTURE_DIR", "fixtures")


def fixture_path(name: str) -> str:
    if os.path.sep in name or name.endswith(".json"):
        return name
    return os.path.join(fixture_dir(), name + ".json")


_FIXTURE_SUMMARY_TOL = {"slope": 1e-6}


def calibrate(config: SweepConfig) -> str:
    """Freeze a sweep of a mode with frozen columns into a fixture; returns its path."""
    tracked = MODES[config.mode].frozen
    if not tracked:
        frozen = "|".join(name for name, mode in MODES.items() if mode.frozen)
        raise ValueError(f"mode must be one of {frozen} to calibrate")
    report = run(config)
    if report.error_rows:
        raise RuntimeError(f"cannot calibrate: {len(report.error_rows)} grid points failed")
    data = {
        name: [_json_safe(row[report.columns.index(name)]) for row in report.rows]
        for name in tracked
    }
    payload = {
        "fixture_id": report.fixture_id,
        "mode": config.mode,
        "version": report.version,
        "config": config.content_dict(),
        "x": [float(v) for v in config.x_grid.points()],
        "tolerances": {k: list(v) for k, v in tracked.items()},
        "summary": {k: _json_safe(v) for k, v in report.summary.items()},
        "summary_tolerances": _FIXTURE_SUMMARY_TOL,
        "data": data,
    }
    path = config.out if config.out else fixture_path(f"{config.mode}-{report.fixture_id}")
    if os.path.exists(path) and not config.force:
        raise FileExistsError(f"fixture exists at {path}; pass --force to overwrite")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def compare_to_fixture(report: SweepReport, fixture: dict) -> list[str]:
    """Value-level comparison; returns human-readable mismatch descriptions.

    A tolerance for a column the report lacks, or for one the fixture
    holds no data of, one value per row, is a mismatch too.
    """
    problems: list[str] = []
    if fixture.get("mode") != report.config.mode:
        return [f"fixture mode {fixture.get('mode')!r} != run mode {report.config.mode!r}"]
    xs = [row[report.columns.index("x")] for row in report.rows]
    want_x = fixture.get("x", [])
    if len(xs) != len(want_x) or any(
        abs(a - b) > 1e-12 * max(1.0, abs(b)) for a, b in zip(xs, want_x)
    ):
        return ["x grid differs from fixture"]
    data = fixture.get("data", {})
    for name, (abs_tol, rel_tol) in fixture.get("tolerances", {}).items():
        if name not in report.columns:
            problems.append(f"fixture column {name!r} is not a column of mode {fixture['mode']}")
            continue
        if len(data.get(name, ())) != len(xs):
            problems.append(f"fixture data for {name!r} does not hold one value per row")
            continue
        column = report.columns.index(name)
        for i, want in enumerate(data[name]):
            got = report.rows[i][column]
            limit = abs_tol + rel_tol * abs(want)
            if not abs(got - want) <= limit:
                problems.append(
                    f"{name}[{i}] at x={xs[i]:.6g}: got {got!r}, fixture {want!r}, "
                    f"tolerance {limit:.3e}"
                )
    for name, tol in fixture.get("summary_tolerances", {}).items():
        if name in fixture.get("summary", {}):
            got = report.summary.get(name)
            want = fixture["summary"][name]
            if got is None or not abs(got - want) <= tol:
                problems.append(f"summary {name}: got {got!r}, fixture {want!r}")
    return problems


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error: exit 2 means numeric failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _add_mode_flags(parser: argparse.ArgumentParser, mode: Mode, calibrate: bool = False):
    """Flags of one mode, each only where it acts: a sweep writes csv or
    json and may compare against a fixture; calibrate writes a fixture,
    always JSON, and may overwrite one."""
    for name in mode.parameters:
        kind, default, _ = _PARAMETERS[name]
        parser.add_argument("--" + name.replace("_", "-"), type=kind, default=default)
    parser.add_argument("--x-min", type=float, required=True)
    parser.add_argument("--x-max", type=float, required=True)
    parser.add_argument("--x-count", type=int, default=50)
    parser.add_argument("--x-log", action="store_true")
    parser.add_argument("--out", type=str, default=None)
    if calibrate:
        parser.add_argument("--force", action="store_true")
        parser.set_defaults(fmt="csv", fixture=None)
    else:
        parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        parser.add_argument("--fixture", type=str, default=None)
        parser.set_defaults(force=False)
    parser.add_argument("--jobs", type=int, default=None,
                        help="accepted for compatibility; every mode runs in one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hermite-decay",
        description="Sweep reports for Hermite-function decay certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, mode in MODES.items():
        _add_mode_flags(sub.add_parser(name, help=mode.help), mode)
    frozen = sub.add_parser("calibrate", help="freeze a sweep into a fixture")
    frozen_modes = frozen.add_subparsers(dest="mode", required=True)
    for name, mode in MODES.items():
        if mode.frozen:
            _add_mode_flags(frozen_modes.add_parser(name, help=mode.help), mode, calibrate=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    mode = args.mode if args.command == "calibrate" else args.command
    return SweepConfig(
        mode=mode,
        x_grid=GridSpec(start=args.x_min, stop=args.x_max, count=args.x_count, log=args.x_log),
        out=args.out, fmt=args.fmt, fixture=args.fixture, jobs=args.jobs, force=args.force,
        **{f: getattr(args, f) for f in MODES[mode].parameters},
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config_from_args(args)
        if args.command == "calibrate":
            print(calibrate(config))
            return 0
        # joint modes (sharpness) validate the whole grid up front
        report = run(config)
    except (*_POINT_ERRORS, FileExistsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    text = render(report)
    if config.out:
        directory = os.path.dirname(config.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(config.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    if config.fixture:
        path = fixture_path(config.fixture)
        try:
            with open(path) as handle:
                fixture = json.load(handle)
            if not isinstance(fixture, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            print(f"config error: cannot read fixture {path}: {exc}", file=sys.stderr)
            return 1
        problems = compare_to_fixture(report, fixture)
        if problems:
            for problem in problems:
                print(f"fixture mismatch: {problem}", file=sys.stderr)
            return 3

    if report.error_rows:
        print(f"numeric failure in {len(report.error_rows)} grid point(s)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

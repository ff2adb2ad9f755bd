"""One argument contract per parameter kind, checked on every public entry.

Each public callable and config dataclass of hermite_core, decay_sum,
oscillator and cli_report is called once with valid arguments, and then
once for each bad value of each of its numeric parameters: every such
call raises ValueError naming that parameter.  The kinds are those of
the validators in hermite_core (_whole_number, _real, _positive, _point,
_array); a parameter that takes no number (a flag, a string, a function
or an object of the package) is listed with the reason in NOT_NUMERIC.
"""

import inspect
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hermite_decay import cli_report, decay_sum, hermite_core, oscillator
from hermite_decay.cli_report import GridSpec, SweepConfig
from hermite_decay.decay_sum import SumParams
from hermite_decay.hermite_core import (
    SignedLog,
    _array,
    _point,
    _positive,
    _real,
    _whole_number,
)
from hermite_decay.oscillator import HermiteCoefficients, QuadratureSpec

MODULES = (hermite_core, decay_sum, oscillator, cli_report)
X_MAX = 2.0**511

NAN, INF = math.nan, math.inf

# A list with a bool among numbers, which np.asarray would take as 0 or 1,
# and a ragged list, on which np.asarray raises an error of its own
BOOL_IN_LIST, RAGGED = [1.0, True], [[1.0], [2.0, 3.0]]

# The bad values of each kind of parameter
BAD = {
    "whole": (True, np.True_, 2.5, NAN, INF, -INF, -1, "3", None),
    "whole>=1": (True, np.True_, 2.5, NAN, INF, -INF, 0, -1, "3"),
    "whole>=2": (True, 2.5, NAN, INF, 1, -1, "3"),
    "whole>=16": (True, 16.5, NAN, INF, 15, "16"),
    "real": (True, np.True_, NAN, INF, -INF, "1.0", None),
    "positive": (True, np.True_, NAN, INF, -INF, 0, 0.0, -0.0, -1, "1.0"),
    "point": (True, np.True_, NAN, INF, -INF, 2.0**512, -(2.0**512), "1.0", None),
    # theta_sum takes +inf, its limit 1
    "scale": (True, NAN, -INF, 0, -1, "1.0"),
    "sign": (True, np.True_, 2, -2, 0.5, NAN, "1"),
    "logmag": (True, NAN, "0.0", None),
    "array": (True, 1.0, [True], [NAN], [INF], [-INF], ["1.0"], [[1.0, 2.0]], [None],
              BOOL_IN_LIST, RAGGED),
    "points": (True, 1.0, [True], [NAN], [INF], [2.0**512], ["1.0"], [[1.0, 2.0]],
               BOOL_IN_LIST, RAGGED),
    # one point or a 1-D array of them
    "point-or-points": (True, NAN, "1.0", [True], [NAN], [INF], [2.0**512], [[1.0, 2.0]],
                        BOOL_IN_LIST, RAGGED),
    # one number or a 1-D array of them
    "real-or-array": (True, NAN, INF, "0.5", [True], [NAN], [[0.0, 0.1]], BOOL_IN_LIST, RAGGED),
    "orders": ([True], [2.5], [NAN], [INF], [-1], ["1"], [1e30], [1, True], [[1], [2, 3]]),
    "nonempty": (True, 1.0, [], [True], [NAN], [INF], ["1.0"], [[1.0, 2.0]], BOOL_IN_LIST,
                 RAGGED),
    # 20 lies past the largeness threshold at y = 1/2, so the bad entry is the one blamed
    "grid": (True, [20.0, NAN], [20.0, INF], [20.0, 2.0**512], ["20", "30"], [[20.0, 30.0]],
             [20.0, True], [[20.0], [30.0, 40.0]]),
}

P = SumParams(1.0, 0.25, 0.5)
C = oscillator.gaussian_coefficients(0.5, 10)
QUAD = QuadratureSpec(half_width=6.0, initial_nodes=64, max_doublings=1)
GRID = GridSpec(1.0, 5.0, 3)


def gaussian(x):
    return np.exp(-math.pi * np.asarray(x) ** 2)


# (callable, valid keyword arguments, kind of each numeric parameter)
TABLE = [
    (SignedLog, dict(sign=1, logmag=0.0), dict(sign="sign", logmag="logmag")),
    (SignedLog.from_float, dict(value=2.0), dict(value="real")),
    (hermite_core.phi_coordinate, dict(n=1.0, x=5.0), dict(n="real", x="point")),
    (hermite_core.hermite_exact, dict(n=3, x=1.0), dict(n="whole", x="point")),
    (hermite_core.hermite_orders, dict(n_top=3, x=1.0), dict(n_top="whole", x="point")),
    (hermite_core.hermite_batch, dict(orders=[1, 2], xs=[1.0, 2.0]),
     dict(orders="orders", xs="points")),
    (hermite_core.hermite_values, dict(n_top=3, xs=[1.0, 2.0]),
     dict(n_top="whole", xs="point-or-points")),
    (hermite_core.hermite_moment_sweep, dict(xs=[1.0, 2.0], weights=[1.0, 1.0], n_top=3),
     dict(xs="points", weights="array", n_top="whole")),
    (hermite_core.plancherel_rotach_estimate, dict(n=10, x=10.0), dict(n="real", x="point")),
    (hermite_core.hermite_pr_bound, dict(n=10, x=10.0, kappa=1.0, beta=0.25, y=0.5),
     dict(n="real", x="point", kappa="positive", beta="real", y="positive")),
    (SumParams, dict(kappa=1.0, beta=0.25, y=0.5),
     dict(kappa="positive", beta="real", y="positive")),
    (decay_sum.truncation_index, dict(x=10.0, y=0.5), dict(x="point", y="positive")),
    (decay_sum.argument_function, dict(n=10.0, x=10.0, y=0.5),
     dict(n="real", x="point", y="positive")),
    (decay_sum.argument_derivatives, dict(n=10.0, x=10.0, y=0.5),
     dict(n="real", x="point", y="positive")),
    (decay_sum.check_second_derivative_inequality, dict(n=10, x=10.0, c=0.1),
     dict(n="real", x="point", c="real")),
    (decay_sum.find_nmax, dict(x=10.0, y=0.5), dict(x="point", y="positive")),
    (decay_sum.tail_bound, dict(start_n=5, params=P), dict(start_n="whole>=1")),
    (decay_sum.direct_sum, dict(x=5.0, params=P), dict(x="point")),
    (decay_sum.envelope, dict(x=5.0, params=P), dict(x="point")),
    (decay_sum.sharpness_certificate, dict(x_grid=[20.0, 30.0], params=P), dict(x_grid="grid")),
    (decay_sum.theta_sum, dict(scale=1.0), dict(scale="scale")),
    (decay_sum.gaussian_theta, dict(x=1.0, delta=1.0), dict(x="real", delta="positive")),
    (decay_sum.gaussian_theta_dual, dict(x=1.0, delta=1.0), dict(x="real", delta="positive")),
    (QuadratureSpec, dict(half_width=6.0, initial_nodes=64, tolerance=1e-10, max_doublings=1),
     dict(half_width="positive", initial_nodes="whole>=16", tolerance="positive",
          max_doublings="whole>=1")),
    (HermiteCoefficients, dict(coeffs=[1.0, 0.5], quad_error=[0.0, 0.0]),
     dict(coeffs="nonempty", quad_error="array")),
    (oscillator.vemuri_envelope, dict(n=3, alpha=0.5), dict(n="whole", alpha="positive")),
    (oscillator.envelope_tail_log, dict(alpha=0.5, c_bound=1.0, n_top=10),
     dict(alpha="positive", c_bound="positive", n_top="whole")),
    (oscillator.basis_values, dict(xs=[0.0, 1.0], n_top=3),
     dict(xs="real-or-array", n_top="whole")),
    (oscillator.expand, dict(f=gaussian, n_terms=4, quad=QUAD), dict(n_terms="whole")),
    (oscillator.gaussian_coefficients, dict(alpha=0.5, n_terms=4),
     dict(alpha="positive", n_terms="whole")),
    (oscillator.vemuri_decay_check, dict(coeffs=C, alpha=0.5), dict(alpha="positive")),
    (oscillator.evolve_grid, dict(coeffs=C, xs=[0.0, 1.0], t=0.25),
     dict(xs="real-or-array", t="real-or-array")),
    (oscillator.weighted_sup, dict(coeffs=C, weight_alpha=0.5, x_grid=[0.0, 1.0], t_grid=[0.0]),
     dict(weight_alpha="positive", x_grid="nonempty", t_grid="nonempty")),
    (oscillator.decay_certificate, dict(coeffs=C, alpha=0.5, x_grid=[0.0, 1.0], t_grid=[0.0]),
     dict(alpha="positive", x_grid="nonempty", t_grid="nonempty")),
    (GridSpec, dict(start=1.0, stop=5.0, count=3), dict(start="real", stop="real",
                                                        count="whole>=2")),
    (SweepConfig, dict(mode="eval", x_grid=GRID, order=3, jobs=1),
     dict(order="whole", jobs="whole>=1")),
    (SweepConfig, dict(mode="sum", x_grid=GRID, kappa=1.0, beta=0.25, y=0.5),
     dict(kappa="positive", beta="real", y="positive")),
    (SweepConfig, dict(mode="oscillator", x_grid=GRID, alpha=0.5, n_terms=10, t_grid=(0.0,)),
     dict(alpha="positive", n_terms="whole>=1", t_grid="nonempty")),
]

# The parameters of the public entries that take no number, and why
NOT_NUMERIC = {
    "decay_sum.tail_bound": {"params": "a SumParams, checked when it is built"},
    "decay_sum.direct_sum": {"params": "a SumParams"},
    "decay_sum.envelope": {"params": "a SumParams"},
    "decay_sum.envelope_power": {"params": "a SumParams"},
    "decay_sum.sharpness_certificate": {"params": "a SumParams"},
    "oscillator.expand": {"f": "a function", "quad": "a QuadratureSpec or None"},
    "oscillator.vemuri_decay_check": {"coeffs": "a HermiteCoefficients"},
    "oscillator.evolve_grid": {
        "coeffs": "a HermiteCoefficients",
        "envelope": "None or the pair (alpha, c_bound) that envelope_tail_log checks",
    },
    "oscillator.weighted_sup": {"coeffs": "a HermiteCoefficients",
                                "envelope": "as in evolve_grid"},
    "oscillator.decay_certificate": {"coeffs": "a HermiteCoefficients"},
    "cli_report.GridSpec": {"log": "a flag"},
    "cli_report.SweepConfig": {
        "mode": "one of MODES, checked by name",
        "x_grid": "a GridSpec",
        "out": "a path or None",
        "fmt": "csv or json, checked by name",
        "fixture": "a fixture name or None",
        "force": "a flag",
    },
    "cli_report.run": {"config": "a SweepConfig"},
    "cli_report.render": {"report": "a SweepReport"},
    "cli_report.to_csv": {"report": "a SweepReport"},
    "cli_report.to_json": {"report": "a SweepReport"},
    "cli_report.fixture_path": {"name": "a fixture name"},
    "cli_report.calibrate": {"config": "a SweepConfig"},
    "cli_report.compare_to_fixture": {"report": "a SweepReport", "fixture": "a loaded fixture"},
    "cli_report.main": {"argv": "command-line words, checked by the parser"},
}

# Public dataclasses that hold what the package computed or declares,
# not what a caller configures
RESULTS = {
    "decay_sum.ArgumentProfile",
    "decay_sum.SharpnessCertificate",
    "oscillator.DecayCertificate",
    "cli_report.SweepReport",
    "cli_report.Mode",
}


def qualified(call) -> str:
    module = call.__module__.rsplit(".", 1)[1]
    return f"{module}.{call.__qualname__}"


def public_entries():
    """Every public function and class defined in the four modules, with SignedLog.from_float."""
    entries = {"hermite_core.SignedLog.from_float": SignedLog.from_float}
    for module in MODULES:
        for name, value in vars(module).items():
            if (not name.startswith("_") and callable(value)
                    and getattr(value, "__module__", None) == module.__name__):
                entries[qualified(value)] = value
    return entries


def parameters(call) -> list[str]:
    return [name for name in inspect.signature(call).parameters if name not in ("self", "cls")]


CASES = [
    pytest.param(call, valid, name, bad, id=f"{qualified(call)}-{name}-{bad!r}")
    for call, valid, kinds in TABLE
    for name, kind in kinds.items()
    for bad in BAD[kind]
]


def test_the_table_covers_every_public_parameter():
    covered = {}
    for call, _, kinds in TABLE:
        covered.setdefault(qualified(call), set()).update(kinds)
    for name, call in public_entries().items():
        if name in RESULTS:
            continue
        exempt = set(NOT_NUMERIC.get(name, {}))
        assert covered.get(name, set()) | exempt == set(parameters(call)), name


@pytest.mark.parametrize("call, valid", [(call, valid) for call, valid, _ in TABLE],
                         ids=[qualified(call) for call, _, _ in TABLE])
def test_the_valid_call_runs(call, valid):
    call(**valid)


@pytest.mark.parametrize("call, valid, name, bad", CASES)
def test_a_bad_value_raises_naming_its_parameter(call, valid, name, bad):
    with pytest.raises(ValueError) as raised:
        call(**{**valid, name: bad})
    assert re.search(rf"(^|\W){name}(\W|$)", str(raised.value)), str(raised.value)


# Calls that returned a value, or raised TypeError, before every entry
# went through the validators, with the parameter each must name
P_ARG = SumParams(1.0, 0.0, 1.0)
ONCE_ACCEPTED = [
    (lambda: hermite_core.plancherel_rotach_estimate(True, 5.0), "n"),
    (lambda: hermite_core.phi_coordinate(True, 5.0), "n"),
    (lambda: decay_sum.argument_derivatives(True, 5.0, 0.5), "n"),
    (lambda: decay_sum.argument_derivatives(10, 5.0, NAN), "y"),
    (lambda: decay_sum.argument_function(10, 5.0, NAN), "y"),
    (lambda: decay_sum.envelope(True, P_ARG), "x"),
    (lambda: decay_sum.find_nmax(5.0, True), "y"),
    (lambda: decay_sum.truncation_index(True, 0.5), "x"),
    (lambda: decay_sum.theta_sum(True), "scale"),
    (lambda: decay_sum.check_second_derivative_inequality(2, 5.0, NAN), "c"),
    (lambda: SignedLog(True, 0.0), "sign"),
    (lambda: SignedLog.from_float(True), "value"),
    (lambda: hermite_core.hermite_pr_bound(5, 10.0, 1.0, 0.0, -1.0), "y"),
    (lambda: hermite_core.hermite_exact(3, True), "x"),
    (lambda: hermite_core.hermite_batch([1], [True]), "xs"),
    (lambda: hermite_core.hermite_moment_sweep([1.0], [True], 3), "weights"),
    (lambda: decay_sum.direct_sum(True, P_ARG), "x"),
    (lambda: oscillator.evolve_grid(C, [1.0], True), "t"),
    (lambda: oscillator.envelope_tail_log(0.5, 1.0, True), "n_top"),
    (lambda: HermiteCoefficients([True]), "coeffs"),
    (lambda: QuadratureSpec(half_width=INF), "half_width"),
    (lambda: GridSpec(True, 5.0, 3), "start"),
    (lambda: SweepConfig(mode="eval", x_grid=GRID, order=2.5), "order"),
    (lambda: SweepConfig(mode="oscillator", x_grid=GRID, alpha=0.5, n_terms=2.5,
                         t_grid=(0.0,)), "n_terms"),
    (lambda: SweepConfig(mode="eval", x_grid=GRID, order=3, jobs=True), "jobs"),
    (lambda: SweepConfig(mode="oscillator", x_grid=GRID, alpha=0.5, n_terms=10,
                         t_grid=(True,)), "t_grid"),
    # a bool in a list of numbers, taken as 1
    (lambda: hermite_core.hermite_batch([1, True], [1.0, 1.0]), "orders"),
    (lambda: hermite_core.hermite_moment_sweep([1.0, True], [1.0, 1.0], 2), "xs"),
    # these raised TypeError
    (lambda: hermite_core.hermite_exact(3, "1.0"), "x"),
    (lambda: decay_sum.direct_sum("5", P_ARG), "x"),
    (lambda: SumParams("1", 0.0, 1.0), "kappa"),
]


@pytest.mark.parametrize("call, name", ONCE_ACCEPTED, ids=[n for _, n in ONCE_ACCEPTED])
def test_a_call_once_accepted_now_raises(call, name):
    with pytest.raises(ValueError, match=rf"^(x_grid\.)?{name} must be"):
        call()


def test_a_ragged_list_raises_naming_its_parameter():
    # np.asarray's own error for it named no parameter
    with pytest.raises(ValueError, match=r"^xs must be a 1-D array .*, got a ragged sequence$"):
        hermite_core.hermite_values(3, [[1.0], [2.0, 3.0]])


def test_a_whole_float_keys_the_same_sweep_as_its_int():
    # order, n_terms and jobs keep the int that _whole_number returns, so
    # the config echo and the fixture id do not depend on 3.0 against 3
    grid = GridSpec(1.0, 2.0, 2)
    as_float = SweepConfig(mode="eval", x_grid=grid, order=3.0, jobs=1.0)
    as_int = SweepConfig(mode="eval", x_grid=grid, order=3, jobs=1)
    assert as_float.fixture_id() == as_int.fixture_id() == "3601de985349"
    assert type(as_float.order) is type(as_float.jobs) is int
    assert as_float.content_dict() == as_int.content_dict()
    osc = dict(mode="oscillator", x_grid=grid, alpha=0.5, t_grid=(0.0,))
    floats, ints = SweepConfig(**osc, n_terms=10.0), SweepConfig(**osc, n_terms=10)
    assert type(floats.n_terms) is int and floats.fixture_id() == ints.fixture_id()


@pytest.mark.parametrize(
    "call, want",
    [(lambda: decay_sum.theta_sum(INF), 1.0),
     (lambda: hermite_core.plancherel_rotach_estimate(10.5, 10.0).sign, 1),
     (lambda: hermite_core.hermite_exact(3, X_MAX).sign, 1),
     (lambda: hermite_core.hermite_exact(3, -X_MAX).sign, -1)],
    ids=["theta_sum(inf)", "a real order", "x = 2^511", "x = -2^511"],
)
def test_the_documented_edges_are_taken(call, want):
    assert call() == want


# Valid values go back unchanged: the same object, so bit for bit and
# type for type
def bits(value) -> bytes:
    return struct.pack("<d", value)


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, X_MAX, -X_MAX]
finite = st.floats(allow_nan=False, allow_infinity=False)
points = st.floats(min_value=-X_MAX, max_value=X_MAX)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def numbers(floats, ints):
    """Python floats, np.float64 and Python ints."""
    return st.one_of(floats, floats.map(np.float64), ints)


@given(numbers(finite, st.integers(-(10**300), 10**300)))
@example(-0.0)
@example(np.float64(-0.0))
@example(5e-324)
@example(np.float64(-5e-324))
@example(X_MAX)
@example(-X_MAX)
@example(np.float64(1e308))
def test_real_hands_back_its_value(value):
    assert _real(value, "v") is value


@given(numbers(positive, st.integers(1, 10**300)))
@example(5e-324)
@example(np.float64(5e-324))
@example(X_MAX)
@example(1e308)
def test_positive_hands_back_its_value(value):
    assert _positive(value, "v") is value


@given(numbers(points, st.integers(-(2**511), 2**511)))
@example(-0.0)
@example(np.float64(-0.0))
@example(5e-324)
@example(X_MAX)
@example(-X_MAX)
@example(np.float64(-X_MAX))
def test_point_hands_back_its_value(value):
    assert _point(value) is value


@given(st.integers(0, 2**63 - 1))
@example(0)
@example(2**63 - 1)
def test_whole_number_hands_back_an_int(value):
    got = _whole_number(value, "n")
    assert type(got) is int and got == value
    array = np.array([value], dtype=np.int64)
    assert _whole_number(array, "n") is array


@given(st.lists(points))
@example(EDGES)
def test_array_hands_back_its_values(values):
    array = np.array(values, dtype=float)
    assert _array(array, "xs", points=True) is array
    assert _array(array, "xs") is array
    got = _array(values, "xs", points=True)
    assert got.dtype == np.float64 and [bits(v) for v in got] == [bits(v) for v in values]


def test_the_largest_point_is_2_to_the_511():
    assert _point(X_MAX) == X_MAX
    with pytest.raises(ValueError, match=r"^x must be a finite number with \|x\| <= 2\^511"):
        _point(np.nextafter(X_MAX, INF))

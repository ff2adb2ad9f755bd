import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_decay import cli_report, decay_sum, hermite_core
from hermite_decay.decay_sum import (
    TAIL_RELATIVE_TOLERANCE,
    ArgumentProfile,
    SumParams,
    argument_derivatives,
    argument_function,
    check_second_derivative_inequality,
    direct_sum,
    envelope,
    envelope_power,
    find_nmax,
    gaussian_theta,
    gaussian_theta_dual,
    sharpness_certificate,
    tail_bound,
    theta_sum,
    truncation_index,
)
from hermite_decay.cli_report import GridSpec, SweepConfig
from hermite_decay.decay_sum import _log_sum, _sum_internals, _summand_logs, _sums
from hermite_decay.hermite_core import (
    hermite_orders,
    hermite_pr_bound,
    phi_coordinate,
    plancherel_rotach_estimate,
)
from oracles import (
    entry_bound,
    mp_argument_fd,
    mp_argument_function,
    mp_hermite_logs,
    naive_weighted_sum,
    reference_sum,
)

# Frozen oracle values: closed form evaluated at 50 significant digits
# by tests/oracles.mp_argument_function.
FROZEN_ARGUMENT_VALUES = [
    (1.0, 10.0, 1.0, -47.69736318610238427614),
    (7.0, 12.0, 0.5, -59.04302077563495998922),
    (100.0, 25.0, 0.25, -165.5821347935483253207),
]


# Drift of the walk from order 0 (hermite_orders) below the turning point
# and up to order 16400, beyond 2 ulps: the sums' references read it.
WALK_DRIFT = 2e-13


def term_rounding(total, params: SumParams) -> float:
    """One ulp of the largest part a kept term is formed from.

    kappa (ln|h_n| - n y) - beta ln n rounds at the scale of its parts,
    which for large |beta| or n y lie far above the term: two ln|h_n|
    that differ by far less than an ulp can give terms an ulp apart.
    """
    n = total.n_stop
    return float(np.spacing(
        np.max(np.abs(total.terms)) + params.kappa * params.y * n + abs(params.beta) * math.log(n)
    ))


def count_recurrence_orders(monkeypatch) -> list:
    """Count the orders each later order stream computes, one list entry a stream.

    An entry counts every order the stream ran the recurrence to, order 0
    and the orders it computed past the last one it handed out included.
    """
    passes = []

    class CountingStream(hermite_core._OrderStream):
        def __init__(self, x):
            super().__init__(x)
            self.entry = len(passes)
            passes.append(1)

        def take(self, count):
            out = super().take(count)
            passes[self.entry] = self._k + 1
            return out

    monkeypatch.setattr(hermite_core, "_OrderStream", CountingStream)
    return passes


def first_request_end(x: float, params: SumParams) -> int:
    """The last order of a sum's first request.

    It lies past max(N, 64), past the tail bound's first finite order, and
    as far past N as the bound takes to fall by the tolerance and two more
    e-folds at e^(-kappa y) an order.
    """
    kappa_y = params.kappa * params.y
    n_cut = truncation_index(x, params.y)
    lookahead = math.ceil((2.0 - math.log(TAIL_RELATIVE_TOLERANCE)) / kappa_y)
    n_solve = max(n_cut, 64, math.floor(max(-params.beta, 0.0) / kappa_y) + 1)
    return max(n_solve, n_cut + lookahead)


def mehler_pair(x: float, y: float) -> tuple[float, float]:
    """(ln of direct_sum's S(x; 2, 0, y) plus the n = 0 term, ln of Mehler's closed form).

    Mehler: sum_{n>=0} e^(-2ny) h_n(x)^2 = (pi (1 - e^(-4y)))^(-1/2) e^(-x^2 tanh y),
    so S(x; 2, 0, y) plus the n = 0 term has x-power 0, the sharp envelope
    power 1 - kappa/2 - 2 beta at kappa = 2, beta = 0.
    """
    s = direct_sum(x, SumParams(2.0, 0.0, y)).logmag
    h0_sq = -0.5 * math.log(math.pi) - x * x
    hi, lo = max(s, h0_sq), min(s, h0_sq)
    total = hi + math.log1p(math.exp(lo - hi))
    mehler = -0.5 * math.log(math.pi * -math.expm1(-4.0 * y)) - x * x * math.tanh(y)
    return total, mehler


class TestSumParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SumParams(kappa=0.0, beta=0.0, y=1.0)
        with pytest.raises(ValueError):
            SumParams(kappa=1.0, beta=0.0, y=-2.0)
        with pytest.raises(ValueError):
            SumParams(kappa=1.0, beta=math.nan, y=1.0)
        p = SumParams(kappa=2.0, beta=-0.5, y=0.25)
        assert (p.kappa, p.beta, p.y) == (2.0, -0.5, 0.25)

    @pytest.mark.parametrize("name", ["kappa", "beta", "y"])
    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_rejects_bools(self, name, flag):
        # True would pass as 1.0, and False as beta = 0.0
        fields = {"kappa": 1.0, "beta": 0.0, "y": 0.5, name: flag}
        with pytest.raises(ValueError, match=f"^{name} must be a (positive )?finite number, got"):
            SumParams(**fields)


class TestScaffolding:
    def test_truncation_index(self):
        assert truncation_index(10.0, 1.0) == int(100.0 * math.tanh(1.0) / 2.0) - 1
        assert truncation_index(0.5, 1.0) == 1

    @pytest.mark.parametrize("call", [truncation_index, find_nmax])
    @pytest.mark.parametrize(
        "x, y, name",
        [(math.nan, 0.5, "x"), (math.inf, 0.5, "x"), (-math.inf, 0.5, "x"),
         (3.0, 0.0, "y"), (3.0, -1.0, "y"), (3.0, math.nan, "y"), (3.0, math.inf, "y")],
    )
    def test_rejects_bad_arguments(self, call, x, y, name):
        # find_nmax(3, 0) used to raise ZeroDivisionError, and
        # truncation_index(3, -1) returned 2
        with pytest.raises(ValueError, match=f"^{name} must be a (positive )?finite number"):
            call(x, y)


class TestArgumentFunction:
    @pytest.mark.parametrize("n,x,y,expected", FROZEN_ARGUMENT_VALUES)
    def test_frozen_values(self, n, x, y, expected):
        assert argument_function(n, x, y) == pytest.approx(expected, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            argument_function(0.5, 10.0, 1.0)
        with pytest.raises(ValueError):
            argument_function(60.0, 10.0, 1.0)  # past the turning point

    def test_reduced_bound_consistency(self):
        # the per-term bound is exactly (-1/4 - beta) ln n + kappa A(n)
        for n, x in ((50.0, 40.0), (200.0, 30.0)):
            for kappa, beta, y in ((1.0, 0.25, 1.0), (2.0, -0.5, 0.5)):
                want = (-0.25 - beta) * math.log(n) + kappa * argument_function(n, x, y)
                got = hermite_pr_bound(n, x, kappa, beta, y).logmag
                assert got == pytest.approx(want, rel=1e-12)

    def test_root_equation_identity(self):
        # at the root phi of phi + cosh^3/(x^2 sinh) = y, A'(n(phi)) = 0
        x, y = 50.0, 0.5
        profile = find_nmax(x, y)
        a1, _ = argument_derivatives(profile.n_max, x, y)
        assert abs(a1) <= 1e-10


class TestArgumentDerivatives:
    @pytest.mark.parametrize(
        "n,x,y",
        [
            (1.5, 100.0, 0.25),  # worst double-precision FD corner
            (5.0, 10.0, 1.0),
            (40.0, 20.0, 0.5),
            (1000.0, 60.0, 1.0),
            (4000.0, 95.0, 2.0),
        ],
    )
    def test_against_extended_precision_fd(self, n, x, y):
        d1, d2 = mp_argument_fd(n, x, y, rel_step=1e-4)
        a1, a2 = argument_derivatives(n, x, y)
        assert a1 == pytest.approx(d1, rel=1e-6, abs=1e-12)
        assert a2 == pytest.approx(d2, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            argument_derivatives(0.2, 10.0, 1.0)
        with pytest.raises(ValueError):
            argument_derivatives(49.0, 10.0, 1.0)  # turning point exactly

    def test_concavity_on_integer_grid(self):
        for x in (10.0, 20.0, 50.0, 100.0):
            top = int((x * x - 4.0) / 2.0)
            for n in range(2, top, max(1, top // 257)):
                _, a2 = argument_derivatives(float(n), x, 0.7)
                assert a2 < 0.0


class TestSecondDerivativeInequality:
    def test_c_zero_always_holds(self):
        for x in (10.0, 40.0):
            for n in range(2, int((x * x - 4) / 2), 7):
                assert check_second_derivative_inequality(n, x, 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            check_second_derivative_inequality(1, 10.0, 0.1)
        with pytest.raises(ValueError):
            check_second_derivative_inequality(48, 10.0, 0.1)

    def test_equivalent_to_concavity_bound(self):
        # check(n, x, c) must agree with A'' <= -c/x^2 away from equality
        rng = np.random.default_rng(3)
        for _ in range(300):
            x = rng.uniform(8.0, 120.0)
            n = int(rng.uniform(2, (x * x - 4) / 2 - 1))
            _, a2 = argument_derivatives(float(n), x, 1.0)
            c_crit = -a2 * x * x
            assert check_second_derivative_inequality(n, x, c_crit * 0.999)
            assert not check_second_derivative_inequality(n, x, c_crit * 1.001)

    def test_equality_boundary_value(self):
        # at t = 1 + 1/(n+1) (the domain edge x^2 = 2(n+2)) the left side
        # equals 1/(2(n+1)) + 1/(n+1)^2; the guarded function refuses the
        # edge itself, so the threshold is checked on the raw formula
        for n in (5, 50, 500):
            t = 1.0 + 1.0 / (n + 1)
            lhs = (1.0 + 1.0 / (n + 1)) * t - (1.0 + 3.0 / (2.0 * n + 2.0))
            assert lhs == pytest.approx(0.5 / (n + 1) + (n + 1.0) ** -2, rel=1e-9)
            x_edge = math.sqrt(2.0 * (n + 2))
            with pytest.raises(ValueError):
                check_second_derivative_inequality(n, x_edge, 0.0)

    def test_min_margin_positive_at_x_50(self):
        # brute-force sweep: the smallest admissible c over integer n stays
        # strictly positive
        x = 50.0
        margins = []
        for n in range(2, int((x * x - 4) / 2)):
            _, a2 = argument_derivatives(float(n), x, 1.0)
            margins.append(-a2 * x * x)
        assert min(margins) > 0.0


class TestFindNmax:
    @pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 2.0])
    def test_asymptotic_location(self, y):
        for x in (20.0, 60.0, 200.0):
            profile = find_nmax(x, y)
            predicted = x * x / (2.0 * math.cosh(y) ** 2)
            assert abs(profile.n_max - predicted) <= 3.0

    def test_profile_invariants(self):
        profile = find_nmax(40.0, 0.5)
        assert isinstance(profile, ArgumentProfile)
        assert 1.0 <= profile.n_max <= profile.truncation_n - 1
        assert profile.lam == profile.n_max / (40.0 * 40.0)
        # A'' < 0 throughout [1, N - 1]
        for n in np.linspace(1.0, profile.truncation_n - 1.0, 33):
            assert argument_derivatives(float(n), 40.0, 0.5)[1] < 0.0
        assert profile.a_max == pytest.approx(
            argument_function(profile.n_max, 40.0, 0.5), rel=1e-12
        )

    def test_peak_value_asymptotic(self):
        for x, y in ((30.0, 0.25), (100.0, 1.0), (200.0, 2.0)):
            profile = find_nmax(x, y)
            assert abs(profile.a_max + 0.5 * x * x * math.tanh(y)) <= 0.05

    def test_brute_force_integer_scan(self):
        for x, y in ((25.0, 0.5), (60.0, 1.0)):
            profile = find_nmax(x, y)
            values = {
                n: argument_function(float(n), x, y)
                for n in range(1, profile.truncation_n)
            }
            n_best = max(values, key=values.get)
            assert abs(n_best - round(profile.n_max)) <= 1
            # integer max sits below the continuous max by at most the
            # curvature-predicted gap
            _, a2 = argument_derivatives(profile.n_max, x, y)
            allowed = 0.5 * abs(a2) * 1.0001 + 1e-6 * abs(profile.a_max)
            assert 0.0 <= profile.a_max - values[n_best] <= allowed

    def test_below_threshold_reports(self):
        with pytest.raises(ValueError):
            find_nmax(3.0, 0.25)

    def test_even_in_x(self):
        # the summand |h_n(x)|^kappa is even, so the profile at -x is the one at x
        for x, y in ((30.0, 0.5), (8.5, 0.25), (200.0, 2.0)):
            assert find_nmax(-x, y) == find_nmax(x, y)
        with pytest.raises(ValueError, match="largeness threshold"):
            find_nmax(-3.0, 0.25)

    @pytest.mark.parametrize("x, y", [(1000.0, 1000.0), (60.0, 100.0), (2.0**511, 1000.0)])
    def test_a_maximum_below_order_1_is_below_the_threshold(self, x, y):
        # find_nmax(1000, 1000) raised OverflowError, from cosh(phi)^3 at its
        # first probe, and find_nmax(60, 100) raised argument_function's
        # "needs n >= 1": the maximum of A lies below order 1 at both
        with pytest.raises(ValueError, match="largeness threshold .*: the maximum of A lies at n="):
            find_nmax(x, y)

    @pytest.mark.parametrize(
        "x, y", [(1e150, 300.0), (2.0**511, 353.0), (3.984876594326698e104, 234.35045073876697)]
    )
    def test_root_where_the_middle_term_leaves_double_range(self, x, y):
        # past phi = 237 cosh(phi)^3 overflows, and at x = 4e104 also
        # x^2 sinh(phi), while their ratio stays finite: the first two raised
        # OverflowError, and the third read that ratio as 0, giving
        # A'(n_max) = 5.6e-7
        profile = find_nmax(x, y)
        assert 1.0 <= profile.n_max <= profile.truncation_n - 1
        a1, _ = argument_derivatives(profile.n_max, x, y)
        assert abs(a1) <= 1e-10

    def test_thresholds_match_operational_definition(self):
        # probe-measured first usable x: ~8.2 (y=0.25), ~3.2 (y=1)
        for y, below, above in ((0.25, 7.0, 8.5), (1.0, 2.5, 3.5)):
            find_nmax(above, y)
            with pytest.raises(ValueError):
                find_nmax(below, y)


class TestDirectSum:
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0, 3.0, 5.0])
    def test_matches_naive_summation(self, x):
        for kappa, beta, y in ((1.0, 0.25, 1.0), (2.0, 0.0, 0.5), (1.0, -0.5, 0.75)):
            params = SumParams(kappa, beta, y)
            want = naive_weighted_sum(x, kappa, beta, y)
            got = direct_sum(x, params).to_float()
            assert got == pytest.approx(want, rel=1e-10)

    def test_even_in_x(self):
        params = SumParams(1.0, 0.25, 0.5)
        assert direct_sum(-17.3, params).logmag == direct_sum(17.3, params).logmag

    @given(
        st.floats(min_value=0.05, max_value=1.5),
        st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_y(self, dy, x):
        lo = SumParams(1.0, 0.25, 0.4)
        hi = SumParams(1.0, 0.25, 0.4 + dy)
        assert direct_sum(x, lo).logmag >= direct_sum(x, hi).logmag

    @pytest.mark.parametrize("x", [2.0, 15.0, 40.0])
    @pytest.mark.parametrize("y", [0.25, 0.5, 1.0])
    def test_mehler_closed_form_at_kappa_two(self, x, y):
        total, mehler = mehler_pair(x, y)
        assert abs(total - mehler) <= 1e-12
        assert envelope_power(SumParams(2.0, 0.0, y)) == 0.0

    @pytest.mark.parametrize("x", [1000.0, 2500.0])
    @pytest.mark.parametrize("y", [0.25, 1.0])
    def test_mehler_closed_form_at_large_x(self, x, y):
        # up to 3.1e6 orders (x = 2500, y = 1/4), nearly all of them scanned
        # below the turning point, in about 50 requests of _LARGEST_BLOCK
        # orders: ln S holds to the last ulps that a double can store
        total, mehler = mehler_pair(x, y)
        assert abs(total - mehler) <= 2.0 * np.spacing(abs(mehler))

    def test_truncation_soundness(self):
        # doubling the certified truncation must not move the total
        for params in (SumParams(1.0, 0.0, 0.5), SumParams(2.0, 0.0, 0.25),
                       SumParams(1.0, -0.5, 0.5)):
            for x in (7.0, 33.0, 80.0, 150.0):
                total = _sum_internals(x, params)
                _, logs = hermite_orders(2 * total.n_stop, x)
                n = np.arange(1, 2 * total.n_stop + 1, dtype=float)
                again = _log_sum(_summand_logs(logs[1:], n, params))
                assert again == pytest.approx(total.log_s, abs=1e-10)

    @pytest.mark.parametrize("kappa, beta, y", [(1.0, 0.25, 0.5), (2.0, 0.0, 0.25), (2.0, 0.0, 1.0)])
    @pytest.mark.parametrize("x", [7.5, 60.0, 150.0])
    def test_one_recurrence_pass_per_sum(self, monkeypatch, kappa, beta, y, x):
        # the truncation streams: one recurrence sweep per sum, instead of
        # restarting from n = 0 at a doubled cutoff.  For beta >= 0 the
        # first request reaches the stop, and the stream runs less than
        # one stride past the end of the request
        params = SumParams(kappa, beta, y)
        passes = count_recurrence_orders(monkeypatch)
        n_stop = _sum_internals(x, params).n_stop
        assert len(passes) == 1
        assert n_stop <= first_request_end(x, params)
        assert passes[0] <= first_request_end(x, params) + hermite_core._stride(x)

    @pytest.mark.parametrize(
        "kappa, beta, y", [(1.0, -0.5, 0.5), (2.0, -2.0, 0.3), (1.0, -140.0, 0.5), (1.0, -1000.0, 0.5)]
    )
    @pytest.mark.parametrize("x", [7.5, 60.0, 150.0])
    def test_negative_beta_pass_ends_near_the_stop(self, monkeypatch, kappa, beta, y, x):
        # the tail bound is infinite up to order |beta| / (kappa y): the
        # first request runs past that, and later ones double the solved
        # count until the bound alone would pass; the pass ends past n_stop
        # by less than the longest gap that solve leaves (measured at most
        # 181 orders) plus one stride
        passes = count_recurrence_orders(monkeypatch)
        n_stop = _sum_internals(x, SumParams(kappa, beta, y)).n_stop
        assert len(passes) == 1
        assert passes[0] <= n_stop + 256 + hermite_core._stride(x)

    @pytest.mark.parametrize("x", [7.5, 30.0])
    def test_gives_up_at_the_largest_order(self, monkeypatch, x):
        # the stream has no last order: the sum stops its requests at
        # _MAX_ORDER itself, and fails where the tail is not yet certified
        # there (here the bound is infinite up to order 2000)
        monkeypatch.setattr(decay_sum, "_MAX_ORDER", 500)
        passes = count_recurrence_orders(monkeypatch)
        with pytest.raises(RuntimeError, match="by n=500 "):
            _sum_internals(x, SumParams(1.0, -1000.0, 0.5))
        assert len(passes) == 1
        assert passes[0] < 501 + hermite_core._stride(x)

    @pytest.mark.parametrize(
        "kappa, beta, y",
        [(1.0, 0.25, 0.5), (2.0, 0.0, 0.25), (2.0, 0.0, 1.0),
         (1.0, -0.5, 0.5), (2.0, -2.0, 0.3), (1.0, -140.0, 0.5)],
    )
    @pytest.mark.parametrize("x", [7.5, 60.0, 150.0])
    def test_stops_at_smallest_certified_order(self, kappa, beta, y, x):
        # re-run the stop rule order by order over the returned terms, which
        # start at the first kept order: the first n >= max(N, 64) whose
        # tail bound passes against the running partial sum of the kept
        # terms.  A dropped head lies below max(N, 64)
        params = SumParams(kappa, beta, y)
        total = _sum_internals(x, params)
        n_min = max(truncation_index(x, y), 64)
        assert 1 <= total.n_first < n_min
        assert total.terms.size == total.n_stop - total.n_first + 1
        running = np.logaddexp.accumulate(total.terms)
        log_tol = math.log(TAIL_RELATIVE_TOLERANCE)
        first = next(
            n
            for n in range(n_min, total.n_stop + 1)
            if tail_bound(n + 1, params).logmag <= running[n - total.n_first] + log_tol
        )
        assert total.n_stop == first

    @pytest.mark.parametrize("kappa, beta, y", [(1.0, 0.25, 0.5), (2.0, 0.0, 0.25), (1.0, -0.5, 0.5)])
    @pytest.mark.parametrize("x", [7.5, 60.0])
    def test_small_blocks_keep_the_sum(self, monkeypatch, kappa, beta, y, x):
        # a far analysis cutoff is reached in several blocks; the terms and
        # the stop do not depend on where the blocks end
        params = SumParams(kappa, beta, y)
        total = _sum_internals(x, params)
        monkeypatch.setattr(decay_sum, "_LARGEST_BLOCK", 50)
        small = _sum_internals(x, params)
        assert small.n_stop == total.n_stop
        assert small.log_s == total.log_s
        np.testing.assert_array_equal(small.terms, total.terms)

    @given(
        st.floats(min_value=0.5, max_value=2.5),
        st.one_of(st.floats(min_value=-3.0, max_value=1.0), st.just(-140.0)),
        st.floats(min_value=0.2, max_value=1.5),
        st.one_of(
            st.floats(min_value=0.0, max_value=53.0),
            st.floats(min_value=53.0, max_value=160.0),
            st.floats(min_value=5e-324, max_value=1e-154),
        ),
        st.sampled_from([None, 50]),
        st.booleans(),
    )
    @example(1.0, 0.25, 0.5, 150.0, None, False)
    @example(1.0, 0.25, 0.5, 150.0, 50, True)
    @example(0.5, 1.0, 0.2, 160.0, 50, True)
    @example(1.0, -140.0, 0.5, 60.0, 50, True)
    @example(2.0, 0.0, 1.0, 2.0**-600, None, False)
    @example(1.0, 0.0, 1.0, 0.0, 50, True)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference_bit_for_bit(self, kappa, beta, y, x, block, every_entry):
        # the one exp pass per block, its prefix sums and the scalar tail
        # factor against the stop rule restated order by order over the
        # terms from the first kept order on: x on both sides of the scan's
        # threshold (about 53) and tiny, beta < 0, blocks of 50 orders,
        # where the sum takes many requests and ln S comes from the joined
        # terms, and an entry wherever the stream scans.  A sum walked from
        # order 1 reads the reference's own values, bit for bit; an entered
        # one carries the entry's error, and the reference the walk's drift
        params = SumParams(kappa, beta, y)
        with pytest.MonkeyPatch.context() as patch:
            if block:
                patch.setattr(decay_sum, "_LARGEST_BLOCK", block)
            if every_entry:
                patch.setattr(decay_sum, "_HEAD_MIN_ORDERS", -math.inf)
            total = _sum_internals(x, params)
        ref_log_s, ref_terms, ref_n_stop = reference_sum(x, params, total.n_first)
        assert total.n_stop == ref_n_stop
        if total.n_first == 1:
            assert total.log_s == ref_log_s
            np.testing.assert_array_equal(total.terms, ref_terms)
            return
        tol = kappa * (entry_bound(x) + WALK_DRIFT) + 2.0 * term_rounding(total, params)
        assert abs(total.log_s - ref_log_s) <= tol + 2.0 * np.spacing(abs(ref_log_s))
        # termwise below the turning point; past it, near the zeros of h_n,
        # as shares of S: there both walks err by their drift times the
        # envelope, not times |h_n|
        below = np.arange(total.n_first, total.n_stop + 1) < (x * x - 1.0) / 2.0
        assert np.all(np.abs(total.terms - ref_terms)[below] <= tol)
        shares = np.exp(total.terms[~below] - ref_log_s) - np.exp(ref_terms[~below] - ref_log_s)
        assert np.all(np.abs(shares) <= tol)

    @given(
        st.floats(min_value=0.5, max_value=2.5),
        st.one_of(st.floats(min_value=-3.0, max_value=1.0), st.just(-140.0)),
        st.floats(min_value=0.2, max_value=1.5),
        st.floats(min_value=53.0, max_value=180.0),
    )
    @example(1.0, 0.25, 0.5, 150.0)
    @example(2.0, 0.0, 0.25, 180.0)
    @settings(max_examples=30, deadline=None)
    def test_entry_moves_the_sum_by_its_bound(self, kappa, beta, y, x):
        # the sum entered at its window against the walk from order 1: ln S
        # moves by at most kappa times the entry's bound and the walk's
        # drift, plus 2 ulps of ln S and of the parts of its terms
        # (measured: at most 1 ulp of ln S).  Up to x = 180 the sums stop
        # below order 16400, where WALK_DRIFT holds
        params = SumParams(kappa, beta, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decay_sum, "_HEAD_MIN_ORDERS", -math.inf)
            entered = _sum_internals(x, params)
            patch.setattr(decay_sum, "_HEAD_MIN_ORDERS", math.inf)
            walked = _sum_internals(x, params)
        assert walked.n_first == 1
        tol = kappa * (entry_bound(x) + WALK_DRIFT) + 2.0 * term_rounding(walked, params)
        assert abs(entered.log_s - walked.log_s) <= tol + 2.0 * np.spacing(abs(walked.log_s))

    @pytest.mark.parametrize("kappa, beta, y", [(1.0, 0.25, 0.5), (2.0, -2.0, 0.7)])
    @pytest.mark.parametrize("x", [110.0, 300.0])
    def test_falls_back_to_the_walk(self, monkeypatch, kappa, beta, y, x):
        # an entry at the peak, right of the window: the head certificate
        # passes at no block start there, and the sum walks from order 1,
        # with exactly the result of a sum that never enters
        params = SumParams(kappa, beta, y)
        monkeypatch.setattr(decay_sum, "_HEAD_MIN_ORDERS", math.inf)
        walked = _sum_internals(x, params)
        monkeypatch.setattr(decay_sum, "_HEAD_MIN_ORDERS", -math.inf)
        peak = 0.5 * x * x / math.cosh(y) ** 2
        monkeypatch.setattr(decay_sum, "_expected_head", lambda x, params: peak)
        passes = count_recurrence_orders(monkeypatch)
        total = _sum_internals(x, params)
        assert len(passes) == 2  # the entered stream, then the walk
        assert total.n_first == 1 and total.log_head == -math.inf
        assert total.n_stop == walked.n_stop
        assert total.log_s == walked.log_s
        np.testing.assert_array_equal(total.terms, walked.terms)

    def test_memory_of_a_far_sum(self):
        # n_stop = 462,166 at x = 1000: the sum draws at most _LARGEST_BLOCK
        # orders a request and the stream scans at most
        # hermite_core._SCAN_ORDERS a pass, and every pass drops the head
        # that its certificate covers, blocks kept by earlier requests
        # included.  So the sum keeps 75,958 orders (0.6 MB of term logs),
        # and the peak is one block's, about 8.5 doubles an order.
        # Measured 4.1 MB (14.3 MB when every order was kept).
        params = SumParams(1.0, 0.25, 0.5)
        hermite_orders(1, 1.0)  # builds the process's coefficient table first
        tracemalloc.start()
        try:
            n_stop = _sum_internals(1000.0, params).n_stop
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_stop > 460_000
        assert peak < 6 * 2**20

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [1e6, -1e6, math.inf, math.nan, 2.0**512])
    def test_rejects_x_past_the_largest_order(self, x):
        # at x = 1e6 the analysis cutoff alone is 4.6e11 orders
        with pytest.raises(ValueError):
            direct_sum(x, SumParams(1.0, 0.25, 0.5))

    def test_large_negative_beta(self):
        # the tail bound is infinite up to order 2000 here; ln S is frozen
        # from a truncation at n = 5439 by a looser (dyadic) tail bound,
        # and the two truncations agree to 1e-12
        total = _sum_internals(20.0, SumParams(1.0, -1000.0, 0.5))
        assert total.n_stop > 2000
        assert total.log_s == pytest.approx(6603.244276570468, rel=1e-12)

    def test_dominant_term_gap(self):
        # log S sits above the max term by at most ln(3x): the peak is
        # locally Gaussian with width O(x), so the effective term count
        # is O(x)
        for kappa, beta, y in ((1.0, 0.25, 1.0), (2.0, 1.0, 0.5), (1.0, -0.5, 0.5)):
            params = SumParams(kappa, beta, y)
            for x in (20.0, 50.0, 100.0):
                total = _sum_internals(x, params)
                gap = total.log_s - float(total.terms.max())
                assert 0.0 <= gap <= math.log(3.0 * x)


def restated_head(x: float, params: SumParams) -> tuple[int, float]:
    """(first kept order, ln of its head bound) by the head certificate restated.

    For a sum whose first scan pass covers every order below max(N, 64):
    the block starts a = B, 2B, ... below it, h from one hermite_orders
    sweep, top the largest term at those starts, and the bound
    t_a (1 + a^max(beta, 0) / (rho - 1)) with ln rho = kappa (ln r_{a-1}
    - y - 2^-40 (x^2 + 1)), for rho > 1; the last a whose bound is at
    most top - 60 gives the first kept order a + 1, and 1 when none does.
    """
    kappa, beta, y = params.kappa, params.beta, params.y
    b = hermite_core._stride(x)
    n_min = max(truncation_index(x, y), 64)
    _, logs = hermite_orders(n_min, x)
    a = np.arange(b, n_min, b)
    terms = _summand_logs(logs[a], a.astype(float), params)
    top = float(terms.max())
    found = (1, -math.inf)
    for order, term, log_ratio in zip(a, terms, logs[a] - logs[a - 1]):
        log_rho = kappa * (log_ratio - y - 2.0**-40 * (x * x + 1.0))
        if log_rho <= 0.0:
            continue
        bound = term + math.log1p(order ** max(beta, 0.0) / math.expm1(log_rho))
        if bound <= top - 60.0:
            found = (int(order) + 1, bound)
    return found


def one_point(x: float, params: SumParams):
    """_sum_internals(x, params), or the exception it raises."""
    try:
        return _sum_internals(x, params)
    except Exception as exc:
        return exc


def assert_same_sum(got, want) -> None:
    """Every field of two _Sum results equal, the terms bit for bit; or equal exceptions."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert (got.log_s, got.n_stop, got.n_first) == (want.log_s, want.n_stop, want.n_first)
    assert got.log_head == want.log_head
    assert got.terms.tobytes() == want.terms.tobytes()


def log_scan_passes(monkeypatch) -> list:
    """Record the (stride, blocks) of every stream of every stacked scan pass."""
    passes = []
    run = hermite_core._scan_pass

    def logged(streams):
        passes.append([(stream.stride, m) for stream, m in streams])
        run(streams)

    monkeypatch.setattr(hermite_core, "_scan_pass", logged)
    return passes


# a point of a grid: one that steps (|x| < 53, no scan), one that scans
# from order 1 or enters at its window (53 <= |x| <= 400), or one that
# fails at its set-up (non-finite, or a cutoff past _MAX_ORDER)
GRID_POINTS = st.one_of(
    st.floats(-52.0, 52.0),
    st.floats(53.0, 400.0),
    st.floats(-400.0, -53.0),
    st.sampled_from([math.nan, math.inf, 5000.0]),
)


@st.composite
def sum_grids(draw):
    """An unsorted grid with some of its points repeated."""
    xs = draw(st.lists(GRID_POINTS, min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(xs), max_size=2))
    return draw(st.permutations(xs + repeats))


class TestGrid:
    """_sums: a grid of sums with stacked scan passes, each x as if alone."""

    @given(
        sum_grids(),
        st.sampled_from([(1.0, 0.25, 0.5), (2.0, 0.0, 0.25), (2.0, 0.0, 1.0), (1.0, -0.5, 0.3)]),
    )
    @example([55.0, 150.0, -55.0, 3.0, 55.0, math.nan, 400.0], (1.0, 0.25, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_each_point_as_if_alone(self, xs, args):
        params = SumParams(*args)
        grid = list(_sums(xs, params))
        assert len(grid) == len(xs)
        for x, got in zip(xs, grid):
            assert_same_sum(got, one_point(x, params))

    def test_three_strides_share_one_pass(self, monkeypatch):
        # x = 55, 150 and 300 scan with strides 58, 48 and 43 in one pass;
        # the first request of x = 1000 fills a pass's budget by itself
        # (455 blocks of 36 orders), so it scans alone
        params = SumParams(1.0, 0.25, 0.5)
        xs = [55.0, 150.0, 300.0, 1000.0]
        want = [one_point(x, params) for x in xs]
        passes = log_scan_passes(monkeypatch)
        grid = list(_sums(xs, params))
        for got, one in zip(grid, want):
            assert_same_sum(got, one)
        strides = [hermite_core._stride(x) for x in xs]
        assert len(set(strides)) == 4
        assert [b for b, _ in passes[0]] == strides[:3]
        assert [b for b, _ in passes[1]] == strides[3:]
        for streams in passes:
            widest = max(b for b, _ in streams) * sum(m for _, m in streams)
            assert len(streams) == 1 or widest <= hermite_core._SCAN_ORDERS

    def test_a_failing_walk_leaves_the_others(self, monkeypatch):
        # with the largest order at 500, x = 30 fails in its walk (the tail
        # bound is infinite up to order 2000) and x = 40 at its set-up
        # (cutoff 737); x = 7.5 and x = 20 sum as they do alone
        monkeypatch.setattr(decay_sum, "_MAX_ORDER", 500)
        params = SumParams(1.0, -1000.0, 0.5)
        xs = [7.5, 30.0, 20.0, 40.0]
        grid = list(_sums(xs, params))
        assert isinstance(grid[1], RuntimeError) and isinstance(grid[3], ValueError)
        for x, got in zip(xs, grid):
            assert_same_sum(got, one_point(x, params))

    def test_runs_as_its_sums_are_asked_for(self, monkeypatch):
        # a generator: nothing is scanned before the first sum is asked for,
        # and x = 1000 scans only when its own sum is
        params = SumParams(1.0, 0.25, 0.5)
        want = [one_point(x, params) for x in (60.0, 70.0, 1000.0)]
        passes = log_scan_passes(monkeypatch)
        sums = _sums([60.0, 70.0, 1000.0], params)
        assert passes == []
        assert_same_sum(next(sums), want[0])
        assert_same_sum(next(sums), want[1])
        assert len(passes) == 1
        assert_same_sum(next(sums), want[2])
        assert len(passes) > 1
        assert next(sums, None) is None

    def test_cli_rows_where_every_point_fails(self):
        # kappa y underflows to 0.0, so every first request divides by zero:
        # each row holds the error its point raises alone
        config = SweepConfig(
            mode="sum", x_grid=GridSpec(1.0, 60.0, 3), kappa=1e-300, beta=0.25, y=1e-300
        )
        report = cli_report.run(config)
        assert report.error_rows == [0, 1, 2]
        for x, _, _, error in report.rows:
            one = one_point(float(x), config.sum_params())
            assert isinstance(one, ZeroDivisionError)
            assert error == f"{type(one).__name__}: {one}"

    def test_cli_keeps_the_rows_past_the_cutoff(self):
        # x = 3000 and 3500 lie past the largest order at y = 1/2: their
        # rows hold the error of the one-point sum, the others its value
        config = SweepConfig(
            mode="sum", x_grid=GridSpec(2000.0, 3500.0, 4), kappa=1.0, beta=0.25, y=0.5
        )
        report = cli_report.run(config)
        assert report.error_rows == [2, 3]
        for row in report.rows:
            x, value, log_s, error = row
            one = one_point(float(x), config.sum_params())
            if isinstance(one, Exception):
                assert error == f"{type(one).__name__}: {one}"
                assert math.isnan(value) and math.isnan(log_s)
            else:
                assert (log_s, error) == (one.log_s, "")
                assert value == direct_sum(float(x), config.sum_params()).to_float()


class TestHead:
    @pytest.mark.parametrize("x", [5.0, 30.0, 60.0, 150.0])
    def test_ratio_does_not_rise_below_the_turning_point(self, x):
        # the lemma behind the head certificate: r_n = h_{n+1}/h_n does not
        # rise in n for n < M = ceil((x^2 - 1)/2) - 1, from the recurrence in
        # mpmath
        m = math.ceil((x * x - 1.0) / 2.0) - 1
        logs = np.array([logmag for _, logmag in mp_hermite_logs(range(m + 1), x)])
        log_ratios = np.diff(logs)  # ln r_0 .. ln r_{M-1}
        assert np.all(np.diff(log_ratios) < 0.0)

    @given(
        st.floats(min_value=0.5, max_value=2.5),
        st.floats(min_value=-3.0, max_value=1.0),
        st.floats(min_value=0.25, max_value=2.0),
        st.floats(min_value=53.0, max_value=400.0),
    )
    @example(1.0, 0.25, 0.5, 150.0)
    @example(1.0, 1.0, 0.25, 400.0)
    @example(2.0, -3.0, 1.0, 300.0)
    @settings(max_examples=30, deadline=None)
    def test_head_bound_holds_by_brute_force(self, kappa, beta, y, x):
        # every order below the first kept one, summed from one full sweep,
        # lies below the head bound, which lies e^60 below the largest term
        params = SumParams(kappa, beta, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decay_sum, "_HEAD_MIN_ORDERS", -math.inf)
            total = _sum_internals(x, params)
        _, logs = hermite_orders(total.n_stop, x)
        terms = _summand_logs(logs[1:], np.arange(1, total.n_stop + 1, dtype=float), params)
        if total.n_first == 1:
            assert total.log_head == -math.inf
            return
        assert total.log_head >= np.logaddexp.reduce(terms[: total.n_first - 1])
        assert total.log_head <= float(terms.max()) - 60.0

    @pytest.mark.parametrize(
        "kappa, beta, y",
        [(1.0, 0.25, 0.5), (2.0, 0.0, 0.25), (2.0, 0.0, 1.0), (1.0, 1.0, 0.5),
         (0.5, -0.5, 0.3), (1.0, -2.0, 0.5), (1.0, 0.25, 2.0)],
    )
    @pytest.mark.parametrize("x", [60.0, 110.0, 175.0])
    def test_certifies_the_last_block_start_that_passes(self, monkeypatch, kappa, beta, y, x):
        # below x = 180 one scan pass covers every order below max(N, 64):
        # the sum drops exactly the head that the certificate, restated
        # from hermite_orders, gives
        params = SumParams(kappa, beta, y)
        monkeypatch.setattr(decay_sum, "_HEAD_MIN_ORDERS", -math.inf)
        total = _sum_internals(x, params)
        first, log_head = restated_head(x, params)
        assert total.n_first == first
        assert total.log_head == pytest.approx(log_head, rel=1e-12, abs=1e-9)

    def test_drops_no_order_at_or_past_the_smallest_stop(self):
        # every start below passes; only those below n_min = 40 may go
        params = SumParams(1.0, 0.0, 0.5)
        a = np.array([10, 20, 30, 40, 50])
        logs = np.array([-500.0, -400.0, -300.0, -200.0, -100.0])
        ratios = np.full(5, 5.0)
        assert decay_sum._Head(100.0, params, 40)(a, ratios, logs) == 30
        assert decay_sum._Head(100.0, params, 41)(a, ratios, logs) == 40

    def test_bound_carries_the_power_of_the_order(self):
        # at beta = 1 the start a = 1000 lies 3 below the threshold, with
        # rho = 2: ln(1 + 1/(rho - 1)) = 0.69 would pass, ln(1 + a/(rho - 1))
        # = 6.9 does not
        params = SumParams(1.0, 1.0, 0.5)
        a = np.array([1000, 2000])
        # terms 0 and 63: ln|h_a| = t_a + a y + beta ln a
        logs = np.array([500.0 + math.log(1000.0), 63.0 + 1000.0 + math.log(2000.0)])
        ratios = np.full(2, math.log(2.0) + 0.5 + 1e-6)
        head = decay_sum._Head(10.0, params, 5000)
        assert head(a, ratios, logs) == 0
        assert head.top == pytest.approx(63.0)


class TestTailBound:
    def test_beta_zero_closed_form(self):
        params = SumParams(2.0, 0.0, 0.7)
        got = tail_bound(25, params)
        want = (
            -0.5 * math.log(math.pi)
            - 2.0 * 25 * 0.7
            - math.log1p(-math.exp(-2.0 * 0.7))
        )
        assert got.sign == 1
        assert got.logmag == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("beta", [1.0, 0.25, 0.0, -0.5, -2.0])
    def test_dominates_exact_partial_sums(self, beta):
        # certified bound vs 1e5 exactly summed terms
        params = SumParams(1.0, beta, 0.3)
        for x, start in ((4.0, 1), (30.0, 200), (12.0, 64)):
            _, logs = hermite_orders(start + 100_000, x)
            n = np.arange(start, start + 100_001, dtype=float)
            t = params.kappa * (logs[start:] - n * params.y) - beta * np.log(n)
            partial = _log_sum(t)
            assert tail_bound(start, params).logmag >= partial

    def test_start_validation(self):
        with pytest.raises(ValueError):
            tail_bound(0, SumParams(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("start", [2.5, True, np.True_, math.nan, math.inf, -math.inf, -3])
    def test_start_must_be_a_whole_number(self, start):
        # 2.5 and True once returned a bound, nan +inf, and inf -inf, which
        # claimed a zero tail
        with pytest.raises(ValueError, match="whole number >= 1"):
            tail_bound(start, SumParams(1.0, 0.0, 1.0))

    def test_takes_a_whole_float_start(self):
        params = SumParams(1.0, -0.5, 0.5)
        assert tail_bound(3.0, params) == tail_bound(3, params) == tail_bound(np.int64(3), params)

    @pytest.mark.filterwarnings("error")
    def test_infinite_while_the_majorant_diverges(self):
        # at beta = -1000 the geometric ratio e^(-kappa y + |beta|/s) is
        # e^999.5 at s = 1; the bound is +inf up to kappa y s = |beta|
        # without evaluating it
        params = SumParams(1.0, -1000.0, 0.5)
        assert tail_bound(1, params).logmag == math.inf
        assert tail_bound(2000, params).logmag == math.inf
        # a form that masks the divergent orders only after computing
        # their ratio overflows
        s = np.arange(1.0, 2001.0)
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            np.where(s > 2000.0, np.exp(1000.0 / s - 0.5), np.inf)

    @pytest.mark.parametrize("kappa, beta, y", [(1.0, -1000.0, 0.5), (2.0, -2.0, 0.3)])
    def test_finite_past_the_divergence(self, kappa, beta, y):
        # past s = |beta| / (kappa y) the bound is the closed form of the
        # geometric majorant, and dominates the sum of pi^(-kappa/4)
        # e^(-kappa y n) n^(-beta) over 2e5 orders from s on
        params = SumParams(kappa, beta, y)
        for s in (math.floor(-beta / (kappa * y)) + 1, 4000, 100_000):
            got = tail_bound(s, params).logmag
            want = (
                -0.25 * kappa * math.log(math.pi)
                - beta * math.log(s)
                - kappa * y * s
                - math.log1p(-math.exp(-kappa * y - beta / s))
            )
            assert got == pytest.approx(want, rel=1e-14)
            n = np.arange(s, s + 200_000, dtype=float)
            majorant = -0.25 * kappa * math.log(math.pi) - kappa * y * n - beta * np.log(n)
            assert got >= _log_sum(majorant)

    def test_tail_negligible_against_main_scale(self):
        # at the analysis cutoff N the tail is at most a bounded multiple
        # of x^(-2 beta) e^(-kappa x^2 tanh(y)/2), i.e. 1/sqrt(x) of the
        # sum's own scale; the multiple stays below e^3 on this sweep
        for kappa, beta, y in ((1.0, 0.25, 1.0), (2.0, 1.0, 0.5), (1.0, 0.0, 0.25)):
            params = SumParams(kappa, beta, y)
            for x in (20.0, 50.0, 100.0):
                n_cut = truncation_index(x, y)
                t = tail_bound(n_cut, params).logmag
                main_scale = -2.0 * beta * math.log(x) - 0.5 * kappa * x * x * math.tanh(y)
                assert t - main_scale <= 3.0


class TestEnvelope:
    def test_quarter_beta_kills_power(self):
        params = SumParams(1.0, 0.25, 0.8)
        for x in (2.0, 20.0):
            assert envelope(x, params).logmag == pytest.approx(
                -0.5 * x * x * math.tanh(0.8), rel=1e-14
            )

    def test_at_x_one(self):
        params = SumParams(3.0, -1.0, 0.6)
        assert envelope(1.0, params).logmag == pytest.approx(
            -1.5 * math.tanh(0.6), rel=1e-14
        )

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            envelope(0.0, SumParams(1.0, 0.0, 1.0))

    def test_consistent_with_peak_value(self):
        # envelope exponent = kappa * (peak of A) up to O_y(1) slack
        params = SumParams(2.0, 0.25, 0.5)
        for x in (25.0, 70.0):
            profile = find_nmax(x, params.y)
            env_exp = envelope(x, params).logmag - envelope_power(params) * math.log(x)
            assert abs(env_exp - params.kappa * profile.a_max) <= params.kappa * 1.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: envelope(x, SumParams(1.0, 0.25, 0.5)),
        lambda x: plancherel_rotach_estimate(10, x),
        lambda x: hermite_pr_bound(10, x, 1.0, 0.25, 0.5),
        lambda x: phi_coordinate(1, x),
        lambda x: find_nmax(x, 0.5),
    ],
    ids=["envelope", "plancherel_rotach_estimate", "hermite_pr_bound", "phi_coordinate",
         "find_nmax"],
)
def test_rejects_a_non_finite_x(call, x):
    # each once returned nan or raised something other than ValueError
    with pytest.raises(ValueError, match="finite"):
        call(x)


class TestSharpnessCertificate:
    def test_reference_band(self):
        # (kappa, beta, y) = (1, 1/4, 1) on [15, 60]: the classic passing
        # configuration; both the band and the slope have wide margins
        params = SumParams(1.0, 0.25, 1.0)
        xs = np.geomspace(15.0, 60.0, 40)
        cert = sharpness_certificate(xs, params)
        assert cert.ratio_max / cert.ratio_min <= 10.0
        assert abs(cert.slope) <= 0.05
        assert cert.ratio_min > 0.0
        assert math.isfinite(cert.ratio_max)

    def test_restricted_window(self):
        params = SumParams(1.0, 0.25, 1.0)
        cert = sharpness_certificate(np.geomspace(15.0, 40.0, 8), params)
        assert all(0.0 < f <= 1.0 for f in cert.restricted_fractions)
        # the window around the maximizer carries nearly everything
        assert min(cert.restricted_fractions) > 0.5
        assert cert.restricted_ratio_min > 0.0

    def test_beta_shift_identity(self):
        # R_beta / R_(beta+1/2) equals (S_beta / S_(beta+1/2)) / x exactly,
        # and the S-ratio itself grows about linearly in x
        y = 1.0
        xs = np.geomspace(15.0, 60.0, 12)
        lo = sharpness_certificate(xs, SumParams(1.0, 0.25, y))
        hi = sharpness_certificate(xs, SumParams(1.0, 0.75, y))
        s_ratio = []
        for i, x in enumerate(xs):
            r = lo.ratios[i] / hi.ratios[i]
            s_lo = direct_sum(x, SumParams(1.0, 0.25, y)).logmag
            s_hi = direct_sum(x, SumParams(1.0, 0.75, y)).logmag
            assert r * x == pytest.approx(math.exp(s_lo - s_hi), rel=1e-9)
            s_ratio.append(s_lo - s_hi)
        fit = np.polyfit(np.log(xs), s_ratio, 1)[0]
        assert 0.8 <= fit <= 1.2

    def test_refuses_degenerate_domain(self):
        params = SumParams(1.0, 0.25, 1.0)
        with pytest.raises(ValueError):
            sharpness_certificate([0.5, 2.0, 15.0], params)
        with pytest.raises(ValueError):
            sharpness_certificate([20.0, 15.0], params)
        with pytest.raises(ValueError):
            sharpness_certificate([30.0], params)

    def test_propagates_threshold_failures(self):
        with pytest.raises(ValueError):
            sharpness_certificate([2.0, 4.0], SumParams(1.0, 0.25, 0.25))


class TestPoissonIdentity:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_identity_on_grid(self, delta):
        for x in np.linspace(1.0, 50.0, 25):
            lhs = gaussian_theta(float(x), delta)
            rhs = gaussian_theta_dual(float(x), delta)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, x, delta):
        assert gaussian_theta(x, delta) == pytest.approx(
            gaussian_theta_dual(x, delta), rel=1e-12
        )

    @pytest.mark.parametrize("theta", [gaussian_theta, gaussian_theta_dual])
    def test_theta_names_a_bad_argument(self, theta):
        for x in (0.0, -0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^x must be a finite (nonzero )?number"):
                theta(x, 1.0)
        for delta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^delta must be a positive finite number"):
                theta(1.0, delta)

    def test_theta_at_a_tiny_x_is_its_limit(self):
        # x^2 underflows to 0: every term but n = 0 vanishes
        assert gaussian_theta(1e-200, 1.0) == 1.0

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            theta_sum(0.0)
        with pytest.raises(ValueError):
            theta_sum(math.nan)

    def test_theta_sum_streams_its_terms(self):
        # 7.1e4 terms: a list of them alone would peak near 2 MB
        scale = 1e-8
        terms = [1.0]
        n = 1
        while (t := math.exp(-scale * n * n)) >= 1e-22:
            terms.append(2.0 * t)
            n += 1
        want = math.fsum(terms)
        del terms
        tracemalloc.start()
        try:
            got = theta_sum(scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 0.5e6


class TestQuadraticEnvelope:
    def test_gaussian_upper_envelope(self):
        # A(n) <= A(n_max) - c (n - n_max)^2 / (2 x^2) with c the smallest
        # concavity margin on the window
        for x, y in ((20.0, 0.5), (50.0, 1.0), (100.0, 0.25)):
            profile = find_nmax(x, y)
            grid = np.linspace(1.0, profile.truncation_n - 1.0, 4001)
            c = min(
                -argument_derivatives(float(n), x, y)[1] * x * x for n in grid
            )
            assert c > 0.0
            for n in range(1, profile.truncation_n):
                a = argument_function(float(n), x, y)
                bound = profile.a_max - c * (n - profile.n_max) ** 2 / (2.0 * x * x)
                assert a <= bound + 1e-9

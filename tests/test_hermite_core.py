import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_decay import hermite_core
from hermite_decay.hermite_core import (
    EPSILON_MONOTONIC,
    EXTENDED_PRECISION_ORDER,
    SignedLog,
    hermite_batch,
    hermite_exact,
    hermite_moment_sweep,
    hermite_orders,
    hermite_pr_bound,
    hermite_values,
    phi_coordinate,
    plancherel_rotach_estimate,
)
from oracles import (
    POLYNOMIAL_ORACLE_MAX,
    debye_polynomials,
    entry_bound,
    hermite_polynomial_coefficients,
    hermite_via_polynomial,
    mp_hermite_log,
    mp_hermite_logs,
    mp_hermite_value,
    per_step_rescaled_recurrence,
    unit_coefficients,
)

LOG_UNIFORM_BOUND = -0.25 * math.log(math.pi)
# hermite_values returns plain doubles: compare them in log only above the
# smallest normal double, and expect an exact 0.0 below the subnormals
LOG_NORMAL_MIN = math.log(sys.float_info.min)
LOG_SUBNORMAL_MIN = math.log(5e-324)

# Frozen oracle values: mpmath recurrence at 50 significant digits
# (sign, log magnitude), regenerated by tests/oracles.mp_hermite_log.
FROZEN_LOGS = [
    (1000, 200.0, 1, -17317.78265889980787779),
    (5000, 150.0, 1, -3575.932776257247765735),
    (123, 17.5, 1, -11.00110468797094614897),
    (777, 3.25, 1, -2.401720949504099999051),
    (10000, 50.0, -1, -2.674630383035047694197),
    (31, 4.4, -1, -1.171661898691467465082),
    (200000, 700.0, 1, -13374.4685727815055993),
]


class TestSignedLog:
    def test_zero_normalizes(self):
        v = SignedLog(0, 5.0)
        assert v.logmag == -math.inf
        assert v.to_float() == 0.0

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedLog(2, 0.0)

    @pytest.mark.parametrize("sign", [-1, 0, 1])
    def test_nan_logmag_rejected(self, sign):
        with pytest.raises(ValueError, match="logmag"):
            SignedLog(sign, math.nan)

    def test_infinite_logmag_is_past_double_range(self):
        assert SignedLog(-1, math.inf).to_float() == -math.inf

    def test_from_float_zero_and_signs(self):
        assert SignedLog.from_float(0.0).sign == 0
        assert SignedLog.from_float(-3.5).sign == -1
        assert SignedLog.from_float(3.5).sign == 1
        with pytest.raises(ValueError):
            SignedLog.from_float(math.inf)

    def test_saturation(self):
        assert SignedLog(1, 800.0).to_float() == math.inf
        assert SignedLog(-1, 800.0).to_float() == -math.inf
        assert SignedLog(1, -800.0).to_float() == 0.0
        # the cut sits at ln(DBL_MAX) = 709.7827..., not at a round 710
        assert math.isfinite(SignedLog(1, 709.78).to_float())
        assert SignedLog(1, 709.8).to_float() == math.inf
        assert SignedLog(-1, 709.95).to_float() == -math.inf

    @given(
        st.floats(min_value=1e-52, max_value=1e52),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_roundtrip_working_range(self, mag, sgn):
        v = sgn * mag
        back = SignedLog.from_float(v).to_float()
        assert back == pytest.approx(v, rel=1e-14)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_roundtrip_full_range(self, v):
        # the log representation resolves |logmag|*2^-53 at best, so the
        # guarantee loosens toward the edges of double range
        back = SignedLog.from_float(v).to_float()
        assert back == pytest.approx(v, rel=2e-13)


class TestPhiCoordinate:
    def test_example_49_20(self):
        phi = phi_coordinate(49, 20.0)
        assert phi == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-14)
        assert isinstance(phi, float)

    def test_boundary_is_exact_zero(self):
        x = math.sqrt(2.0 * 50.0)
        assert phi_coordinate(49, x) == 0.0

    def test_inside_oscillatory_region_rejected(self):
        with pytest.raises(ValueError):
            phi_coordinate(49, 5.0)

    @given(
        st.floats(min_value=0.0, max_value=5000.0),
        st.floats(min_value=1.0 + 1e-9, max_value=50.0),
    )
    def test_cosh_inverse_invariant(self, n, ratio):
        edge = math.sqrt(2.0 * (n + 1.0))
        x = ratio * edge
        phi = phi_coordinate(n, x)
        assert edge * math.cosh(phi) == pytest.approx(x, rel=1e-12)


class TestHermiteExact:
    def test_h0_at_origin(self):
        v = hermite_exact(0, 0.0)
        assert v.sign == 1
        assert v.to_float() == pytest.approx(math.pi**-0.25, rel=1e-14)

    def test_h1_at_origin_is_exact_zero(self):
        v = hermite_exact(1, 0.0)
        assert v.sign == 0
        assert v.logmag == -math.inf

    def test_h3_at_2_closed_form(self):
        # H_3(x) = 8x^3 - 12x, so h_3(2) = e^-2 * 40 / sqrt(48 sqrt(pi))
        expected = math.exp(-2.0) * 40.0 / math.sqrt(48.0 * math.sqrt(math.pi))
        assert hermite_exact(3, 2.0).to_float() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,x,sign,logmag", FROZEN_LOGS)
    def test_frozen_oracle_values(self, n, x, sign, logmag):
        got = hermite_exact(n, x)
        assert got.sign == sign
        assert abs(got.logmag - logmag) <= 1e-10 * max(1.0, abs(logmag) * 1e-6)

    def test_extended_tier_at_huge_order(self):
        # slow path (arbitrary precision): one representative point
        got = hermite_exact(1000000, 900.0)
        assert got.sign == 1
        assert abs(got.logmag - -10.83972416119240080081) <= 1e-10

    @pytest.mark.skipif(hermite_core._EXTENDED_FLOAT is None, reason="no extended long double")
    def test_extended_tier_takes_the_log_in_long_double(self):
        # ln(|p| s) is taken in long double and only then rounded to a
        # double for the ledger; at these points rounding p to a double
        # first would move that log.  The long-double walk goes on from
        # the pair that the double walk holds at the hand-off order
        for n, x in [(20699, -33.3), (21498, -2.3), (21368, 170.6), (20728, 127.8),
                     (21938, -4.4), (21526, -106.6), (40000, 310.0)]:
            got = hermite_exact(n, x)
            assert (got.sign, got.logmag) == long_double_log(n, x, hand_off(x)), (n, x)

    @given(st.integers(0, EXTENDED_PRECISION_ORDER), st.floats(-1000.0, 1000.0))
    @example(EXTENDED_PRECISION_ORDER, 1000.0)
    @example(EXTENDED_PRECISION_ORDER, -1e-300)
    @example(19999, 0.0)
    @settings(max_examples=25, deadline=None)
    def test_runs_the_double_loop_up_to_the_hand_off(self, n, x):
        # long double starts only past EXTENDED_PRECISION_ORDER
        (_, p), walls, (_, s) = hermite_core._scalar_loop(n, x)
        got = hermite_exact(n, x)
        want = hermite_core._log_magnitudes(p, walls, s, x, n)
        assert (got.sign, got.logmag) == (int(np.sign(p)), float(want))

    @pytest.mark.skipif(hermite_core._EXTENDED_FLOAT is None, reason="no extended long double")
    @pytest.mark.parametrize("x", [1.0, 7.69, 49.5, 500.0, 728.0, 1000.0])
    def test_hand_off_holds_the_contract(self, x):
        # the double walk up to the hand-off order carries its drift (8.5e-14
        # at 2e4) into the long-double walk: over these points the worst
        # error is 4.2e-14 relative, at (20004, 7.69), and 1.5e-11 absolute,
        # one ulp of ln|h| = -83194 at (20024, 500), as a walk all in long
        # double gives
        orders = [*range(EXTENDED_PRECISION_ORDER + 1, EXTENDED_PRECISION_ORDER + 33), 30000]
        for n, (sign, logmag) in zip(orders, mp_hermite_logs(orders, x)):
            got = hermite_exact(n, x)
            assert got.sign == sign
            assert abs(got.logmag - logmag) <= 1e-10, n

    @pytest.mark.skipif(hermite_core._EXTENDED_FLOAT is None, reason="no extended long double")
    def test_builds_no_long_double_table(self, monkeypatch):
        # the long-double walk starts past the coefficient table's end, so
        # only the double table is built
        monkeypatch.setattr(hermite_core, "_TABLES", {})
        hermite_exact(30000, 728.0)
        assert list(hermite_core._TABLES) == [float]

    @pytest.mark.parametrize("x", [0.0, -1e-300, 3.0, 41.3, -150.0, 1000.0])
    def test_one_conversion_for_one_value_and_for_a_stream(self, x):
        # the stream's orders convert with the ledger formed once per wall
        # count and gathered, hermite_exact's one value on Python floats:
        # the same bits at every order, across up to 49 wall counts
        ps, walls, scales = hermite_core._OrderStream(x).take(4999)
        logs = hermite_core._log_magnitudes(ps, walls, scales, x, range(5000))
        one = hermite_core._log_magnitudes
        for k in range(5000):
            assert logs[k] == one(float(ps[k]), int(walls[k]), scales[k], x, k), k

    def test_extended_tier_needs_long_double(self, monkeypatch):
        monkeypatch.setattr(hermite_core, "_EXTENDED_FLOAT", None)
        with pytest.raises(ValueError, match="long double"):
            hermite_exact(EXTENDED_PRECISION_ORDER + 1, 1.0)
        assert hermite_exact(EXTENDED_PRECISION_ORDER, 1.0).sign != 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hermite_exact(-1, 0.0)
        with pytest.raises(ValueError):
            hermite_exact(3, math.nan)

    @given(
        st.integers(min_value=0, max_value=2000),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_uniform_bound(self, n, x):
        assert hermite_exact(n, x).logmag <= LOG_UNIFORM_BOUND + 1e-12

    @given(
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.001, max_value=60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_parity(self, n, x):
        plus = hermite_exact(n, x)
        minus = hermite_exact(n, -x)
        assert minus.sign == plus.sign * (-1) ** n
        if plus.sign != 0:
            assert minus.logmag == pytest.approx(plus.logmag, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 30])
    def test_against_polynomial_oracle(self, n):
        for x in (-7.5, -2.0, -0.3, 0.9, 4.0, 11.0):
            want = hermite_via_polynomial(n, x)
            got = hermite_exact(n, x).to_float()
            assert got == pytest.approx(want, rel=1e-10)


class TestPolynomialOracle:
    def test_first_tables(self):
        assert hermite_polynomial_coefficients(0) == [1]
        assert hermite_polynomial_coefficients(1) == [0, 2]
        assert hermite_polynomial_coefficients(2) == [-2, 0, 4]
        assert hermite_polynomial_coefficients(3) == [0, -12, 0, 8]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hermite_polynomial_coefficients(POLYNOMIAL_ORACLE_MAX + 1)
        with pytest.raises(ValueError):
            hermite_polynomial_coefficients(-1)

    @pytest.mark.parametrize("n", [4, 12, 25, 30])
    def test_matches_mpmath_hermite(self, n):
        # cross-validates our integer tables against an external H_n
        for x in (-3.7, 0.25, 1.8, 6.1):
            assert hermite_via_polynomial(n, x) == pytest.approx(
                mp_hermite_value(n, x), rel=1e-12
            )


class TestSweeps:
    @pytest.mark.parametrize("x", [0.0, 0.7, -13.2, 55.0])
    def test_orders_matches_exact(self, x):
        n_top = 120
        signs, logs = hermite_orders(n_top, x)
        for n in (0, 1, 2, 3, 50, 119, 120):
            ref = hermite_exact(n, x)
            assert signs[n] == ref.sign
            if ref.sign != 0:
                assert logs[n] == pytest.approx(ref.logmag, rel=1e-12, abs=1e-12)

    def test_orders_continue_across_coefficient_blocks(self):
        # the table ends at _TABLE_ORDERS and computed ranges of as many
        # orders follow; orders on both sides of each edge continue one
        # recurrence
        x = 41.3
        table = hermite_core._TABLE_ORDERS
        edge = 2 * table
        signs, logs = hermite_orders(edge + 5, x)
        assert signs.size == logs.size == edge + 6
        for n in (table - 1, table, table + 1, edge - 1, edge, edge + 1):
            ref = hermite_exact(n, x)
            assert signs[n] == ref.sign
            assert logs[n] == pytest.approx(ref.logmag, rel=1e-12)

    @pytest.mark.parametrize("n_top", [63, 64, 65, 5000])
    def test_order_blocks_concatenate_to_orders(self, n_top):
        # the sum draws the orders from one stream in requests of its own
        # sizes; each request gets exactly its orders, the stream runs
        # less than one stride past them, and joined they are the one
        # sweep of hermite_orders (at x = 150 a scan, at x = 41.3 single
        # steps)
        for x in (41.3, 150.0):
            stride = hermite_core._stride(x)
            stream = hermite_core._OrderStream(x)
            blocks, start, count = [], 0, 64
            while start <= n_top:
                last = min(start + count, n_top + 1) - 1
                block = stream.logs(last)
                assert block[0].size == block[1].size == last + 1 - start
                blocks.append(block)
                start += block[0].size
                assert stream._k - (start - 1) < stride  # computed past the last handed out
                count *= 2
            assert start == n_top + 1
            signs, logs = hermite_orders(n_top, x)
            assert np.array_equal(np.concatenate([b[0] for b in blocks]), signs)
            assert np.array_equal(np.concatenate([b[1] for b in blocks]), logs)
            # orders on both sides of each block boundary continue one recurrence
            edges = np.cumsum([b[0].size for b in blocks])
            for n in ({0, n_top} | set(edges - 1) | set(edges)) & set(range(n_top + 1)):
                ref = hermite_exact(n, x)
                assert signs[n] == ref.sign
                assert logs[n] == pytest.approx(ref.logmag, rel=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_last_orders_join_to_one_take(self, data):
        # requests through random last orders, which end mid-stride, inside
        # a scan block or past scan_end, on a fresh stream or one entered
        # at a block start (below the scan threshold every order is
        # stepped, across the coefficient table's end): joined, they hold
        # the bytes of one take through the last of them, each holds the
        # orders after the one before (none for a repeated last order),
        # and the stream ends with the same pair, wall count and last order
        below = st.floats(min_value=-50.0, max_value=50.0)
        past = st.floats(min_value=55.0, max_value=200.0)
        x = data.draw(st.one_of(below, past, past.map(lambda v: -v)), label="x")
        entered = x > 0 and hermite_core._EXTENDED_FLOAT is not None and data.draw(st.booleans())

        def stream():
            out = hermite_core._OrderStream(x)
            if entered and out.scan_end:
                assert out.enter(turning_order(abs(x)) // 2 // out.stride * out.stride)
            return out

        parts, whole = stream(), stream()
        top = parts.scan_end + 4 * parts.stride if parts.scan_end else 20000
        lasts = sorted(data.draw(
            st.lists(st.integers(parts.first, top), min_size=1, max_size=6), label="lasts"
        ))
        taken, before = [], parts.first - 1
        for last in lasts:
            part = parts.take(last)
            assert all(field.size == last - before for field in part)
            taken.append(part)
            before = last
        for field, joined in zip(whole.take(lasts[-1]), zip(*taken)):
            joined = np.concatenate(joined)
            assert joined.dtype == field.dtype and joined.tobytes() == field.tobytes()
        assert (parts._k, parts._pair) == (whole._k, whole._pair)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_requests_ending_mid_stride_join_to_one_take(self, data):
        # the orders past the scan are stepped by _step_pairs in requests of
        # the callers' sizes, here 1 to 3 strides, so most end inside a
        # stride slice: joined, they hold the bytes of one request, and the
        # stream ends with the same pair and wall count.  Below the scan
        # threshold every order is stepped, and the requests may cross the
        # coefficient table's end; past it they go on from the scan's last pair
        below = st.floats(min_value=-50.0, max_value=50.0)
        past = st.floats(min_value=55.0, max_value=100.0)
        x = data.draw(st.one_of(below, past, past.map(lambda v: -v)), label="x")
        stride = hermite_core._stride(abs(x))
        stream = hermite_core._OrderStream(x)
        top = 20000 if not stream.scan_end else stream.scan_end + 8 * stride
        n = data.draw(st.integers(min_value=stream.scan_end + 1, max_value=top), label="n")
        parts, taken = [], 0
        while taken < n:
            size = min(data.draw(st.integers(min_value=1, max_value=3 * stride)), n - taken)
            part = stream.take(taken + size - 1)
            assert all(field.size == size for field in part)
            parts.append(part)
            taken += size
        whole = hermite_core._OrderStream(x)
        for field, joined in zip(whole.take(n - 1), zip(*parts)):
            joined = np.concatenate(joined)
            assert joined.dtype == field.dtype
            assert joined.tobytes() == field.tobytes()
        assert stream._k == whole._k == n - 1
        assert stream._pair == whole._pair
        assert [type(v) for v in stream._pair] == [float, float, int]

    @pytest.mark.parametrize("n_top", [0, 1])
    def test_orders_at_the_smallest_n_top(self, n_top):
        signs, logs = hermite_orders(n_top, 0.0)
        assert list(signs) == [1, 0][: n_top + 1]
        assert logs[0] == pytest.approx(-0.25 * math.log(math.pi), rel=1e-15)

    def test_orders_rescales_far_below_double_range(self):
        signs, logs = hermite_orders(10, 60.0)
        assert signs[0] == 1
        assert logs[0] == pytest.approx(-1800.0 - 0.25 * math.log(math.pi), rel=1e-13)

    def test_batch_matches_exact(self):
        rng = np.random.default_rng(42)
        ns = rng.integers(0, 1200, size=120)
        xs = rng.uniform(-100.0, 100.0, size=120)
        ns[0], xs[0] = 0, 0.0
        ns[1], xs[1] = 1, 0.0  # exact zero must survive the batch path
        signs, logs = hermite_batch(ns, xs)
        for i in range(len(ns)):
            ref = hermite_exact(int(ns[i]), float(xs[i]))
            assert signs[i] == ref.sign
            if ref.sign != 0:
                assert logs[i] == pytest.approx(ref.logmag, rel=1e-11, abs=1e-11)

    def test_batch_empty(self):
        signs, logs = hermite_batch([], [])
        assert signs.size == 0 and logs.size == 0

    def test_batch_shape_mismatch(self):
        with pytest.raises(ValueError):
            hermite_batch([1, 2], [0.0])

    @pytest.mark.parametrize("xs", [[[1.0, 2.0], [3.0, 4.0]], np.ones((1, 3))])
    def test_values_reject_xs_that_is_not_1d(self, xs):
        # a 2-D xs failed with a numpy broadcast error, where hermite_batch
        # and hermite_moment_sweep raise ValueError
        with pytest.raises(ValueError, match="1-D"):
            hermite_values(2, xs)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_batch_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="finite"):
            hermite_batch([5, 3], [x, 1.0])

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_values_reject_non_finite_x(self, x):
        with pytest.raises(ValueError, match="finite"):
            hermite_values(3, [1.0, x])

    @pytest.mark.parametrize("x", [-math.inf, math.nan])
    def test_moment_sweep_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="finite"):
            hermite_moment_sweep([x, 0.5], [1.0, 1.0], 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_moment_sweep_rejects_non_finite_weights(self, w):
        # one nan weight made every moment nan
        with pytest.raises(ValueError, match="^weights must be a 1-D array of finite numbers"):
            hermite_moment_sweep([1.0, 2.0], [1.0, w], 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [2.0**511, -(2.0**511)])
    def test_every_frontend_runs_at_the_largest_x(self, x):
        # one recurrence step multiplies by up to |x| sqrt(2), which stays
        # finite up to 2^511; the values are far below double range
        exact = hermite_exact(3, x)
        signs, logs = hermite_orders(3, x)
        batch_signs, batch_logs = hermite_batch([3, 0], [x, x])
        assert exact.sign == signs[3] == batch_signs[0] == (-1 if x < 0 else 1)
        assert math.isfinite(exact.logmag) and exact.logmag < -1e300
        assert np.isfinite(logs).all() and np.isfinite(batch_logs).all()
        assert logs[3] == pytest.approx(exact.logmag, rel=1e-15)
        assert batch_logs[0] == pytest.approx(exact.logmag, rel=1e-15)
        assert np.array_equal(hermite_values(60, [x, 1.0])[:, 0], np.zeros(61))
        assert np.array_equal(hermite_moment_sweep([x], [1.0], 60), np.zeros(61))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [2.0**512, 1.99 * 2.0**511, math.inf, math.nan])
    def test_every_frontend_rejects_x_past_the_largest(self, x):
        calls = (
            lambda: hermite_exact(3, x),
            lambda: hermite_orders(3, x),
            lambda: hermite_batch([3], [x]),
            lambda: hermite_values(60, [x]),
            lambda: hermite_moment_sweep([x], [1.0], 60),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"finite numbers? with \|x\| <= 2\^511"):
                call()

    def test_negative_n_top_raises(self):
        for call in (
            lambda: hermite_orders(-1, 1.0),
            lambda: hermite_values(-1, [1.0]),
            lambda: hermite_moment_sweep([1.0], [1.0], -1),
            lambda: hermite_batch([2, -1], [1.0, 1.0]),
        ):
            with pytest.raises(ValueError, match="must be a whole number >= 0, got -1"):
                call()

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -math.inf, 1e30])
    def test_every_frontend_rejects_an_order_that_is_no_whole_number(self, n):
        # checked against the cast: hermite_batch once truncated 2.5 to 2,
        # and 1e30 would wrap in int64
        calls = (
            lambda: hermite_exact(n, 1.0),
            lambda: hermite_orders(n, 1.0),
            lambda: hermite_batch([1, n], [1.0, 1.0]),
            lambda: hermite_values(n, [1.0]),
            lambda: hermite_moment_sweep([1.0], [1.0], n),
        )
        for call in calls:
            with pytest.raises(ValueError, match="must be a whole number >= 0, got"):
                call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: hermite_exact(n, 1.0),
            lambda n: hermite_orders(n, 1.0),
            lambda n: hermite_batch(np.atleast_1d(n), [1.0]),
            lambda n: hermite_values(n, [1.0]),
            lambda n: hermite_moment_sweep([1.0], [1.0], n),
        ],
        ids=["hermite_exact", "hermite_orders", "hermite_batch", "hermite_values",
             "hermite_moment_sweep"],
    )
    @pytest.mark.parametrize("n", [True, np.True_, [True]], ids=["True", "np.True_", "[True]"])
    def test_every_frontend_rejects_a_bool_order(self, call, n):
        # True once passed the cast to int64 as order 1, as tail_bound's
        # start did before it was checked
        with pytest.raises(ValueError, match="must be a whole number >= 0, got True"):
            call(n)
        call(1)
        call(np.int64(1))
        call(1.0)

    def test_every_frontend_takes_a_whole_float_order(self):
        want = hermite_exact(3, 1.0)
        assert hermite_exact(3.0, 1.0) == want
        assert hermite_orders(3.0, 1.0)[1][3] == hermite_batch([3.0], [1.0])[1][0]
        assert hermite_values(3.0, [1.0]).shape == (4, 1)
        assert hermite_moment_sweep([1.0], [1.0], 3.0).shape == (4,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [6e4, 1e10, 2.0**511])
    def test_values_far_out_are_exact_zeros(self, x):
        # the exponent of 2 and the factor of the Gaussian stay in range
        # whatever x is, so no cast or multiply warns
        vals = hermite_values(3, [x, 1.0, -x])
        assert np.array_equal(vals[:, [0, 2]], np.zeros((4, 2)))
        assert np.array_equal(vals[:, 1], hermite_values(3, [1.0])[:, 0])

    def test_values_matches_orders(self):
        xs = np.array([-8.0, -1.0, 0.0, 0.5, 9.0, 40.0])
        vals = hermite_values(25, xs)
        assert vals.shape == (26, 6)
        for j, x in enumerate(xs):
            signs, logs = hermite_orders(25, float(x))
            with np.errstate(under="ignore"):
                want = signs * np.exp(logs)
            np.testing.assert_allclose(vals[:, j], want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("x", [40.0, 60.0])
    def test_values_keep_normal_doubles_whose_scale_underflows(self, x):
        # the running pair grows to 2^912, so a normal h_k can carry a
        # ledger scale that is far below double range on its own
        vals = hermite_values(1200, [x])[:, 0]
        signs, logs = hermite_orders(1200, x)
        normal = logs > LOG_NORMAL_MIN
        np.testing.assert_array_equal(np.sign(vals[normal]), signs[normal])
        np.testing.assert_allclose(
            np.log(np.abs(vals[normal])), logs[normal], rtol=0.0, atol=1e-10
        )

    def test_values_flush_to_zero_below_double_range(self):
        vals = hermite_values(2, np.array([60.0]))
        assert vals[0, 0] == 0.0  # e^-1800 is not a double

    def test_moment_sweep_matches_matrix_product(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-6.0, 6.0, size=300)
        w = rng.normal(size=300)
        dots = hermite_moment_sweep(xs, w, 40)
        want = hermite_values(40, xs) @ w
        np.testing.assert_allclose(dots, want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("grid", ["mirrored", "zeros", "tiny", "repeated", "far"])
    def test_moment_sweep_folds_each_distinct_magnitude(self, grid):
        # the sweep walks each distinct |x| once, with the weights of +x and
        # -x folded into an even and an odd weight; unequal weights keep the
        # odd moments of a mirrored grid from cancelling.  Near |x| = 40 the
        # Gaussian alone lies below double range, so the folded weights are
        # subnormal or 0.0 until the first wall moves them up
        rng = np.random.default_rng(11)
        half = rng.uniform(0.0, 6.0, 40)
        xs, n_top = {
            "mirrored": (np.concatenate([half, -half, [0.0]]), 60),
            "zeros": (np.array([0.0, -0.0, 0.0, 1.0, -1.0, -0.0]), 60),
            "tiny": (np.array([1e-300, -1e-300, 5e-324, -2.5e-320, 2.0**-511, -(2.0**-520), 0.5]),
                     60),
            "repeated": (np.array([1.5, 1.5, -1.5, 2.0, 2.0, -2.0, -2.0, 3.0, 1.5]), 60),
            "far": (np.concatenate([40.0 + half / 30, -40.0 - half / 30, [38.0, -41.5]]), 1200),
        }[grid]
        w = rng.normal(size=xs.size)
        dots = hermite_moment_sweep(xs, w, n_top)
        want = hermite_values(n_top, xs) @ w
        np.testing.assert_allclose(dots, want, rtol=1e-12, atol=1e-13)
        assert np.abs(dots).max() > 1e-3  # the moments are not all lost to atol

    @pytest.mark.parametrize("shift", [-1000, 1000])
    def test_moment_sweep_scales_with_its_weights(self, shift):
        # the folded weights are taken relative to a power of two at the
        # largest |weight|, so scaling the weights by 2^shift scales every
        # moment by exactly 2^shift, wherever the result is a normal
        # double; weights near 2^-1000 would otherwise fold into the
        # subnormals and lose their bits
        rng = np.random.default_rng(13)
        xs = rng.uniform(-8.0, 8.0, 200)
        w = rng.normal(size=xs.size)
        dots = hermite_moment_sweep(xs, w, 80)
        scaled = hermite_moment_sweep(xs, np.ldexp(w, shift), 80)
        normal = np.abs(dots) >= 2.0**-20
        assert normal.sum() > 40
        assert np.array_equal(scaled[normal], np.ldexp(dots[normal], shift))


class TestBlockWidths:
    """Every point gets the same bits from the block walk at any width.

    A point's p_k and wall counts depend only on the point and on the
    stride that the largest |x| of the call sets, so a wide call must
    give each point the bits of a narrow call that shares its largest |x|.
    Past _CELLS // stride points a block holds fewer orders than a
    stride, so the widths on both sides of that edge split the strides
    differently, and short blocks at the stride ends cycle the walk's
    ring of rows.
    """

    @staticmethod
    def grid(x_max, side):
        stride = hermite_core._stride(x_max)
        width = hermite_core._CELLS // stride + side
        rng = np.random.default_rng([int(x_max), side + 1])
        xs = rng.uniform(-x_max, x_max, width)
        xs[:5] = [x_max, 0.0, -0.0, 1e-300, -x_max]
        rows = min(stride, hermite_core._CELLS // width)
        assert (rows == stride) == (side <= 0)
        return xs

    @pytest.mark.parametrize("side", [-1, 0, 1, 400])
    @pytest.mark.parametrize("x_max", [8.0, 60.0, 1000.0])
    def test_values_match_narrow_calls(self, x_max, side):
        xs = self.grid(x_max, side)
        n = 400  # walls move from about order 100 at x = 60
        wide = hermite_values(n, xs)
        for lo in range(1, xs.size, 64):
            narrow = hermite_values(n, np.concatenate([[x_max], xs[lo : lo + 64]]))
            assert np.array_equal(wide[:, lo : lo + 64], narrow[:, 1:]), lo

    @pytest.mark.parametrize("side", [-1, 0, 1, 400])
    @pytest.mark.parametrize("x_max", [8.0, 60.0, 1000.0])
    def test_batch_matches_narrow_calls(self, x_max, side):
        xs = self.grid(x_max, side)
        orders = np.random.default_rng(int(x_max)).integers(0, 400, xs.size)
        signs, logs = hermite_batch(orders, xs)
        for lo in range(1, xs.size, 64):
            narrow_signs, narrow_logs = hermite_batch(
                np.concatenate([[0], orders[lo : lo + 64]]),
                np.concatenate([[x_max], xs[lo : lo + 64]]),
            )
            assert np.array_equal(signs[lo : lo + 64], narrow_signs[1:]), lo
            assert np.array_equal(logs[lo : lo + 64], narrow_logs[1:]), lo


class TestCoefficientTable:
    @pytest.mark.parametrize(
        "dtype", [float] + ([hermite_core._EXTENDED_FLOAT] if hermite_core._EXTENDED_FLOAT else [])
    )
    def test_cursor_hands_out_exactly_the_requested_orders(self, dtype):
        # uneven requests cross the table's end and the next computed
        # range; each gets exactly its orders, views of the table below
        # its end and computed ranges past it, each carrying the scales of
        # the one before, and joined they are the values a plain
        # sequential loop gives, whatever the request sizes
        table = hermite_core._TABLE_ORDERS
        sizes = [0, 1, 7, 1023, 5000, 0, table - 6031, 1, table, 2, 3]
        n = sum(sizes)
        assert n > 2 * table
        fresh_a, fresh_s = (np.array(v, dtype=dtype) for v in unit_coefficients(n, dtype))
        for _ in range(2):  # the second pass reads the table the first one kept
            cursor = hermite_core._Coefficients(dtype)
            parts = [cursor.take(count) for count in sizes]
            assert [(a.size, s.size) for a, s in parts] == [(count, count) for count in sizes]
            a = np.concatenate([a for a, _ in parts])
            s = np.concatenate([s for _, s in parts])
            assert a.dtype == s.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(a, fresh_a)
            np.testing.assert_array_equal(s, fresh_s)
        # requests below the table's end are views of the one table
        assert all(np.shares_memory(a, hermite_core._TABLES[dtype][0]) for a, _ in parts[1:5])
        # the bound that _stride and _X_MAX rely on: one step multiplies
        # the larger of the pair by at most sqrt(2)|x| + 1.  a'_0 and a'_1
        # are sqrt(2) exactly, and the quotient that forms a'_1 may round
        # one unit above fl(sqrt(2)) (it does in long double); every later
        # a'_k is below 1
        assert a.max() <= np.sqrt(dtype(2)) * (1 + np.finfo(dtype).eps)
        assert a[2:].max() < 1
        assert s.min() > 0


class TestOrthonormality:
    def test_gram_matrix_small_orders(self):
        # trapezoid on [-30, 30] is spectrally accurate for these integrands
        xs = np.linspace(-30.0, 30.0, 4001)
        w = np.full(xs.size, xs[1] - xs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        v = hermite_values(30, xs)
        gram = (v * w) @ v.T
        np.testing.assert_allclose(gram, np.eye(31), atol=1e-8)


class TestPlancherelRotach:
    def test_example_49_20_within_2_percent(self):
        est = plancherel_rotach_estimate(49, 20.0)
        ref = hermite_exact(49, 20.0)
        assert est.sign == 1
        assert abs(math.exp(est.logmag - ref.logmag) - 1.0) <= 0.02

    def test_overestimates_on_sample_grid(self):
        # the estimate sits slightly above |h_n| throughout the region
        for n in (50, 120, 400, 1500, 5000):
            for ratio in (0.1, 0.35, 0.6, 0.85):
                x = math.sqrt(2.0 * (n + 1) / ratio)
                est = plancherel_rotach_estimate(n, x)
                ref = hermite_exact(n, x)
                assert est.logmag >= ref.logmag - 1e-9

    def test_median_error_improves_with_order(self):
        def rel_errors(orders):
            errs = []
            for n in orders:
                for ratio in (0.15, 0.3, 0.5, 0.7, 0.85):
                    x = math.sqrt(2.0 * (n + 1) / ratio)
                    est = plancherel_rotach_estimate(n, x)
                    ref = hermite_exact(n, x)
                    errs.append(abs(math.exp(est.logmag - ref.logmag) - 1.0))
            return float(np.median(errs))

        assert rel_errors([1000, 2000, 5000]) < rel_errors([50, 100, 200])

    def test_precondition_trips(self):
        with pytest.raises(ValueError):
            plancherel_rotach_estimate(0, 50.0)  # n + 1 < 2
        with pytest.raises(ValueError):
            plancherel_rotach_estimate(49, 10.0)  # inside the sum-over region
        x_edge = math.sqrt(2.0 * 50.0)  # phi = 0 boundary is excluded by eps
        with pytest.raises(ValueError):
            plancherel_rotach_estimate(49, x_edge)

    def test_eps_floor_applies(self):
        # a point inside the EPSILON_MONOTONIC margin is rejected by both forms
        n = 49
        x = math.sqrt(2.0 * (n + 1) / (1.0 - 0.5 * EPSILON_MONOTONIC))
        with pytest.raises(ValueError):
            plancherel_rotach_estimate(n, x)
        with pytest.raises(ValueError):
            hermite_pr_bound(n, x, 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["kappa", "beta", "y"])
    def test_reduced_bound_names_a_non_finite_parameter(self, name, bad):
        # checked before the domain: (50, 10) also lies outside it
        args = {"kappa": 1.0, "beta": 0.0, "y": 0.5, name: bad}
        for n, x in ((50, 10.0), (49, 20.0)):
            with pytest.raises(ValueError, match=f"^{name} must be a (positive )?finite number"):
                hermite_pr_bound(n, x, **args)

    def test_reduced_bound_drops_only_bounded_factors(self):
        # reduced - (kappa*unreduced - kappa n y - beta ln n) collapses to
        # 3/4 ln2 + 1/2 ln pi + 1/2 ln((1 - e^(-2 phi))/2) at kappa=1, beta=0;
        # with the eps floor that window is [-0.66, 0.75]
        for n in (50, 300, 2000):
            for ratio in (0.997, 0.9, 0.5, 0.1):
                x = math.sqrt(2.0 * (n + 1) / ratio)
                for y in (0.25, 1.0):
                    reduced = hermite_pr_bound(n, x, 1.0, 0.0, y).logmag
                    unreduced = plancherel_rotach_estimate(n, x).logmag
                    gap = reduced - (unreduced - 1.0 * n * y - 0.0)
                    assert -0.66 <= gap <= 0.75

    def test_reduced_bound_kappa_beta_scaling(self):
        n, x, y = 200, 40.0, 0.5
        base = hermite_pr_bound(n, x, 1.0, 0.0, y).logmag
        shifted = hermite_pr_bound(n, x, 1.0, 0.5, y).logmag
        assert shifted == pytest.approx(base - 0.5 * math.log(n), rel=1e-12)
        doubled = hermite_pr_bound(n, x, 2.0, 0.0, y).logmag
        a_part = base + 0.25 * math.log(n)
        assert doubled == pytest.approx(2.0 * a_part + (-0.25) * math.log(n), rel=1e-9)


def assert_value_matches(value: float, sign: int, logmag: float) -> None:
    """A double from hermite_values against (sign, ln|h|), where doubles reach."""
    if logmag > LOG_NORMAL_MIN:
        assert np.sign(value) == sign
        assert abs(math.log(abs(value)) - logmag) <= 1e-10
    elif logmag < LOG_SUBNORMAL_MIN - 1.0:
        assert value == 0.0


class TestAgainstLiveOracle:
    @pytest.mark.parametrize(
        "n,x",
        [
            (64, -12.5),
            (257, 33.0),
            (1024, 3.0),
            (4096, 95.0),
            (15000, 180.0),
            (5000, 900.0),
            (20000, 1000.0),
            (20001, 1.0),
            # below 2^-511 the loops run at copysign(2^-511, x), where
            # h_n is even or odd to double precision; subnormal x included
            (1, 1e-320),
            (3, 1.5e-323),
            (2, -5e-324),
            (7, 2.225073858507e-311),
            (3, 1e-160),
            (1001, -1e-200),
            (20001, -1e-320),
        ],
    )
    def test_exact_matches_mpmath(self, n, x):
        sign, logmag = mp_hermite_log(n, x)
        got = hermite_exact(n, x)
        assert got.sign == sign
        assert abs(got.logmag - logmag) <= 1e-10
        # the other frontends hold the same contract in doubles
        signs, logs = hermite_orders(n, x)
        assert signs[n] == sign
        assert abs(logs[n] - logmag) <= 1e-10
        signs, logs = hermite_batch([n], [x])
        assert signs[0] == sign
        assert abs(logs[0] - logmag) <= 1e-10
        assert_value_matches(hermite_values(n, [x])[n, 0], sign, logmag)


class TestFrontendsAgree:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3000),
                st.floats(min_value=-1000.0, max_value=1000.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_all_frontends_match_exact(self, pairs):
        ns = [n for n, _ in pairs]
        xs = [x for _, x in pairs]
        batch_signs, batch_logs = hermite_batch(ns, xs)
        values = hermite_values(max(ns), xs)
        for i, (n, x) in enumerate(pairs):
            ref = hermite_exact(n, x)
            signs, logs = hermite_orders(n, x)
            assert signs[n] == ref.sign
            assert batch_signs[i] == ref.sign
            if ref.sign != 0:
                assert abs(logs[n] - ref.logmag) <= 1e-10
                assert abs(batch_logs[i] - ref.logmag) <= 1e-10
            assert_value_matches(values[n, i], ref.sign, ref.logmag)


class TestFrontendsAgreeAcrossBlockEdges:
    """Fixed cases past the hypothesis draws above, which stop at n = 3000.

    The orders sit on both sides of the coefficient table's end (2^14),
    past which the cursor computes the coefficients, carrying the scales
    s_k from the table on, at 17408 (once a chunk edge) and at n = 20000.
    """

    ORDERS = [16383, 16384, 16385, 17408, 17409, 20000]

    @pytest.mark.parametrize("x", [0.5, 30.0, 150.0, 1000.0])
    def test_all_frontends_match_mpmath(self, x):
        refs = mp_hermite_logs(self.ORDERS, x)
        n_top = max(self.ORDERS)
        order_signs, order_logs = hermite_orders(n_top, x)
        batch_signs, batch_logs = hermite_batch(self.ORDERS, [x] * len(self.ORDERS))
        values = hermite_values(n_top, [x])
        for i, (n, (sign, logmag)) in enumerate(zip(self.ORDERS, refs)):
            got = hermite_exact(n, x)
            assert got.sign == order_signs[n] == batch_signs[i] == sign
            for log in (got.logmag, order_logs[n], batch_logs[i]):
                assert abs(log - logmag) <= 1e-10
            assert_value_matches(values[n, 0], sign, logmag)

    def test_double_frontends_track_the_extended_tier_at_order_2e5(self):
        # hermite_orders and hermite_batch stay in doubles past
        # EXTENDED_PRECISION_ORDER: at n = 2e5 their worst drifts are
        # 2.1e-12 and 3.4e-12 (x = 600); at n = 1e6 they reach 6.9e-10
        # and 8.1e-10
        n, xs = 200_000, [30.0, 150.0, 600.0, 1000.0]
        batch_signs, batch_logs = hermite_batch([n] * len(xs), xs)
        for i, x in enumerate(xs):
            ref = hermite_exact(n, x)
            order_signs, order_logs = hermite_orders(n, x)
            assert order_signs[n] == batch_signs[i] == ref.sign != 0
            assert abs(order_logs[n] - ref.logmag) <= 1e-11
            assert abs(batch_logs[i] - ref.logmag) <= 1e-11


def long_double_log(n: int, x: float, start=None) -> tuple[int, float]:
    """(sign, ln|h_n(x)|) from the long-double _scalar_loop, at one order, resumed at start."""
    (_, p), walls, (_, s) = hermite_core._scalar_loop(n, x, hermite_core._EXTENDED_FLOAT, start)
    log_m = float(np.log(abs(p) * s))
    return int(np.sign(p)), float(hermite_core._log_magnitude(walls, log_m, x))


def hand_off(x: float):
    """The start of hermite_exact's long-double walk past EXTENDED_PRECISION_ORDER.

    (m, pair, walls, cursor): m is the last multiple of _stride(|x|) at
    or below the hand-off order, the pair the m-values p s of the double
    walk there, rounded into long double, and the cursor a long-double
    one started at m, whose scales restart at 1.
    """
    stride = hermite_core._stride(abs(x))
    m = EXTENDED_PRECISION_ORDER // stride * stride
    pair, walls, scales = hermite_core._scalar_loop(m, x)
    ld = hermite_core._EXTENDED_FLOAT
    pair = (ld(pair[0]) * ld(scales[0]), ld(pair[1]) * ld(scales[1]))
    return m, pair, walls, hermite_core._Coefficients(ld, m)


def turning_order(x: float) -> int:
    """The last order n below the turning point, 2n + 1 < x^2."""
    return math.ceil((x * x - 1.0) / 2.0) - 1


# ln|h_n| error of the long-double _scalar_loop against mpmath beyond
# 2 ulp(ln|h_n|), measured over x in [40, 1000] at orders up to
# min(turning order, 16400), densely over the last 120 of them: the worst
# is 7.95e-14, at x = 172.45, n = 14856
LONG_DOUBLE_ERROR = 1e-13


class TestScanBelowTheTurningPoint:
    """The order stream against mpmath and the long-double loop.

    Below the turning point the stream scans blocks of _stride(|x|)
    steps, for x above about 52.  There its ln|h_n| should stay within
    2 ulp(ln|h_n|) + 2e-13 of mpmath.  The error peaks just below the
    turning point at x near 180: the pinned case is 1.83e-13 from mpmath
    at n = 16305.  The measured worst is 2 ulp + 2.4e-13, at x = 179.78,
    n = 16157, past that bound.  Against the long-double loop the bound
    widens by that loop's own error (the triangle inequality through
    mpmath).  Orders run to 16400 at most, so for x above 181 they cross
    the coefficient table's edge at 2^14.
    """

    @given(
        st.floats(min_value=40.0, max_value=1000.0),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
    )
    @example(60.0, [0.5])
    @example(182.0, [0.99])
    @example(1000.0, [1.0])
    @example(180.58649449140634, [0.0])  # 2.27e-13 from the long-double loop
    @settings(max_examples=10, deadline=None)
    def test_matches_long_double_and_mpmath(self, x, fractions):
        n_last = min(turning_order(x), 16400)
        table = hermite_core._TABLE_ORDERS
        orders = {1, n_last} | {max(1, round(f * n_last)) for f in fractions}
        orders |= {n for n in (table - 1, table, table + 1) if n <= n_last}
        orders = sorted(orders)
        signs, logs = hermite_orders(n_last, x)
        for n, (sign, logmag) in zip(orders, mp_hermite_logs(orders, x)):
            bound = 2.0 * np.spacing(abs(logmag)) + 2e-13
            assert signs[n] == sign
            assert abs(logs[n] - logmag) <= bound
            if hermite_core._EXTENDED_FLOAT is not None:
                ld_sign, ld_log = long_double_log(n, x)
                ld_error = 2.0 * np.spacing(abs(logmag)) + LONG_DOUBLE_ERROR
                assert ld_sign == sign
                assert abs(ld_log - logmag) <= ld_error
                assert abs(logs[n] - ld_log) <= bound + ld_error

    @pytest.mark.parametrize("x", [60.0, 150.0, 600.0])
    def test_hands_off_to_single_steps_past_the_turning_point(self, x):
        # the scan ends at the last whole block below the turning point;
        # single steps go on from its last pair and wall count, and
        # hermite_orders keeps its 1e-10 contract on both sides
        stream = hermite_core._OrderStream(x)
        end, n_turn = stream.scan_end, turning_order(x)
        assert 0 < end <= n_turn < end + stream.stride
        n_top = n_turn + int(x)
        orders = [end - 1, end, end + 1, n_turn, n_turn + 1, n_top]
        signs, logs = hermite_orders(n_top, x)
        for n, (sign, logmag) in zip(orders, mp_hermite_logs(orders, x)):
            assert signs[n] == sign
            assert abs(logs[n] - logmag) <= 1e-10


def assert_same_values(ms, walls, ref_ms, ref_walls):
    """m * 2^(512 walls) equal bit for bit, and every m 0 or a normal double."""
    ms, ref_ms = np.asarray(ms), np.asarray(ref_ms)
    mant, exp = np.frexp(ms)
    ref_mant, ref_exp = np.frexp(ref_ms)
    np.testing.assert_array_equal(mant, ref_mant)
    nonzero = ms != 0
    np.testing.assert_array_equal(
        (exp + 512 * np.asarray(walls))[nonzero], (ref_exp + 512 * np.asarray(ref_walls))[nonzero]
    )
    magnitudes = np.abs(ms[nonzero])
    assert np.all((magnitudes >= np.finfo(float).tiny) & (magnitudes <= np.finfo(float).max))


def page_rows(xs, n):
    """(stride, rows of a page, whether a page holds whole strides) of _array_blocks.

    A page holds at most _CELLS cells of 64-byte padded buffer rows and no
    order past n: whole strides where one fits, else part of one.
    """
    stride = hermite_core._stride(np.max(np.abs(xs), initial=0.0))
    cells = hermite_core._CELLS // max(-(-len(xs) // 8) * 8, 8)
    return stride, max(1, min(cells // stride * stride or cells, n)), cells >= stride


def block_walk(xs, n):
    """(p, walls, s) of orders 0..n from _array_blocks, one row an order.

    Checks the block rules on the way: every block is read-only, has its
    rows on 64-byte boundaries, starts where the one before ended and
    holds at most a page's rows, and never runs past a page's end: pages
    of whole strides start at the order after a multiple of the page,
    and a page of part of a stride holds no multiple of the stride but
    at its last row.  The wall counts change only at a block's first
    order, which is then a multiple of the stride.
    """
    xs = np.asarray(xs, dtype=float)
    stride, rows, whole = page_rows(xs, n)
    ms, walls, scales = [], [], []
    for k, block, walls_k, s_k in hermite_core._array_blocks(xs, n):
        r = len(block)
        assert k == len(ms) and 1 <= r <= rows and len(s_k) == r
        assert not block.flags.writeable
        assert block.ctypes.data % 64 == block.strides[0] % 64 == 0  # rows on cache lines
        if whole:
            assert k == 0 or (k - 1) // rows == (k + r - 2) // rows  # within one page
        else:
            assert k == 0 or all((k + i) % stride for i in range(r - 1))
        assert k == 0 or walls_k is walls[-1] or k % stride == 0
        ms.extend(block.copy())
        walls += [walls_k] * r
        scales.extend(s_k)
    assert len(ms) == n + 1
    return np.array(ms).reshape(n + 1, xs.size), np.array(walls), np.array(scales)


class TestStridedWalls:
    """Testing the walls once per stride represents the per-step values exactly.

    That holds bit for bit on every path that steps one order at a time:
    _scalar_loop in both float types, the order stream past its scan, and
    the block walk of _array_blocks, which steps one order at a time for
    every point.  The stream's scan regroups the rounding; its values stay
    within SCAN_REL of the per-step ones (measured worst: 1.7e-14 over
    n <= 20000 and |x| <= 1e5).  Since all of them test at the multiples
    of one stride, they also hold the same pair and wall count.
    """

    SCAN_REL = 1e-13

    @classmethod
    def check(cls, n, xs):
        dtypes = [float] + ([hermite_core._EXTENDED_FLOAT] if hermite_core._EXTENDED_FLOAT else [])
        for x in xs:
            for dtype in dtypes:
                ref_ms, ref_walls = per_step_rescaled_recurrence(n, x, dtype)
                (_, last_m), last_walls, (_, last_scale) = hermite_core._scalar_loop(n, x, dtype)
                assert_same_values([last_m], [last_walls], ref_ms[-1:], ref_walls[-1:])
                assert last_scale == ([1] + unit_coefficients(n, dtype)[1])[-1]
            cls.check_stream(n, x)
        array_ms, array_walls, scales = block_walk(xs, n)
        np.testing.assert_array_equal(scales, [1.0] + unit_coefficients(n)[1])
        for j, x in enumerate(xs):
            ref_ms, ref_walls = per_step_rescaled_recurrence(n, x)
            assert_same_values(array_ms[:, j], array_walls[:, j], ref_ms, ref_walls)

    @classmethod
    def check_stream(cls, n, x):
        stream = hermite_core._OrderStream(x)
        ms, walls, scales = stream.take(n)
        np.testing.assert_array_equal(scales, [1.0] + unit_coefficients(n)[1])
        ref_ms, ref_walls = per_step_rescaled_recurrence(n, x)
        end = min(stream.scan_end, n)
        if end:
            ratio = ms[: end + 1] / np.array(ref_ms[: end + 1])
            rel = np.ldexp(ratio, 512 * (walls[: end + 1] - np.array(ref_walls[: end + 1]))) - 1.0
            assert np.all(np.abs(rel) <= cls.SCAN_REL)
            # the steps past the scan start from its last pair
            prev = np.ldexp(ms[end - 1], 512 * (walls[end - 1] - walls[end]))
            ref_ms, ref_walls = per_step_rescaled_recurrence(
                n, x, start=(end, prev, ms[end], walls[end])
            )
        assert_same_values(ms[end:], walls[end:], ref_ms, ref_walls)

    @given(
        st.integers(min_value=0, max_value=5000),
        st.lists(st.floats(min_value=-1000.0, max_value=1000.0), min_size=1, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_step_walls(self, n, xs):
        self.check(n, xs)

    @pytest.mark.parametrize(
        "n, xs",
        [
            (0, [0.0]),
            (1, [0.0, -1000.0]),
            (0, [1000.0]),
            (3001, [0.0]),
            (20000, [1000.0]),
            # outside the 1e3 contract: 17.6 bits a step, a test every 22 steps
            (3000, [1e5, -1e5]),
        ],
    )
    def test_matches_per_step_walls_at_fixed_points(self, n, xs):
        self.check(n, xs)

    @pytest.mark.parametrize("x", [1e-300, -0.5, 41.3, -52.0, 60.0, -150.0, 1000.0])
    def test_walks_share_the_pair_and_walls_at_every_order(self, x):
        # one wall rule: every walk tests its walls after the orders that
        # are multiples of _stride(|x|), so at a shared order each holds
        # the same p_k and the same wall count bit for bit, not only the
        # same p_k 2^(512 walls).  The orders lie on both sides of the
        # coefficient table's end, at 20000, at multiples of the stride
        # and off them, and around the first walls; the stream's running
        # pair is compared past its scan, where it steps one order at a time
        n = 20000
        table = hermite_core._TABLE_ORDERS
        stride = hermite_core._stride(abs(x))
        near = table // stride * stride
        ref_ms, ref_walls = per_step_rescaled_recurrence(n, x, stride=stride)
        fired = [k for k in range(1, n + 1) if ref_walls[k] > ref_walls[k - 1]][:2]
        orders = {1, stride, stride + 1, near, near + stride, table - 1, table, table + 1, n}
        orders = sorted(orders | {j for k in fired for j in (k - 1, k, k + 1)})
        dtypes = [float] + ([hermite_core._EXTENDED_FLOAT] if hermite_core._EXTENDED_FLOAT else [])
        for dtype in dtypes:
            typed_ms, typed_walls = per_step_rescaled_recurrence(n, x, dtype, stride=stride)
            for k in orders:
                (_, p), walls, _ = hermite_core._scalar_loop(k, x, dtype)
                assert type(p) is type(typed_ms[k])
                assert (p, walls) == (typed_ms[k], typed_walls[k]), (dtype, k)
        array_ms, array_walls, _ = block_walk([x], n)
        for k in orders:
            assert (array_ms[k, 0], array_walls[k, 0]) == (ref_ms[k], ref_walls[k]), k
        stream = hermite_core._OrderStream(x)
        end = stream.scan_end
        if end:
            stream.take(end)
            ref_ms, ref_walls = per_step_rescaled_recurrence(
                n, x, start=(end, *stream._pair), stride=stride
            )
            ref_ms, ref_walls = [None] * end + ref_ms, [None] * end + ref_walls
        past = [k for k in orders if k > end]
        assert past or x == 1000.0  # at x = 1000 the scan covers every order here
        for k in past:
            stream.take(k)
            assert stream._k == k
            _, p, walls = stream._pair
            assert (p, walls) == (ref_ms[k], ref_walls[k]), k

    @pytest.mark.parametrize("x", [0.0, 1e-300, 0.01, 0.5, 3.0, -30.0, 150.0, 1000.0])
    def test_christoffel_darboux_bounds_the_fall(self, x):
        # sum_{j<k} h_j^2 <= (k + |x| sqrt(k/2)) (h_{k-1}^2 + h_k^2), the
        # inequality that keeps the pair off a lower wall (an equality at
        # x = 0, hence the 1e-10 slack on the logs)
        n = 5000
        _, logs = hermite_orders(n, x)
        squares = 2.0 * logs
        prefix = np.logaddexp.accumulate(squares)[:-1]  # ln sum_{j<k}, k = 1..n
        k = np.arange(1, n + 1, dtype=float)
        bound = np.log(k + abs(x) * np.sqrt(k / 2.0)) + np.logaddexp(squares[:-1], squares[1:])
        assert np.all(prefix <= bound + 1e-10)

    def test_stride_shrinks_with_x_and_falls_back_to_every_step(self):
        assert hermite_core._stride(0.0) == 400
        assert hermite_core._stride(1000.0) == 36
        assert hermite_core._stride(1e5) == 22
        for x_max in (1e150, math.inf, math.nan):
            assert hermite_core._stride(x_max) == 1


class TestBlockSteps:
    """The block walk's in-place steps give the per-step recurrence bit for bit.

    Before a page's steps run, one outer product writes a'_k x into the
    page's buffer rows, and each step then multiplies and subtracts in
    place.  These cases pin down where that could go wrong: a page
    written from row 0 over the rows that hold its start pair,
    widths that leave part of a ring row unused, wall crossings inside a
    page, pages shorter than a stride or cut short by n_top, n_top 0 and
    1, and tiny x and x = 0.  Each column must equal the per-step loop
    that tests its walls at the multiples of the walk's stride, bit for
    bit, with no floating-point warning (an error under filterwarnings =
    error).
    """

    @staticmethod
    def walk(xs, n):
        """(ps, walls) of block_walk, and (k, buffer row, rows, walls) of every block.

        The consumer of every block runs with numpy's own ufunc buffer
        size, whatever buffer the walk's outer products ran with.
        """
        xs = np.asarray(xs, dtype=float)
        blocks = []
        base = None
        bufsize = np.getbufsize()
        for k, block, walls_k, _ in hermite_core._array_blocks(xs, n):
            assert np.getbufsize() == bufsize
            if base is None:
                base = block.ctypes.data  # order 0 lies in buffer row 0
            row = (block.ctypes.data - base) // block.strides[0]
            blocks.append((k, row, len(block), walls_k))
        ms, walls, _ = block_walk(xs, n)
        return ms, walls, blocks

    @staticmethod
    def check_columns(xs, n, ms, walls, columns=None):
        stride = hermite_core._stride(np.max(np.abs(xs)))
        for j in range(len(xs)) if columns is None else columns:
            ref_ms, ref_walls = per_step_rescaled_recurrence(n, xs[j], stride=stride)
            # int64 views compare the bits, the sign of a zero included
            np.testing.assert_array_equal(
                ms[:, j].copy().view(np.int64), np.array(ref_ms).view(np.int64), err_msg=str(j)
            )
            np.testing.assert_array_equal(walls[:, j], ref_walls, err_msg=str(j))

    @pytest.mark.parametrize("x_max, width", [(60.0, 9), (1000.0, 2000)])
    def test_pages_start_at_row_0_over_their_start_pair(self, x_max, width):
        # a block starts at the row after the one before, in its page, or
        # at row 0, where every page starts; full pages of whole strides
        # then write over the rows of the page before that hold the pair
        # they start from, so the walk runs past three pages; past
        # _CELLS // stride points, short pages at the stride ends leave
        # their pair clear of their rows
        xs = np.random.default_rng(width).uniform(-x_max, x_max, width)
        xs[0] = x_max
        _, rows, _ = page_rows(xs, 10**6)
        n = max(300, 3 * rows + 5)
        ms, walls, blocks = self.walk(xs, n)
        onto_pair = clear = 0
        for (_, row, r, _), (_, before, before_r, _) in zip(blocks[1:], blocks):
            assert row in (0, before + before_r)
            if row == 0:
                if before + before_r - 2 < r:
                    onto_pair += 1
                else:
                    clear += 1
        assert onto_pair >= 2 and (clear >= 2 or width < 1000)
        self.check_columns(xs, n, ms, walls, [0, 1, 2, *range(3, width, 97), width - 1])

    @pytest.mark.parametrize("width", [1, 7, 9, 1025])
    def test_widths_off_whole_cache_lines(self, width):
        # buffer rows start on 64-byte lines, so these leave a row's last
        # line part unused; at 1025 points the outer products run with a
        # ufunc buffer of one row
        xs = np.linspace(40.0, -40.0, width)
        n = 400
        ms, walls, _ = self.walk(xs, n)
        self.check_columns(xs, n, ms, walls, None if width < 100 else [*range(0, width, 64), width - 1])

    @pytest.mark.parametrize("width", [1, 5])
    def test_wall_crossing_on_a_block_s_last_row(self, width):
        # at x = 1000 the pair passes 2^512 about every 47 orders, so a wall
        # fires after every second stride of 36; orders 1..400 are one
        # page, so the blocks after order 0 end only there: each ends on
        # the row before a crossing, and the crossing's row starts the next
        xs = np.linspace(1000.0, -1000.0, width)
        n = 400
        stride = hermite_core._stride(1000.0)
        ms, walls, blocks = self.walk(xs, n)
        pairs = list(zip(blocks[1:], blocks[2:]))
        assert len(pairs) >= 5
        for (k, _, r, before), (k_at, _, _, at) in pairs:
            assert at is not before and k_at == k + r and k_at % stride == 0
        self.check_columns(xs, n, ms, walls)

    def test_blocks_shorter_than_a_stride(self):
        # one point more than _CELLS // stride: a block holds fewer orders
        # than a stride, so each stride is cut into blocks of rows and a
        # short one at its end
        stride = hermite_core._stride(1000.0)
        width = hermite_core._CELLS // stride + 1
        rows = hermite_core._CELLS // width
        assert rows < stride
        xs = np.random.default_rng(3).uniform(-1000.0, 1000.0, width)
        xs[0] = -1000.0
        n = 200
        ms, walls, blocks = self.walk(xs, n)
        assert {r for _, _, r, _ in blocks[1:]} >= {rows, stride - rows}
        self.check_columns(xs, n, ms, walls, [0, *range(1, width, 101), width - 1])

    def test_tiny_x_and_zero(self):
        xs = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 2.0**-511, -(2.0**-510), 0.5]
        n = 500
        ms, walls, _ = self.walk(xs, n)
        self.check_columns(xs, n, ms, walls)
        assert not ms[1::2, :2].any()  # h_n(0) = 0 for odd n, exactly

    def test_a_page_of_strides_with_walls_mid_page(self):
        # three points leave room for a page of thousands of orders, so
        # orders 1..600 are one page of whole strides; at x = 1000 the
        # walls move about every second stride, inside the page: the rows
        # before the crossing go out as one block, and the crossing's row
        # starts the next, which runs on over stride ends
        xs = [1000.0, -3.0, 250.0]
        n = 600
        stride, rows, whole = page_rows(xs, n)
        assert whole and rows == n
        ms, walls, blocks = self.walk(xs, n)
        crossings = [at for before, at in zip(blocks[1:], blocks[2:]) if at[3] is not before[3]]
        assert len(crossings) >= 8
        assert all(k % stride == 0 and row > 0 for k, row, _, _ in crossings)
        assert max(r for _, _, r, _ in blocks) > stride
        self.check_columns(xs, n, ms, walls)

    def test_a_page_cut_short_by_n_top(self):
        # 300 points leave pages of 5 strides; the third page stops at
        # n_top, 43 orders in and not at a stride end
        xs = np.linspace(-1000.0, 1000.0, 300)
        stride, rows, whole = page_rows(xs, 10**6)
        assert whole and rows == 5 * stride
        n = 2 * rows + stride + 7
        ms, walls, blocks = self.walk(xs, n)
        last_page = [(k, r) for k, _, r, _ in blocks if k > 2 * rows]
        assert last_page[0][0] == 2 * rows + 1 and sum(r for _, r in last_page) == n - 2 * rows
        self.check_columns(xs, n, ms, walls, [0, 1, 150, 299])

    def test_a_page_narrower_than_a_stride(self):
        # at |x| <= 1 a stride is 200 orders, more than the 63 rows that
        # 1025 points leave a page: each stride goes out in pages of 63,
        # 63, 63 and 11 rows, whose outer products run with a ufunc
        # buffer of one row
        xs = np.linspace(-1.0, 1.0, 1025)
        stride, rows, whole = page_rows(xs, 10**6)
        assert (stride, rows, whole) == (200, 63, False)
        n = 450
        ms, walls, blocks = self.walk(xs, n)
        assert [r for _, _, r, _ in blocks[1:9]] == [63, 63, 63, 11] * 2
        self.check_columns(xs, n, ms, walls, [0, 1, 512, 1023, 1024])

    @pytest.mark.parametrize("n", [0, 1])
    def test_n_top_0_and_1(self, n):
        xs = [0.0, -2.5, 1000.0]
        ms, walls, blocks = self.walk(xs, n)
        assert [(k, r) for k, _, r, _ in blocks] == [(0, 1), (1, 1)][: n + 1]
        self.check_columns(xs, n, ms, walls)

    def test_one_pair_at_order_1e5_is_the_scalar_loop(self):
        # one point fills pages of 8172 orders, 227 strides of 36 each,
        # with a wall change about every second stride
        n, x = 10**5, 900.0
        (_, p), walls, (_, s) = hermite_core._scalar_loop(n, x)
        signs, logs = hermite_batch([n], [x])
        assert signs[0] == np.sign(p) != 0
        assert logs[0] == hermite_core._log_magnitudes(p, walls, s, x, n)


def entered_logs(a: int, x: float) -> np.ndarray:
    """ln|h_{a-1}(x)|, ln|h_a(x)| from an order stream entered at the block start a."""
    stream = hermite_core._OrderStream(x)
    assert stream.enter(a)
    _, logs = stream.logs(a)
    return logs


@pytest.mark.skipif(hermite_core._EXTENDED_FLOAT is None, reason="the entry needs a long double")
class TestEntry:
    """The order stream entered at a block start from the expansion below the turning point.

    The expansion's ln m_{a-1} and ln m_a each carry their first omitted
    term (at most _ENTRY_TOLERANCE) and a few units of 2^-64 of their
    long-double lead, about x^2 / 2.  Measured against the long-double
    loop over x in [55, 2500]: within 1 ulp of ln|h|.
    """

    def test_polynomials_match_the_recursion(self):
        # the package's u_s, derived offline, against DLMF's recursion
        # solved again in exact rationals
        for s, ((den, nums), want) in enumerate(
            zip(hermite_core._DEBYE_POLYNOMIALS, debye_polynomials(7))
        ):
            got = [Fraction(0)] * (3 * s + 1)
            for j, c in enumerate(nums):
                got[s % 2 + 2 * j] = Fraction(c, den)
            assert got == want
            assert hermite_core._DEBYE[s] == tuple(c / den for c in reversed(nums))

    @pytest.mark.parametrize(
        "x, fractions",
        [(55.0, (0.2, 0.75)), (82.0, (0.2, 0.75)), (150.0, (0.2, 0.75)),
         (400.0, (0.2, 0.75)), (1000.0, (0.2, 0.75)), (2500.0, (0.2,))],
    )
    def test_matches_the_long_double_loop(self, x, fractions):
        # ln|h_{a-1}| and ln|h_a| from the entry pair, against hermite_exact
        # (the long-double loop above order 20000)
        b = hermite_core._stride(x)
        for f in fractions:
            a = int(f * turning_order(x)) // b * b
            logs = entered_logs(a, x)
            for n, got in zip((a - 1, a), logs):
                want = hermite_exact(n, x).logmag
                assert abs(got - want) <= entry_bound(x) + 2.0 * np.spacing(abs(want))

    @pytest.mark.parametrize("a, x", [(969, 60.0), (2052, 82.0), (7776, 150.0), (9936, 150.0)])
    def test_matches_mpmath(self, a, x):
        a = a // hermite_core._stride(x) * hermite_core._stride(x)
        logs = entered_logs(a, x)
        for got, (sign, want) in zip(logs, mp_hermite_logs([a - 1, a], x)):
            assert sign == 1
            assert abs(got - want) <= entry_bound(x) + 2.0 * np.spacing(abs(want))

    @pytest.mark.parametrize("x", [60.0, 150.0, 1000.0])
    def test_goes_on_as_the_walk(self, x):
        # past the entry the stream walks: up to the turning point its
        # values stay within the bound of the walk from order 0, whose own
        # drift adds 2e-13
        b = hermite_core._stride(x)
        a = turning_order(x) // 2 // b * b
        stream = hermite_core._OrderStream(x)
        assert stream.enter(a)
        count = min(3000, turning_order(x) - a + 1)
        _, logs = stream.logs(a + count - 2)
        _, walked = hermite_orders(a + count - 2, x)
        ref = walked[a - 1 :]
        assert np.all(np.abs(logs - ref) <= entry_bound(x) + 2e-13 + 2.0 * np.spacing(np.abs(ref)))

    def test_refuses_where_it_cannot_enter(self):
        x = 150.0
        stream = hermite_core._OrderStream(x)
        b = stream.stride
        assert not stream.enter(b * 10 + 1)  # not a block start
        assert not stream.enter(stream.scan_end)  # not below the scan's end
        # near the turning point the first omitted term exceeds the tolerance
        assert hermite_core._expansion(stream.scan_end - b, x)[1] > hermite_core._ENTRY_TOLERANCE
        assert not stream.enter(stream.scan_end - b)
        assert stream.enter(b * 10)
        assert not stream.enter(b * 20)  # only a fresh stream enters



class TestGroupScan:
    """_group_scan: the first requests of several streams in stacked passes."""

    # (x, entry order or 0, last order of the first request): strides 58,
    # 48, 43 and 36, a stream that never scans, one whose request runs
    # past its scan's end, and one that fills a pass's budget alone
    REQUESTS = [
        (55.0, 0, 1400),
        (150.0, 0, 10430),
        (7.5, 0, 90),
        (300.0, 33196, 41650),
        (150.0, 7776, 20000),
        (-60.0, 0, 40),
        (1000.0, 393264, 458799),
    ]

    @staticmethod
    def streams():
        out = []
        for x, entry, _ in TestGroupScan.REQUESTS:
            stream = hermite_core._OrderStream(x)
            entry = entry // stream.stride * stream.stride
            if entry:
                assert stream.enter(entry)
            out.append(stream)
        return out

    def test_leaves_each_stream_as_its_own_take(self, monkeypatch):
        # after the stacked passes each take finds its blocks pending and
        # hands out the values, pair, wall count and next order of a
        # stream that took alone, bit for bit, also on later requests
        grouped, alone = self.streams(), self.streams()
        lasts = [last for *_, last in self.REQUESTS]
        passes = []
        scan_pass = hermite_core._scan_pass
        monkeypatch.setattr(hermite_core, "_scan_pass", lambda p: scan_pass(passes.append(p) or p))
        yielded = list(hermite_core._group_scan(list(zip(grouped, lasts))))
        monkeypatch.undo()
        assert [id(s) for s in yielded] == [id(s) for s in grouped] and len(passes) > 1
        for got, want, last in zip(grouped, alone, lasts):
            for end in (last, last + 700):
                for a, b in zip(got.take(end), want.take(end)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert (got._k, got._pair) == (want._k, want._pair)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_yields_each_request_after_its_pass(self, data):
        # one item per request, in order: its stream, with its blocks
        # already pending.  By then every pass that holds a request up to
        # it has run, and at most one more (a request with nothing to scan
        # goes out with the pass after it); the requests read reach at
        # most the first request of the next pass to run
        xs = st.sampled_from([7.5, -60.0, 55.0, 150.0, -300.0, 1000.0])
        requests = []
        for x in data.draw(st.lists(xs, min_size=1, max_size=8), label="xs"):
            stream = hermite_core._OrderStream(x)
            top = min(stream.scan_end + 3 * stream.stride, 40000)
            requests.append((stream, data.draw(st.integers(1, top), label="last")))
        blocks = [stream._blocks(last) for stream, last in requests]
        starts = [stream._k for stream, _ in requests]
        index = {id(stream): j for j, (stream, _) in enumerate(requests)}
        read, passes, seen = [], [], []  # seen: (requests read, passes run) at each item

        def source():
            for request in requests:
                read.append(request)
                yield request

        def recording(stacked):
            passes.append(min(index[id(stream)] for stream, _ in stacked))
            scan_pass(stacked)

        scan_pass = hermite_core._scan_pass
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hermite_core, "_scan_pass", recording)
            for i, stream in enumerate(hermite_core._group_scan(source())):
                assert stream is requests[i][0]
                assert stream._k == starts[i] + blocks[i] * stream.stride
                seen.append((len(read), len(passes)))
        assert len(seen) == len(requests)
        for i, (reads, run) in enumerate(seen):
            assert run - sum(first <= i for first in passes) in (0, 1)
            assert reads <= (passes[run] + 1 if run < len(passes) else len(requests))

    def test_scans_no_block_past_the_request(self):
        # each stream scans exactly the blocks its own first take would
        streams = self.streams()
        lasts = [last for *_, last in self.REQUESTS]
        blocks = [s._blocks(last) for s, last in zip(streams, lasts)]
        starts = [s._k for s in streams]
        list(hermite_core._group_scan(list(zip(streams, lasts))))
        for s, k, m in zip(streams, starts, blocks):
            assert s._k == k + m * s.stride

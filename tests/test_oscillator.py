import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_decay import oscillator
from hermite_decay.hermite_core import hermite_moment_sweep
from hermite_decay.oscillator import (
    BASIS_NORMALIZER,
    BASIS_SCALE,
    DecayCertificate,
    HermiteCoefficients,
    QuadratureSpec,
    decay_certificate,
    envelope_tail_log,
    evolve_grid,
    expand,
    gaussian_coefficients,
    vemuri_decay_check,
    vemuri_envelope,
    weighted_sup,
)
from oracles import mp_gaussian_coefficients, reconstructed_norm, synthetic_envelope_coefficients

# Closed-form coefficients of e^(-a pi x^2), a = tanh(1), cross-checked
# against independent 40-digit quadrature at two resolutions (agreement
# to 26+ digits).
FROZEN_GAUSSIAN_COEFFS = [
    (10, 2.017948328512908949478876e-5),
    (24, 1.357978599248942161442694e-11),
    (40, 1.347793309767405537533476e-18),
]

T_GRID = sorted({k / 64 for k in range(64)} | {(2 * k + 1) / 16 for k in range(8)})


def gaussian_handle(alpha):
    a = math.tanh(2.0 * alpha)
    return lambda x: np.exp(-a * math.pi * x * x)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(half_width=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(initial_nodes=4)
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=0.0)
        for doublings in (-1, 0):
            # with no doubling every expand failed: its disagreement stayed inf
            with pytest.raises(ValueError, match="max_doublings"):
                QuadratureSpec(max_doublings=doublings)

    @pytest.mark.parametrize(
        "field, value",
        [("initial_nodes", 16.5), ("initial_nodes", True), ("initial_nodes", math.nan),
         ("max_doublings", 1.5), ("max_doublings", np.True_), ("max_doublings", math.inf),
         ("max_doublings", "2")],
    )
    def test_counts_are_whole_numbers(self, field, value):
        # 16.5 and 1.5 were accepted, and expand then raised TypeError
        with pytest.raises(ValueError, match=field):
            QuadratureSpec(**{field: value})

    def test_whole_float_counts_become_ints(self):
        spec = QuadratureSpec(initial_nodes=16.0, max_doublings=np.int64(1))
        assert (spec.initial_nodes, spec.max_doublings) == (16, 1)
        assert type(spec.initial_nodes) is type(spec.max_doublings) is int
        f = gaussian_handle(0.5)
        want = expand(f, 4, QuadratureSpec(initial_nodes=16, max_doublings=1))
        assert expand(f, 4.0, spec) == want


class TestHermiteCoefficients:
    def test_validation(self):
        with pytest.raises(ValueError):
            HermiteCoefficients(())
        with pytest.raises(ValueError):
            HermiteCoefficients((1.0, math.inf))
        with pytest.raises(ValueError):
            HermiteCoefficients((1.0, 0.5), quad_error=(0.0,))
        with pytest.raises(ValueError):
            HermiteCoefficients((1.0,), quad_error=(-1e-3,))

    def test_defaults(self):
        c = HermiteCoefficients((0.5, 0.25))
        assert c.quad_error == (0.0, 0.0)
        assert c.truncation_n == 1


class TestExpand:
    def test_basis_function_recovers_unit_vector(self):
        # e_0(x) = 2^(1/4) e^(-pi x^2), so expanding it must give the
        # first unit vector
        f = lambda x: 2.0**0.25 * np.exp(-math.pi * x * x)
        c = expand(f, 10)
        assert c.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        for n in range(1, 11):
            assert abs(c.coeffs[n]) <= c.quad_error[n]

    def test_odd_coefficients_vanish_for_even_function(self):
        c = expand(gaussian_handle(0.5), 41)
        for n in range(1, 42, 2):
            assert abs(c.coeffs[n]) <= c.quad_error[n]

    def test_matches_closed_form(self):
        got = expand(gaussian_handle(0.5), 60)
        want = gaussian_coefficients(0.5, 60)
        for g, w in zip(got.coeffs, want.coeffs):
            assert g == pytest.approx(w, abs=5e-13)

    def test_quad_error_is_recorded(self):
        c = expand(gaussian_handle(0.5), 20)
        assert len(c.quad_error) == 21
        assert max(c.quad_error) <= 1e-10
        assert min(c.quad_error) > 0.0  # roundoff floor, never a claim of exactness

    def test_nonconvergent_quadrature_reported_per_coefficient(self):
        # one refinement step cannot resolve mode 40 from 16 nodes; the
        # disagreement must land in quad_error instead of raising
        spec = QuadratureSpec(initial_nodes=16, max_doublings=1)
        c = expand(gaussian_handle(0.5), 40, spec)
        assert max(c.quad_error) > 1e-10

    def test_nested_refinement_matches_full_grid_trapezoid(self):
        # an unreachable tolerance runs every doubling, so expand must give
        # the trapezoid rule on the finest grid, having evaluated f once
        # per node of that grid
        width, nodes, n_terms = 6.0, 64, 40
        spec = QuadratureSpec(half_width=width, initial_nodes=nodes, max_doublings=3,
                              tolerance=1e-300)
        seen = []

        def f(x):
            seen.extend(np.atleast_1d(x).tolist())
            return np.exp(-math.pi * (x - 0.3) ** 2)

        c = expand(f, n_terms, spec)

        def trapezoid(n_nodes):
            xs = np.linspace(-width, width, n_nodes + 1)
            weights = np.full(xs.size, xs[1] - xs[0])
            weights[0] *= 0.5
            weights[-1] *= 0.5
            weights *= np.exp(-math.pi * (xs - 0.3) ** 2)
            coeffs = BASIS_NORMALIZER * hermite_moment_sweep(BASIS_SCALE * xs, weights, n_terms)
            return coeffs, float(np.sum(np.abs(weights)))

        fine, mass = trapezoid(8 * nodes)
        coarse, _ = trapezoid(4 * nodes)
        floor = 4.0 * np.finfo(float).eps * oscillator.UNIFORM_BASIS_BOUND * mass
        np.testing.assert_allclose(c.coeffs, fine, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            c.quad_error, np.maximum(np.abs(fine - coarse), floor), rtol=0.0, atol=1e-15
        )
        assert len(seen) == 8 * nodes + 1
        assert sorted(seen) == np.linspace(-width, width, 8 * nodes + 1).tolist()

    def test_explicit_window(self):
        spec = QuadratureSpec(half_width=7.0)
        c = expand(gaussian_handle(0.5), 16, spec)
        want = gaussian_coefficients(0.5, 16)
        for g, w in zip(c.coeffs, want.coeffs):
            assert g == pytest.approx(w, abs=1e-12)

    def test_rejects_nondecaying_function(self):
        with pytest.raises(ValueError):
            expand(lambda x: np.cos(x), 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_names_f_where_it_is_not_finite(self, bad):
        # a non-finite f was blamed on weights, a parameter of
        # hermite_moment_sweep; the first node of the window is -5
        message = rf"^f must be finite at every node, got {bad} at x=-5\.0$"
        with pytest.raises(ValueError, match=message):
            expand(lambda x: np.full(np.shape(x), bad), 3, QuadratureSpec(half_width=5.0))
        # finite on the first grid, not at a later midpoint
        spec = QuadratureSpec(half_width=5.0, initial_nodes=16)
        with pytest.raises(ValueError, match=r"got nan at x=-4\.6875$"):
            expand(lambda x: np.where(x == -4.6875, np.nan, np.exp(-x * x)), 3, spec)


class TestGaussianCoefficients:
    def test_first_coefficient(self):
        a = math.tanh(2.0)
        c = gaussian_coefficients(1.0, 8)
        assert c.coeffs[0] == pytest.approx(2.0**0.25 / math.sqrt(1.0 + a), rel=1e-15)

    @pytest.mark.parametrize("n,value", FROZEN_GAUSSIAN_COEFFS)
    def test_frozen_oracle_values(self, n, value):
        c = gaussian_coefficients(0.5, 40)
        assert c.coeffs[n] == pytest.approx(value, rel=1e-13)

    def test_parseval_against_exact_norm(self):
        # sum c_n^2 = ||f||^2 = (2a)^(-1/2), tail geometric in e^(-8 alpha)
        for alpha in (0.5, 1.0, 2.0):
            a = math.tanh(2.0 * alpha)
            c = gaussian_coefficients(alpha, 400)
            assert math.fsum(v * v for v in c.coeffs) == pytest.approx(
                1.0 / math.sqrt(2.0 * a), rel=1e-13
            )

    def test_log_slope_is_minus_four_alpha(self):
        # ln|c_2m| is affine in m up to a -ln(m)/4 Stirling drift; at
        # alpha = 0.5 the least-squares slope lands within 1% of -4 alpha
        alpha = 0.5
        c = gaussian_coefficients(alpha, 80)
        ms = np.arange(5, 41)
        logs = np.log([c.coeffs[2 * m] for m in ms])
        slope = np.polyfit(ms, logs, 1)[0]
        assert abs(slope / (-4.0 * alpha) - 1.0) <= 0.01

    @pytest.mark.parametrize("alpha", [2.0, 5.0, 9.0, 12.0])
    def test_closed_form_oracle_at_large_alpha(self, alpha):
        # ln(1 - a) - ln(1 + a) cancels as a = tanh(2 alpha) nears 1 and
        # fails once a rounds to 1 (alpha near 9.53); ln rho is -4 alpha
        got = gaussian_coefficients(alpha, 20).coeffs
        want = mp_gaussian_coefficients(alpha, 20)
        assert got[1::2] == (0.0,) * 10
        for g, w in zip(got[::2], want[::2]):
            assert g == pytest.approx(w, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_coefficients(0.0, 10)
        with pytest.raises(ValueError):
            gaussian_coefficients(1.0, -1)

    @pytest.mark.parametrize("n_terms", [2.5, True, np.True_, math.nan, math.inf])
    def test_counts_are_whole_numbers(self, n_terms):
        # 2.5 raised TypeError, and True gave two coefficients
        with pytest.raises(ValueError, match="n_terms"):
            gaussian_coefficients(0.5, n_terms)
        with pytest.raises(ValueError, match="n_terms"):
            expand(gaussian_handle(0.5), n_terms)

    def test_whole_float_count(self):
        assert gaussian_coefficients(0.5, 4.0) == gaussian_coefficients(0.5, np.int64(4))
        assert len(gaussian_coefficients(0.5, 4.0).coeffs) == 5


class TestSyntheticCoefficients:
    def test_sits_exactly_on_envelope(self):
        c = synthetic_envelope_coefficients(0.6, 30)
        assert c.coeffs[0] == 0.0
        for n in range(1, 31):
            assert c.coeffs[n] == pytest.approx(vemuri_envelope(n, 0.6), rel=1e-15)

    def test_seeded_signs(self):
        c = synthetic_envelope_coefficients(0.6, 30, seed=11)
        assert any(v < 0.0 for v in c.coeffs[1:])
        again = synthetic_envelope_coefficients(0.6, 30, seed=11)
        assert c.coeffs == again.coeffs
        for n in range(1, 31):
            assert abs(c.coeffs[n]) == pytest.approx(vemuri_envelope(n, 0.6), rel=1e-15)


class TestVemuriDecayCheck:
    def test_unit_vector_constant(self):
        # nonzero c_0 only: the clamp at n = 1 prices it at e^alpha
        c = HermiteCoefficients((1.0, 0.0, 0.0, 0.0))
        for alpha in (0.3, 0.7, 1.5):
            assert vemuri_decay_check(c, alpha) == pytest.approx(
                math.exp(alpha), rel=1e-14
            )

    def test_synthetic_certifies_at_one(self):
        for seed in (None, 4):
            c = synthetic_envelope_coefficients(0.6, 20, seed=seed)
            got = vemuri_decay_check(c, 0.6)
            assert 1.0 <= got <= 1.0 + 1e-12

    def test_padded_synthetic_still_certifies(self):
        # zeros beyond n = 20 keep the maximum interior
        base = synthetic_envelope_coefficients(0.6, 20, seed=2)
        padded = HermiteCoefficients(base.coeffs + (0.0,) * 380)
        got = vemuri_decay_check(padded, 0.6)
        assert 1.0 <= got <= 1.0 + 1e-12

    def test_gaussian_decays_faster_than_envelope(self):
        # gaussian coefficients fall like e^(-2 alpha n), well inside
        # e^(-alpha n): finite constant, attained at small n
        c = gaussian_coefficients(0.5, 400)
        assert math.isfinite(vemuri_decay_check(c, 0.5))

    def test_violation_returns_infinity(self):
        # testing a synthetic alpha-envelope against alpha' > alpha puts
        # the largest ratio at the truncation edge on a rising trend
        c = synthetic_envelope_coefficients(0.5, 60)
        assert vemuri_decay_check(c, 0.75) == math.inf

    def test_refuses_all_noise(self):
        c = HermiteCoefficients((1e-3, 1e-3), quad_error=(1.0, 1.0))
        with pytest.raises(ValueError):
            vemuri_decay_check(c, 1.0)

    @pytest.mark.parametrize("alpha", [True, np.True_])
    def test_rejects_a_bool_alpha(self, alpha):
        # True once passed as 1.0: vemuri_decay_check(g, True) gave 2.4356
        g = gaussian_coefficients(0.5, 40)
        with pytest.raises(ValueError, match="^alpha must be a positive finite number"):
            vemuri_decay_check(g, alpha)
        with pytest.raises(ValueError, match="^alpha must be a positive finite number"):
            decay_certificate(g, alpha, [0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="^weight_alpha must be a positive finite number"):
            weighted_sup(g, alpha, [0.0, 1.0], [0.0])

    @pytest.mark.parametrize("n", [2.5, True, -3, math.nan, math.inf, "2"])
    def test_envelope_order_is_a_whole_number(self, n):
        # 2.5 and True once gave values, and -3 was clamped to n = 1
        with pytest.raises(ValueError, match="^n must be a whole number"):
            vemuri_envelope(n, 0.5)

    def test_envelope_takes_a_whole_float_order(self):
        assert vemuri_envelope(3.0, 0.5) == vemuri_envelope(np.int64(3), 0.5)
        assert vemuri_envelope(0, 0.5) == vemuri_envelope(1, 0.5) == math.exp(-0.5)

    def test_noisy_tail_indices_are_excluded(self):
        # quadrature coefficients carry roundoff-floor errors that dwarf
        # the envelope at large n; those indices must not poison the fit
        c = expand(gaussian_handle(0.5), 200)
        got = vemuri_decay_check(c, 0.5)
        want = vemuri_decay_check(gaussian_coefficients(0.5, 200), 0.5)
        assert got == pytest.approx(want, rel=1e-6)


class TestEvolve:
    def test_time_zero_reconstructs(self):
        alpha = 0.5
        c = gaussian_coefficients(alpha, 120)
        f = gaussian_handle(alpha)
        xs = [0.0, 0.7, 1.9, 3.2]
        values, _ = evolve_grid(c, xs, 0.0)
        for x, got in zip(xs, values):
            assert got.imag == 0.0
            assert got.real == pytest.approx(float(f(x)), abs=1e-13)

    def test_half_period_flips_sign(self):
        c = gaussian_coefficients(0.5, 120)
        v0, vh = evolve_grid(c, [0.0, 0.9, 2.4], [0.0, 0.5])[0]
        assert np.max(np.abs(vh + v0)) <= 1e-12

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_half_period_modulus(self, x, t):
        c = gaussian_coefficients(0.5, 80)
        a = abs(evolve_grid(c, [x], t)[0][0])
        b = abs(evolve_grid(c, [x], t + 0.5)[0][0])
        assert abs(a - b) <= 1e-12 * max(1.0, a)

    @given(
        st.floats(min_value=0.25, max_value=2.0),
        st.integers(min_value=1, max_value=300),
        st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=8),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_grid_matches_scalar_calls(self, alpha, n_terms, xs, ts):
        # one table over a t grid is the stack of the scalar-t rows
        c = gaussian_coefficients(alpha, n_terms)
        envelope = (alpha, vemuri_decay_check(c, alpha))
        table, tail = evolve_grid(c, xs, ts, envelope)
        assert table.shape == (len(ts), len(xs))
        for t, row in zip(ts, table):
            want, want_tail = evolve_grid(c, xs, t, envelope)
            assert want.shape == (len(xs),)
            assert np.max(np.abs(row - want)) <= 2e-15
            assert tail == want_tail

    def test_tail_radius(self):
        c = gaussian_coefficients(0.5, 120)
        assert evolve_grid(c, [1.0], 0.3)[1] == math.inf
        _, bounded = evolve_grid(c, [1.0], 0.3, envelope=(0.5, 2.0))
        want = math.exp(envelope_tail_log(0.5, 2.0, 120))
        assert bounded == pytest.approx(want, rel=1e-12)
        assert bounded > 0.0

    def test_tail_radius_never_zero(self):
        c = gaussian_coefficients(2.0, 800)
        # true bound ~ e^(-1600), far below double range: must round up
        assert evolve_grid(c, [0.0], 0.0, envelope=(2.0, 1.0))[1] > 0.0

    def test_rejects_nonfinite_time(self):
        c = gaussian_coefficients(0.5, 10)
        with pytest.raises(ValueError):
            evolve_grid(c, [0.0], math.nan)
        with pytest.raises(ValueError):
            evolve_grid(c, [0.0], [0.0, math.inf])

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_time_whose_phase_overflows(self):
        # 2(2N+1)|t| = 1.6e309 at N = 400: the turns were inf, and every
        # value nan, with only a RuntimeWarning
        c = gaussian_coefficients(0.5, 400)
        for call in (
            lambda: evolve_grid(c, [0.0, 1.0], 1e306),
            lambda: evolve_grid(c, [0.0, 1.0], [0.0, -1e306]),
            lambda: weighted_sup(c, 0.5, [0.0, 1.0], [1e306]),
            lambda: decay_certificate(c, 0.5, [0.0, 1.0], [0.0, 1e306]),
        ):
            with pytest.raises(ValueError, match="^t must keep"):
                call()
        # the largest |t| whose turns at N = 400 stay finite is accepted
        t = np.nextafter(np.finfo(float).max / 1602.0, 0.0)
        assert np.isfinite(1602.0 * t)
        assert np.isfinite(evolve_grid(c, [0.0, 1.0], [t, -t])[0]).all()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(0.25)
    @example(-1e15)
    @example(1e306)
    @settings(max_examples=200, deadline=None)
    def test_phase_reduction_is_np_mod_bit_for_bit(self, t):
        with np.errstate(invalid="ignore", over="ignore"):
            turns = 2.0 * (2.0 * np.arange(401.0) + 1.0) * t
            want = np.exp(1j * np.pi * np.mod(turns, 2.0))
        if not np.isfinite(turns).all():
            # from |t| near 1e305 on, the turns overflow and the phase is lost
            with pytest.raises(ValueError, match="t must keep"):
                oscillator._phase_factors(400, [t])
            return
        got = oscillator._phase_factors(400, [t])[0]
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestUnitarity:
    def test_phased_coefficient_norm(self):
        c = gaussian_coefficients(0.5, 200)
        norm = math.fsum(v * v for v in c.coeffs)
        from hermite_decay.oscillator import _phase_factors

        for t in (0.0, 1 / 16, 0.37, 5 / 64):
            z = _phase_factors(200, t) * np.asarray(c.coeffs)
            phased = float(np.sum(np.abs(z) ** 2))
            assert phased == pytest.approx(norm, rel=5e-15)

    def test_reconstructed_norm_time_invariant(self):
        c = gaussian_coefficients(0.5, 150)
        base = reconstructed_norm(c, 0.0)
        assert base**2 == pytest.approx(
            math.fsum(v * v for v in c.coeffs), rel=1e-8
        )
        for t in (1 / 16, 3 / 16, 0.2719, 0.5):
            assert reconstructed_norm(c, t) == pytest.approx(base, rel=1e-8)


class TestPdeResidual:
    def test_centered_difference_residual(self):
        # i dPhi/dt = d2Phi/dx2 - 4 pi^2 x^2 Phi; validates the phase
        # convention sign-for-sign
        c = gaussian_coefficients(1.0, 60)
        dt, dx = 3e-4, 5e-3
        worst = 0.0
        for t in (0.1, 0.37):
            for x in (0.2, 0.7, 1.4):
                xs = np.array([x - dx, x, x + dx])
                vm, _ = evolve_grid(c, xs, t - dt)
                v0, _ = evolve_grid(c, xs, t)
                vp, _ = evolve_grid(c, xs, t + dt)
                dt_term = 1j * (vp[1] - vm[1]) / (2.0 * dt)
                dxx = (v0[0] - 2.0 * v0[1] + v0[2]) / dx**2
                pot = 4.0 * math.pi**2 * x * x * v0[1]
                resid = abs(dt_term - (dxx - pot))
                scale = abs(dt_term) + abs(dxx) + abs(pot)
                worst = max(worst, resid / scale)
        assert worst <= 1e-3


class TestDecayCertificate:
    def test_gaussian_certificate(self):
        c = gaussian_coefficients(0.5, 400)
        xs = np.linspace(0.0, 8.0, 80)
        cert = decay_certificate(c, 0.5, xs, T_GRID)
        assert isinstance(cert, DecayCertificate)
        assert math.isfinite(cert.sup_weighted)
        assert cert.sup_weighted > 0.0
        assert cert.tail_contribution <= 1e-40 * cert.sup_weighted
        assert cert.sup_weighted == math.exp(cert.log_sup_weighted)
        assert cert.tail_contribution == math.exp(cert.log_tail_contribution)
        assert cert.truncation_n == 400
        assert cert.x_grid == tuple(xs)
        assert cert.majorant_slack_min >= -1e-9
        assert cert.triangle_slack_min >= -1e-12

    def test_truncation_doubling_stability(self):
        xs = np.linspace(0.0, 8.0, 40)
        ts = T_GRID[::4]
        a = decay_certificate(gaussian_coefficients(0.5, 400), 0.5, xs, ts)
        b = decay_certificate(gaussian_coefficients(0.5, 800), 0.5, xs, ts)
        assert abs(b.sup_weighted - a.sup_weighted) <= 0.2 * a.sup_weighted

    def test_single_time_is_lower_bound(self):
        c = gaussian_coefficients(0.5, 400)
        xs = np.linspace(0.0, 6.0, 30)
        only_zero = decay_certificate(c, 0.5, xs, [0.0])
        full = decay_certificate(c, 0.5, xs, T_GRID)
        assert only_zero.sup_weighted <= full.sup_weighted * (1.0 + 1e-12)

    def test_refuses_violating_coefficients(self):
        c = synthetic_envelope_coefficients(0.5, 60)
        with pytest.raises(ValueError):
            decay_certificate(c, 0.75, [0.0, 1.0], [0.0])

    def test_all_zero_coefficients_certify_zero(self):
        # C = 0: the tail is zero, not a c_bound error its caller never passed
        c = expand(lambda x: 0 * np.asarray(x), 3, QuadratureSpec(half_width=5.0))
        cert = decay_certificate(c, 0.5, [0.0, 1.0], [0.0])
        assert cert.envelope_constant == 0.0 and cert.sup_weighted == 0.0
        assert cert.log_sup_weighted == cert.log_tail_contribution == -math.inf
        assert cert.majorant_slack_min == math.inf

    def test_rejects_empty_grids(self):
        c = gaussian_coefficients(0.5, 40)
        with pytest.raises(ValueError):
            decay_certificate(c, 0.5, [], [0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "xs, ts, name",
        [([0.0, 1.0], [math.nan], "t"), ([0.0, 1.0], [0.0, math.inf], "t"),
         ([0.0, math.nan], [0.0], "x"), ([-math.inf, 1.0], [0.0], "x")],
    )
    def test_rejects_a_non_finite_point(self, xs, ts, name):
        # as evolve_grid does: a nan t would read log_sup_weighted = nan
        c = gaussian_coefficients(0.5, 40)
        with pytest.raises(ValueError, match=f"^{name}_grid must be a nonempty 1-D array of finite"):
            decay_certificate(c, 0.5, xs, ts)

    @pytest.mark.parametrize("ts", [[[0.0, 0.1]], [[0.0, 0.1], [0.2, 0.3]]])
    def test_rejects_a_time_grid_that_is_not_1d(self, ts):
        # decay_certificate once raised TypeError here, and weighted_sup
        # returned 1.127 on the flattened 2x2 grid
        c = gaussian_coefficients(0.5, 40)
        with pytest.raises(ValueError, match="^t_grid must be a nonempty 1-D array"):
            decay_certificate(c, 0.5, [0.0, 1.0], ts)
        with pytest.raises(ValueError, match="^t_grid must be a nonempty 1-D array"):
            weighted_sup(c, 0.5, [0.0, 1.0], ts)

    def test_one_envelope_pass_per_call(self, monkeypatch):
        # the decay constant and the certified mask come from one list
        passes = []
        original = oscillator._certified_envelopes

        def counting(coeffs, alpha):
            passes.append(alpha)
            return original(coeffs, alpha)

        monkeypatch.setattr(oscillator, "_certified_envelopes", counting)
        c = expand(gaussian_handle(0.5), 60)
        cert = decay_certificate(c, 0.5, [0.0, 1.0], [0.0, 0.25])
        assert passes == [0.5]
        assert cert.envelope_constant == vemuri_decay_check(c, 0.5)

    def test_wide_grid_keeps_logs(self):
        # the weight reaches e^(1306) at x = 30: the float fields overflow
        # to inf while the logs stay exact, and nothing raises
        c = gaussian_coefficients(0.5, 400)
        xs, ts = np.linspace(0.0, 30.0, 80), np.linspace(0.0, 0.5, 40)
        cert = decay_certificate(c, 0.5, xs, ts)
        assert math.isfinite(cert.log_sup_weighted)
        assert math.isfinite(cert.log_tail_contribution)
        assert cert.log_sup_weighted >= cert.log_tail_contribution
        assert cert.sup_weighted == math.inf
        assert cert.tail_contribution == math.inf
        envelope = (0.5, cert.envelope_constant)
        assert weighted_sup(c, 0.5, xs, ts, envelope=envelope) == math.inf

    def test_one_basis_build_per_call(self, monkeypatch):
        builds = []
        original = oscillator.basis_values

        def counting(xs, n_top):
            builds.append(n_top)
            return original(xs, n_top)

        monkeypatch.setattr(oscillator, "basis_values", counting)
        c = gaussian_coefficients(0.5, 100)
        xs = np.linspace(0.0, 3.0, 12)
        weighted_sup(c, 0.5, xs, T_GRID)
        assert builds == [100]
        decay_certificate(c, 0.5, xs, T_GRID)
        assert builds == [100, 100]

    def test_synthetic_certificate_finite(self):
        c = synthetic_envelope_coefficients(0.6, 400)
        cert = decay_certificate(c, 0.6, np.linspace(0.0, 6.0, 40), [0.0, 1 / 16])
        assert math.isfinite(cert.sup_weighted)
        assert cert.envelope_constant == pytest.approx(1.0, abs=1e-12)


class TestSharpnessDirection:
    def test_weakened_weight_grows_for_extremal_vector(self):
        # all-positive envelope coefficients attain the majorant at t = 0
        # (every retained term is past its turning point, hence positive),
        # so weakening the weight to alpha' > alpha must grow with the
        # x-extent
        alpha = 0.6
        c = synthetic_envelope_coefficients(alpha, 400)
        sups = [
            weighted_sup(c, 1.5 * alpha, np.linspace(0.0, ext, 60), [0.0])
            for ext in (2.0, 4.0, 6.0)
        ]
        assert sups[0] < sups[1] < sups[2]
        assert sups[2] > 100.0 * sups[0]

    def test_true_weight_stays_bounded(self):
        alpha = 0.6
        c = synthetic_envelope_coefficients(alpha, 400)
        sups = [
            weighted_sup(c, alpha, np.linspace(0.0, ext, 60), [0.0])
            for ext in (2.0, 4.0, 6.0)
        ]
        assert sups[2] <= sups[0] * 1.05

    def test_plain_gaussian_is_not_extremal(self):
        # a real Gaussian keeps its tanh(2 alpha) width along the whole
        # orbit, so the growth direction only appears past alpha' = 2 alpha
        g = gaussian_coefficients(0.5, 400)
        flat = [
            weighted_sup(g, 0.75, np.linspace(0.0, ext, 60), T_GRID[::8])
            for ext in (2.0, 4.0, 6.0)
        ]
        assert flat[2] <= flat[0] * 1.05
        growing = [
            weighted_sup(g, 1.25, np.linspace(0.0, ext, 60), T_GRID[::8])
            for ext in (2.0, 4.0, 6.0)
        ]
        assert growing[0] < growing[1] < growing[2]

    def test_weighted_sup_validation(self):
        c = gaussian_coefficients(0.5, 20)
        with pytest.raises(ValueError):
            weighted_sup(c, 0.0, [1.0], [0.0])
        with pytest.raises(ValueError):
            weighted_sup(c, 0.5, [], [0.0])

"""Acceptance gate: one test per numbered criterion, at stated tolerance.

Every test here sweeps the full advertised parameter range instead of
spot values, so a green run certifies the headline behavior end to end:
the two-sided envelope really is flat after compensation, the argument
function peaks where and as high as claimed, the uniform bound survives
randomized attack, and the oscillator evolution preserves Gaussian
decay with a certified tail.

Frozen constants below were read off a one-time calibration sweep and
rounded outward.  They are measurement records, not tuning knobs: a
regression that pushes past them is a real behavior change.
"""

import math
import time

import numpy as np

from hermite_decay.decay_sum import (
    SumParams,
    argument_derivatives,
    direct_sum,
    find_nmax,
    gaussian_theta,
    gaussian_theta_dual,
    sharpness_certificate,
)
from hermite_decay.hermite_core import (
    hermite_batch,
    hermite_exact,
    plancherel_rotach_estimate,
)
from hermite_decay.oscillator import (
    evolve_grid,
    gaussian_coefficients,
    vemuri_decay_check,
    weighted_sup,
)
from oracles import (
    POLYNOMIAL_ORACLE_MAX,
    hermite_via_polynomial,
    mp_argument_fd,
    naive_weighted_sum,
)

# Peak-height offsets |A(n_max) + x^2 tanh(y)/2| measured over
# x in [20, 200]: the worst case sits at x = 20 and shrinks about
# 100x by x = 200.  Bounds are the measured maxima rounded outward.
PEAK_OFFSET_BOUND = {0.25: 0.02, 0.5: 0.01, 1.0: 0.01, 2.0: 0.05}

# Compensated-sum band on [0, 100] for kappa=1, beta=1/4, y=1/2:
# measured range [0.2281, 1.4979], infimum at x = 0.
WEIGHTED_SUM_BAND = (0.1, 1.6)

SHARPNESS_COMBOS = tuple(
    (kappa, beta, y)
    for kappa in (1.0, 2.0)
    for beta in (0.0, 0.25, 1.0)
    for y in (0.25, 0.5, 1.0)
)

# 32 dyadic times plus the odd sixteenths; one full half period.
EVOLUTION_TIMES = tuple(
    sorted({k / 64.0 for k in range(32)} | {(2 * k + 1) / 16.0 for k in range(8)})
)


def test_criterion_01_sharpness_band_and_slope():
    """R(x) = S(x) x^(kappa/2 + 2 beta - 1) e^(kappa x^2 tanh(y)/2)
    stays in a 10:1 band with |log-log slope| <= 0.05 for all 18
    parameter combinations, inside a two minute budget.
    """
    x_grid = np.geomspace(15.0, 60.0, 40)
    started = time.monotonic()
    failures = []
    for kappa, beta, y in SHARPNESS_COMBOS:
        cert = sharpness_certificate(x_grid, SumParams(kappa, beta, y))
        band = cert.ratio_max / cert.ratio_min
        marks = []
        if band > 10.0:
            marks.append(f"band {band:.3f} > 10")
        if abs(cert.slope) > 0.05:
            marks.append(f"|slope| {abs(cert.slope):.4f} > 0.05")
        if marks:
            failures.append(f"kappa={kappa} beta={beta} y={y}: " + ", ".join(marks))
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s, budget is 120s"
    assert not failures, "compensated ratio not flat:\n" + "\n".join(failures)


def test_criterion_02_peak_index_tracks_asymptote():
    """n_max stays within 3 of x^2 / (2 cosh^2 y) across x in [20, 200]
    for every y, and the deviation does not grow with x.
    """
    for y in (0.25, 0.5, 1.0, 2.0):
        devs = []
        for x in np.linspace(20.0, 200.0, 46):
            prof = find_nmax(float(x), y)
            devs.append(abs(prof.n_max - x * x / (2.0 * math.cosh(y) ** 2)))
        assert max(devs) <= 3.0, f"y={y}: max |n_max - asymptote| = {max(devs):.3f}"
        assert devs[-1] <= devs[0] + 1.0, (
            f"y={y}: deviation grew from {devs[0]:.3f} at x=20 "
            f"to {devs[-1]:.3f} at x=200"
        )


def test_criterion_03_peak_height_offset_within_calibration():
    """|A(n_max) + x^2 tanh(y)/2| stays under the frozen per-y bound on
    x in [20, 200], and the x=200 offset is within twice the x=20 one.
    """
    for y, bound in PEAK_OFFSET_BOUND.items():
        devs = []
        for x in np.geomspace(20.0, 200.0, 40):
            prof = find_nmax(float(x), y)
            devs.append(abs(prof.a_max + x * x * math.tanh(y) / 2.0))
        assert max(devs) <= bound, f"y={y}: peak offset {max(devs):.2e} > {bound}"
        assert devs[-1] <= 2.0 * devs[0], (
            f"y={y}: offset at x=200 ({devs[-1]:.2e}) exceeds "
            f"twice the x=20 value ({devs[0]:.2e})"
        )


def test_criterion_04_concavity_and_derivative_cross_check():
    """A'' < 0 at every admissible integer order for x in
    {10, 20, 50, 100}, and the analytic A'' matches extended-precision
    central differences to 1e-6 relative at 1000 random interior points.
    """
    # A'' does not involve y; 0.5 below is an arbitrary admissible value.
    for x in (10.0, 20.0, 50.0, 100.0):
        top = (x * x - 4.0) / 2.0
        for n in range(2, math.ceil(top)):
            _, a2 = argument_derivatives(float(n), x, 0.5)
            assert a2 < 0.0, f"A'' = {a2} at n={n}, x={x}"
    rng = np.random.default_rng(1202)
    worst = 0.0
    for _ in range(1000):
        x = float(rng.choice((10.0, 20.0, 50.0, 100.0)))
        top = (x * x - 4.0) / 2.0
        n = 1.0 + float(rng.uniform(1e-6, 1.0 - 1e-6)) * (top - 1.0)
        _, a2 = argument_derivatives(n, x, 0.5)
        _, fd2 = mp_argument_fd(n, x, 0.5, rel_step=1e-4)
        worst = max(worst, abs(a2 - fd2) / abs(fd2))
    assert worst <= 1e-6, f"worst relative mismatch against differences: {worst:.3e}"


def test_criterion_05_plancherel_rotach_relative_accuracy():
    """The unreduced estimate tracks the recurrence to 5% relative
    throughout n in [50, 5000] with 2(n+1)/x^2 in [0.1, 0.9], and the
    median error at n >= 1000 beats the median at n <= 200.
    """
    orders = (50, 75, 100, 150, 200, 300, 500, 1000, 2000, 3500, 5000)
    ratios = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    rows = []
    for n in orders:
        for r in ratios:
            x = math.sqrt(2.0 * (n + 1) / r)
            est = plancherel_rotach_estimate(n, x)
            ex = hermite_exact(n, x)
            if est.sign != ex.sign:
                rel = math.inf
            else:
                rel = abs(math.expm1(est.logmag - ex.logmag))
            rows.append((n, r, rel))
    med_small = float(np.median([rel for n, _, rel in rows if n <= 200]))
    med_large = float(np.median([rel for n, _, rel in rows if n >= 1000]))
    assert med_large < med_small, (
        f"median error did not improve with order: "
        f"{med_large:.2e} at n>=1000 vs {med_small:.2e} at n<=200"
    )
    bad = [(n, r, rel) for n, r, rel in rows if rel > 0.05]
    assert not bad, "relative error above 5%: " + ", ".join(
        f"(n={n}, 2(n+1)/x^2={r}: {rel:.4f})" for n, r, rel in bad
    )


def test_criterion_06_randomized_uniform_bound():
    """10^4 random (n, x) pairs with n <= 10^4 and |x| <= 100 never
    exceed the global bound pi^(-1/4), with 1e-12 slack for roundoff.
    """
    rng = np.random.default_rng(8128)
    orders = rng.integers(0, 10_001, size=10_000)
    xs = rng.uniform(-100.0, 100.0, size=10_000)
    _, logmags = hermite_batch(orders, xs)
    cap = math.log(math.pi**-0.25 + 1e-12)
    assert float(np.max(logmags)) <= cap, (
        f"max log magnitude {np.max(logmags):.17f} exceeds ln(pi^(-1/4)+1e-12)"
    )


def test_criterion_07_weighted_sum_band_down_to_zero():
    """For kappa=1, beta=1/4, y=1/2 the compensated sum
    S(x) e^(x^2 tanh(y)/2) stays inside the calibrated band on all of
    [0, 100], including the small-x stretch [0, 1] where the power-law
    envelope itself does not apply.
    """
    params = SumParams(1.0, 0.25, 0.5)
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 26), np.linspace(0.0, 100.0, 201)]))
    lo, hi = WEIGHTED_SUM_BAND
    for x in xs:
        s = direct_sum(float(x), params)
        w = math.exp(s.logmag + x * x * math.tanh(0.5) / 2.0)
        assert lo <= w <= hi, f"W({x:.3f}) = {w:.6f} outside [{lo}, {hi}]"


def test_criterion_08_theta_modular_identity():
    """g_delta(x) equals its modular-transform evaluation to 1e-12
    relative for delta in {1/2, 1, 2} across x in [1, 50].
    """
    for delta in (0.5, 1.0, 2.0):
        for x in np.linspace(1.0, 50.0, 99):
            a = gaussian_theta(float(x), delta)
            b = gaussian_theta_dual(float(x), delta)
            assert abs(a - b) <= 1e-12 * abs(b), (
                f"delta={delta}, x={x:.2f}: {a!r} vs {b!r}"
            )


def test_criterion_09_gaussian_weighted_sup_stable():
    """Evolving e^(-tanh(2 alpha) pi x^2) keeps
    |Phi(x, t)| e^(tanh(alpha) pi x^2) finite over the dyadic time grid
    and x in [0, 8], and the sup moves under 20% when the truncation
    order doubles from 400 to 800.
    """
    xs = np.linspace(0.0, 8.0, 80)
    for alpha in (0.5, 1.0):
        sups = []
        for n_terms in (400, 800):
            coeffs = gaussian_coefficients(alpha, n_terms)
            c_bound = vemuri_decay_check(coeffs, alpha)
            sup = weighted_sup(
                coeffs, alpha, xs, EVOLUTION_TIMES, envelope=(alpha, c_bound)
            )
            assert math.isfinite(sup) and sup > 0.0, f"alpha={alpha}: sup = {sup}"
            sups.append(sup)
        assert abs(sups[1] - sups[0]) <= 0.2 * sups[0], (
            f"alpha={alpha}: sup moved from {sups[0]:.6f} to {sups[1]:.6f} "
            f"when the truncation doubled"
        )


def test_criterion_10_half_period_flip_and_norm_invariance():
    """Phi(x, 1/2) = -Phi(x, 0) to 1e-12 at every grid x, and the
    coefficient norm sum |c_n|^2 is exactly t-invariant: phases are
    applied at evaluation time and never written back, so the stored
    magnitudes cannot drift even by an ulp.
    """
    xs = np.linspace(0.0, 8.0, 80)
    for alpha in (0.5, 1.0):
        coeffs = gaussian_coefficients(alpha, 400)
        frozen = tuple(coeffs.coeffs)
        norm0 = math.fsum(c * c for c in coeffs.coeffs)
        base, _ = evolve_grid(coeffs, xs, 0.0)
        flipped, _ = evolve_grid(coeffs, xs, 0.5)
        worst = float(np.max(np.abs(flipped + base)))
        assert worst <= 1e-12, f"alpha={alpha}: half-period flip off by {worst:.2e}"
        for t in EVOLUTION_TIMES:
            evolve_grid(coeffs, xs, float(t))
            assert coeffs.coeffs == frozen
            assert math.fsum(c * c for c in coeffs.coeffs) == norm0


def test_criterion_11_independent_cross_checks():
    """Log-domain summation agrees with naive termwise accumulation at
    small x to 1e-10 relative, and the recurrence agrees with exact
    monomial tables through n = 30 at the same tolerance.
    """
    for kappa, beta, y in ((1.0, 0.25, 0.5), (2.0, 0.0, 1.0), (1.0, 1.0, 0.25)):
        params = SumParams(kappa, beta, y)
        for x in (1.0, 2.0, 3.0, 5.0):
            got = direct_sum(x, params).to_float()
            want = naive_weighted_sum(x, kappa, beta, y)
            assert abs(got - want) <= 1e-10 * abs(want), (
                f"kappa={kappa} beta={beta} y={y} x={x}: {got!r} vs {want!r}"
            )
    for n in range(POLYNOMIAL_ORACLE_MAX + 1):
        for x in (0.3, 1.0, 2.5, -4.2, 5.0):
            want = hermite_via_polynomial(n, x)
            got = hermite_exact(n, x).to_float()
            assert abs(got - want) <= 1e-10 * abs(want), (
                f"n={n}, x={x}: {got!r} vs {want!r}"
            )

"""Exponentially weighted sums of Hermite functions and their sharp envelope.

The central object is

    S(x; kappa, beta, y) = sum_{n >= 1} |h_n(x)|^kappa e^(-kappa n y) / n^beta

which obeys the two-sided Gaussian envelope x^(1 - kappa/2 - 2 beta)
e^(-kappa x^2 tanh(y) / 2) for |x| > 1.  The power of x comes from
Laplace's method over n: near the peak order n_max ~ x^2 / (2 cosh^2 y)
the factor |h_n|^kappa n^(-beta) contributes x^(-kappa/2 - 2 beta) and
the peak is about x orders wide.  At kappa = 1 this is the power
x^(1/2 - 2 beta) of the paper's upper bound; at kappa = 2, beta = 0
Mehler's formula gives the sum in closed form, with power x^0.

This module computes S by certified log-domain truncation, the
analysis machinery behind the envelope (the argument function A(n),
its derivatives, the interior maximum n_max), and a sharpness
certificate comparing S against the envelope across an x-grid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from hermite_decay import hermite_core
from hermite_decay.hermite_core import (
    EPSILON_MONOTONIC,
    SignedLog,
    hermite_orders,
    phi_coordinate,
)

_LN_PI = math.log(math.pi)

# direct_sum extends its truncation until the certified tail is this far
# below the accumulated total.
TAIL_RELATIVE_TOLERANCE = 1e-12

# direct_sum gives up when the tail is not yet certified at this order
# (or at the analysis cutoff, if that lies further out).
_MAX_ORDER = 4_000_000

# For beta < 0, the orders run past the analysis cutoff before the stop
# test is repeated: this many, then twice as many each time.
_FIRST_GROWTH = 64

# Most orders direct_sum converts to logs at once: the conversion holds
# about a dozen arrays of 8 bytes an order, so this bounds its memory
# when the analysis cutoff lies far out (it is 4.6e5 at x = 1e3, y = 1/2).
_LARGEST_BLOCK = 1 << 16

# Bisection control for the interior-maximum solve.
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class SumParams:
    """Parameters (kappa, beta, y) of the weighted sum; kappa, y > 0."""

    kappa: float
    beta: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa!r}")
        if not (math.isfinite(self.y) and self.y > 0.0):
            raise ValueError(f"y must be finite and positive, got {self.y!r}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")


@dataclass(frozen=True)
class ArgumentProfile:
    """A(n) landscape at one (x, y): interior maximum and samples.

    lam is n_max / x^2; samples holds (n, A, A', A'') rows on a grid
    spanning [1, truncation_n - 1].
    """

    n_max: float
    a_max: float
    lam: float
    truncation_n: int
    samples: tuple[tuple[float, float, float, float], ...]


@dataclass(frozen=True)
class SharpnessCertificate:
    """Two-sided comparison of S against its envelope on an x-grid.

    ratios holds R(x) = S(x) x^(kappa/2 + 2 beta - 1) e^(kappa x^2 tanh(y)/2);
    slope is the least-squares slope of ln R against ln x (near zero
    when the envelope captures the true power of x).
    restricted_fractions gives, per grid point, the share of S carried
    by the window 2(n+1)/x^2 in (lam/2, tanh(y)/y) alone, and
    restricted_ratio_min the smallest envelope fraction that window
    certifies by itself.
    """

    x_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    ratio_min: float
    ratio_max: float
    slope: float
    restricted_fractions: tuple[float, ...]
    restricted_ratio_min: float
    params: SumParams


def monotonic_margin(y: float) -> float:
    """y-dependent monotonic-region margin eps = (1 - tanh(y)/y) / 2.

    Chosen so the truncation window 2(n+1) <= x^2 tanh(y)/y sits halfway
    inside the (1 - eps) x^2 / 2 regime; never below EPSILON_MONOTONIC.
    """
    if y <= 0.0:
        raise ValueError(f"y must be positive, got {y}")
    return max(0.5 * (1.0 - math.tanh(y) / y), EPSILON_MONOTONIC)


def truncation_index(x: float, y: float) -> int:
    """N = max(floor(x^2 tanh(y) / (2y)) - 1, 1), the analysis cutoff.

    Orders n >= N contribute only a geometrically certified tail; orders
    n < N lie inside the monotonic region with margin monotonic_margin(y).
    """
    return max(int(x * x * math.tanh(y) / (2.0 * y)) - 1, 1)


def argument_function(n: float, x: float, y: float) -> float:
    """A(n) = n phi_n - n y - (x/2) sqrt(x^2 - 2(n+1)), n real in [1, N-1].

    The log of the dominant factor of the n-th summand of S.  Domain
    error past the turning point x^2 - 2(n+1) < 0 or for n < 1.
    """
    if n < 1.0:
        raise ValueError(f"argument function needs n >= 1, got n={n}")
    disc = x * x - 2.0 * (n + 1.0)
    if disc < 0.0:
        raise ValueError(f"n={n} lies past the turning point (x^2 - 2(n+1) < 0)")
    phi = phi_coordinate(n, x).phi
    return n * phi - n * y - 0.5 * x * math.sqrt(disc)


def argument_derivatives(n: float, x: float, y: float) -> tuple[float, float]:
    """Closed-form (A'(n), A''(n)) strictly inside the domain.

    A'  = phi_n + x / (2(n+1) sqrt(x^2 - 2n - 2)) - y
    A'' = x ((2n+5)(n+1) - x^2 (n+2)) / (2 (n+1)^2 (x^2 - 2n - 2)^(3/2))
    """
    if n < 1.0:
        raise ValueError(f"argument derivatives need n >= 1, got n={n}")
    disc = x * x - 2.0 * (n + 1.0)
    if disc <= 0.0:
        raise ValueError(f"n={n} is at or past the turning point for x={x}")
    phi = phi_coordinate(n, x).phi
    root = math.sqrt(disc)
    a1 = phi + x / (2.0 * (n + 1.0) * root) - y
    a2 = (
        x
        * ((2.0 * n + 5.0) * (n + 1.0) - x * x * (n + 2.0))
        / (2.0 * (n + 1.0) ** 2 * disc * root)
    )
    return a1, a2


def check_second_derivative_inequality(n: int, x: float, c: float) -> bool:
    """Whether (1 + 1/(n+1)) t - (1 + 3/(2n+2)) >= c (1 - 1/t)^(3/2).

    Here t = x^2 / (2(n+1)); the inequality holding for a given c > 0 is
    equivalent to A''(n) < -c / x^2, so sweeping it calibrates the
    concavity constant.  Domain: 1 < n < (x^2 - 4) / 2.
    """
    if not (1.0 < n < (x * x - 4.0) / 2.0):
        raise ValueError(f"n={n} outside the concavity window (1, (x^2-4)/2) for x={x}")
    t = x * x / (2.0 * (n + 1.0))
    lhs = (1.0 + 1.0 / (n + 1.0)) * t - (1.0 + 3.0 / (2.0 * n + 2.0))
    rhs = c * (1.0 - 1.0 / t) ** 1.5
    return lhs >= rhs


def find_nmax(x: float, y: float, n_samples: int = 33) -> ArgumentProfile:
    """Locate the interior maximum of A by bracketed bisection.

    A'(n) = 0 transforms to G(phi) = phi + cosh(phi)^3 / (x^2 sinh(phi))
    - y = 0 with n = x^2 / (2 cosh(phi)^2) - 1; the valid root lies in
    (0, y).  G(y) > 0 always, and G also blows up at 0+, so a second,
    spurious root sits near the turning point: scanning phi downward for
    a negative value lands strictly between the two roots and brackets
    only the wanted one.

    Raises ValueError when x is too small for the given y (truncation
    window shorter than 3 orders, or no sign change in the bracket);
    failure is reported, never clamped.
    """
    n_trunc = truncation_index(x, y)
    if n_trunc < 3:
        raise ValueError(
            f"x={x} is below the largeness threshold for y={y}: "
            f"truncation window N={n_trunc} < 3"
        )

    def g(phi: float) -> float:
        ch = math.cosh(phi)
        return phi + ch**3 / (x * x * math.sinh(phi)) - y

    lo = None
    probe = 0.5 * y
    while probe > y * 2.0**-60:
        if g(probe) < 0.0:
            lo = probe
            break
        probe *= 0.5
    if lo is None:
        raise ValueError(
            f"x={x} is below the largeness threshold for y={y}: "
            f"A' has no sign change on the bracket (0, y)"
        )
    hi = y
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    phi_star = 0.5 * (lo + hi)

    n_max = x * x / (2.0 * math.cosh(phi_star) ** 2) - 1.0
    a_max = argument_function(n_max, x, y)
    lam = n_max / (x * x)
    grid = np.linspace(1.0, float(n_trunc - 1), n_samples)
    samples = []
    for n in grid:
        a1, a2 = argument_derivatives(float(n), x, y)
        samples.append((float(n), argument_function(float(n), x, y), a1, a2))
    return ArgumentProfile(
        n_max=n_max,
        a_max=a_max,
        lam=lam,
        truncation_n=n_trunc,
        samples=tuple(samples),
    )


def tail_bound(start_n: int, x: float, params: SumParams) -> SignedLog:
    """Certified upper bound on the sum of terms n >= start_n.

    Uses only |h_n| <= pi^(-1/4), so the bound is uniform in x.  For
    beta >= 0 the power factor is monotone and the geometric closed form
    pi^(-kappa/4) start_n^(-beta) e^(-kappa start_n y) / (1 - e^(-kappa y))
    is already sound.  For beta < 0 the growing power n^|beta| is
    majorized block by block on dyadic ranges [m 2^j, m 2^(j+1)).
    """
    if start_n < 1:
        raise ValueError(f"start_n must be >= 1, got {start_n}")
    kappa, beta, y = params.kappa, params.beta, params.y
    log_geo = -math.log1p(-math.exp(-kappa * y))
    base = -0.25 * kappa * _LN_PI + log_geo
    if beta >= 0.0:
        return SignedLog(1, base - beta * math.log(start_n) - kappa * start_n * y)
    block_logs = []
    j = 0
    while True:
        lead = start_n * 2.0**j
        t = base - beta * (math.log(start_n) + (j + 1) * math.log(2.0)) - kappa * lead * y
        block_logs.append(t)
        if j > 0 and t < max(block_logs) - 80.0:
            break
        j += 1
    m = max(block_logs)
    return SignedLog(
        1, m + math.log(math.fsum(math.exp(t - m) for t in block_logs))
    )


def _summand_logs(h_logs: np.ndarray, n: np.ndarray, params: SumParams) -> np.ndarray:
    """Log of the summand at orders n, given ln|h_n(x)| (-inf at zeros)."""
    with np.errstate(invalid="ignore"):
        return params.kappa * (h_logs - n * params.y) - params.beta * np.log(n)


def _term_logs(x: float, params: SumParams, n_stop: int) -> np.ndarray:
    """Log of the summand for n = 1..n_stop (log-domain, -inf at zeros)."""
    _, logs = hermite_orders(n_stop, x)
    return _summand_logs(logs[1:], np.arange(1, n_stop + 1, dtype=float), params)


def _log_sum(term_logs: np.ndarray) -> float:
    m = float(term_logs.max())
    with np.errstate(under="ignore"):
        return m + math.log(float(np.exp(term_logs - m).sum()))


def _first_passing(first: int, running: np.ndarray, x: float, params: SumParams):
    """Index i of the first order n = first + i that certifies its tail, or None.

    n certifies when tail_bound(n + 1) <= TAIL_RELATIVE_TOLERANCE e^running[i],
    running[i] being ln of the partial sum through n.  For beta >= 0 the
    bound falls and the partial sum grows with n, so the passing orders
    form a suffix and bisection finds the first; for beta < 0 only the
    last order is tested.
    """
    log_tol = math.log(TAIL_RELATIVE_TOLERANCE)

    def passes(i: int) -> bool:
        return tail_bound(first + i + 1, x, params).logmag <= running[i] + log_tol

    candidates = range(max(running.size - 1, 0) if params.beta < 0.0 else 0, running.size)
    if not candidates or not passes(candidates[-1]):
        return None
    return candidates[bisect.bisect_left(candidates, True, hi=len(candidates) - 1, key=passes)]


def _sum_internals(x: float, params: SumParams) -> tuple[float, np.ndarray, int]:
    """(log S, term logs, n_stop) with the tail certified negligible.

    One lazy recurrence pass, hermite_core._scalar_loop, converted to
    logs in blocks whose ends the stop rule picks.  n_stop is an order
    n >= max(N, 64), N the analysis cutoff, where tail_bound(n + 1) is at
    most TAIL_RELATIVE_TOLERANCE times the partial sum through n, a
    lower bound on S.  The first block runs to max(N, 64), rounded up to
    the end of a stride slice (past _LARGEST_BLOCK orders, several
    blocks do).  For beta >= 0, n_stop is the smallest such order: the
    closed-form tail bound falls by e^(-kappa y) an order at least, so
    the order where it passes against the partial sum so far is solved
    for, and the next block runs to it.  For beta < 0, the blocks grow
    by _FIRST_GROWTH, then twice as many orders each time, and n_stop is
    the first block end that passes.  log S is summed over all kept
    terms at once, so it does not depend on the block boundaries.
    """
    x = abs(x)
    n_min = max(truncation_index(x, params.y), 64)
    n_top = max(n_min, _MAX_ORDER)
    log_tol = math.log(TAIL_RELATIVE_TOLERANCE)
    slices = hermite_core._scalar_loop(n_top, x, keep=True)
    _, logs = hermite_core._next_orders(slices, min(n_min, _LARGEST_BLOCK) + 1, x, 0)
    logs = logs[1:]  # h_0 carries no summand
    blocks = []
    n_end = 0  # the last order summed
    log_partial = -math.inf  # ln of the partial sum through n_end
    growth = _FIRST_GROWTH
    while logs.size:
        n = np.arange(n_end + 1, n_end + 1 + logs.size, dtype=float)
        terms = _summand_logs(logs, n, params)
        blocks.append(terms)
        # orders below max(N, 64) may not stop the sum
        skip = min(max(n_min - n_end - 1, 0), terms.size)
        if skip:
            log_partial = float(np.logaddexp(log_partial, _log_sum(terms[:skip])))
        running = np.logaddexp.accumulate(np.concatenate(([log_partial], terms[skip:])))[1:]
        first = n_end + skip + 1
        n_end += terms.size
        stop = _first_passing(first, running, x, params)
        if stop is not None:
            blocks[-1] = terms[: skip + stop + 1]
            terms = np.concatenate(blocks)
            return _log_sum(terms), terms, first + stop
        if running.size:
            log_partial = float(running[-1])
        if n_end < n_min:
            count = n_min - n_end
        elif params.beta >= 0.0:
            gap = tail_bound(n_end + 1, x, params).logmag - (log_partial + log_tol)
            count = math.ceil(min(gap / (params.kappa * params.y), n_top))
        else:
            count, growth = growth, 2 * growth
        count = min(max(count, 1), _LARGEST_BLOCK)
        _, logs = hermite_core._next_orders(slices, count, x, n_end + 1)
    raise RuntimeError(f"tail certification failed to converge by n={n_end} at x={x}")


def direct_sum(x: float, params: SumParams) -> SignedLog:
    """S(x; kappa, beta, y) summed in the log domain, tail certified.

    One streaming pass of the recurrence in ascending n, converted to
    logs in two or three blocks: the sum stops at the first order past
    the analysis cutoff N (at least 64) where tail_bound certifies a
    relative tail below TAIL_RELATIVE_TOLERANCE against the partial sum
    so far (for beta < 0, at the first such block end).
    S is even in x, so negative arguments are folded; every term is
    nonnegative and the result sign is +1.
    """
    log_s, _, _ = _sum_internals(x, params)
    return SignedLog(1, log_s)


def envelope_power(params: SumParams) -> float:
    """Power 1 - kappa/2 - 2 beta of x in the sharp envelope of S.

    Equals the paper's 1/2 - 2 beta at kappa = 1 only; see the module
    docstring for where it comes from.
    """
    return 1.0 - 0.5 * params.kappa - 2.0 * params.beta


def envelope(x: float, params: SumParams) -> SignedLog:
    """Log envelope p ln x - kappa x^2 tanh(y) / 2, x > 0.

    p = envelope_power(params) = 1 - kappa/2 - 2 beta.  No
    multiplicative constant is included: constants are calibration
    outputs (see SharpnessCertificate), not ground truth.
    """
    if x <= 0.0:
        raise ValueError(f"envelope needs x > 0, got {x}")
    logmag = envelope_power(params) * math.log(x) - 0.5 * params.kappa * x * x * math.tanh(params.y)
    return SignedLog(1, logmag)


def sharpness_certificate(x_grid, params: SumParams) -> SharpnessCertificate:
    """Compare S against the envelope across a sorted grid, |x| > 1.

    Per point: R(x) = S(x) / envelope(x), plus the share of S carried by
    the window 2(n+1)/x^2 in (lam/2, tanh(y)/y) around the maximizer;
    the window alone certifying a positive envelope fraction is the
    lower-bound mechanism behind sharpness.  find_nmax failures at
    individual points propagate.
    """
    xs = [float(v) for v in x_grid]
    if len(xs) < 2:
        raise ValueError("sharpness needs a grid of at least 2 points")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("x_grid must be strictly increasing")
    if xs[0] <= 1.0:
        raise ValueError(
            f"sharpness is only claimed outside [-1, 1], got grid start {xs[0]}"
        )
    y_ratio = math.tanh(params.y) / params.y
    ratios = []
    fractions = []
    restricted_ratios = []
    for x in xs:
        profile = find_nmax(x, params.y)
        log_s, terms, n_stop = _sum_internals(x, params)
        log_env = envelope(x, params).logmag
        ratios.append(math.exp(log_s - log_env))
        u = 2.0 * (np.arange(1, n_stop + 1, dtype=float) + 1.0) / (x * x)
        window = (u > 0.5 * profile.lam) & (u < y_ratio)
        if not window.any():
            raise ValueError(f"restricted window is empty at x={x}")
        log_restricted = _log_sum(terms[window])
        fractions.append(math.exp(log_restricted - log_s))
        restricted_ratios.append(math.exp(log_restricted - log_env))
    ln_x = np.log(np.array(xs))
    ln_r = np.log(np.array(ratios))
    slope = float(np.polyfit(ln_x, ln_r, 1)[0])
    return SharpnessCertificate(
        x_grid=tuple(xs),
        ratios=tuple(ratios),
        ratio_min=min(ratios),
        ratio_max=max(ratios),
        slope=slope,
        restricted_fractions=tuple(fractions),
        restricted_ratio_min=min(restricted_ratios),
        params=params,
    )


def default_sweep_start(y: float) -> float:
    """Conservative default first x for sweeps at a given y."""
    return max(10.0, 3.0 / math.sqrt(math.tanh(y)))


def largeness_threshold(y: float) -> float:
    """Smallest x (to ~1e-6) at which find_nmax operates for this y.

    Operational definition: the truncation window holds at least 3
    orders and the A' bracket on (0, y) has a sign change.  Found by
    bisection on that predicate.
    """

    def usable(x: float) -> bool:
        try:
            find_nmax(x, y, n_samples=3)
        except ValueError:
            return False
        return True

    hi = default_sweep_start(y)
    while not usable(hi):
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError(f"no usable x found for y={y}")
    lo = 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if usable(mid):
            hi = mid
        else:
            lo = mid
    return hi


def theta_sum(scale: float) -> float:
    """sum over all integers n of e^(-scale n^2), scale > 0; exact fsum."""
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    terms = [1.0]
    n = 1
    while True:
        t = math.exp(-scale * n * n)
        if t < 1e-22:
            break
        terms.append(2.0 * t)  # n and -n contribute equally
        n += 1
    return math.fsum(terms)


def gaussian_theta(x: float, delta: float) -> float:
    """g_delta(x) = sum over n of e^(-delta pi n^2 / x^2)."""
    return theta_sum(delta * math.pi / (x * x))


def gaussian_theta_dual(x: float, delta: float) -> float:
    """The modular-transform side: (x / sqrt(delta)) sum e^(-pi n^2 x^2 / delta).

    Equals gaussian_theta(x, delta) identically; the pair exists so the
    identity can be verified numerically rather than assumed.
    """
    return x / math.sqrt(delta) * theta_sum(math.pi * x * x / delta)

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

This module computes S by certified log-domain truncation on both
sides of that peak: a geometric tail bound stops the sum past the
analysis cutoff, and, below the turning point, a far sum enters the
recurrence near its window from an asymptotic expansion of h_n instead
of walking the orders left of it, whose sum a ratio lemma certifies
negligible, so that only the peak's window is computed, converted and
exponentiated (see _sum_internals).  A grid of x goes through one
entry point, _sums, which yields each point's sum or the exception that
point raised, so one failing x leaves the others as they are; it scans
the blocks below the turning point of many points in one stacked pass
(hermite_core._group_scan), and every value is the one of its x alone,
bit for bit.  The CLI sum mode, sharpness_certificate and the
oscillator's decay_certificate pass their grids to it, and direct_sum
is its one-point case.  It also holds the analysis machinery behind the
envelope (the argument function A(n), its derivatives, the interior
maximum n_max), and a sharpness certificate comparing S against the
envelope across an x-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hermite_decay import hermite_core
from hermite_decay.hermite_core import SignedLog, phi_coordinate
from hermite_decay.hermite_core import _array, _point, _positive, _real, _whole_number

_LN_PI = math.log(math.pi)

# direct_sum extends its truncation until the certified tail is this far
# below the accumulated total.
TAIL_RELATIVE_TOLERANCE = 1e-12

# direct_sum gives up when the tail is not yet certified at this order,
# and rejects x whose analysis cutoff lies past it.
_MAX_ORDER = 4_000_000

# A sum drops a head of its orders once _Head bounds it by e^-60 times a
# term of the sum: far below TAIL_RELATIVE_TOLERANCE (e^-27.6), and far
# above any rounding of the bound.
_HEAD_LOG_MARGIN = 60.0

# A sum enters at its window only where _expected_head holds at least
# this many orders.  Measured crossover of an entered sum against the walk
# from order 1, whose time it matches there (2-core x86-64 VM, Python
# 3.11, numpy 2.4; best of 7): 1900-2100 orders for (kappa, beta, y) =
# (1, 1/4, 1/2), (2, 0, 1/4), (2, 1/4, 1/2) and (1, 1/4, 1/4) (x = 70
# to 80); an entry costs about 30 us (expansion, ratio map and head
# certificate) and saves about 27 ns an order it does not walk.  That was
# measured on one sum alone; in a grid (_sums) the scan passes of the
# sums are stacked, so a walked order costs less and the crossover lies
# higher.  The threshold stays: it sets which sums enter, and so the last
# bits of their ln S.  With this threshold no README report (x <= 60)
# enters.
_HEAD_MIN_ORDERS = 2000

# Most orders direct_sum draws from its order stream at once.  A block
# peaks at about nine arrays of 8 bytes an order, the stream's buffers
# included: under 5 MB.  The term logs kept add 8 bytes an order; when
# they span several blocks they are held four times while _log_sum runs
# over their join (the blocks, the join, and the two arrays of its exp).
# A far sum enters at its window and keeps only the orders from its
# dropped head to n_stop: at x = 1e3, y = 1/2 that is 75,958 of
# n_stop = 462,166 orders, and the sum peaks at 4.5 MB (tracemalloc),
# in 4.6 ms (15.1 ms when it walked every order).
_LARGEST_BLOCK = 1 << 16

# Bisection control for the interior-maximum solve.
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class SumParams:
    """Parameters (kappa, beta, y) of the weighted sum.

    kappa and y are positive finite numbers and beta a finite one, none
    a bool or a string (hermite_core._positive, _real); ValueError naming
    the one that is not.  The values are kept as given.
    """

    kappa: float
    beta: float
    y: float

    def __post_init__(self) -> None:
        _positive(self.kappa, "kappa")
        _real(self.beta, "beta")
        _positive(self.y, "y")


@dataclass(frozen=True)
class ArgumentProfile:
    """A(n) landscape at one (x, y): its interior maximum.

    lam is n_max / x^2; truncation_n is the analysis cutoff N, so the
    maximum lies in [1, N - 1].
    """

    n_max: float
    a_max: float
    lam: float
    truncation_n: int


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


def truncation_index(x: float, y: float) -> int:
    """N = max(floor(x^2 tanh(y) / (2y)) - 1, 1), the analysis cutoff.

    Orders n >= N contribute only a geometrically certified tail; orders
    n < N lie inside the monotonic region 2(n+1) <= (1 - eps) x^2 with
    margin eps = max((1 - tanh(y)/y) / 2, 1e-3), which puts the window
    2(n+1) <= x^2 tanh(y)/y halfway inside that region.  Raises
    ValueError for an x that is not a point (hermite_core._point) and a
    y that is not a positive finite number.
    """
    _point(x)
    _positive(y, "y")
    return max(int(x * x * math.tanh(y) / (2.0 * y)) - 1, 1)


def argument_function(n: float, x: float, y: float) -> float:
    """A(n) = n phi_n - n y - (x/2) sqrt(x^2 - 2(n+1)), n real in [1, N-1].

    The log of the dominant factor of the n-th summand of S.  n is a
    finite number, x a point and y positive and finite, as SumParams
    asks; domain error past the turning point x^2 - 2(n+1) < 0 or for
    n < 1.
    """
    _point(x)
    _positive(y, "y")
    if _real(n, "n") < 1.0:
        raise ValueError(f"argument function needs n >= 1, got n={n}")
    disc = x * x - 2.0 * (n + 1.0)
    if disc < 0.0:
        raise ValueError(f"n={n} lies past the turning point (x^2 - 2(n+1) < 0)")
    phi = phi_coordinate(n, x)
    return n * phi - n * y - 0.5 * x * math.sqrt(disc)


def argument_derivatives(n: float, x: float, y: float) -> tuple[float, float]:
    """Closed-form (A'(n), A''(n)) strictly inside the domain.

    A'  = phi_n + x / (2(n+1) sqrt(x^2 - 2n - 2)) - y
    A'' = x ((2n+5)(n+1) - x^2 (n+2)) / (2 (n+1)^2 (x^2 - 2n - 2)^(3/2))

    Takes the arguments that argument_function takes.
    """
    _point(x)
    _positive(y, "y")
    if _real(n, "n") < 1.0:
        raise ValueError(f"argument derivatives need n >= 1, got n={n}")
    disc = x * x - 2.0 * (n + 1.0)
    if disc <= 0.0:
        raise ValueError(f"n={n} is at or past the turning point for x={x}")
    phi = phi_coordinate(n, x)
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
    concavity constant.  Domain: 1 < n < (x^2 - 4) / 2, n and c finite
    numbers and x a point.
    """
    _point(x)
    _real(c, "c")
    if not (1.0 < _real(n, "n") < (x * x - 4.0) / 2.0):
        raise ValueError(f"n={n} outside the concavity window (1, (x^2-4)/2) for x={x}")
    t = x * x / (2.0 * (n + 1.0))
    lhs = (1.0 + 1.0 / (n + 1.0)) * t - (1.0 + 3.0 / (2.0 * n + 2.0))
    rhs = c * (1.0 - 1.0 / t) ** 1.5
    return lhs >= rhs


def find_nmax(x: float, y: float) -> ArgumentProfile:
    """Locate the interior maximum of A by bracketed bisection.

    A'(n) = 0 transforms to G(phi) = phi + cosh(phi)^3 / (x^2 sinh(phi))
    - y = 0 with n = x^2 / (2 cosh(phi)^2) - 1; the valid root lies in
    (0, y).  G(y) > 0 always, and G also blows up at 0+, so a second,
    spurious root sits near the turning point: scanning phi downward for
    a negative value lands strictly between the two roots and brackets
    only the wanted one.

    Where cosh(phi)^3 or x^2 sinh(phi) leaves double range, G takes its
    middle term as e^(2 (phi - ln 2x)), infinite where that overflows
    (G > 0 there): past phi = 20, cosh(phi) and sinh(phi) are both
    e^phi / 2 to double precision, and below it the term is then under
    1e-280.  Raises ValueError for an x or a y that truncation_index
    rejects, or when x is too small for the given y (truncation window
    shorter than 3 orders, no sign change in the bracket, or the maximum
    at an order below 1); failure is reported, never clamped.  The summand |h_n(x)|^kappa is even in x, so the
    profile at x is the one at |x|.
    """
    n_trunc = truncation_index(x, y)
    x = abs(x)

    def below(reason: str) -> ValueError:
        return ValueError(f"x={x} is below the largeness threshold for y={y}: {reason}")

    if n_trunc < 3:
        raise below(f"truncation window N={n_trunc} < 3")

    def g(phi: float) -> float:
        try:
            scale = x * x * math.sinh(phi)
            if scale < math.inf:
                return phi + math.cosh(phi) ** 3 / scale - y
        except OverflowError:  # cosh(phi)^3 or sinh(phi)
            pass
        lead = 2.0 * (phi - math.log(2.0 * x))
        return phi + math.exp(lead) - y if lead < 709.0 else math.inf

    lo = None
    probe = 0.5 * y
    while probe > y * 2.0**-60:
        if g(probe) < 0.0:
            lo = probe
            break
        probe *= 0.5
    if lo is None:
        raise below("A' has no sign change on the bracket (0, y)")
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

    ch = math.cosh(phi_star)
    # past ch = x, n_max < 0 and ch^2 may overflow
    n_max = x * x / (2.0 * ch**2) - 1.0 if ch < x else 0.5 * (x / ch) ** 2 - 1.0
    if n_max < 1.0:
        raise below(f"the maximum of A lies at n={n_max} < 1")
    return ArgumentProfile(
        n_max=n_max,
        a_max=argument_function(n_max, x, y),
        lam=n_max / (x * x),
        truncation_n=n_trunc,
    )


def _log_tails(start, params: SumParams) -> np.ndarray:
    """ln of a bound on the sum of the terms n >= s, for each order s in start.

    Uses only |h_n| <= pi^(-1/4), so the bound holds for every x.  With
    b = max(-beta, 0), n^(-beta) <= s^(-beta) e^(b (n - s) / s) for n >= s
    (as ln t <= t - 1), so a geometric series of ratio e^(-kappa y + b/s)
    majorizes the terms:

        pi^(-kappa/4) s^(-beta) e^(-kappa y s) / (1 - e^(-kappa y + b/s)),

    and +inf while kappa y s <= b, where that series diverges.  For
    beta >= 0 the ratio is e^(-kappa y), the series of a falling power
    factor, one scalar for every s.  Elementwise; the ratio is capped at
    1 before exp, so no beta can make it overflow.
    """
    s = np.asarray(start, dtype=float)
    kappa, beta, y = params.kappa, params.beta, params.y
    if beta >= 0.0:
        # b = 0: one ratio for every s, so the geometric factor is one scalar
        ratio = np.exp(-kappa * y)
        head = -0.25 * kappa * _LN_PI - np.log1p(-ratio) if ratio < 1.0 else math.inf
        return head - beta * np.log(s) - kappa * s * y
    ratio = np.exp(np.minimum(-beta / s - kappa * y, 0.0))
    converges = ratio < 1.0
    log_geo = -np.log1p(-np.where(converges, ratio, 0.0))
    logs = -0.25 * kappa * _LN_PI + log_geo - beta * np.log(s) - kappa * s * y
    return np.where(converges, logs, np.inf)


def tail_bound(start_n: int, params: SumParams) -> SignedLog:
    """Certified upper bound on the sum of terms n >= start_n, for every x.

    The geometric bound of _log_tails at one order, with b = max(-beta, 0):
    pi^(-kappa/4) start_n^(-beta) e^(-kappa y start_n) / (1 - e^(-kappa y + b/start_n)),
    +inf while kappa y start_n <= b.  Raises ValueError unless start_n
    is a whole number >= 1 (not a bool, 2.5, nan or inf).
    """
    start_n = _whole_number(start_n, "start_n", 1)
    return SignedLog(1, float(_log_tails(start_n, params)))


def _summand_logs(h_logs: np.ndarray, n: np.ndarray, params: SumParams) -> np.ndarray:
    """Log of the summand at orders n, given ln|h_n(x)| (-inf at zeros)."""
    with np.errstate(invalid="ignore"):
        return params.kappa * (h_logs - n * params.y) - params.beta * np.log(n)


def _log_sum(term_logs: np.ndarray) -> float:
    m = float(term_logs.max())
    with np.errstate(under="ignore"):
        return m + math.log(float(np.exp(term_logs - m).sum()))


class _Head:
    """The head certificate of one sum at x > 0, made once on its first block.

    Called with block-start orders a, ln r_{a-1} = ln(h_a(x)/h_{a-1}(x))
    and ln|h_a(x)|; returns the largest a below n_min, max(N, 64), whose
    head 1..a it certifies, or 0.  _sum_internals calls it once per
    entered sum, on the block starts from the entry on.

    Below the turning point, r_k = h_{k+1}/h_k does not rise in k (the
    lemma of ROADMAP item 5): r_k = F_k(r_{k-1}) with
    F_k(r) = x sqrt(2/(k+1)) - sqrt(k/(k+1))/r, F_k rises in r > 0,
    F_k <= F_{k-1} pointwise and r_1 < r_0, so by induction r_k <= r_{k-1}
    while h stays positive, which it does for 2k + 1 < x^2, where every
    block start a of the scan lies.  With u_k = t_k k^beta and
    rho = r_{a-1}^kappa e^(-kappa y) > 1, u_k/u_{k+1} = 1/(r_k^kappa
    e^(-kappa y)) <= 1/rho for k < a, so u_k <= u_a rho^(k-a); as k^(-beta)
    is at most 1 for beta >= 0 and at most a^(-beta) for beta < 0,

        t_1 + ... + t_a <= t_a (1 + a^max(beta, 0) / (rho - 1)).

    The head is certified when this bound is at most e^(-_HEAD_LOG_MARGIN)
    times top, the largest block-start term given, a lower bound on S.
    ln r_{a-1} is the difference of two converted logs, so it carries a
    few ulps of ln|h| (at most about 2^-52 x^2 / 2) plus the relative
    drift of the recurrence between neighbouring orders and the ratio
    error of an entry (2^-60); ln rho is taken less a margin of
    2^-40 (x^2 + 1) kappa, at least 2.6e-9 kappa where the stream scans
    (x >= 53), far above all three.  The terms at the block starts
    round like any term and carry the entry's error (below 1e-11 up to
    x = 2500), which the e^60 margin absorbs.  log_bound holds the log
    of the bound of the last head certified.
    """

    def __init__(self, x: float, params: SumParams, n_min: int) -> None:
        self._params = params
        self._n_min = n_min
        self._shift = params.y + (x * x + 1.0) * 2.0**-40
        self.top = -math.inf
        self.log_bound = -math.inf

    def __call__(self, a: np.ndarray, log_ratios: np.ndarray, logs: np.ndarray) -> int:
        params = self._params
        log_a = np.log(a)
        terms = params.kappa * (logs - params.y * a) - params.beta * log_a
        self.top = max(self.top, float(terms.max()))
        log_rho = log_ratios - self._shift
        log_rho *= params.kappa
        # rho <= 1 certifies nothing: its bound comes out +inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = -np.log(np.expm1(log_rho))
            if params.beta > 0.0:
                excess += params.beta * log_a
            bounds = terms + np.logaddexp(0.0, excess)
        passing = np.flatnonzero((bounds <= self.top - _HEAD_LOG_MARGIN) & (a < self._n_min))
        if not passing.size:
            return 0
        self.log_bound = float(bounds[passing[-1]])
        return int(a[passing[-1]])


def _expected_head(x: float, params: SumParams) -> float:
    """An order left of the last one _Head certifies, by Laplace's method; the sum enters there.

    The log of the summand peaks near n* = x^2 / (2 cosh^2 y) with
    curvature -1/sigma^2, sigma^2 = x^2 tanh(y) / (kappa cosh^2 y)
    (ROADMAP item 6).  _Head certifies an order a once its term lies
    e^60 times the factor 1 + a^max(beta, 0) / (rho - 1) below the top,
    where rho - 1 is about sqrt(2 L) / sigma: so at about
    L = 60 + max(beta, 0) ln n* + max(ln(sigma / 11), 0) below it, sqrt(2 L)
    sigma before n*.  The summand is skewed, and the certificate reads
    only block starts, so the order returned lies a further
    B + 10 / (kappa y^2) orders left, B = hermite_core._stride(x): over
    kappa in [1/2, 5/2], beta in [-3, 1], y in [1/5, 2] and x in
    [55, 1500], the last start certified lay at most
    B + 5 / (kappa y^2) orders before the Laplace point (measured).
    """
    kappa, y = params.kappa, params.y
    c = math.cosh(y)
    n_peak = 0.5 * x * x / (c * c)
    sigma = x * math.sqrt(math.tanh(y) / kappa) / c
    level = _HEAD_LOG_MARGIN + max(params.beta, 0.0) * math.log(max(n_peak, 1.0))
    level += math.log(max(sigma, 11.0) / 11.0)
    margin = hermite_core._stride(x) + 10.0 / (kappa * y * y)
    return n_peak - math.sqrt(2.0 * level) * sigma - margin


class _Sum(NamedTuple):
    """What _sum_internals found.

    log S; the term logs kept, of orders n_first through n_stop; and
    log_head, the log of the bound on the dropped head 1..n_first-1
    (-inf when n_first = 1, where nothing was dropped).
    """

    log_s: float
    terms: np.ndarray
    n_stop: int
    n_first: int
    log_head: float


def _sum_internals(x: float, params: SumParams) -> _Sum:
    """log S with the tail certified negligible, and a far sum entered at its window.

    The one-point case of _sums, which sums a grid of x with the same
    values, bit for bit, scans the blocks of many points in stacked
    passes, and records a point's failure, in its set-up or its walk, in
    its place: here the same set-up (_start) and walk (_finish) run with
    scan passes of this one stream, and a failure is raised.  One
    recurrence pass at x, a hermite_core._OrderStream, hands out the raw
    orders (p_k, walls, s_k) in blocks of exactly the sizes asked for,
    and runs less than one stride past the last block.  n_stop is the
    smallest order n >= max(N, 64), N the analysis cutoff, where the
    tail bound at n + 1 (_log_tails) is at most TAIL_RELATIVE_TOLERANCE
    times the partial sum through n, a lower bound on S.

    Where the stream scans below the turning point and _expected_head
    holds at least _HEAD_MIN_ORDERS orders, the pass does not walk the
    head: it enters at the block start a = _expected_head rounded down to
    a multiple of the stride (_OrderStream.enter), from the expansion of
    h_a below the turning point and the ratio map.  Its ln|h_n| then
    carry the entry's error, about the first term the expansion omits
    (at most 1e-13) plus a few units of 2^-64 of its long-double lead,
    about x^2 / 2: within 2e-13 + 1e-18 x^2 of the long-double loop over
    x in [55, 2500] (tests/test_hermite_core.py).  So ln S moves from
    the walk from order 1 by at most kappa times that, plus the walk's
    own drift to a and a few ulps (measured on 12 sums at x = 300, 1000
    and 2500: at most 1 ulp).  On the first block, one _Head
    certificate takes the block starts a, a + B, ... below max(N, 64),
    with ln|h| and ln r from the block's own conversion, and drops the
    head through the last start it certifies, before its terms are
    formed; the terms kept run from n_first on.  Where the entry is
    refused, or the certificate passes at no start (its order lies
    right of the window), the sum walks from order 1 and keeps every
    order.

    Each block makes one pass: it converts its orders to logs
    (hermite_core._log_magnitudes) and term logs, takes e = exp(terms -
    top) once, top the larger of the block's largest term and the
    partial sum so far, and tests all its orders at or past max(N, 64)
    at once against the prefix sums of e, taking a log only of those;
    it stops at the first that passes.  The first block runs past
    max(N, 64), past the first order where the bound is finite (for
    beta < 0 it is infinite up to order |beta| / (kappa y)), and
    lookahead = (2 - ln TAIL_RELATIVE_TOLERANCE) / (kappa y) orders past
    N: at N the bound is about S, and for beta >= 0 it falls by
    e^(-kappa y) an order or faster, so there it has usually passed.
    Every later block runs to the order where the bound alone would pass
    against the partial sum so far: the count that a fall of
    e^(-kappa y) an order needs, enough for beta >= 0, doubled until the
    bound passes for beta < 0, where it falls more slowly; and at least
    to the first order that may stop the sum.  No block
    holds more than _LARGEST_BLOCK orders or runs past _MAX_ORDER.
    log S is summed over all kept terms at once, as _log_sum does, so it
    does not depend on the block boundaries: when the kept terms are one
    block, top is the largest kept term (each later term lies below the
    tail bound, far below the partial sum, and a dropped head far below
    a kept term) and log S is top plus the log of the sum of e up to the
    stop; otherwise it is _log_sum of the joined terms.  Raises
    ValueError for an x hermite_core rejects or whose analysis cutoff
    lies past _MAX_ORDER, and RuntimeError when the tail is not
    certified by _MAX_ORDER.
    """
    return _finish(_start(x, params), params)


class _Start(NamedTuple):
    """One sum set up to walk.

    |x|, the cutoff N, its stream, its entry order (0: from order 1),
    the first order that may stop its walk and the last order of its
    first request (_first_orders).
    """

    x: float
    n_cut: int
    stream: hermite_core._OrderStream
    entry: int
    n_solve: int
    last: int


def _start(x: float, params: SumParams, enter: bool = True) -> _Start:
    """Set up the sum at x: check x, enter at its window if it can, and find its first request.

    With enter False the stream walks from order 1.
    """
    n_cut = truncation_index(x, params.y)  # checks x, and is even in it
    x = abs(x)
    if n_cut > _MAX_ORDER:
        raise ValueError(f"analysis cutoff N={n_cut} at x={x} lies past order {_MAX_ORDER}")
    stream = hermite_core._OrderStream(x)
    entry = 0
    if enter and stream.scan_end:
        expected = _expected_head(x, params)
        entry = int(expected // stream.stride) * stream.stride
        if not (expected >= _HEAD_MIN_ORDERS and stream.enter(entry)):
            entry = 0
    if not entry:
        stream.first = 1  # h_0 carries no summand
    return _Start(x, n_cut, stream, entry, *_first_orders(params, n_cut, stream))


def _sums(xs, params: SumParams):
    """Yield the _Sum of _sum_internals at each x of xs in turn, or the exception that x raised.

    Every x is set up first (_start), its first request included
    (_first_orders).  Then those requests go to hermite_core._group_scan,
    which scans their blocks below the turning point in stacked passes,
    one pass for as many streams as its budget holds.  A sum is walked
    when it is asked for, after the pass that holds it, so no more than
    one pass's scanned orders and one sum's terms are held at once.  The
    values are those of each x alone, bit for bit.  An x that raises, in
    its set-up or its walk, gets its exception in its place and leaves
    the others as they are.
    """
    starts = []
    for x in xs:
        try:
            starts.append(_start(x, params))
        except Exception as exc:  # recorded for this x alone
            starts.append(exc)
    # read lazily, never behind the loop below, which drops each set-up
    # once walked, and with it the orders its stream still holds
    passes = hermite_core._group_scan(
        (start.stream, start.last) for start in starts if isinstance(start, _Start)
    )
    scanned = 0  # the sums set up whose pass has run and that are not yet walked
    for i, start in enumerate(starts):
        if not isinstance(start, _Start):
            yield start
            continue
        if not scanned:
            scanned = next(passes)
        scanned -= 1
        starts[i] = None
        try:
            total = _finish(start, params)
        except Exception as exc:  # recorded for this x alone
            total = exc
        yield total


def _finish(start: _Start, params: SumParams) -> _Sum:
    """The sum of a set-up x; where an entry certifies no head, a fresh walk from order 1."""
    if start.entry:
        total = _walk(start, params)
        if total is not None:
            return total
        start = _start(start.x, params, enter=False)
    return _walk(start, params)


def _first_orders(params: SumParams, n_cut: int, stream) -> tuple[int, int]:
    """(n_solve, n_end): the first order that may stop a walk on stream; its first request's end.

    The block solve starts past max(N, 64) and past the first order whose
    tail bound is finite, kappa y n > max(-beta, 0).  At N the tail bound
    is about S itself, and from there it falls by e^(-kappa y) an order
    or faster: so the stop usually lies within lookahead orders past N,
    where the bound has fallen by the tolerance and two more e-folds.
    """
    kappa_y = params.kappa * params.y
    n_solve = max(n_cut, 64, math.floor(max(-params.beta, 0.0) / kappa_y) + 1)
    lookahead = math.ceil((2.0 - math.log(TAIL_RELATIVE_TOLERANCE)) / kappa_y)
    first_end = max(n_solve, n_cut + lookahead)
    return n_solve, min(first_end, stream.first + _LARGEST_BLOCK - 1, _MAX_ORDER)


def _walk(start: _Start, params: SumParams) -> _Sum | None:
    """The sum of _sum_internals on the stream of start, entered at its entry (0: from order 1).

    None when the head certificate of an entry passes at no block start.
    """
    x, n_cut, stream, entry, n_solve, n_end = start  # n_end: the last order requested
    kappa_y = params.kappa * params.y
    n_min = max(n_cut, 64)
    log_tol = math.log(TAIL_RELATIVE_TOLERANCE)
    ps, walls, scales = stream.take(n_end + 1 - max(entry - 1, 0))
    head = None
    blocks = []
    log_partial = -math.inf  # ln of the partial sum before the block
    while ps.size:
        n_start = n_end + 1 - ps.size  # the block's first order
        n = np.arange(n_start, n_end + 1, dtype=float)
        logs = hermite_core._log_magnitudes(ps, walls, scales, x, n)
        if entry and head is None:
            # the one head certificate: the block starts from the entry
            # on, below the smallest stop and the block's last order
            a = np.arange(entry, min(n_min, n_end), stream.stride)
            at = logs[a - n_start]
            head = _Head(x, params, n_min)
            dropped = head(a, at - logs[a - 1 - n_start], at)
            if not dropped:
                return None
            n, logs = n[dropped + 1 - n_start :], logs[dropped + 1 - n_start :]
            n_start = dropped + 1
        terms = _summand_logs(logs, n, params)
        blocks.append(terms)
        # orders below max(N, 64) may not stop the sum
        skip = min(max(n_min - n_start, 0), terms.size)
        top = max(float(terms.max()), log_partial)
        with np.errstate(under="ignore", divide="ignore"):
            e = np.exp(terms - top)
            # the partial sums through each tested order, seeded by the
            # orders below them
            below = math.exp(log_partial - top) + float(e[:skip].sum())
            running = np.cumsum(e[skip:])
            running += below
            np.log(running, out=running)
        running += top
        passing = _log_tails(n[skip:] + 1.0, params) <= running + log_tol
        if passing.any():
            stop = skip + int(passing.argmax())
            if len(blocks) == 1:
                log_s = top + math.log(float(e[: stop + 1].sum()))
                terms = terms[: stop + 1]
            else:
                blocks[-1] = terms[: stop + 1]
                terms = np.concatenate(blocks)
                log_s = _log_sum(terms)
            n_stop = int(n[stop])
            log_head = head.log_bound if head else -math.inf
            return _Sum(log_s, terms, n_stop, n_stop + 1 - terms.size, log_head)
        log_partial = top + math.log(float(e.sum()) + math.exp(log_partial - top))
        # the bound falls by e^(-kappa y) an order or faster for beta >= 0,
        # more slowly for beta < 0: double the count, up to 128 times,
        # until the bound alone would pass against the partial sum so far.
        # Where the block ended below max(N, 64) it may pass already: the
        # next block then runs to n_solve
        target = log_partial + log_tol
        gap = max(float(_log_tails(n_end + 1, params)) - target, 0.0)
        counts = math.ceil(min(gap / kappa_y, _MAX_ORDER)) * 2 ** np.arange(8)
        passing = _log_tails(n_end + 1 + counts, params) <= target
        count = max(int(counts[passing.argmax() if passing.any() else -1]), n_solve - n_end, 1)
        count = min(count, _LARGEST_BLOCK, _MAX_ORDER - n_end)
        ps, walls, scales = stream.take(count)
        n_end += count
    raise RuntimeError(f"tail certification failed to converge by n={n_end} at x={x}")


def direct_sum(x: float, params: SumParams) -> SignedLog:
    """S(x; kappa, beta, y) summed in the log domain, head and tail certified.

    One streaming pass of the recurrence in ascending n, in a few
    blocks; each block is converted to term logs and exponentiated once,
    and that one exp pass serves both the stop test and S (see
    _sum_internals).  Where the recurrence scans below the turning point
    and the head is long enough to pay for it, the pass enters at an
    order a left of the peak instead of walking 1..a: ln|h_a| from the
    expansion of h_a below the turning point (DLMF 12.10.3), to within
    about 2e-13 + 1e-18 x^2, and h_a/h_{a-1} from the ratio map; ln S
    then moves from the walk's by at most kappa times that plus a few
    ulps.  The orders 1..a', a' the last block start at or past a that
    passes, are dropped once t_a' (1 + a'^max(beta, 0) / (rho - 1))
    bounds their sum by e^-60 times a term of S, with
    rho = (h_a'/h_{a'-1})^kappa e^(-kappa y) > 1: the ratio h_{k+1}/h_k
    does not rise below the turning point (_Head); where no start
    passes, the sum walks from order 1 instead.
    The sum stops at the first order past the
    analysis cutoff N (at least 64) where the geometric tail bound of
    tail_bound, taken from the next order on, is below
    TAIL_RELATIVE_TOLERANCE times the partial sum so far.  For beta < 0
    that bound is infinite up to order |beta| / (kappa y), so the sum
    runs at least that far.  S is even in x, so negative arguments are
    folded; every term is nonnegative and the result sign is +1.  The
    recurrence runs in doubles, on the order stream of hermite_orders.
    At large x the sum stops below the turning point 2n + 1 < x^2
    (n_stop is about x^2 tanh(y) / (2y) + 28 / (kappa y)), where h_n is
    the dominant solution of the forward recurrence, so its drift stays
    far below that of hermite_orders past the turning point.  The limit
    is the ulp of ln S, which a double stores: at kappa = 2, beta = 0,
    ln S is within 2 ulps of Mehler's closed form at x up to 2500 (3.1e6
    orders), and that ulp is 4.7e-10 at x = 2000, y = 1.  Raises
    ValueError for an x that is not a point (hermite_core._point) or
    one whose cutoff N exceeds 4e6 orders (|x| above about 2.9e3 at
    y = 1/2).
    """
    return SignedLog(1, _sum_internals(x, params).log_s)


def envelope_power(params: SumParams) -> float:
    """Power 1 - kappa/2 - 2 beta of x in the sharp envelope of S.

    Equals the paper's 1/2 - 2 beta at kappa = 1 only; see the module
    docstring for where it comes from.
    """
    return 1.0 - 0.5 * params.kappa - 2.0 * params.beta


def envelope(x: float, params: SumParams) -> SignedLog:
    """Log envelope p ln x - kappa x^2 tanh(y) / 2, x > 0 a point (hermite_core._point).

    p = envelope_power(params) = 1 - kappa/2 - 2 beta.  No
    multiplicative constant is included: constants are calibration
    outputs (see SharpnessCertificate), not ground truth.
    """
    if not _point(x) > 0.0:
        raise ValueError(f"envelope needs a finite x > 0, got {x}")
    logmag = envelope_power(params) * math.log(x) - 0.5 * params.kappa * x * x * math.tanh(params.y)
    return SignedLog(1, logmag)


def sharpness_certificate(x_grid, params: SumParams) -> SharpnessCertificate:
    """Compare S against the envelope across a sorted grid, |x| > 1.

    Per point: R(x) = S(x) / envelope(x), plus the share of S carried by
    the window 2(n+1)/x^2 in (lam/2, tanh(y)/y) around the maximizer;
    the window alone certifying a positive envelope fraction is the
    lower-bound mechanism behind sharpness.  Both read the terms the sum
    kept, from its first kept order on: a head it dropped holds at most
    e^-60 of S (see _sum_internals), so the window's share moves by no
    more than that.  x_grid is a 1-D array of points
    (hermite_core._array); find_nmax failures at individual points
    propagate.
    """
    xs = _array(x_grid, "x_grid", points=True).tolist()
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
    for x, total in zip(xs, _sums(xs, params)):
        profile = find_nmax(x, params.y)
        if isinstance(total, Exception):
            raise total
        log_s = total.log_s
        log_env = envelope(x, params).logmag
        ratios.append(math.exp(log_s - log_env))
        # the kept terms: the dropped head adds at most e^-60 of S
        u = 2.0 * (np.arange(total.n_first, total.n_stop + 1, dtype=float) + 1.0) / (x * x)
        window = (u > 0.5 * profile.lam) & (u < y_ratio)
        if not window.any():
            raise ValueError(f"restricted window is empty at x={x}")
        log_restricted = _log_sum(total.terms[window])
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


def theta_sum(scale: float) -> float:
    """sum over all integers n of e^(-scale n^2), scale > 0; exact fsum.

    scale is a positive number, +inf included: theta_sum(inf) is the
    limit 1, which gaussian_theta reads where x^2 underflows.
    """
    _real(scale, "scale", "a positive number", hermite_core._FLOAT_TINY, math.inf)

    def terms():
        yield 1.0
        n = 1
        while (t := math.exp(-scale * n * n)) >= 1e-22:
            yield 2.0 * t  # n and -n contribute equally
            n += 1

    # a generator, not a list: gaussian_theta(1e8, 1) sums 4e8 terms
    return math.fsum(terms())


def gaussian_theta(x: float, delta: float) -> float:
    """g_delta(x) = sum over n of e^(-delta pi n^2 / x^2).

    Raises ValueError for an x that is 0 or not a finite number, and
    for a delta that is not a positive finite number.  Where x^2
    underflows to 0 the sum is its limit, 1.
    """
    if not _real(x, "x"):
        raise ValueError(f"x must be a finite nonzero number, got {x!r}")
    _positive(delta, "delta")
    square = x * x
    return theta_sum(delta * math.pi / square if square else math.inf)


def gaussian_theta_dual(x: float, delta: float) -> float:
    """The modular-transform side: (x / sqrt(delta)) sum e^(-pi n^2 x^2 / delta).

    Equals gaussian_theta(x, delta) identically; the pair exists so the
    identity can be verified numerically rather than assumed.  Takes the
    arguments that gaussian_theta takes.
    """
    if not _real(x, "x"):
        raise ValueError(f"x must be a finite nonzero number, got {x!r}")
    _positive(delta, "delta")
    return x / math.sqrt(delta) * theta_sum(math.pi * x * x / delta)

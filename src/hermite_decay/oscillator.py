"""Hermite expansion and harmonic-oscillator evolution.

Functions are expanded in the orthonormal basis

    e_n(x) = (2 pi)^(1/4) h_n(sqrt(2 pi) x),

whose L^2 norm is exactly 1 (the bare h_n(sqrt(2 pi) x) has norm
(2 pi)^(-1/4), so Parseval would fail without the prefactor; the
prefactor only rescales certified constants).  Time evolution applies
the explicit phase e^(2(2n+1) pi i t) to the n-th coefficient; over a
time grid that is one phase matrix times one basis matrix, the
evolution table every caller reads.  Gaussian-decay certificates bound
sup |Phi(x, t)| e^(tanh(alpha) pi x^2) over an (x, t) grid with the
truncation tail folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decay_sum import SumParams, _sums, tail_bound
from .hermite_core import _array, _positive, _real, _signed_exp, _whole_number
from .hermite_core import hermite_moment_sweep, hermite_values

BASIS_SCALE = math.sqrt(2.0 * math.pi)
BASIS_NORMALIZER = (2.0 * math.pi) ** 0.25
# sup over n and x of |e_n(x)| = (2 pi)^(1/4) pi^(-1/4) = 2^(1/4)
UNIFORM_BASIS_BOUND = 2.0**0.25


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-trapezoid refinement plan for coefficient integrals.

    half_width None means the window is sized automatically: the
    integrand envelope |f| * UNIFORM_BASIS_BOUND must fall below 1e-16
    of its peak at the endpoints.  Node count doubles until successive
    coefficient vectors agree to `tolerance` or `max_doublings` is
    exhausted; disagreement is recorded per coefficient, not raised.
    half_width (where given) and tolerance are positive finite numbers,
    initial_nodes a whole number >= 16 and max_doublings one >= 1 (with
    none, no two grids disagree by less than inf);
    ValueError naming the field otherwise.  The counts are kept as ints
    (16.0 becomes 16).
    """

    half_width: float | None = None
    initial_nodes: int = 2048
    tolerance: float = 1e-10
    max_doublings: int = 6

    def __post_init__(self):
        if self.half_width is not None:
            _positive(self.half_width, "half_width")
        nodes = _whole_number(self.initial_nodes, "initial_nodes", 16)
        object.__setattr__(self, "initial_nodes", nodes)
        _positive(self.tolerance, "tolerance")
        doublings = _whole_number(self.max_doublings, "max_doublings", 1)
        object.__setattr__(self, "max_doublings", doublings)


@dataclass(frozen=True)
class HermiteCoefficients:
    """Expansion coefficients c_0..c_N against e_n, with error estimates.

    quad_error[n] is an absolute estimate of the error in coeffs[n]
    (grid-refinement disagreement for quadrature, exactly zero for
    closed-form constructions).  coeffs is a nonempty 1-D array of
    finite numbers, and quad_error one of the same length, each >= 0, or
    empty for all zeros (hermite_core._array); both are kept as tuples
    of floats.
    """

    coeffs: tuple[float, ...]
    quad_error: tuple[float, ...] = field(default=())

    def __post_init__(self):
        coeffs = tuple(_array(self.coeffs, "coeffs", nonempty=True).tolist())
        errors = tuple(_array(self.quad_error, "quad_error").tolist()) or (0.0,) * len(coeffs)
        if len(errors) != len(coeffs):
            raise ValueError("quad_error length must match coeffs")
        if min(errors) < 0.0:
            raise ValueError("quad_error entries must be finite and >= 0")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "quad_error", errors)

    @property
    def truncation_n(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class DecayCertificate:
    """Grid-certified Gaussian decay of the evolved expansion.

    sup_weighted is the grid supremum of |Phi(x, t)| e^(tanh(alpha) pi
    x^2) with the per-point truncation tail already folded in;
    tail_contribution isolates how much of that could come from the
    tail alone.  Both are read from their natural logs,
    log_sup_weighted and log_tail_contribution, which stay exact when
    the weight e^(tanh(alpha) pi x^2) of a wide grid pushes the value
    past double range; the float fields are then +inf.
    majorant_slack_min and triangle_slack_min record the two
    cross-check margins (both nonnegative up to rounding): the
    coefficient majorant against the weighted-sum bound, and the
    evolved values against the majorant.
    """

    alpha: float
    sup_weighted: float
    envelope_constant: float
    truncation_n: int
    tail_contribution: float
    x_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    majorant_slack_min: float
    triangle_slack_min: float
    log_sup_weighted: float
    log_tail_contribution: float


def _log_envelope(n: int, alpha: float) -> float:
    m = max(int(n), 1)
    return -alpha * m - 0.25 * math.log(m)


def vemuri_envelope(n: int, alpha: float) -> float:
    """Coefficient decay envelope e^(-alpha n) n^(-1/4), clamped at n = 1.

    The clamp gives the n = 0 coefficient the same budget as n = 1, so
    a pure e_0 certifies with constant e^alpha rather than an undefined
    0^(-1/4).  n must be a whole number >= 0 and alpha a positive finite
    number (ValueError otherwise).
    """
    n = _whole_number(n, "n")
    return math.exp(_log_envelope(n, _positive(alpha, "alpha")))


def _certified_envelopes(coeffs: HermiteCoefficients, alpha: float) -> list[tuple[int, float]]:
    """(n, ln envelope) for each index whose quad_error fits under the envelope.

    A larger quad_error cannot tell a genuine coefficient from
    quadrature noise at the scale being tested.
    """
    certified = []
    for n, err in enumerate(coeffs.quad_error):
        log_env = _log_envelope(n, alpha)
        if err <= math.exp(log_env):
            certified.append((n, log_env))
    return certified


def envelope_tail_log(alpha: float, c_bound: float, n_top: int) -> float:
    """log of a bound on sum_{n > n_top} c_bound e^(-alpha n) n^(-1/4) * sup|e_n|.

    sup|e_n| = (2 pi)^(1/4) pi^(-1/4), so this is c_bound (2 pi)^(1/4)
    times the tail bound of S with kappa = 1, beta = 1/4, y = alpha.
    alpha and c_bound are positive finite numbers, n_top a whole number
    >= 0.
    """
    _positive(alpha, "alpha")
    _positive(c_bound, "c_bound")
    tail = tail_bound(_whole_number(n_top, "n_top") + 1, SumParams(1.0, 0.25, alpha)).logmag
    return math.log(c_bound) + math.log(BASIS_NORMALIZER) + tail


def basis_values(xs, n_top: int) -> np.ndarray:
    """Matrix of e_k(xs[j]), shape (n_top + 1, len(xs)); xs a 1-D array or one point.

    Raises ValueError for an n_top that hermite_values rejects, and for
    xs unless sqrt(2 pi) xs is an array of points (hermite_core._array).
    """
    xs = _array(xs, "xs", scalar=True)
    return BASIS_NORMALIZER * hermite_values(n_top, BASIS_SCALE * xs)


def _evaluate_handle(f, xs: np.ndarray) -> np.ndarray:
    try:
        values = np.asarray(f(xs), dtype=float)
        if values.shape == xs.shape:
            return values
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(v))) for v in xs])


def _auto_half_width(f) -> float:
    probe = np.linspace(-4.0, 4.0, 321)
    peak = float(np.max(np.abs(_evaluate_handle(f, probe))))
    if not peak > 0.0 or not math.isfinite(peak):
        raise ValueError("function handle has no finite peak on [-4, 4]")
    width = 4.0
    while width <= 40.0:
        edge = np.abs(_evaluate_handle(f, np.array([-width, width]))).max()
        if edge <= 1e-16 * peak:
            return width
        width += 0.5
    raise ValueError("function does not decay below 1e-16 of peak by |x| = 40")


def expand(f, n_terms: int, quad: QuadratureSpec | None = None) -> HermiteCoefficients:
    """Coefficients c_n = <f, e_n> for n = 0..n_terms by refined quadrature.

    Each refinement halves the trapezoid step and evaluates f and the
    basis on the new midpoints only (nested trapezoid, Numerical
    Recipes section 4.2).  The per-coefficient quad_error is the
    disagreement between the two finest grids; coefficients that fail to
    reach quad.tolerance keep their larger disagreement on record rather
    than raising.  Raises ValueError naming f and the first node where
    its value is not finite.
    """
    n_terms = _whole_number(n_terms, "n_terms")
    quad = quad or QuadratureSpec()
    width = quad.half_width if quad.half_width is not None else _auto_half_width(f)

    def moments(xs: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float]:
        """Weighted coefficient sums over one node set, and the sum of |weights|."""
        values = _evaluate_handle(f, xs)
        bad = np.flatnonzero(~np.isfinite(values))[:1].tolist()
        if bad:
            value, x = float(values[bad[0]]), float(xs[bad[0]])
            raise ValueError(f"f must be finite at every node, got {value!r} at x={x!r}")
        weights = weights * values
        coeffs = BASIS_NORMALIZER * hermite_moment_sweep(BASIS_SCALE * xs, weights, n_terms)
        return coeffs, float(np.sum(np.abs(weights)))

    nodes = quad.initial_nodes
    xs = np.linspace(-width, width, nodes + 1)
    weights = np.full(xs.size, xs[1] - xs[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    current, mass = moments(xs, weights)
    diff = np.full(n_terms + 1, np.inf)
    for _ in range(quad.max_doublings):
        # nested trapezoid: the halved step halves every old weight, so
        # only the new midpoints need the integrand and the basis
        nodes *= 2
        xs = np.linspace(-width, width, nodes + 1)
        mid_coeffs, mid_mass = moments(xs[1::2], np.full(nodes // 2, xs[1] - xs[0]))
        refined = 0.5 * current + mid_coeffs
        mass = 0.5 * mass + mid_mass
        diff = np.abs(refined - current)
        current = refined
        if diff.max() <= quad.tolerance:
            break
    # summation roundoff floor: no refinement agreement can certify
    # tighter than this
    floor = 4.0 * np.finfo(float).eps * UNIFORM_BASIS_BOUND * mass
    diff = np.maximum(diff, floor)
    return HermiteCoefficients(current, diff)


def gaussian_coefficients(alpha: float, n_terms: int) -> HermiteCoefficients:
    """Exact expansion of e^(-a pi x^2) with a = tanh(2 alpha).

    c_{2m} = 2^(1/4) (1 + a)^(-1/2) rho^m sqrt((2m)!)/(2^m m!) with
    rho = (1 - a)/(1 + a) = e^(-4 alpha); odd coefficients vanish by
    parity.  Assembled in log space, so there is no factorial overflow.
    """
    _positive(alpha, "alpha")
    n_terms = _whole_number(n_terms, "n_terms")
    a = math.tanh(2.0 * alpha)
    # ln rho = -4 alpha exactly; ln(1 - a) - ln(1 + a) cancels as a -> 1
    log_rho = -4.0 * alpha
    base = 0.25 * math.log(2.0) - 0.5 * math.log1p(a)
    coeffs = [0.0] * (n_terms + 1)
    for m in range(0, n_terms // 2 + 1):
        log_c = (
            base
            + m * log_rho
            + 0.5 * math.lgamma(2 * m + 1)
            - m * math.log(2.0)
            - math.lgamma(m + 1)
        )
        coeffs[2 * m] = math.exp(log_c)
    return HermiteCoefficients(tuple(coeffs))


def vemuri_decay_check(coeffs: HermiteCoefficients, alpha: float) -> float:
    """Smallest C with |c_n| <= C e^(-alpha n) n^(-1/4) over testable n.

    Indices whose quad_error exceeds the envelope are excluded (see
    _certified_envelopes).  Returns +inf when the largest ratio sits at
    the truncation edge on a rising trend: the data then shows no
    attained supremum and certifies nothing.
    """
    return _decay_constant(coeffs, _certified_envelopes(coeffs, _positive(alpha, "alpha")))


def _decay_constant(coeffs: HermiteCoefficients, certified: list[tuple[int, float]]) -> float:
    """vemuri_decay_check on the indices and log envelopes it certified."""
    log_ratios = [
        -math.inf if coeffs.coeffs[n] == 0.0 else math.log(abs(coeffs.coeffs[n])) - log_env
        for n, log_env in certified
    ]
    if not log_ratios:
        raise ValueError("quadrature error exceeds the tested envelope everywhere")
    best = max(range(len(log_ratios)), key=log_ratios.__getitem__)
    if best == len(log_ratios) - 1 and len(log_ratios) >= 3:
        window = log_ratios[-10:]
        rising = all(b - a > 1e-9 for a, b in zip(window, window[1:]))
        if rising:
            return math.inf
    return math.exp(log_ratios[best])


def _phase_factors(n_top: int, t) -> np.ndarray:
    # phase angle 2(2n+1) pi t, reduced mod 2 pi so that exp gets a small
    # argument, formed exactly; the factors stay rounded (t = 1/4 gives
    # 6.1e-17 + 1i, t = 1/2 gives -1 + 1.2e-16i).  turns - 2 floor(turns/2)
    # is np.mod(turns, 2.0) bit for bit, nan included, without its slow
    # path: turns/2 and its doubling are exact, and the difference is a
    # multiple of ulp(turns) below 2.  Shape np.shape(t) + (n_top + 1,).
    # The turns peak at n_top; where they overflow, the phase is lost.
    n = np.arange(n_top + 1, dtype=float)
    t = np.asarray(t, dtype=float)[..., np.newaxis]
    t_max = float(np.max(np.abs(t), initial=0.0))
    if not math.isfinite(2.0 * (2.0 * n_top + 1.0) * t_max):
        raise ValueError(
            f"t must keep the phase turns 2(2N+1)|t| finite at N = {n_top}, got |t| = {t_max!r}"
        )
    turns = 2.0 * (2.0 * n + 1.0) * t
    whole = turns / 2.0
    np.floor(whole, out=whole)
    whole *= 2.0
    turns -= whole
    phases = 1j * np.pi * turns
    return np.exp(phases, out=phases)


def _evolution_table(coeffs: HermiteCoefficients, basis: np.ndarray, t) -> np.ndarray:
    """Phi at every (t, x) cell: one phase-matrix product with the basis."""
    return (_phase_factors(coeffs.truncation_n, t) * np.asarray(coeffs.coeffs)) @ basis


def _log_weighted_sup(values: np.ndarray, log_tail: float, log_weight: np.ndarray) -> float:
    """max over the table of ln(|Phi| + tail) + log_weight, in log space."""
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(values))
    return float(np.max(np.logaddexp(log_mag, log_tail) + log_weight))


def evolve_grid(
    coeffs: HermiteCoefficients,
    xs,
    t,
    envelope: tuple[float, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Evolved values Phi(xs, t) and a shared tail radius.

    Phi(x, t) = sum_n e^(2(2n+1) pi i t) c_n e_n(x), truncated at
    coeffs.truncation_n.  t is a scalar or a 1-D time grid; the values
    have shape np.shape(t) + (len(xs),), so a scalar t gives one row
    over xs and a grid gives one row per time.  The basis is built once
    for all times.  The tail radius bounds the dropped n > truncation_n
    part using a coefficient envelope (alpha, C) and the uniform basis
    bound; it is +inf when no envelope is supplied.  Raises ValueError
    for a t that is not a finite number or a 1-D array of them, for xs
    that basis_values rejects, and for an envelope that
    envelope_tail_log rejects.
    """
    t = _array(t, "t") if isinstance(t, (list, tuple, np.ndarray)) else _real(t, "t")
    values = _evolution_table(coeffs, basis_values(xs, coeffs.truncation_n), t)
    if envelope is None:
        return values, math.inf
    alpha, c_bound = envelope
    tail = _signed_exp(1, envelope_tail_log(alpha, c_bound, coeffs.truncation_n))
    # a bound must round up, never underflow to an exact zero
    return values, max(tail, 5e-324)


def weighted_sup(
    coeffs: HermiteCoefficients,
    weight_alpha: float,
    x_grid,
    t_grid,
    envelope: tuple[float, float] | None = None,
) -> float:
    """Grid sup of |Phi(x, t)| e^(tanh(weight_alpha) pi x^2).

    Accumulates in log space: the weight alone reaches e^(tanh(alpha)
    pi x^2), far past double range for wide grids, where the result is
    +inf.  The tail radius, if an envelope is given, is folded into
    every point.  weight_alpha is a positive finite number, and x_grid
    and t_grid are nonempty 1-D arrays of finite numbers.
    """
    _positive(weight_alpha, "weight_alpha")
    xs, ts = _array(x_grid, "x_grid", nonempty=True), _array(t_grid, "t_grid", nonempty=True)
    log_weight = math.tanh(weight_alpha) * math.pi * xs * xs
    log_tail = -math.inf
    if envelope is not None:
        alpha, c_bound = envelope
        log_tail = envelope_tail_log(alpha, c_bound, coeffs.truncation_n)
    values, _ = evolve_grid(coeffs, xs, ts)
    return _signed_exp(1, _log_weighted_sup(values, log_tail, log_weight))


def decay_certificate(
    coeffs: HermiteCoefficients, alpha: float, x_grid, t_grid
) -> DecayCertificate:
    """Certify sup |Phi| e^(tanh(alpha) pi x^2) over the grid.

    Refuses an alpha that is not a positive finite number, coefficients
    whose decay constant is not finite, and grids that weighted_sup
    refuses (ValueError).  Two
    independent cross-checks ride along: the coefficient majorant
    sum |c_n| |e_n(x)| over envelope-certified indices must stay below
    the weighted-sum chain bound C (2 pi)^(1/4) S(sqrt(2 pi) x) at
    kappa = 1, beta = 1/4, y = alpha (plus the n = 0 term), and every
    evolved value must stay below the all-index majorant.  One basis
    matrix serves the majorants and the evolution table.
    """
    envelopes = _certified_envelopes(coeffs, _positive(alpha, "alpha"))
    c_bound = _decay_constant(coeffs, envelopes)
    if not math.isfinite(c_bound):
        raise ValueError("coefficients violate the claimed decay envelope")
    xs, ts = _array(x_grid, "x_grid", nonempty=True), _array(t_grid, "t_grid", nonempty=True)

    n_top = coeffs.truncation_n
    basis = basis_values(xs, n_top)
    magnitudes = np.abs(np.asarray(coeffs.coeffs))
    log_weight = math.tanh(alpha) * math.pi * xs * xs
    # all-zero coefficients have C = 0, and a zero tail
    log_tail = envelope_tail_log(alpha, c_bound, n_top) if c_bound > 0.0 else -math.inf

    certified = np.zeros(n_top + 1, dtype=bool)
    certified[[n for n, _ in envelopes]] = True
    majorant_all = magnitudes @ np.abs(basis)
    majorant_kept = np.where(certified, magnitudes, 0.0) @ np.abs(basis)

    params = SumParams(kappa=1.0, beta=0.25, y=alpha)
    majorant_slack = math.inf
    sums = _sums([BASIS_SCALE * float(x) for x in xs], params)
    for j, total in enumerate(sums):
        if isinstance(total, Exception):
            raise total
        chain = c_bound * BASIS_NORMALIZER * math.exp(total.log_s)
        if certified[0]:
            chain += magnitudes[0] * abs(basis[0, j])
        lhs = majorant_kept[j]
        slack = math.inf if lhs == 0.0 else (chain - lhs) / lhs
        majorant_slack = min(majorant_slack, slack)

    values = _evolution_table(coeffs, basis, ts)
    mags = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        slacks = (majorant_all - mags) / np.where(mags > 0.0, mags, 1.0)
    log_sup = _log_weighted_sup(values, log_tail, log_weight)
    log_tail_contribution = log_tail + float(np.max(log_weight))

    return DecayCertificate(
        alpha=float(alpha),
        sup_weighted=_signed_exp(1, log_sup),
        envelope_constant=c_bound,
        truncation_n=n_top,
        tail_contribution=_signed_exp(1, log_tail_contribution),
        x_grid=tuple(float(v) for v in xs),
        t_grid=tuple(float(v) for v in ts),
        majorant_slack_min=majorant_slack,
        triangle_slack_min=float(np.min(slacks)),
        log_sup_weighted=log_sup,
        log_tail_contribution=log_tail_contribution,
    )

"""Independent high-precision oracles shared by the test modules.

Everything here is deliberately written against mpmath primitives,
exact rational arithmetic or plain floating-point loops, never against
the library under test, so a defect in the library cannot hide in its
own oracle.  Three helpers handle library objects: reference_sum
restates the weighted sum's stop rule order by order on top of the
library's own Hermite values and summands, so that it pins down the
bookkeeping of the blocked sum, not the recurrence;
synthetic_envelope_coefficients returns its plain-float values in a
HermiteCoefficients, and reconstructed_norm integrates the values that
evolve_grid returns.  entry_bound restates the error bound that the
library states for the order stream's entry, so that the tests of both
modules read one figure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# Largest order for which the monomial form of H_n serves as an oracle;
# beyond this the alternating coefficients cancel catastrophically.
POLYNOMIAL_ORACLE_MAX = 30


def mp_hermite_log(n: int, x: float, dps: int = 40) -> tuple[int, float]:
    """(sign, ln|h_n(x)|) via the recurrence in mpmath arithmetic."""
    return mp_hermite_logs([n], x, dps)[0]


def mp_hermite_logs(orders, x: float, dps: int = 40) -> list[tuple[int, float]]:
    """(sign, ln|h_n(x)|) for each n in orders, from one mpmath recurrence pass.

    The pass runs on g_k = h_k sqrt(k!), for which the recurrence
    h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1} becomes
    g_{k+1} = x sqrt(2) g_k - k g_{k-1}, with no square root a step;
    ln|h_n| = ln|g_n| - ln(n!)/2.
    """
    wanted = set(orders)
    found = {}
    with mp.workdps(dps):
        xm = mp.mpf(x)
        x_root2 = xm * mp.sqrt(2)
        prev = mp.mpf(0)
        cur = mp.pi ** mp.mpf("-0.25") * mp.exp(-xm * xm / 2)
        for k in range(max(orders) + 1):
            if k in wanted:
                found[k] = (0, -math.inf) if cur == 0 else (
                    (1 if cur > 0 else -1), float(mp.log(abs(cur)) - mp.loggamma(k + 1) / 2)
                )
            prev, cur = cur, x_root2 * cur - k * prev
    return [found[n] for n in orders]


def mp_hermite_value(n: int, x: float, dps: int = 40) -> float:
    """h_n(x) as a double, via mpmath's own Hermite polynomial."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        norm = mp.sqrt(2**n * mp.sqrt(mp.pi) * mp.factorial(n))
        return float(mp.hermite(n, xm) * mp.exp(-xm * xm / 2) / norm)


def mp_argument_function(n: float, x: float, y: float, dps: int = 50) -> float:
    """A(n) = n phi - n y - (x/2) sqrt(x^2 - 2(n+1)) at high precision."""
    with mp.workdps(dps):
        nm, xm, ym = mp.mpf(n), mp.mpf(x), mp.mpf(y)
        phi = mp.acosh(xm / mp.sqrt(2 * (nm + 1)))
        return float(nm * phi - nm * ym - xm / 2 * mp.sqrt(xm * xm - 2 * (nm + 1)))


def mp_argument_derivatives(n: float, x: float, y: float, dps: int = 60) -> tuple[float, float]:
    """The closed forms of (A'(n), A''(n)) in mpmath arithmetic, as written, at any x.

    A' = phi + x / (2(n+1) sqrt(d)) - y and
    A'' = x ((2n+5)(n+1) - x^2 (n+2)) / (2 (n+1)^2 d^(3/2)), d = x^2 - 2(n+1):
    no product of them leaves mpmath's exponent range.
    """
    with mp.workdps(dps):
        nm, xm, ym = mp.mpf(n), mp.mpf(x), mp.mpf(y)
        disc = xm * xm - 2 * (nm + 1)
        phi = mp.acosh(xm / mp.sqrt(2 * (nm + 1)))
        d1 = phi + xm / (2 * (nm + 1) * mp.sqrt(disc)) - ym
        d2 = xm * ((2 * nm + 5) * (nm + 1) - xm * xm * (nm + 2)) / (
            2 * (nm + 1) ** 2 * disc * mp.sqrt(disc)
        )
        return float(d1), float(d2)


def mp_argument_fd(
    n: float, x: float, y: float, rel_step: float = 1e-3, dps: int = 80
) -> tuple[float, float]:
    """Central finite differences of A(n) in mpmath arithmetic.

    Extended precision sidesteps the double-precision subtraction noise
    that would otherwise dominate the second difference at large x.  The
    step shrinks near either end of (1, (x^2 - 4)/2): the square root
    branch point at the top makes the truncation error scale like
    (h / distance)^2, so an unclamped step loses accuracy exactly where
    the curvature test needs it most.
    """
    with mp.workdps(dps):
        nm, xm, ym = mp.mpf(n), mp.mpf(x), mp.mpf(y)
        edge = (xm * xm - 4) / 2 - nm
        h = min(mp.mpf(rel_step) * nm, mp.mpf("3e-4") * edge, mp.mpf("0.45") * (nm - 1))

        def a(v):
            phi = mp.acosh(xm / mp.sqrt(2 * (v + 1)))
            return v * phi - v * ym - xm / 2 * mp.sqrt(xm * xm - 2 * (v + 1))

        a_minus, a_mid, a_plus = a(nm - h), a(nm), a(nm + h)
        d1 = (a_plus - a_minus) / (2 * h)
        d2 = (a_plus - 2 * a_mid + a_minus) / (h * h)
        return float(d1), float(d2)


def naive_weighted_sum(x: float, kappa: float, beta: float, y: float) -> float:
    """Direct double-precision sum of |h_n(x)|^kappa e^(-kappa n y) / n^beta.

    Plain recurrence, no rescaling: valid only while e^(-x^2/2) stays
    comfortably inside double range (|x| <= ~20).  Terms are added until
    they fall 1e-25 below the running total.
    """
    if abs(x) > 25.0:
        raise ValueError("naive summation is only trustworthy at small |x|")
    h_prev = math.pi**-0.25 * math.exp(-0.5 * x * x)
    h_cur = math.sqrt(2.0) * x * h_prev
    total = 0.0
    n = 1
    small_streak = 0
    while True:
        term = abs(h_cur) ** kappa * math.exp(-kappa * n * y) / n**beta
        total += term
        # at x = 0 alternate terms vanish exactly, so one tiny term is
        # not evidence of convergence; require three in a row
        small_streak = small_streak + 1 if term < 1e-25 * total else 0
        if n > 10 and small_streak >= 3:
            return total
        if n > 200000:
            raise RuntimeError("naive summation failed to converge")
        h_prev, h_cur = h_cur, x * math.sqrt(2.0 / (n + 1)) * h_cur - math.sqrt(
            n / (n + 1)
        ) * h_prev
        n += 1


def reference_sum(x: float, params, first: int = 1) -> tuple[float, np.ndarray, int]:
    """(ln S, term logs, n_stop) of the weighted sum, by its stop rule order by order.

    The plainest form of the rule decay_sum._sum_internals documents,
    over the terms from order first on (the orders below it are a head
    the sum dropped): every h_n from one hermite_orders sweep, the
    summands of _summand_logs, the running partial sums of
    np.logaddexp.accumulate, then the first n >= max(N, 64) with
    tail_bound(n + 1) at most TAIL_RELATIVE_TOLERANCE times the partial
    sum through n, and ln S as _log_sum of the terms from first through
    n.  The sweep doubles until the rule fires.
    """
    from hermite_decay.decay_sum import (
        TAIL_RELATIVE_TOLERANCE,
        _log_sum,
        _summand_logs,
        tail_bound,
        truncation_index,
    )
    from hermite_decay.hermite_core import hermite_orders

    x = abs(x)
    log_tol = math.log(TAIL_RELATIVE_TOLERANCE)
    lo = max(truncation_index(x, params.y), 64)
    n_top = 2 * lo
    while True:
        _, logs = hermite_orders(n_top, x)
        terms = _summand_logs(logs[first:], np.arange(first, n_top + 1, dtype=float), params)
        running = np.logaddexp.accumulate(terms)
        for n in range(lo, n_top + 1):
            if tail_bound(n + 1, params).logmag <= running[n - first] + log_tol:
                kept = terms[: n - first + 1]
                return _log_sum(kept), kept, n
        lo, n_top = n_top + 1, 2 * n_top


def mp_gaussian_coefficient(n: int, a: float, dps: int = 40) -> float:
    """<e^(-a pi x^2), e_n> against e_n(x) = (2 pi)^(1/4) h_n(sqrt(2 pi) x).

    Quadrature in mpmath; substituting u = sqrt(2 pi) x turns the inner
    product into (2 pi)^(-1/4) integral of e^(-a u^2 / 2) h_n(u) du.
    """
    with mp.workdps(dps):
        am = mp.mpf(a)

        def h(u):
            prev = mp.mpf(0)
            cur = mp.pi ** mp.mpf("-0.25") * mp.exp(-u * u / 2)
            for k in range(n):
                prev, cur = cur, u * mp.sqrt(mp.mpf(2) / (k + 1)) * cur - mp.sqrt(
                    mp.mpf(k) / (k + 1)
                ) * prev
            return cur

        val = mp.quad(lambda u: mp.exp(-am * u * u / 2) * h(u), [-30, 0, 30])
        return float((2 * mp.pi) ** mp.mpf("-0.25") * val)


def mp_gaussian_coefficients(alpha: float, n_terms: int, dps: int = 60) -> list[float]:
    """c_0..c_{n_terms} of e^(-a pi x^2), a = tanh(2 alpha), in closed form.

    c_{2m} = 2^(1/4) (1 + a)^(-1/2) rho^m sqrt((2m)!)/(2^m m!) with
    rho = (1 - a)/(1 + a) formed literally at dps digits, so a stays
    below 1 well past the alpha where tanh(2 alpha) rounds to 1 in double.
    """
    with mp.workdps(dps):
        a = mp.tanh(2 * mp.mpf(alpha))
        rho = (1 - a) / (1 + a)
        base = mp.mpf(2) ** mp.mpf("0.25") / mp.sqrt(1 + a)
        coeffs = [0.0] * (n_terms + 1)
        for m in range(n_terms // 2 + 1):
            value = base * rho**m * mp.sqrt(mp.factorial(2 * m)) / (2**m * mp.factorial(m))
            coeffs[2 * m] = float(value)
        return coeffs


def _build_polynomial_tables(n_top: int) -> list[list[int]]:
    """Exact integer coefficients of H_0..H_{n_top}, ascending powers."""
    tables = [[1], [0, 2]]
    for n in range(1, n_top):
        prev, cur = tables[n - 1], tables[n]
        nxt = [0] * (n + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(prev):
            nxt[j] -= 2 * n * c
        tables.append(nxt)
    return tables


_POLY_TABLES = _build_polynomial_tables(POLYNOMIAL_ORACLE_MAX)


def hermite_polynomial_coefficients(n: int) -> list[int]:
    """Integer coefficients of the physicists' polynomial H_n, ascending.

    Only for n <= POLYNOMIAL_ORACLE_MAX; the monomial form is a
    cross-check oracle, unusable at large order due to cancellation.
    """
    if not 0 <= n <= POLYNOMIAL_ORACLE_MAX:
        raise ValueError(
            f"polynomial tables stop at n={POLYNOMIAL_ORACLE_MAX}, got {n}"
        )
    return list(_POLY_TABLES[n])


def hermite_via_polynomial(n: int, x: float) -> float:
    """h_n(x) from the exact monomial form of H_n.

    H_n(x) is accumulated in exact rational arithmetic, so the only
    roundoff is the final normalization and Gaussian factor; |x| must
    stay modest (<= ~30) to keep e^(-x^2/2) in double range.
    """
    coeffs = hermite_polynomial_coefficients(n)
    xf = Fraction(x)
    h = Fraction(0)
    for c in reversed(coeffs):
        h = h * xf + c
    norm = math.sqrt(2.0**n * math.sqrt(math.pi) * math.factorial(n))
    return math.exp(-0.5 * x * x) * float(h) / norm


def entry_bound(x: float) -> float:
    """The error bound stated for ln|h| at an entry of the order stream: 2e-13 + 1e-18 x^2.

    hermite_core._expansion and decay_sum._sum_internals state it: the
    first omitted term of the expansion (at most 1e-13) and the rounding
    of its long-double lead, about x^2 / 2.
    """
    return 2e-13 + 1e-18 * x * x


def debye_polynomials(count: int) -> list[list[Fraction]]:
    """u_0 .. u_{count-1} of DLMF 12.10.9-10, exact, coefficients lowest power of t first.

    u_0 = 1, r_{-1} = 0, and for s >= 1

        (t^2 - 1) u_s' - 3 s t u_s = r_{s-1},
        8 r_s = (3 t^2 + 2) u_s - 12 (s + 1) t r_{s-1} + 4 (t^2 - 1) r_{s-1}'.

    The first line is solved for a polynomial u_s of degree 3s by
    matching the coefficients of t^(j+1): (j - 3s) a_j - (j + 2) a_{j+2}
    = [t^(j+1)] r_{s-1}, downward from a_{3s}.  For odd s the equation at
    t^0, -a_1 = [t^0] r_{s-1}, fixes a_{3s}; for even s nothing does
    (the homogeneous solution (t^2 - 1)^(3s/2) is a polynomial), and it
    is taken as 0.
    """

    def coefficient(poly, j):
        return poly[j] if 0 <= j < len(poly) else Fraction(0)

    def solve(r, s, top):
        a = [Fraction(0)] * (3 * s + 3)
        a[3 * s] = top
        for j in range(3 * s - 1, -1, -1):
            a[j] = (coefficient(r, j + 1) + (j + 2) * a[j + 2]) / (j - 3 * s)
        return a[: 3 * s + 1]

    polys = [[Fraction(1)]]
    r = []  # r_{s-2}
    for s in range(1, count):
        u = polys[-1]
        # 8 r_{s-1} = (3t^2 + 2) u_{s-1} - 12 s t r_{s-2} + 4 (t^2 - 1) r'_{s-2}
        nxt = [Fraction(0)] * (max(len(u), len(r)) + 2)
        for j, c in enumerate(u):
            nxt[j + 2] += 3 * c
            nxt[j] += 2 * c
        for j, c in enumerate(r):
            nxt[j + 1] += (4 * j - 12 * s) * c
            if j:
                nxt[j - 1] -= 4 * j * c
        r = [c / 8 for c in nxt]
        top = Fraction(0)
        if s % 2:
            base, unit = solve(r, s, Fraction(0)), solve(r, s, Fraction(1))
            top = (-coefficient(r, 0) - base[1]) / (unit[1] - base[1])
        polys.append(solve(r, s, top))
    return polys


_UNIT_COEFFICIENTS: dict = {}


def unit_coefficients(n: int, dtype=float) -> tuple[list, list]:
    """(a'_k, s_{k+1}) for k = 0..n-1, computed one plain step at a time in dtype.

    The diagonal rescaling that gives the Hermite recurrence a unit
    h_{k-1} coefficient: s_0 = s_1 = 1, s_{k+1} = b_k s_{k-1} for k >= 1
    and a'_k = a_k s_k / s_{k+1}, with a_k = sqrt(2/(k+1)) and
    b_k = sqrt(k/(k+1)) each rounded once in dtype and every product
    and quotient rounded in dtype, left to right.  Values are kept per
    dtype and extended on demand; doubles come as Python floats.
    """
    a_all, s_all = _UNIT_COEFFICIENTS.setdefault(dtype, ([], [dtype(1)]))  # s_all[k] = s_k
    one, two = dtype(1), dtype(2)
    for k in range(len(a_all), n):
        kk = dtype(k)
        a = np.sqrt(two / (kk + one))
        s_next = one if k == 0 else np.sqrt(kk / (kk + one)) * s_all[k - 1]
        a_prime = a * s_all[k] / s_next
        if dtype is float:
            s_next, a_prime = float(s_next), float(a_prime)
        s_all.append(s_next)
        a_all.append(a_prime)
    return a_all[:n], s_all[1 : n + 1]


def per_step_rescaled_recurrence(
    n: int, x: float, dtype=float, start=None, stride: int = 1
) -> tuple[list, list]:
    """(p_k, walls_k) for k = 0..n, with the walls tested after every step (or stride).

    The running pair of the rescaled recurrence with a unit h_{k-1}
    coefficient, h_k = p_k s_k 2^(512 walls_k) pi^(-1/4) e^(-x^2/2) and
    p_{k+1} = (x a'_k) p_k - p_{k-1} from p_0 = 1, computed in dtype with
    the coefficients of unit_coefficients.  After every step whose larger
    value leaves [2^-512, 2^512], both move back by 2^(+-512).  Testing
    that less often changes each p_k by an exact power of two only, so
    this pins down the value every rescaled loop must represent.  A tiny
    x, 0 < |x| < 2^-511, runs at copysign(2^-511, x), as the library's
    loops do: h_n is even or odd in x to double precision there, and
    p_1 = x sqrt(2) stays a normal double.  With start = (k0, p_{k0-1},
    p_{k0}, walls_{k0}), the pass starts from that pair instead and
    returns k = k0..n.  With stride > 1 the walls are tested only after
    the orders k that are multiples of stride, which pins down the pair
    and the wall count themselves of a loop that tests there.
    """
    wall_hi, wall_lo = 2.0**512, 2.0**-512
    if 0.0 < abs(x) < 2.0**-511:
        x = math.copysign(2.0**-511, x)
    a_all, _ = unit_coefficients(n, dtype)
    x = dtype(x)
    k0, p_prev, p_cur, walls = start or (0, 0, 1, 0)
    p_prev, p_cur = dtype(p_prev), dtype(p_cur)
    ps, ws = [p_cur], [walls]
    for k, a in enumerate(a_all[k0:], k0 + 1):
        p_prev, p_cur = p_cur, x * a * p_cur - p_prev
        big = max(abs(p_cur), abs(p_prev)) if k % stride == 0 else 1.0
        if big > wall_hi:
            p_cur *= wall_lo
            p_prev *= wall_lo
            walls += 1
        elif 0.0 < big < wall_lo:
            p_cur *= wall_hi
            p_prev *= wall_hi
            walls -= 1
        ps.append(p_cur)
        ws.append(walls)
    return ps, ws


def synthetic_envelope_coefficients(alpha: float, n_terms: int, seed: int | None = None):
    """HermiteCoefficients sitting exactly on the decay envelope.

    c_n = s_n e^(-alpha n) n^(-1/4) for n >= 1 with signs s_n = +1, or
    random +-1 when a seed is given; c_0 = 0.  Each magnitude is
    exp(-alpha n - ln(n)/4), the float operations of the library's
    log envelope, so the certified decay constant is exactly 1.
    """
    from hermite_decay.oscillator import HermiteCoefficients

    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    signs = np.ones(n_terms + 1)
    if seed is not None:
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=n_terms + 1)
    coeffs = [0.0] * (n_terms + 1)
    for n in range(1, n_terms + 1):
        coeffs[n] = signs[n] * math.exp(-alpha * n - 0.25 * math.log(n))
    return HermiteCoefficients(tuple(coeffs))


def reconstructed_norm(coeffs, t: float, n_nodes: int = 4001, padding: float = 5.0) -> float:
    """L^2 norm of the truncated Phi(., t) from evolve_grid, on a trapezoid grid.

    The window covers the largest basis turning point plus padding, so
    the integrand has decayed to roundoff at the endpoints and the
    trapezoid rule converges superalgebraically.
    """
    from hermite_decay.oscillator import evolve_grid

    turning = math.sqrt((2.0 * coeffs.truncation_n + 1.0) / (2.0 * math.pi))
    width = turning + padding
    xs = np.linspace(-width, width, n_nodes)
    values, _ = evolve_grid(coeffs, xs, t)
    step = xs[1] - xs[0]
    total = step * float(np.sum(np.abs(values) ** 2))
    total -= 0.5 * step * float(np.abs(values[0]) ** 2 + np.abs(values[-1]) ** 2)
    return math.sqrt(total)

"""Numerically stable evaluation of orthonormal Hermite functions.

The orthonormal Hermite functions

    h_n(x) = e^(-x^2/2) H_n(x) / sqrt(2^n pi^(1/2) n!)

are bounded by pi^(-1/4) on the whole real line, yet the Gaussian
factor alone underflows double precision at |x| ~ 38.  Everything here
therefore flows through a (sign, log magnitude) representation, and the
three-term recurrence runs on rescaled values with an integer count of
rescaling walls, so orders up to 10^6 and arguments up to 10^3 never
materialize an over- or underflowing double.  The walls are tested once
every few dozen steps, as often as the largest |x| needs to keep the
running values inside 2^(+-912).  Arguments below 2^-511 in magnitude
run at +-2^-511, where h_n is even or odd to double precision, so no
step starts from a subnormal; every frontend rejects x that is not
finite or exceeds 2^511 in magnitude, where a step would overflow.

The recurrence h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}
runs on m_k = h_k / (pi^(-1/4) e^(-x^2/2)), diagonally rescaled so
that the h_{k-1} coefficient is 1 (Gautschi, SIAM Rev. 9, 1967): with
the x-independent scales s_0 = s_1 = 1, s_{k+1} = sqrt(k/(k+1)) s_{k-1},
the values p_k = m_k / s_k obey p_{k+1} = (x a'_k) p_k - p_{k-1} with
a'_k = sqrt(2/(k+1)) s_k / s_{k+1} <= sqrt(2): one multiply and one
subtract a step.  s_k falls like k^(-1/4), so p_k is m_k times about
k^(1/4); the frontends put s_k back when they convert.

Every frontend reads one recurrence: a scalar loop for one point
(hermite_exact, and hermite_orders for all orders up to n_top) and an
array loop for many points (hermite_batch, hermite_values,
hermite_moment_sweep).  Both share one coefficient table and one
compensated log finalizer.  Above EXTENDED_PRECISION_ORDER,
hermite_exact runs the scalar loop in long double.

For large orders inside the monotonic (zero-free) region
2(n+1) < x^2, the classical Plancherel-Rotach asymptotic in the
hyperbolic coordinate phi = arccosh(x / sqrt(2n+1)) gives a cheap and
slightly high estimate of |h_n(x)|.  The reduced per-term bound used by
the weighted-sum machinery works in phi = arccosh(x / sqrt(2(n+1)))
instead; both are exposed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)

# Rescaling walls for the running recurrence values, tested once every
# _stride(max |x|) steps.  One step p_{k+1} = (x a'_k) p_k - p_{k-1},
# with a'_k <= sqrt(2), changes the larger of the pair by at most a
# factor sqrt(2)|x| + 1 <= 2|x| + 2, so a stride moves it by at most
# _STRIDE_BITS bits: between two tests it stays inside 2^(+-(512 + _STRIDE_BITS)),
# normal and finite, and one multiply by 2^(+-512) per crossing brings
# it back.  Scaling by a power of two is exact for normal doubles, so
# where the test runs changes no represented value.
_WALL_HI = 2.0**512
_WALL_LO = 2.0**-512
_STRIDE_BITS = 400

# 512*ln2 split so that (wall count)*_WALL_LOG_HI is exact: the high part
# carries 30 significant bits, leaving 23 bits of headroom for the count.
# Plain repeated addition of fl(512*ln2) would drift by ~6e-11 over the
# ~2000 crossings that |x| = 1e3 induces.
_WALL_LOG_HI = float.fromhex("0x1.62e42ff000000p+8")
_WALL_LOG_LO = float.fromhex("-0x1.718432a1b0e26p-26")

# Orders of the coefficient table (a'_k and s_{k+1}) kept per float
# type, built once per process: 2^14 orders cost 256 kB in doubles and
# 512 kB in long double.  Loops read it in blocks of _BLOCK orders, and
# past it compute their coefficients block by block, carrying the scales.
_TABLE_ORDERS = 1 << 14
_BLOCK = 1024
_TABLES: dict = {}

# Below this |x| the loops run at copysign(_TINY_X, x) instead: m_1 =
# x sqrt(2) would be subnormal and lose bits.  With n x^2 <= 1e6 2^-1022,
# h_n is even or odd in x to double precision there, so the odd orders
# only differ by the exact factor x / copysign(_TINY_X, x).
_TINY_X = 2.0**-511

# Largest |x| the loops take: a step multiplies the larger of the pair,
# at most 2^512 after a wall test, by x a'_k <= x sqrt(2) and subtracts
# at most 2^512, which stays below 2^1024 up to here (and x*x stays
# finite).
_X_MAX = 2.0**511

# Hard floor on the monotonic-region margin epsilon: callers may pass a
# larger (e.g. y-dependent) epsilon but never a smaller one.
EPSILON_MONOTONIC = 1e-3

# Above this order the drift of the forward recurrence in doubles would
# exceed the 1e-10 contract, so hermite_exact runs the same recurrence in
# long double, with the coefficients computed in long double too.
EXTENDED_PRECISION_ORDER = 20000

# Float type of that pass: a long double with at least a 64-bit
# significand (x87 extended or IEEE quad).  Where long double is only a
# double, orders above EXTENDED_PRECISION_ORDER raise ValueError.
_EXTENDED_FLOAT = np.longdouble if np.finfo(np.longdouble).nmant >= 63 else None


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as (sign, natural log of absolute value).

    sign is -1, 0 or +1; logmag is ln|value|, conventionally -inf when
    sign is 0.  The representation resolves relative differences of
    about |logmag| * 2^-53, so round-tripping through a double is exact
    to ~1e-15 for |logmag| < 50 and degrades to ~1e-13 near the extremes
    of double range.
    """

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0 and self.logmag != -math.inf:
            object.__setattr__(self, "logmag", -math.inf)

    @classmethod
    def from_float(cls, value: float) -> "SignedLog":
        """Represent a finite double exactly by sign and log magnitude."""
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value!r}")
        if value == 0.0:
            return cls(0, -math.inf)
        return cls(1 if value > 0.0 else -1, math.log(abs(value)))

    def to_float(self) -> float:
        """Convert back to a double; overflows to +-inf, underflows to 0."""
        if self.sign == 0:
            return 0.0
        if self.logmag < -746.0:
            return 0.0
        try:
            return self.sign * math.exp(self.logmag)
        except OverflowError:
            # the cut falls exactly where exp leaves double range
            return math.inf * self.sign


@dataclass(frozen=True)
class PhiCoordinate:
    """Hyperbolic coordinate of a point in the monotonic region.

    phi >= 0 satisfies x = sqrt(2(n+1)) * cosh(phi); phi = 0 exactly on
    the boundary x = sqrt(2(n+1)).
    """

    phi: float
    n: float
    x: float


def phi_coordinate(n: float, x: float) -> PhiCoordinate:
    """Hyperbolic coordinate phi = arccosh(x / sqrt(2(n+1))).

    Parameters
    ----------
    n : float
        Order, n >= 0.  Real values are accepted; the weighted-sum
        analysis treats the order as a continuous variable.
    x : float
        Evaluation point, x >= sqrt(2(n+1)).

    Returns
    -------
    PhiCoordinate

    Raises
    ------
    ValueError
        If x < sqrt(2(n+1)), i.e. the point lies outside the monotonic
        region.

    Notes
    -----
    Computed in the log form arccosh(r) = ln(r + sqrt(r^2 - 1)), which
    is stable for the large ratios r that arise at big x.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    edge = math.sqrt(2.0 * (n + 1.0))
    r = x / edge
    if r < 1.0:
        raise ValueError(
            f"x={x} is below the monotonic-region edge sqrt(2(n+1))={edge} for order n={n}"
        )
    phi = math.log(r + math.sqrt(r * r - 1.0))
    return PhiCoordinate(phi=phi, n=n, x=x)


def _square_with_residual(x):
    """x*x as rounded product plus exact residual (Dekker splitting).

    Elementwise on arrays as well as on scalars.
    """
    p = x * x
    c = 134217729.0 * x  # 2^27 + 1; no overflow for |x| <= 1e3
    hi = c - (c - x)
    lo = x - hi
    return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo


def _check_arguments(orders, xs) -> None:
    """Raise ValueError unless every order is >= 0 and every |x| <= _X_MAX.

    orders and xs are scalars or arrays; a non-finite x fails too.
    """
    if np.min(orders, initial=0) < 0:
        raise ValueError(f"orders must be nonnegative, got {np.min(orders)}")
    xs = np.asarray(xs, dtype=float)
    bad = xs[~(np.abs(xs) <= _X_MAX)]
    if bad.size:
        raise ValueError(f"x must be finite with |x| <= 2^511, got {bad[0]}")


def _coefficient_range(start: int, stop: int, dtype, s_before, s_start):
    """a'_k and s_{k+1} for k = start..stop-1, computed in dtype.

    (s_before, s_start) are (s_{start-1}, s_start).  The scales follow
    s_{k+1} = fl(b_k s_{k-1}) with b_k = sqrt(k/(k+1)), one sequential
    product per parity, and a'_k = fl(fl(a_k s_k) / s_{k+1}) with
    a_k = sqrt(2/(k+1)); a_k and b_k are each computed elementwise.  So
    every value is the one a plain loop from k = 0 gives, whatever range
    it lands in.  b_0 multiplies m_{-1} = 0, so it is taken as 1, which
    makes s_1 = 1.  Both arrays are read-only, since the process-wide
    table hands out views of them.
    """
    k = np.arange(start, stop, dtype=dtype)
    k1 = k + 1
    # in place, so that no more than the two results are ever held
    s = np.sqrt(np.divide(k, k1, out=k), out=k)
    a = np.sqrt(np.divide(2, k1, out=k1), out=k1)
    if start == 0:
        s[0] = 1
    for chain, first in ((s[0::2], s_before), (s[1::2], s_start)):
        if chain.size:
            chain[0] *= first
            np.multiply.accumulate(chain, out=chain)
    a[0] *= s_start
    a[1:] *= s[:-1]
    a /= s
    a.flags.writeable = s.flags.writeable = False
    return a, s


def _coefficients(n: int, dtype):
    """Yield blocks of a'_k and s_{k+1} for k = 0..n-1, computed in dtype.

    Blocks hold _BLOCK orders (the last one fewer).  Orders below
    _TABLE_ORDERS are slices of a table per dtype, built at the first
    call of the process; later blocks are computed when the loop reaches
    them, each from the last two scales of the one before.  So a loop
    holds a bounded table whatever n is, and no call rebuilds the orders
    below the cap.
    """
    table = _TABLES.get(dtype)
    if table is None:
        table = _TABLES[dtype] = _coefficient_range(0, _TABLE_ORDERS, dtype, 1, 1)
    a, s = table
    for lo in range(0, min(n, _TABLE_ORDERS), _BLOCK):
        yield a[lo : min(n, lo + _BLOCK)], s[lo : min(n, lo + _BLOCK)]
    for lo in range(_TABLE_ORDERS, n, _BLOCK):
        a, s = _coefficient_range(lo, min(n, lo + _BLOCK), dtype, s[-2], s[-1])
        yield a, s


def _is_tiny(x):
    """0 < |x| < _TINY_X, elementwise; a plain bool for a float x."""
    return (x != 0) & (abs(x) < _TINY_X)


def _odd_scale(x):
    """x / x' for the point x' the loops run at: 1 unless x is tiny.

    h_n(x) = (x / x')^(n mod 2) h_n(x') to double precision, and the
    ratio is exact, since x' is a signed power of two.  Elementwise.
    """
    return np.abs(np.where(_is_tiny(x), x, _TINY_X)) / _TINY_X


def _log_magnitude(walls, log_m, x):
    """ln|h| for a running value m of the recurrence, compensated.

    h = m * 2^(512 walls) * pi^(-1/4) e^(-x^2/2), given the integer wall
    count and ln|m|.  walls * _WALL_LOG_HI and -x^2/2 are both exact
    (the Dekker residual of x^2 is kept aside), and an error-free
    two-sum adds them, so the result carries about one final rounding.
    Elementwise on arrays as well as on scalars.
    """
    sq, sq_res = _square_with_residual(x)
    walls_main = _WALL_LOG_HI * walls
    gauss = -0.5 * sq
    total = walls_main + gauss
    part = total - walls_main
    err = (walls_main - (total - part)) + (gauss - part)
    small = (_WALL_LOG_LO * walls - 0.5 * sq_res) + (log_m - 0.25 * _LN_PI)
    return total + (err + small)


def _stride(x_max) -> int:
    """Steps between two wall tests for points with |x| <= x_max.

    One step moves the larger of the pair by at most log2(2 x_max + 2)
    bits, since a'_k <= sqrt(2).  1 (a test every step) when one step
    alone may move _STRIDE_BITS bits, or when x_max is not finite.
    """
    bits = math.log2(2.0 * float(x_max) + 2.0)
    return max(1, int(_STRIDE_BITS / bits)) if bits < _STRIDE_BITS else 1


def _scalar_loop(n: int, x: float, dtype=float, keep: bool = False):
    """The rescaled recurrence at one point x, up to order n.

    Runs p_{k+1} = (x a'_k) p_k - p_{k-1} from p_0 = 1 on a running
    pair with h_k = p_k * s_k * 2^(512 walls) * pi^(-1/4) e^(-x^2/2)
    (see the module docstring): x a'_k is formed once per coefficient
    block, rounded as the array loop rounds it, and each step is one
    multiply and one subtract.  Each block is walked in slices of
    _stride(|x|) steps; after each slice, if the larger of the pair lies
    outside [2^-512, 2^512], both move back by one wall and the integer
    count walls records it.  So the pair stays inside 2^(+-912), and
    every p_k is the value a test after each step would give, times an
    exact power of two.  A tiny x (0 < |x| < _TINY_X) runs at
    copysign(_TINY_X, x); _odd_scale gives the factor back.

    The lower wall fires on no input known: from p_0 = 1 the pair grows
    through the monotonic region, and in the oscillatory one |h_k|
    decays only like (2k - x^2)^(-1/4) while 1/s_k grows like k^(1/4),
    so the larger of the pair stays near its peak (within 6 bits for x
    from 0 to 10^3 and n up to 2 10^5), far from falling 2^512 below
    its last upward wall.  The branch stays, since nothing here proves
    that for every x.

    Yields (ps, walls, scales), the p_k (in dtype), their wall counts
    and their s_k (in dtype).  With keep, first order 0 alone, then one
    triple per stride slice for k = 1..n in order, so memory stays
    bounded whatever n is: ps in a typed buffer (array('d') for doubles,
    a numpy array otherwise), the slice's one wall count repeated per
    order as an array('q'), and scales as a view of the coefficient
    block.  Consumers join the slices with _next_orders.  Without keep,
    once, [p_n], [walls_n] and [s_n].
    """
    stride = _stride(abs(x))
    if _is_tiny(x):
        x = math.copysign(_TINY_X, x)
    x = dtype(x)
    p_prev, p_cur = dtype(0), dtype(1)
    s_n = dtype(1)
    walls = 0
    if keep:
        yield _typed([p_cur], dtype), array("q", (walls,)), _typed([s_n], dtype)
    for a_block, s_block in _coefficients(n, dtype):
        coefficients = np.multiply(x, a_block)
        if dtype is float:
            # items of a memoryview step as Python floats, much faster
            # than numpy scalars
            coefficients = memoryview(coefficients)
        for lo in range(0, len(coefficients), stride):
            steps = coefficients[lo : lo + stride]
            if keep:
                ps = []
                append = ps.append
                for c in steps:
                    p_prev, p_cur = p_cur, c * p_cur - p_prev
                    append(p_cur)
                yield _typed(ps, dtype), array("q", (walls,)) * len(ps), s_block[lo : lo + stride]
            else:
                for c in steps:
                    p_prev, p_cur = p_cur, c * p_cur - p_prev
            big = abs(p_cur)
            other = abs(p_prev)
            if other > big:
                big = other
            if big > _WALL_HI:
                p_cur *= _WALL_LO
                p_prev *= _WALL_LO
                walls += 1
            elif 0.0 < big < _WALL_LO:
                p_cur *= _WALL_HI
                p_prev *= _WALL_HI
                walls -= 1
        s_n = s_block[-1]
    if not keep:
        yield [p_cur], [walls], [s_n]


def _typed(values: list, dtype):
    """values in a typed buffer: array('d') for doubles, else a numpy array."""
    return array("d", values) if dtype is float else np.array(values, dtype=dtype)


def _next_orders(slices, count: int, x: float, start: int):
    """(signs, logmags) of the next orders of a _scalar_loop(keep=True).

    Joins the slices it pulls from slices until they hold at least count
    orders, or the loop ends; start is the order of the first.  Both
    arrays are empty once the loop has ended.
    """
    ps, walls, scales = array("d"), array("q"), []
    for p, w, s in slices:
        ps += p
        walls += w
        scales.append(s)
        if len(ps) >= count:
            break
    scales = np.concatenate(scales) if scales else np.empty(0)
    return _signed_logs(ps, walls, scales, x, range(start, start + len(ps)))


def _array_loop(xs: np.ndarray, n_top: int):
    """The rescaled recurrence on every point of xs at once, in doubles.

    Yields (k, p, walls, rescaled, s_k) for k = 0..n_top, with the
    values and scaling of _scalar_loop per point, tiny points included,
    bit for bit: each step is three in-place ufuncs, p_{k+1} = x a'_k,
    times p_k, minus p_{k-1}.  The walls are tested every
    _stride(max |xs|) steps, and rescaled tells whether any wall count
    moved at step k; h_k = p * s_k * 2^(512 walls) * pi^(-1/4) e^(-x^2/2).
    Later steps overwrite p and walls in place, so consumers copy what
    they keep.
    """
    stride = _stride(np.max(np.abs(xs), initial=0.0))
    xs = np.where(_is_tiny(xs), np.copysign(_TINY_X, xs), xs)
    p_prev = np.zeros(xs.size)
    p_cur = np.ones(xs.size)
    p_next = np.empty(xs.size)
    walls = np.zeros(xs.size, dtype=np.int64)
    k = 0
    yield k, p_cur, walls, True, 1.0
    for a_block, s_block in _coefficients(n_top, float):
        for a, s in zip(a_block.tolist(), s_block.tolist()):
            k += 1
            np.multiply(xs, a, out=p_next)
            p_next *= p_cur
            p_next -= p_prev
            p_prev, p_cur, p_next = p_cur, p_next, p_prev
            if k % stride:
                yield k, p_cur, walls, False, s
                continue
            big = np.maximum(np.abs(p_cur), np.abs(p_prev))
            shift = (big > _WALL_HI).astype(np.intc) - ((big > 0.0) & (big < _WALL_LO))
            rescaled = shift.any()
            if rescaled:
                scale = np.ldexp(1.0, -512 * shift)  # exactly 2^-512, 1 or 2^512
                p_cur *= scale
                p_prev *= scale
                walls += shift
            yield k, p_cur, walls, rescaled, s


def _signed_logs(ps, walls, scales, x, orders) -> tuple[np.ndarray, np.ndarray]:
    """(int8 signs, log magnitudes) of recurrence values p with scales s_k.

    orders are the orders of the values, x their points.
    """
    ps = np.asarray(ps, dtype=float)
    with np.errstate(divide="ignore"):
        log_m = np.log(np.abs(ps) * scales)
        tiny = _is_tiny(x)
        if tiny if isinstance(tiny, bool) else tiny.any():
            log_m += np.asarray(orders) % 2 * np.log(_odd_scale(x))
        logs = _log_magnitude(np.asarray(walls), log_m, x)
    return np.sign(ps).astype(np.int8), logs


def hermite_exact(n: int, x: float) -> SignedLog:
    """Orthonormal Hermite function h_n(x) by the rescaled recurrence.

    Parameters
    ----------
    n : int
        Order, n >= 0.
    x : float
        Evaluation point, finite with |x| <= 2^511.

    Returns
    -------
    SignedLog
        h_n(x) with exact sign (0 for the exact zeros at x = 0, odd n)
        and log magnitude accurate to relative error <= 1e-10 for
        n <= 1e6 and |x| <= 1e3.

    Raises
    ------
    ValueError
        For n < 0, x outside that range, or n > EXTENDED_PRECISION_ORDER on a
        platform whose long double has fewer than 64 significand bits.

    Notes
    -----
    Runs h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1} from
    h_0 = pi^(-1/4) e^(-x^2/2) as p_k = m_k / s_k with a unit h_{k-1}
    coefficient (see the module docstring), keeping the running pair
    inside 2^(+-912) and counting discarded exponents separately; s_n
    goes back into ln|m_n| = ln(|p_n| s_n), in the loop's float type.
    Forward recurrence is stable here: h_n is the dominant solution in
    the classically allowed region.  At |x| near 1e3 the log magnitude
    reaches ~5e5, so the Gaussian constant and the rescaling ledger are
    assembled with a compensated product and an error-free sum; plain
    accumulation would already spend the whole error budget on them.
    Orders beyond EXTENDED_PRECISION_ORDER run the same recurrence in
    long double, coefficients included, because the drift of the double
    loop alone would exceed the contract there.
    """
    _check_arguments(n, x)
    dtype = float
    if n > EXTENDED_PRECISION_ORDER:
        if _EXTENDED_FLOAT is None:
            raise ValueError(
                f"order {n} > {EXTENDED_PRECISION_ORDER} needs a long double with a "
                f"64-bit significand; this platform's has {np.finfo(np.longdouble).nmant + 1}"
            )
        dtype = _EXTENDED_FLOAT
    [([p], [walls], [s])] = _scalar_loop(n, x, dtype)
    if p == 0:
        return SignedLog(0, -math.inf)
    log_m = float(np.log(abs(p) * s)) + n % 2 * float(np.log(_odd_scale(x)))
    logmag = _log_magnitude(walls, log_m, float(x))
    return SignedLog(1 if p > 0 else -1, float(logmag))


def hermite_orders(n_top: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """All of h_0(x) .. h_{n_top}(x) in one recurrence sweep.

    Returns
    -------
    (signs, logmags) : (int8 array, float array)
        Arrays of length n_top + 1; signs[k] is 0 exactly at the exact
        zeros, in which case logmags[k] is -inf.

    Notes
    -----
    Same rescaled recurrence and compensated ledger as hermite_exact,
    in doubles for every n_top; one pass costs O(n_top) regardless of
    how far below double range the values sit.  Raises ValueError for
    n_top < 0 or an x that hermite_exact rejects.
    """
    _check_arguments(n_top, x)
    return _next_orders(_scalar_loop(n_top, x, keep=True), n_top + 1, x, 0)


def hermite_batch(orders, xs) -> tuple[np.ndarray, np.ndarray]:
    """h_{n_i}(x_i) for many (order, point) pairs in one synchronized sweep.

    Parameters
    ----------
    orders : array of int
    xs : array of float
        Same length as orders.

    Returns
    -------
    (signs, logmags) : (int8 array, float array)

    Notes
    -----
    All pairs advance through the recurrence together, each harvested at
    its own order; total work is O(max order) vectorized across the
    batch.  Raises ValueError for a negative order or an x that
    hermite_exact rejects.
    """
    orders = np.asarray(orders, dtype=np.int64)
    xs = np.asarray(xs, dtype=float)
    if orders.shape != xs.shape or orders.ndim != 1:
        raise ValueError("orders and xs must be 1-D arrays of equal length")
    _check_arguments(orders, xs)
    out_signs = np.zeros(orders.size, dtype=np.int8)
    out_logs = np.full(orders.size, -math.inf)
    if orders.size == 0:
        return out_signs, out_logs

    sort = np.argsort(orders, kind="stable")
    sorted_x = xs[sort]
    top, first, count = np.unique(orders[sort], return_index=True, return_counts=True)
    harvest = {
        k: slice(i, i + c) for k, i, c in zip(top.tolist(), first.tolist(), count.tolist())
    }
    ps = np.empty(orders.size)
    walls = np.empty(orders.size, dtype=np.int64)
    scales = np.empty(orders.size)
    for k, p_k, walls_k, _, s_k in _array_loop(sorted_x, int(top[-1])):
        part = harvest.get(k)
        if part is not None:
            ps[part] = p_k[part]
            walls[part] = walls_k[part]
            scales[part] = s_k
    out_signs[sort], out_logs[sort] = _signed_logs(ps, walls, scales, sorted_x, orders[sort])
    return out_signs, out_logs


def _value_rows(xs: np.ndarray, n_top: int):
    """Yield (k, h_k(xs) as doubles) for k = 0..n_top.

    h_k = p * s_k * 2^(512 walls) * e^g with g = -x^2/2 - ln(pi)/4; e^g
    is split once into a factor in [1, 2] times 2^e, and s_k is folded
    into that factor row by row, so every value comes from one exact
    ldexp and only the result can underflow.  The running pair grows to
    2^912, so a value can be a normal double while its scale alone lies
    far below double range.  Values below double range flush to exactly
    0.0.  At odd k the factor also carries _odd_scale(xs), 1 unless a
    point is tiny.  Callers check the arguments first.
    """
    gauss = _log_magnitude(0, 0.0, xs)
    e_gauss = np.floor(gauss / _LN_2)
    # the remainder leaves [0, ln 2] only by rounding, where |g| is so
    # large (|x| ~ 1e8) that every value is 0.0: clipping keeps it finite
    factor = np.exp(np.clip(gauss - e_gauss * _LN_2, 0.0, _LN_2))
    factors = (factor, factor * _odd_scale(xs))
    with np.errstate(under="ignore"):
        for k, p, walls, rescaled, s in _array_loop(xs, n_top):
            if rescaled:
                # |h| <= 1 keeps the true exponent below 1075, and below
                # -4096 every value is 0.0, so the clip changes no value
                exponent = np.clip(512 * walls + e_gauss, -4096, 4096).astype(np.intc)
            row = factors[k % 2] * s
            row *= p
            yield k, np.ldexp(row, exponent, out=row)


def hermite_values(n_top: int, xs) -> np.ndarray:
    """Matrix of h_k(xs[j]) doubles, shape (n_top + 1, len(xs)).

    Magnitudes below double range flush to 0.0; safe whenever consumers
    only need values down to the underflow threshold (reconstruction,
    quadrature, plotting).  Raises ValueError for n_top < 0 or an x
    that hermite_exact rejects.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    _check_arguments(n_top, xs)
    out = np.empty((n_top + 1, xs.size))
    for k, row in _value_rows(xs, n_top):
        out[k] = row
    return out


def hermite_moment_sweep(xs, weights, n_top: int) -> np.ndarray:
    """Dot products sum_j weights[j] * h_k(xs[j]) for k = 0..n_top.

    Streams the order sweep so only O(len(xs)) memory is used; this is
    the quadrature workhorse for coefficient expansion.  Raises
    ValueError for n_top < 0 or an x that hermite_exact rejects.
    """
    xs = np.asarray(xs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if xs.shape != weights.shape or xs.ndim != 1:
        raise ValueError("xs and weights must be 1-D arrays of equal length")
    _check_arguments(n_top, xs)
    out = np.empty(n_top + 1)
    for k, row in _value_rows(xs, n_top):
        out[k] = row @ weights
    return out


def _require_monotonic(n: float, x: float, eps: float | None) -> float:
    """Validate 2 <= n+1 <= (1-eps) x^2 / 2 and return the effective eps."""
    eff = EPSILON_MONOTONIC if eps is None else max(eps, EPSILON_MONOTONIC)
    if n + 1.0 < 2.0:
        raise ValueError(f"asymptotic forms need order n >= 1, got n={n}")
    if 2.0 * (n + 1.0) > (1.0 - eff) * x * x:
        raise ValueError(
            f"(n={n}, x={x}) is outside the monotonic regime 2(n+1) <= (1-eps) x^2 "
            f"with eps={eff}"
        )
    return eff


def plancherel_rotach_estimate(n: float, x: float, eps: float | None = None) -> SignedLog:
    """Monotonic-region Plancherel-Rotach estimate of h_n(x).

    Parameters
    ----------
    n, x : float
        Point with 2 <= n+1 <= (1-eps) x^2 / 2; x > 0.
    eps : float, optional
        Monotonic-region margin; floored at EPSILON_MONOTONIC.

    Returns
    -------
    SignedLog
        The classical form (Szegő, Orthogonal Polynomials, §8.22;
        DLMF §18.15): with nu = 2n + 1 and x = sqrt(nu) cosh(phi),
        exp((nu/2) (phi - sinh(phi) cosh(phi)))
        / (2^(3/4) pi^(1/2) n^(1/4) sinh(phi)^(1/2)), always positive
        (h_n has no zeros beyond its largest root).

    Notes
    -----
    phi here is scaled by nu = 2n + 1, not by the 2(n+1) of
    phi_coordinate, on which the weighted-sum analysis is built.
    The domain check still uses 2(n+1), which keeps x above sqrt(nu).
    Slightly overestimates |h_n(x)| throughout the region, which is the
    useful direction for upper bounds; relative accuracy improves as n
    grows and degrades toward the turning point.
    """
    _require_monotonic(n, x, eps)
    nu = 2.0 * n + 1.0
    root = math.sqrt(x * x - nu)  # sqrt(nu) sinh(phi)
    sh = root / math.sqrt(nu)
    phi = math.asinh(sh)
    logmag = (
        0.5 * nu * phi
        - 0.5 * x * root  # (nu/2) sinh(phi) cosh(phi)
        - 0.75 * _LN_2
        - 0.5 * _LN_PI
        - 0.25 * math.log(n)
        - 0.5 * math.log(sh)
    )
    return SignedLog(1, logmag)


def hermite_pr_bound(
    n: float, x: float, kappa: float, beta: float, y: float, eps: float | None = None
) -> SignedLog:
    """Reduced per-term bound for the weighted sum, in log form.

    Returns the log of n^(-1/4 - beta) exp(kappa A(n)) with
    A(n) = n phi_n - n y - (x/2) sqrt(x^2 - 2(n+1)), dropping the
    bounded factors of the full Plancherel-Rotach form.  The sqrt term
    equals (n+1) sinh(phi) cosh(phi); keeping it in x-form avoids one
    transcendental round trip.

    Same domain as plancherel_rotach_estimate; no implicit constant is
    included (constants are calibration outputs, not ground truth).
    """
    _require_monotonic(n, x, eps)
    phi = phi_coordinate(n, x).phi
    disc = x * x - 2.0 * (n + 1.0)
    logmag = (-0.25 - beta) * math.log(n) + kappa * (
        n * phi - n * y - 0.5 * x * math.sqrt(disc)
    )
    return SignedLog(1, logmag)

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
running values below 2^912; they never fall below 2^-263 (see
_scalar_loop).  Arguments below 2^-511 in magnitude run at +-2^-511,
where h_n is even or odd to double precision, so no step starts from a
subnormal; every frontend rejects x that is not finite or exceeds 2^511
in magnitude, where a step would overflow.

The recurrence h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}
runs on m_k = h_k / (pi^(-1/4) e^(-x^2/2)), diagonally rescaled so
that the h_{k-1} coefficient is 1 (Gautschi, SIAM Rev. 9, 1967): with
the x-independent scales s_0 = s_1 = 1, s_{k+1} = sqrt(k/(k+1)) s_{k-1},
the values p_k = m_k / s_k obey p_{k+1} = (x a'_k) p_k - p_{k-1} with
a'_k = sqrt(2/(k+1)) s_k / s_{k+1} <= sqrt(2): one multiply and one
subtract a step.  s_k falls like k^(-1/4), so p_k is m_k times about
k^(1/4); the frontends put s_k back when they convert.

Every frontend reads one recurrence, in one of three walks: a scalar
loop to one order at one point (hermite_exact), an order stream that
hands out every order at one point in requests of any size
(hermite_orders, and the weighted sums of decay_sum), and an array loop
for many points (hermite_batch, hermite_values, hermite_moment_sweep).
The stream scans the orders below the turning point 2n + 1 < x^2 as
blocked 2x2 transfer matrices and steps one order at a time past it
(see _OrderStream); a caller may have each scan pass offer its block
start pairs to a head certificate, and the pass then drops the blocks
that the certificate covers before it combines them (the weighted sums
drop the negligible orders left of their peak this way).  All three
read their coefficients from one cursor (_Coefficients), test their
walls after the orders that are multiples of one stride, and convert
through one compensated log finalizer (_log_magnitudes); only the head
certificate reads plain logs of its start pairs.  Above
EXTENDED_PRECISION_ORDER, hermite_exact runs the scalar loop in long
double.

For large orders inside the monotonic (zero-free) region
2(n+1) < x^2, the classical Plancherel-Rotach asymptotic in the
hyperbolic coordinate phi = arccosh(x / sqrt(2n+1)) gives a cheap and
slightly high estimate of |h_n(x)|.  The reduced per-term bound used by
the weighted-sum machinery works in phi = arccosh(x / sqrt(2(n+1)))
instead; both are exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)

# Rescaling wall for the running recurrence values, tested once every
# _stride(max |x|) steps.  One step p_{k+1} = (x a'_k) p_k - p_{k-1},
# with a'_k <= sqrt(2), changes the larger of the pair by at most a
# factor sqrt(2)|x| + 1 <= 2|x| + 2, so a stride moves it by at most
# _STRIDE_BITS bits: between two tests it stays below 2^(512 + _STRIDE_BITS),
# finite, and one multiply by 2^-512 per crossing brings it back.  The
# pair never needs a wall below (see _scalar_loop).  Scaling by a power
# of two is exact for normal doubles, so where the test runs changes no
# represented value.
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
# 512 kB in long double.  The cursor _Coefficients hands out views of it,
# and past it computes the coefficients that a request lacks, carrying
# the scales.  _scalar_loop and _array_loop request at most this many
# orders at once.
_TABLE_ORDERS = 1 << 14
_TABLES: dict = {}

# Below this |x| the loops run at copysign(_TINY_X, x) instead: m_1 =
# x sqrt(2) would be subnormal and lose bits.  With n x^2 <= 1e6 2^-1022,
# h_n is even or odd in x to double precision there, so the odd orders
# only differ by the exact factor x / copysign(_TINY_X, x).
_TINY_X = 2.0**-511

# _OrderStream scans only where at least this many blocks of _stride(|x|)
# steps fit below the turning point: a pass costs two ufunc calls a step
# whatever its width, so a narrow one loses to single steps.  Measured
# crossover of scan against single steps (2-core x86-64 VM, Python 3.11,
# numpy 2.4): hermite_orders up to the turning point breaks even at 22
# blocks (x = 52), the sums at y = 1/2 and y = 1 at 21 and 26 blocks; at
# 12 blocks (x = 40) the scan takes 1.2-1.4x as long, at 31 blocks
# (x = 60) it is 1.08-1.17x faster, at 44 blocks (x = 70) 1.22-1.38x.
# At most _SCAN_ORDERS orders go in one pass, which bounds the pass's
# buffers.
_SCAN_MIN_BLOCKS = 24
_SCAN_ORDERS = 1 << 14

# Largest |x| the loops take: a step multiplies the larger of the pair,
# at most 2^512 after a wall test, by x a'_k <= x sqrt(2) and subtracts
# at most 2^512, which stays below 2^1024 up to here (and x*x stays
# finite).
_X_MAX = 2.0**511

# Margin epsilon of the monotonic region 2(n+1) <= (1 - epsilon) x^2 that
# the Plancherel-Rotach forms accept.
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


def phi_coordinate(n: float, x: float) -> float:
    """Hyperbolic coordinate phi = arccosh(x / sqrt(2(n+1))) of the monotonic region.

    phi >= 0 with x = sqrt(2(n+1)) cosh(phi), exactly 0 on the boundary
    x = sqrt(2(n+1)).  The order n >= 0 may be real: the weighted-sum
    analysis treats it as a continuous variable.  Raises ValueError for
    a non-finite x and for x < sqrt(2(n+1)), outside the monotonic
    region.  Computed in the log form ln(r + sqrt(r^2 - 1)), stable for
    the large ratios r at big x.
    """
    if not n >= 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    edge = math.sqrt(2.0 * (n + 1.0))
    r = x / edge
    if r < 1.0:
        raise ValueError(
            f"x={x} is below the monotonic-region edge sqrt(2(n+1))={edge} for order n={n}"
        )
    return math.log(r + math.sqrt(r * r - 1.0))


def _square_with_residual(x):
    """x*x as rounded product plus exact residual (Dekker splitting).

    Elementwise on arrays as well as on scalars.
    """
    p = x * x
    c = 134217729.0 * x  # 2^27 + 1; no overflow for |x| <= 1e3
    hi = c - (c - x)
    lo = x - hi
    return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo


def _check_arguments(orders, xs):
    """Check the arguments of a frontend; return its orders as integers.

    Raises ValueError unless every order is a whole number in
    [0, 2^63) (2.5, nan, inf and 1e30 fail: an order must survive the
    cast to int64 unchanged, so none is truncated or wrapped) and is not
    a bool (True would pass that cast as order 1), and every x is finite
    with |x| <= _X_MAX.  orders and xs are scalars or arrays.
    """
    ints = orders = np.asarray(orders)
    if orders.dtype.kind == "b":
        raise ValueError("orders must be whole numbers, not bools")
    if orders.dtype.kind != "i":
        with np.errstate(invalid="ignore"):
            ints = orders.astype(np.int64)
        bad = orders[ints != orders]
        if bad.size:
            raise ValueError(f"orders must be whole numbers below 2^63, got {bad[0]}")
    if np.min(ints, initial=0) < 0:
        raise ValueError(f"orders must be nonnegative, got {np.min(ints)}")
    xs = np.asarray(xs, dtype=float)
    bad = xs[~(np.abs(xs) <= _X_MAX)]
    if bad.size:
        raise ValueError(f"x must be finite with |x| <= 2^511, got {bad[0]}")
    return ints if ints.ndim else int(ints)


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


class _Coefficients:
    """a'_k and s_{k+1} for k = 0, 1, 2, ..., computed in dtype, handed out in order.

    take(count) returns the next count of each, read-only.  Orders below
    _TABLE_ORDERS are views of a table per dtype, built at the first use
    of the process; past it, each request that runs beyond the orders
    computed so far computes the ones it lacks (two at least), from the
    last two scales before them.  So a walk holds no more coefficients
    than its largest request, no call rebuilds the orders below the
    table's end, and how a walk splits its requests changes no value.
    """

    def __init__(self, dtype) -> None:
        table = _TABLES.get(dtype)
        if table is None:
            table = _TABLES[dtype] = _coefficient_range(0, _TABLE_ORDERS, dtype, 1, 1)
        self._dtype = dtype
        self._range = table  # the computed orders holding the next one
        self._at = 0  # the next order's index in them
        self._end = _TABLE_ORDERS  # the order past them

    def take(self, count: int):
        """(a'_k, s_{k+1}) of the next count orders k."""
        a, s = self._range
        lo = self._at
        self._at += count
        if self._at <= a.size:
            return a[lo : self._at], s[lo : self._at]
        self._at -= a.size  # the orders of the next range that this request takes
        # two orders at least, so that the range after it starts from two scales
        start, self._end = self._end, self._end + max(self._at, 2)
        self._range = _coefficient_range(start, self._end, self._dtype, s[-2], s[-1])
        return tuple(
            np.concatenate((old[lo:], new[: self._at])) for old, new in zip((a, s), self._range)
        )


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
    Elementwise on arrays as well as on scalars.  For one x and an array
    of wall counts (never negative), this ledger is formed once per wall
    count and gathered: the same operations on the same values, so the
    same bits, with no arithmetic on the wall counts order by order.
    """
    index = None
    if isinstance(walls, np.ndarray) and not isinstance(x, np.ndarray):
        index, walls = walls, np.arange(walls.max(initial=0) + 1)
    sq, sq_res = _square_with_residual(x)
    walls_main = _WALL_LOG_HI * walls
    gauss = -0.5 * sq
    total = walls_main + gauss
    part = total - walls_main
    err = (walls_main - (total - part)) + (gauss - part)
    low = _WALL_LOG_LO * walls - 0.5 * sq_res
    small = log_m - 0.25 * _LN_PI
    if index is None:
        return total + (err + (low + small))
    # a + b is b + a in IEEE arithmetic, so the in-place adds keep the order
    small += low[index]
    small += err[index]
    small += total[index]
    return small


def _stride(x_max) -> int:
    """Steps between two wall tests for points with |x| <= x_max.

    One step moves the larger of the pair by at most log2(2 x_max + 2)
    bits, since a'_k <= sqrt(2).  1 (a test every step) when one step
    alone may move _STRIDE_BITS bits, or when x_max is not finite.
    """
    bits = math.log2(2.0 * float(x_max) + 2.0)
    return max(1, int(_STRIDE_BITS / bits)) if bits < _STRIDE_BITS else 1


def _scalar_loop(n: int, x: float, dtype=float):
    """(p_n, walls_n, s_n) of the rescaled recurrence at one point x.

    Runs p_{k+1} = (x a'_k) p_k - p_{k-1} from p_0 = 1 on a running
    pair with h_k = p_k * s_k * 2^(512 walls) * pi^(-1/4) e^(-x^2/2)
    (see the module docstring), in dtype: x a'_k is formed once per
    request to the coefficient cursor, rounded as the array loop rounds
    it, and each step is one multiply and one subtract.  After every
    order that is a multiple of _stride(|x|), if the larger of the pair
    lies above 2^512, both move down by one wall and the integer count
    walls records it, as _array_loop and _OrderStream past its scan do:
    so at every order they hold the same pair and wall count, and no
    request size changes a value.  The pair stays below 2^912, and p_n
    is the value a test after each step would give, times an exact
    power of two.  A tiny x (0 < |x| < _TINY_X) runs at
    copysign(_TINY_X, x); _odd_scale gives the factor back.

    No wall is needed below.  Christoffel-Darboux at coincident points
    gives

        sum_{j<k} h_j^2 = k (h_{k-1}^2 + h_k^2) - sqrt(2k) x h_{k-1} h_k
                        <= (k + |x| sqrt(k/2)) (h_{k-1}^2 + h_k^2),

    so no h_j with j < k exceeds sqrt(2 (k + |x| sqrt(k/2))) times the
    larger of h_{k-1}, h_k.  Each parity chain of s_k falls, so
    s_j >= min(s_{k-1}, s_k), and neighbouring scales differ by at most
    sqrt(2).  In p, then, the larger of the pair never falls more than
    2 sqrt(k + |x| sqrt(k/2)) below any earlier p_j: less than 2^263
    for k <= 4 10^6 and |x| <= 2^511, and less than 2^512 for every k
    below 2^900.  It is at least 1 at p_0 and after every wall, so up to
    order 4 10^6 it stays above 2^-263, a margin of 2^249 against the
    rounding drift of the loop.  The same holds for _OrderStream, which
    walks the same pair.
    """
    stride = _stride(abs(x))
    if _is_tiny(x):
        x = math.copysign(_TINY_X, x)
    x = dtype(x)
    p_prev, p_cur = dtype(0), dtype(1)
    s_n = dtype(1)
    walls = 0
    coefficients = _Coefficients(dtype)
    # whole strides a request, so that every slice ends at a multiple of
    # the stride but the last
    chunk = _TABLE_ORDERS // stride * stride
    for lo in range(0, n, chunk):
        a, s = coefficients.take(min(chunk, n - lo))
        products = np.multiply(x, a)
        if dtype is float:
            # items of a memoryview step as Python floats, much faster
            # than numpy scalars
            products = memoryview(products)
        for start in range(0, len(products), stride):
            for c in products[start : start + stride]:
                p_prev, p_cur = p_cur, c * p_cur - p_prev
            if start + stride > len(products):
                break  # order n, not a multiple of the stride
            big = abs(p_cur)
            other = abs(p_prev)
            if other > big:
                big = other
            if big > _WALL_HI:
                p_cur *= _WALL_LO
                p_prev *= _WALL_LO
                walls += 1
        s_n = s[-1]
    return p_cur, walls, s_n


class _OrderStream:
    """The rescaled recurrence at one point x, in doubles, handed out in order.

    take(count) returns (ps, walls, scales) for the next count orders,
    as many as asked for, with no last order: the p_k, wall counts and
    s_k of the recurrence of _scalar_loop, h_k = p_k s_k 2^(512 walls)
    pi^(-1/4) e^(-x^2/2).  logs(count) returns them as (int8 signs,
    ln|h_k|).  A tiny x runs as in _scalar_loop.

    Orders 1..scan_end lie below the turning point 2n + 1 < x^2, where
    h_k is the dominant solution of the forward recurrence.  There the
    stream scans in blocks of B = _stride(|x|) steps, aligned at
    multiples of B (Kogge and Stone, IEEE Trans. Comput. C-22, 1973).
    One block maps its start pair (p_{a-1}, p_a) to
    p_{a+i} = U_i p_{a-1} + V_i p_a, where U and V are the solutions
    from the unit pairs (1, 0) and (0, 1).  A pass advances U and V of
    M blocks together, two ufuncs a step on the 2M-wide stack; as
    for the pair of _scalar_loop, B steps move them by at most
    _STRIDE_BITS bits.  One Python loop then chains the M block
    matrices, testing the wall at every block end as _scalar_loop
    does, and every p_k comes from one (B x M) linear combination.
    Past scan_end, the stream steps one order at a time from the scan's
    last pair and wall count, testing the wall after every order that is
    a multiple of B, where _scalar_loop tests it.  A handed-out p_k at
    such an order is the one before the test.

    A caller may drop the orders below first (0 by default): take then
    hands out only those of its count orders from first on.  It may
    also set head, a callable that drops a head of negligible orders
    (the weighted sums of decay_sum set both).  On every scan pass,
    after the chain, head gets the start orders a of blocks 1..M-1 with
    ln(h_a/h_{a-1}) and ln|h_a|, from one plain conversion of the
    joined start pairs (no compensated ledger: the head needs them only
    to about 1e-10), and returns one of those a, or 0.  The stream then
    drops the orders through a: first becomes a + 1, and the combine
    runs only from the block that starts at a on.  The scales of a start
    pair are the last two of the block before it, so a head needs
    B >= 2, which holds for |x| < 2^199.

    A request computes no order past the last one it asks for, but for
    the rest of a scan block: at most B - 1 orders, kept for the next
    request.  Blocks and wall tests sit at multiples of B, so the values
    do not depend on how callers split the orders into requests; which
    orders a head drops does, since it reads the passes.
    """

    def __init__(self, x: float) -> None:
        self.x = x
        self.stride = stride = _stride(abs(x))
        # the last order scanned: the last multiple of B below the turning
        # point, if _SCAN_MIN_BLOCKS blocks fit there, so it depends on x alone
        blocks = (math.ceil((x * x - 1.0) / 2.0) - 1) // stride
        self.scan_end = blocks * stride if blocks >= _SCAN_MIN_BLOCKS else 0
        self.first = 0  # the first order handed out
        self.head = None
        self._x = math.copysign(_TINY_X, x) if _is_tiny(x) else float(x)
        self._coefficients = _Coefficients(float)
        self._k = 0  # the last order computed
        self._pair = (0.0, 1.0, 0)  # (p_{k-1}, p_k, walls)
        self._pending = (np.ones(1), np.zeros(1, dtype=np.int64), np.ones(1))  # order 0
        self._handed = 0  # orders handed out or dropped

    def take(self, count: int):
        """(ps, walls, scales) of the next count orders, those from first on."""
        end = self._handed + count  # the order past the request
        parts = [self._pending]
        while self._k + 1 < end:
            first = self.first
            part = (self._scan if self._k < self.scan_end else self._steps)(end - 1 - self._k)
            if self.first != first:
                parts.clear()  # a head dropped every order computed before this pass
            parts.append(part)
        joined = [np.concatenate(field) for field in zip(*parts)]
        start = self._k + 1 - joined[0].size  # the order of the first value joined
        lo, hi = max(self.first - start, 0), end - start
        self._pending = tuple(field[hi:] for field in joined)
        self._handed = end
        return tuple(field[lo:hi] for field in joined)

    def logs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(int8 signs, ln|h_k|) of the next count orders, those from first on."""
        end = self._handed + count
        ps, walls, scales = self.take(count)
        logs = _log_magnitudes(ps, walls, scales, self.x, range(end - ps.size, end))
        return np.sign(ps).astype(np.int8), logs

    def _scan(self, need: int):
        """(ps, walls, scales) of the next whole blocks holding need orders.

        At most _SCAN_ORDERS orders a pass and never past scan_end.  The
        blocks through the last order a head drops are not combined.
        """
        b = self.stride
        m = min(-(-need // b), (self.scan_end - self._k) // b, max(_SCAN_ORDERS // b, 1))
        a, scales = self._coefficients.take(m * b)
        # column j of the 2m-wide stack is U of block j, column m + j its V
        coefficients = np.empty((b, 2 * m))
        np.multiply(self._x, a.reshape(m, b).T, out=coefficients[:, :m])
        coefficients[:, m:] = coefficients[:, :m]
        uv = np.empty((b + 2, 2 * m))
        uv[0, :m] = uv[1, m:] = 1.0
        uv[0, m:] = uv[1, :m] = 0.0
        rows = list(uv)  # row views made once, not once a step
        prev, cur = rows[0], rows[1]
        for c, step in zip(coefficients, rows[2:]):
            np.multiply(c, cur, out=step)
            np.subtract(step, prev, out=step)
            prev, cur = cur, step
        p_prev, p_cur, walls = self._pair
        prevs, curs, counts = [], [], []
        for u_last, v_last, u_end, v_end in zip(*uv[b:].reshape(4, m).tolist()):
            prevs.append(p_prev)
            curs.append(p_cur)
            counts.append(walls)
            p_prev, p_cur = u_last * p_prev + v_last * p_cur, u_end * p_prev + v_end * p_cur
            big = abs(p_cur)
            other = abs(p_prev)
            if other > big:
                big = other
            if big > _WALL_HI:
                p_cur *= _WALL_LO
                p_prev *= _WALL_LO
                walls += 1
        self._pair = (p_prev, p_cur, walls)
        starts = np.array((prevs, curs))  # the start pairs (p_{a-1}, p_a) of the blocks
        counts = np.array(counts)
        keep = 0  # the first block combined
        if self.head is not None and m > 1:
            # ln(|p| s) of the start pairs, one conversion: the pair shares
            # its walls, and the Gaussian is the same at every order
            logs = np.log(np.abs(starts[:, 1:]) * scales.reshape(m, b)[:-1, -2:].T)
            ratios = logs[1] - logs[0]
            logs[1] += counts[1:] * (512 * _LN_2) + _log_magnitude(0, 0.0, self._x)
            dropped = self.head(self._k + b * np.arange(1, m), ratios, logs[1])
            if dropped:
                keep = (dropped - self._k) // b
                self.first = dropped + 1
        ps = uv[2:, keep:m].T * starts[0, keep:, None]
        ps += uv[2:, m + keep :].T * starts[1, keep:, None]
        self._k += m * b
        return ps.ravel(), np.repeat(counts[keep:], b), scales[keep * b :]

    def _steps(self, count: int):
        """(ps, walls, scales) of the next count orders.

        The wall test follows each order that is a multiple of B, so a
        request may end, and the next one resume, inside a stride slice.
        """
        b = self.stride
        a, scales = self._coefficients.take(count)
        # items of a memoryview step as Python floats
        coefficients = memoryview(np.multiply(self._x, a))
        p_prev, p_cur, walls = self._pair
        ps, counts, lengths = [], [], []
        append = ps.append
        lo = 0
        for hi in [*range(b - self._k % b, count, b), count]:
            counts.append(walls)
            lengths.append(hi - lo)
            for c in coefficients[lo:hi]:
                p_prev, p_cur = p_cur, c * p_cur - p_prev
                append(p_cur)
            lo = hi
            if (self._k + hi) % b:
                continue
            big = abs(p_cur)
            other = abs(p_prev)
            if other > big:
                big = other
            if big > _WALL_HI:
                p_cur *= _WALL_LO
                p_prev *= _WALL_LO
                walls += 1
        self._pair = (p_prev, p_cur, walls)
        self._k += count
        return np.fromiter(ps, float, count), np.repeat(counts, lengths), scales


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
    coefficients = _Coefficients(float)
    for lo in range(0, n_top, _TABLE_ORDERS):
        a_chunk, s_chunk = coefficients.take(min(_TABLE_ORDERS, n_top - lo))
        # memoryviews hand out Python floats one at a time, with no list
        for a, s in zip(memoryview(a_chunk), memoryview(s_chunk)):
            k += 1
            np.multiply(xs, a, out=p_next)
            p_next *= p_cur
            p_next -= p_prev
            p_prev, p_cur, p_next = p_cur, p_next, p_prev
            if k % stride:
                yield k, p_cur, walls, False, s
                continue
            big = np.maximum(np.abs(p_cur), np.abs(p_prev))
            shift = (big > _WALL_HI).astype(np.intc)
            rescaled = shift.any()
            if rescaled:
                scale = np.ldexp(1.0, -512 * shift)  # exactly 2^-512 or 1
                p_cur *= scale
                p_prev *= scale
                walls += shift
            yield k, p_cur, walls, rescaled, s


def _log_magnitudes(ps, walls, scales, x, orders):
    """ln|h_k| of recurrence values p_k with scales s_k, the one conversion of every frontend.

    orders are the orders of the values, x their point or one point per
    value.  ln(|p| s_k) is taken in the float type of p and rounded to a
    double before the ledger (_log_magnitude), so a long-double p keeps
    its extra bits through the log; an exact zero gives -inf.  ps, walls,
    scales and orders are arrays, or scalars for one value, which then
    runs on Python floats with no 0-d arrays.  Callers that want signs
    take them from p.
    """
    if isinstance(ps, np.ndarray):
        with np.errstate(divide="ignore"):
            log_m = np.log(np.abs(ps) * scales).astype(float, copy=False)
    else:
        log_m = float(np.log(abs(ps) * scales)) if ps else -math.inf
    tiny = _is_tiny(x)
    if tiny.any() if isinstance(tiny, np.ndarray) else tiny:
        log_m = log_m + np.asarray(orders) % 2 * np.log(_odd_scale(x))
    return _log_magnitude(walls, log_m, x)


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
        For n < 0 or not a whole number (2.5, nan, inf), x outside that
        range, or n > EXTENDED_PRECISION_ORDER on a platform whose long
        double has fewer than 64 significand bits.

    Notes
    -----
    Runs h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1} from
    h_0 = pi^(-1/4) e^(-x^2/2) as p_k = m_k / s_k with a unit h_{k-1}
    coefficient (see the module docstring), keeping the running pair
    below 2^912 and counting discarded exponents separately; s_n
    goes back into ln|m_n| = ln(|p_n| s_n), in the loop's float type
    (see _log_magnitudes).
    Forward recurrence is stable here: h_n is the dominant solution in
    the classically allowed region.  At |x| near 1e3 the log magnitude
    reaches ~5e5, so the Gaussian constant and the rescaling ledger are
    assembled with a compensated product and an error-free sum; plain
    accumulation would already spend the whole error budget on them.
    Orders beyond EXTENDED_PRECISION_ORDER run the same recurrence in
    long double, coefficients included, because the drift of the double
    loop alone would exceed the contract there.
    """
    n = _check_arguments(n, x)
    dtype = float
    if n > EXTENDED_PRECISION_ORDER:
        if _EXTENDED_FLOAT is None:
            raise ValueError(
                f"order {n} > {EXTENDED_PRECISION_ORDER} needs a long double with a "
                f"64-bit significand; this platform's has {np.finfo(np.longdouble).nmant + 1}"
            )
        dtype = _EXTENDED_FLOAT
    p, walls, s_n = _scalar_loop(n, x, dtype)
    return SignedLog(int(p > 0) - int(p < 0), float(_log_magnitudes(p, walls, s_n, float(x), n)))


def hermite_orders(n_top: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """All of h_0(x) .. h_{n_top}(x) in one recurrence sweep.

    Returns
    -------
    (signs, logmags) : (int8 array, float array)
        Arrays of length n_top + 1; signs[k] is 0 exactly at the exact
        zeros, in which case logmags[k] is -inf.

    Notes
    -----
    One request of n_top + 1 orders to an _OrderStream, with the
    rescaled recurrence and compensated ledger of hermite_exact, in
    doubles for every n_top: no
    order switches to long double, so the 1e-10 contract holds only as
    far as the double recurrence's drift allows.  Below the turning
    point 2n + 1 < x^2 the stream scans blocks of steps, and ln|h_n|
    stays within 2 ulps of itself plus 2e-13 of the long-double loop up
    to n = 16400 (tests/test_hermite_core.py); past it, it steps one
    order at a time.  Against hermite_exact, the worst |error| in
    ln|h_n| over eight x in [0.5, 1000] is 2.1e-12 at n = 2e5 (at
    x = 600), while h_{1e6}(900) reads -10.839724160507096 against
    -10.839724161192464, an error of 6.9e-10, past the contract
    (ROADMAP.md, item 3).  One pass costs O(n_top) regardless of how far
    below double range the values sit.  Raises ValueError for an n_top
    or an x that hermite_exact rejects.
    """
    n_top = _check_arguments(n_top, x)
    return _OrderStream(x).logs(n_top + 1)


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
    batch.  Runs in doubles at every order, one order at a time: its
    drift in ln|h_n| is 3.4e-12 at n = 2e5, and 8.1e-10, past the 1e-10
    contract, at h_{1e6}(900) (ROADMAP.md, item 3).  Raises
    ValueError for an order or an x that hermite_exact rejects.
    """
    orders = np.asarray(orders)
    xs = np.asarray(xs, dtype=float)
    if orders.shape != xs.shape or orders.ndim != 1:
        raise ValueError("orders and xs must be 1-D arrays of equal length")
    orders = _check_arguments(orders, xs)
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
    out_signs[sort] = np.sign(ps)
    out_logs[sort] = _log_magnitudes(ps, walls, scales, sorted_x, orders[sort])
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
    quadrature, plotting).  Raises ValueError for an n_top or an x
    that hermite_exact rejects.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n_top = _check_arguments(n_top, xs)
    out = np.empty((n_top + 1, xs.size))
    for k, row in _value_rows(xs, n_top):
        out[k] = row
    return out


def hermite_moment_sweep(xs, weights, n_top: int) -> np.ndarray:
    """Dot products sum_j weights[j] * h_k(xs[j]) for k = 0..n_top.

    Streams the order sweep so only O(len(xs)) memory is used; this is
    the quadrature workhorse for coefficient expansion.  Raises
    ValueError for an n_top or an x that hermite_exact rejects.
    """
    xs = np.asarray(xs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if xs.shape != weights.shape or xs.ndim != 1:
        raise ValueError("xs and weights must be 1-D arrays of equal length")
    n_top = _check_arguments(n_top, xs)
    out = np.empty(n_top + 1)
    for k, row in _value_rows(xs, n_top):
        out[k] = row @ weights
    return out


def _require_monotonic(n: float, x: float) -> None:
    """Validate 2 <= n+1 <= (1-eps) x^2 / 2 with eps = EPSILON_MONOTONIC, x finite."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not n + 1.0 >= 2.0:
        raise ValueError(f"asymptotic forms need order n >= 1, got n={n}")
    if 2.0 * (n + 1.0) > (1.0 - EPSILON_MONOTONIC) * x * x:
        raise ValueError(
            f"(n={n}, x={x}) is outside the monotonic regime 2(n+1) <= (1-eps) x^2 "
            f"with eps={EPSILON_MONOTONIC}"
        )


def plancherel_rotach_estimate(n: float, x: float) -> SignedLog:
    """Monotonic-region Plancherel-Rotach estimate of h_n(x).

    Parameters
    ----------
    n, x : float
        Point with 2 <= n+1 <= (1-eps) x^2 / 2, eps = EPSILON_MONOTONIC;
        x > 0.

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
    _require_monotonic(n, x)
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


def hermite_pr_bound(n: float, x: float, kappa: float, beta: float, y: float) -> SignedLog:
    """Reduced per-term bound for the weighted sum, in log form.

    Returns the log of n^(-1/4 - beta) exp(kappa A(n)) with
    A(n) = n phi_n - n y - (x/2) sqrt(x^2 - 2(n+1)), dropping the
    bounded factors of the full Plancherel-Rotach form.  The sqrt term
    equals (n+1) sinh(phi) cosh(phi); keeping it in x-form avoids one
    transcendental round trip.

    Same domain as plancherel_rotach_estimate; no implicit constant is
    included (constants are calibration outputs, not ground truth).
    """
    _require_monotonic(n, x)
    phi = phi_coordinate(n, x)
    disc = x * x - 2.0 * (n + 1.0)
    logmag = (-0.25 - beta) * math.log(n) + kappa * (
        n * phi - n * y - 0.5 * x * math.sqrt(disc)
    )
    return SignedLog(1, logmag)

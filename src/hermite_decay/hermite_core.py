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
hands out every order at one point in requests through any last order
(hermite_orders, and the weighted sums of decay_sum), and a block walk
for many points (hermite_batch, hermite_values, hermite_moment_sweep).
The block walk (_array_blocks) steps one order at a time for all points,
in pages of at most _CELLS cells, whole strides where one fits: one
outer product writes the x a'_k of a page into its rows, each step is
then two in-place ufuncs on its row (_step_rows, the step loop that the
scan's passes run too), and the walls are tested at every stride end.  It
hands out a page as one block of orders, or one more per wall change,
so its consumers convert, harvest or sum a block at once.  The moment
sweep walks each distinct |x| once, with h_k(-x) = (-1)^k h_k(x), and
folds the Gaussian and the wall scale into its weights.
The stream scans the orders below the turning point 2n + 1 < x^2 as
blocked 2x2 transfer matrices and steps one order at a time past it
(see _OrderStream).  One scan pass (_scan_pass) may hold the blocks of
many streams side by side, each read at its own stride with zero
coefficients past it, so that a grid of sums (decay_sum._sums) pays the
per-step calls of a pass once for many points (_group_scan, which
takes each stream's first request through its last order, as take
does); each stream's values are those of its own pass, bit for bit.
The stream may also enter at a block start a below the turning point
instead of walking 1..a: the expansion there (_expansion, DLMF 12.10.3)
gives ln|h_{a-1}| and ln|h_a|, and the walk goes on from that pair (the
weighted sums of decay_sum enter near their peak this way).  All three
read their coefficients from one cursor (_Coefficients), test their
walls after the orders that are multiples of one stride, and convert
through one compensated log finalizer (_log_magnitudes).  Above
EXTENDED_PRECISION_ORDER, hermite_exact runs the scalar loop in doubles
up to the last multiple m of the stride at or below that order, and on
from there in long double, from the pair of m-values that the double
loop holds at m.

For large orders inside the monotonic (zero-free) region
2(n+1) < x^2, the classical Plancherel-Rotach asymptotic in the
hyperbolic coordinate phi = arccosh(x / sqrt(2n+1)) gives a cheap and
slightly high estimate of |h_n(x)|.  The reduced per-term bound used by
the weighted-sum machinery works in phi = arccosh(x / sqrt(2(n+1)))
instead; both are exposed.

Every public entry of the package checks its arguments with the
validators here, one per kind of parameter: an order or a count
(_whole_number), a finite number (_real), a positive finite number
(_positive), a point, finite with |x| <= 2^511 (_point), and a 1-D
array of finite numbers or of points (_array).  Each rejects bools,
strings and other non-numbers with a ValueError that names the
parameter, a bool inside a list and a ragged list included (_asarray),
and hands a valid value back unchanged (_whole_number as an int, _array
as a float array).
"""

from __future__ import annotations

import bisect
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
# type, built once per process by the first cursor that starts inside it:
# 2^14 orders cost 256 kB in doubles.  The frontends walk from order 0 in
# doubles only, so no long-double table is built (it would cost 512 kB).
# The cursor _Coefficients hands out views of it, and past it computes
# the coefficients that a request lacks, carrying the scales.
# _scalar_loop requests at most this many orders at once; _array_blocks
# requests a page's whole strides at once.
_TABLE_ORDERS = 1 << 14
_TABLES: dict = {}

# Below this |x| the loops run at copysign(_TINY_X, x) instead: m_1 =
# x sqrt(2) would be subnormal and lose bits.  With n x^2 <= 1e6 2^-1022,
# h_n is even or odd in x to double precision there, so the odd orders
# only differ by the exact factor x / copysign(_TINY_X, x).
_TINY_X = 2.0**-511

# _OrderStream scans only where at least this many blocks of _stride(|x|)
# steps fit below the turning point: a pass of one stream costs two ufunc
# calls a step whatever its width, so a narrow one loses to single steps.
# Measured crossover of scan against single steps (2-core x86-64 VM,
# Python 3.11, numpy 2.4), one stream a pass: hermite_orders up to the
# turning point breaks even at 22 blocks (x = 52), the sums at y = 1/2 and
# y = 1 at 21 and 26 blocks; at 12 blocks (x = 40) the scan takes 1.2-1.4x
# as long, at 31 blocks (x = 60) it is 1.08-1.17x faster, at 44 blocks
# (x = 70) 1.22-1.38x.  A grid of sums shares those calls among the
# streams of a stacked pass (_group_scan), which moves the crossover
# down; the threshold stays, since it sets which orders are scanned
# rather than stepped, and with that the last bits of their values.  At
# most _SCAN_ORDERS orders go in one stream's pass, and at most
# _SCAN_ORDERS cells a row (largest stride times blocks) in a stacked
# one, which bounds a pass's buffer.
_SCAN_MIN_BLOCKS = 24
_SCAN_ORDERS = 1 << 14

# Cells (orders times padded points) of one page of _array_blocks, at
# most: its buffer of 64-byte rows holds about 512 kB.  A page costs a few
# Python operations, one outer product and one wall test a stride, and a
# block one conversion or pair of matrix-vector products or one gather,
# so narrow pages pay that per order, and wide ones leave the cache.
# Measured with one outer product a block of at most one stride, before
# pages (2-core x86-64 VM shared with other tenants, Python 3.11, numpy
# 2.4; best of 3 in 4 alternated rounds, ms, with a spread of about 10%)
# at 2^14 / 2^15 / 2^16 / 2^17 cells: hermite_batch on 10^4 pairs
# (n < 2000, |x| <= 100) 32.4 / 33.6 / 28.6 / 27.5; hermite_values(400, .)
# on 8000 points 12.8 / 11.7 / 11.1 / 12.3 and on 20000 points 34.8 /
# 34.3 / 36.8 / 35.6; hermite_moment_sweep to order 400 on 8000 points
# 6.28 / 6.06 / 4.77 / 4.68 and on 2049 points 1.92 / 1.31 / 1.11 / 1.04.
# Those widths hold less than a stride a page, so pages leave them as
# they were.
_CELLS = 1 << 16

# Largest |x| the loops take: a step multiplies the larger of the pair,
# at most 2^512 after a wall test, by x a'_k <= x sqrt(2) and subtracts
# at most 2^512, which stays below 2^1024 up to here (and x*x stays
# finite).
_X_MAX = 2.0**511

# The numbers the argument validators take, and the bounds of finite and
# of positive doubles (see _real)
_NUMBERS = (int, float, np.integer, np.floating)
_FLOAT_MAX = np.finfo(float).max.item()
_FLOAT_TINY = math.ulp(0.0)

# Margin epsilon of the monotonic region 2(n+1) <= (1 - epsilon) x^2 that
# the Plancherel-Rotach forms accept.
EPSILON_MONOTONIC = 1e-3

# The hand-off order of hermite_exact.  Up to here the double loop's drift
# in ln|h_n| is at most 8.5e-14 (ROADMAP.md, item 3), far inside the 1e-10
# contract, but it grows with the order past it, to 8.1e-10 at 10^6.  So
# above this order hermite_exact walks in doubles up to the last multiple
# of its stride at or below it and on from there in long double, with the
# coefficients computed in long double too: the long-double orders carry
# only the drift of that double walk and their own.
EXTENDED_PRECISION_ORDER = 20000

# Float type of the walk past the hand-off: a long double with at least
# a 64-bit significand (x87 extended or IEEE quad).  Where long double is
# only a double, orders above EXTENDED_PRECISION_ORDER raise ValueError.
_EXTENDED_FLOAT = np.longdouble if np.finfo(np.longdouble).nmant >= 63 else None

# The polynomials u_0 .. u_6 of the expansion of U(-mu^2/2, mu t sqrt(2))
# below the turning point, t > 1 (DLMF 12.10.3 and 12.10.9-10): u_s(t)
# is t^(s mod 2) times the polynomial in t^2 of these integer
# coefficients, lowest power first, over the denominator; for even s
# the recursion leaves the coefficient of t^(3s) free, and it is 0.
# Derived offline with exact rationals; tests/oracles.py derives them again.
_DEBYE_POLYNOMIALS = (
    (1, (1,)),
    (24, (-6, 1)),
    (1152, (145, 249, -9)),
    (414720, (-259290, -151995, -28287, 18189, -4042)),
    (39813120, (12773113, 122602962, 50938215, -154982, -321339, 72756)),
    (6688604160, (-34009066266, -119582875013, -37370295816, 4433574213,
                  -3630137104, 1994971575, -617950920, 82393456)),
    (4815794995200, (12434112343271, 301898378571021, 586168675568136, 124486509070161,
                     -1534634176464, 414229331745, -244475667255, 82496447820,
                     -11123116560)),
)
# The same, highest power first, as doubles for Horner's rule
_DEBYE = tuple(tuple(c / den for c in reversed(nums)) for den, nums in _DEBYE_POLYNOMIALS)

# d_1 .. d_7 of the order's constant D(n) = -3/4 ln 2 - 1/2 ln pi - 1/4 ln n
# + sum d_k n^-k in the expansion of ln|h_n| (see _expansion): the
# Stirling series of ln n! combined with the limit of the expansion as
# t -> oo, where h_n(x) tends to e^(-x^2/2) (2x)^n / sqrt(2^n sqrt(pi) n!).
# The next coefficient, d_8, is 1.3e-4.
_ORDER_CONSTANTS = (
    -1 / 8, 145 / 4608, -49 / 4608, 1287931 / 318504960, -258043 / 159252480,
    12796039331 / 19263179980800, -1814757731 / 6421059993600,
)

# An entry (_OrderStream.enter) is taken only where the first term that
# the expansion omits, u_6(t) / (mu^2 (t^2 - 1)^(3/2))^6, is at most this.
_ENTRY_TOLERANCE = 1e-13


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as (sign, natural log of absolute value).

    sign is -1, 0 or +1; logmag is ln|value|, conventionally -inf when
    sign is 0.  The representation resolves relative differences of
    about |logmag| * 2^-53, so round-tripping through a double is exact
    to ~1e-15 for |logmag| < 50 and degrades to ~1e-13 near the extremes
    of double range.  A sign that is a bool or a logmag that is nan or
    not a number raises ValueError; +inf stands for a magnitude past
    double range.
    """

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        if isinstance(self.sign, (bool, np.bool_)) or self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        _real(self.logmag, "logmag", "a number, not nan", -math.inf, math.inf)
        if self.sign == 0 and self.logmag != -math.inf:
            object.__setattr__(self, "logmag", -math.inf)

    @classmethod
    def from_float(cls, value: float) -> "SignedLog":
        """Represent a finite double exactly by sign and log magnitude."""
        if _real(value, "value") == 0.0:
            return cls(0, -math.inf)
        return cls(1 if value > 0.0 else -1, math.log(abs(value)))

    def to_float(self) -> float:
        """Convert back to a double; overflows to +-inf, underflows to 0."""
        return _signed_exp(self.sign, self.logmag)


def _signed_exp(sign: int, logmag: float) -> float:
    """sign * e^logmag as a double, without building a SignedLog.

    0.0 for sign 0 and below e^-746; +-inf where exp leaves double range.
    """
    if sign == 0 or logmag < -746.0:
        return 0.0
    try:
        return sign * math.exp(logmag)
    except OverflowError:
        # the cut falls exactly where exp leaves double range
        return math.inf * sign


def phi_coordinate(n: float, x: float) -> float:
    """Hyperbolic coordinate phi = arccosh(x / sqrt(2(n+1))) of the monotonic region.

    phi >= 0 with x = sqrt(2(n+1)) cosh(phi), exactly 0 on the boundary
    x = sqrt(2(n+1)).  The order n >= 0 may be real: the weighted-sum
    analysis treats it as a continuous variable.  Raises ValueError for
    an n that is not a finite number (_real), an x that is not a point
    (_point), and for x < sqrt(2(n+1)), outside the monotonic region.
    Computed in the log form ln(r + sqrt(r^2 - 1)), stable for the large
    ratios r at big x.
    """
    if _real(n, "n") < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    edge = math.sqrt(2.0 * (n + 1.0))
    r = _point(x) / edge
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


def _whole_number(value, name: str, least: int = 0):
    """value as an int, or an array of them as int64; ValueError naming name otherwise.

    Each must be a whole number in [least, 2^63), and not a bool, which
    would pass as 0 or 1: 2.5, nan, inf, 1e30 and strings fail, so no
    count or order is truncated or wrapped, while 3.0 and np.int64(3)
    pass.  value is a scalar or an array of any shape.
    """
    given = _asarray(value, name, f"a whole number >= {least}")
    if given.dtype.kind in "iuf":
        with np.errstate(invalid="ignore"):
            ints = given.astype(np.int64, copy=False)
        bad = given[(ints != given) | (ints < least)]
    else:  # bools, strings and other objects
        ints, bad = given, given.reshape(-1)
    if bad.size:
        raise ValueError(f"{name} must be a whole number >= {least}, got {bad[:1].tolist()[0]!r}")
    return ints if ints.ndim else int(ints)


def _real(value, name: str, kind: str = "a finite number", low=-_FLOAT_MAX, high=_FLOAT_MAX):
    """value unchanged; ValueError naming name unless a number in [low, high], not a bool.

    int, float and the numpy integer and floating types are numbers;
    bools, strings and None are not.  The bounds compare exactly, so nan
    fails, and by default so do +-inf and an int past double range.
    """
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or not low <= value <= high:
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _positive(value, name: str):
    """value unchanged; ValueError naming name unless a positive finite number (see _real)."""
    return _real(value, name, "a positive finite number", _FLOAT_TINY)


def _point(value, name: str = "x"):
    """value unchanged; ValueError naming name unless a number, |value| <= _X_MAX (see _real)."""
    return _real(value, name, f"a finite number with |{name}| <= 2^511", -_X_MAX, _X_MAX)


def _array(
    values, name: str, points: bool = False, nonempty: bool = False, scalar: bool = False
) -> np.ndarray:
    """values as a float array, values itself where it is one; ValueError naming name otherwise.

    It must be 1-D, or a scalar where scalar is set (one value), nonempty
    where asked, and hold numbers only (no bools or strings), each
    finite, and with points each within |x| <= _X_MAX, as _point asks.
    """
    kind = "a nonempty 1-D array" if nonempty else "a 1-D array"
    kind += " of finite numbers with |x| <= 2^511" if points else " of finite numbers"
    array = _asarray(values, name, kind)
    if scalar and array.ndim == 0:
        array = array.reshape(1)
    if array.ndim == 1 and array.dtype.kind in "iuf" and (array.size or not nonempty):
        high = _X_MAX if points else _FLOAT_MAX
        # two comparisons hold no float temporary the size of the array
        inside = (array >= -high) & (array <= high)
        if inside.all():
            return array.astype(float, copy=False)
        got = repr(array[~inside][0].item())
    else:
        got = f"shape {array.shape} of {array.dtype}"
    raise ValueError(f"{name} must be {kind}, got {got}")


def _asarray(values, name: str, kind: str) -> np.ndarray:
    """np.asarray(values), where it takes them as they are; ValueError naming name otherwise.

    np.asarray raises its own error, which names no parameter, for a
    ragged list, and takes a bool in a list of numbers as 0 or 1: both
    raise "<name> must be <kind>, got ...".  A list or tuple of numbers
    is searched for bools, at any depth; an ndarray passes as it is.
    """
    if isinstance(values, np.ndarray):
        return values
    try:
        array = np.asarray(values)
    except ValueError:
        got = "a ragged sequence"
    else:
        if not (isinstance(values, (list, tuple)) and array.dtype.kind in "iuf"):
            return array
        bad = _first_bool(values)
        if bad is None:
            return array
        got = repr(bad)
    raise ValueError(f"{name} must be {kind}, got {got}")


def _first_bool(values):
    """The first bool in a list or tuple, or in the lists and tuples it holds; None if none.

    The types of the items are gathered in one pass of C, so a list of
    numbers costs about 10 ns an item; only a list that holds a bool or
    a sequence is walked item by item.
    """
    if not any(issubclass(t, (bool, np.bool_, list, tuple)) for t in set(map(type, values))):
        return None
    for value in values:
        if isinstance(value, (bool, np.bool_)):
            return value
        found = _first_bool(value) if isinstance(value, (list, tuple)) else None
        if found is not None:
            return found
    return None


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
    _TABLE_ORDERS are views of a table per dtype, built by the process's
    first cursor of that dtype that starts below the table's end; past
    it, each request that runs beyond the orders computed so far
    computes the ones it lacks (two at least), from the last two scales
    before them.  So a walk holds no more coefficients
    than its largest request, no call rebuilds the orders below the
    table's end, and how a walk splits its requests changes no value.

    A cursor may start at an order start >= 2 instead of 0 (a walk that
    enters there, _OrderStream.enter); start_scales holds (s_{start-1},
    s_start).  Within the table these are the table's, and the cursor
    hands out its views.  Past it the chain of scales restarts at
    s_{start-1} = s_start = 1, and no table is built: the recurrence of
    p_k = m_k / s_k holds for any two starting scales, as long as the
    later ones follow s_{k+1} = sqrt(k/(k+1)) s_{k-1}, so only the split
    of m_k into p_k and s_k moves.
    """

    def __init__(self, dtype, start: int = 0) -> None:
        self._dtype = dtype
        if start > _TABLE_ORDERS:
            # two orders before start, all of them handed out: the next
            # request computes from start on, from the scales (1, 1), and
            # no table is built
            self._range = (np.zeros(2, dtype), np.ones(2, dtype))
            self._at, self._end = 2, start
        else:
            table = _TABLES.get(dtype)
            if table is None:
                table = _TABLES[dtype] = _coefficient_range(0, _TABLE_ORDERS, dtype, 1, 1)
            self._range = table  # the computed orders holding the next one
            self._at = start  # the next order's index in them
            self._end = _TABLE_ORDERS  # the order past them
        scales = self._range[1]
        self.start_scales = (scales[self._at - 2], scales[self._at - 1]) if start else (1, 1)

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


def _step_pairs(products, k, pair, stride, values=None):
    """(p_{j-1}, p_j, walls) after stepping the pair (p_{k-1}, p_k, walls) to order j.

    The one step loop of the scalar walks: p_{i+1} = c_i p_i - p_{i-1}
    for the products c_i = x a'_i of the orders i = k, k + 1, ..., j - 1
    (j = k + len(products)), one multiply and one subtract a step, in
    the float type of the products and the pair (items of a memoryview
    step as Python floats, much faster than numpy scalars).  After every
    order that is a multiple of stride, if the larger of the pair lies
    above 2^512, both move down by one wall and the integer count walls
    records it, as _array_blocks and the scan's block chain do; so the
    walks hold the same pair and wall count at every order, wherever a
    request ends.  Given values = (ps, counts, lengths), three lists, it
    appends each p_i, i = k + 1..j, as it stands before the wall test at
    its order, and for each slice of orders between two tests the wall
    count of its p and its length.
    """
    p_prev, p_cur, walls = pair
    if values is not None:
        ps, counts, lengths = values
        append = ps.append
    count = len(products)
    lo = 0
    for hi in [*range(stride - k % stride, count, stride), count]:
        if values is None:
            for c in products[lo:hi]:
                p_prev, p_cur = p_cur, c * p_cur - p_prev
        else:
            counts.append(walls)
            lengths.append(hi - lo)
            for c in products[lo:hi]:
                p_prev, p_cur = p_cur, c * p_cur - p_prev
                append(p_cur)
        lo = hi
        if (k + hi) % stride:
            continue
        if abs(p_cur) > _WALL_HI or abs(p_prev) > _WALL_HI:
            p_cur *= _WALL_LO
            p_prev *= _WALL_LO
            walls += 1
    return p_prev, p_cur, walls


def _scalar_loop(n: int, x: float, dtype=float, start=None):
    """((p_{n-1}, p_n), walls_n, (s_{n-1}, s_n)) of the rescaled recurrence at one point x.

    Runs p_{k+1} = (x a'_k) p_k - p_{k-1} from p_0 = 1 on a running
    pair with h_k = p_k * s_k * 2^(512 walls) * pi^(-1/4) e^(-x^2/2)
    (see the module docstring), in dtype: x a'_k is formed once per
    request of at most _TABLE_ORDERS orders to the coefficient cursor,
    rounded as the block walk rounds it, and _step_pairs steps the pair
    and tests the walls after the orders that are multiples of
    _stride(|x|), as every walk does: so at every order they hold the
    same pair and wall count, and no request size changes a value.  The
    pair stays below 2^912, and p_n is the value a test after each step
    would give, times an exact power of two.  A tiny x
    (0 < |x| < _TINY_X) runs at copysign(_TINY_X, x); _odd_scale gives
    the factor back.

    start = (m, (p_{m-1}, p_m), walls_m, cursor) resumes the walk at an
    order m that is a multiple of the stride, from that pair and wall
    count, with cursor a _Coefficients in dtype started at m; the scales
    are then those of that cursor (hermite_exact hands off to long double
    this way).  Without it the walk starts at order 0, and s_{-1} reads 1.

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
    walks the same pair, and for a walk resumed from a pair whose scales
    restart at 1, which only divides the pair by s_m <= 1.
    """
    stride = _stride(abs(x))
    if _is_tiny(x):
        x = math.copysign(_TINY_X, x)
    x = dtype(x)
    m, (p_prev, p_cur), walls, coefficients = start or (0, (0, 1), 0, _Coefficients(dtype))
    pair = (dtype(p_prev), dtype(p_cur), walls)
    scales = coefficients.start_scales
    for lo in range(m, n, _TABLE_ORDERS):
        a, s = coefficients.take(min(_TABLE_ORDERS, n - lo))
        products = np.multiply(x, a)
        if dtype is float:
            products = memoryview(products)
        pair = _step_pairs(products, lo, pair, stride)
        scales = (s[-2] if s.size > 1 else scales[1], s[-1])
    return pair[:2], pair[2], scales


def _expansion(n: int, x: float):
    """(ln m_n, first omitted term) of the expansion of h_n(x) below the turning point.

    m_n = h_n(x) / (pi^(-1/4) e^(-x^2/2)), the value the recurrence
    carries.  With mu^2 = 2n + 1 and t = x / mu > 1, U(-n - 1/2, sqrt(2) x)
    = sqrt(sqrt(pi) n!) h_n(x), and DLMF 12.10.3 (computed as Gil, Segura
    and Temme do, ACM TOMS 32, 2006) gives

        ln|h_n(x)| = D(n) - mu^2 xi(t) - ln(t^2 - 1) / 4 + ln sum_{s<6} u_s(t) w^s,

    with w = 1 / (mu^2 (t^2 - 1)^(3/2)), xi(t) = (t sqrt(t^2 - 1) -
    arccosh t) / 2, u_s of _DEBYE_POLYNOMIALS and D(n) of
    _ORDER_CONSTANTS.  Its leading part x^2/2 - mu^2 xi(t) equals
    (mu^2/2) (x / (x + R) + arcsinh(R / mu)), R = sqrt(x^2 - mu^2), a sum
    of two positive terms; it is formed in long double from x^2 split
    exactly (_square_with_residual), so it carries a few units of 2^-64
    of itself (4e-14 at x = 1000, 2e-13 at x = 2500).  The rest, each
    part of order 1, is formed in doubles.  The error of the truncated
    series is about its first omitted term, u_6(t) w^6, returned with
    the bound 1.3e-4 n^-8 on the omitted part of D(n) added.  Returns
    ln m_n as a long double, or None where long double is a plain
    double or n lies at or past the turning point.
    """
    sq, sq_res = _square_with_residual(x)
    mu2 = 2 * n + 1
    if _EXTENDED_FLOAT is None or not sq > mu2:
        return None
    sq, sq_res, mu2_ld, x_ld = np.array((sq, sq_res, mu2, x), dtype=_EXTENDED_FLOAT)
    excess = sq - mu2_ld + sq_res  # x^2 - mu^2, one rounding
    root = np.sqrt(excess)
    lead = mu2_ld / 2 * (x_ld / (x_ld + root) + np.arcsinh(root / np.sqrt(mu2_ld)))
    gap = float(excess) / mu2  # t^2 - 1
    t2 = 1.0 + gap
    w = 1.0 / (mu2 * gap * math.sqrt(gap))
    terms = []
    for s, coefficients in enumerate(_DEBYE):
        value = 0.0
        for c in coefficients:
            value = value * t2 + c
        terms.append(value * (math.sqrt(t2) if s % 2 else 1.0) * w**s)
    inverse = 1.0 / n
    constant = 0.0
    for d in reversed(_ORDER_CONSTANTS):
        constant = (constant + d) * inverse
    constant += -0.75 * _LN_2 - 0.25 * _LN_PI - 0.25 * math.log(n)
    rest = constant - 0.25 * math.log(gap) + math.log(math.fsum(terms[:-1]))
    return lead + rest, abs(terms[-1]) + 1.3e-4 * inverse**8


# Order 0 of every stream, (p_0, walls, s_0), pending before the first
# request: shared, read-only, and only ever joined into new arrays.
_ORDER_ZERO = (np.ones(1), np.zeros(1, dtype=np.int64), np.ones(1))
for _field in _ORDER_ZERO:
    _field.flags.writeable = False


class _OrderStream:
    """The rescaled recurrence at one point x, in doubles, handed out in order.

    take(last) returns (ps, walls, scales) for the orders not yet handed
    out, from first through last: the p_k, wall counts and s_k of the
    recurrence of _scalar_loop, h_k = p_k s_k 2^(512 walls) pi^(-1/4)
    e^(-x^2/2).  logs(last) returns them as (int8 signs, ln|h_k|).  Every
    request, of a caller or of a stacked scan (_group_scan), names the
    last order it needs.  A tiny x runs as in _scalar_loop.

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
    A pass may stack the blocks of several streams (_scan_pass, and
    _group_scan for a grid): it runs as many steps as the largest B,
    a stream of a smaller B has zero coefficients past its own, and
    each stream reads its U and V rows at its own B and chains its own
    blocks, so its values are those of a pass of its own, bit for bit.
    A stream alone runs such a pass of one, in take.
    Past scan_end, the stream steps one order at a time from the scan's
    last pair and wall count, in the step loop of _scalar_loop
    (_step_pairs), which tests the wall after every order that is a
    multiple of B.  A handed-out p_k at such an order is the one before
    the test.

    A caller may drop the orders below first (0 by default): take then
    hands out none below it.  A fresh stream may instead enter at a
    block start a below scan_end (enter): it then starts from the pair
    (p_{a-1}, p_a) and wall count that the expansion (_expansion) gives
    at both orders, with its coefficient cursor started at a, and hands
    out orders from a - 1 on.  Its values are the walk's own, up to the
    entry's error, which the rest of the walk carries along (h is the
    dominant solution there).

    A request computes no order past the last one it asks for, but for
    the rest of a scan block: at most B - 1 orders, kept for the next
    request.  Blocks and wall tests sit at multiples of B, so the values
    do not depend on how callers split the orders into requests.
    """

    def __init__(self, x: float) -> None:
        self.x = x
        self.stride = stride = _stride(abs(x))
        # the last order scanned: the last multiple of B below the turning
        # point, if _SCAN_MIN_BLOCKS blocks fit there, so it depends on x alone
        blocks = (math.ceil((x * x - 1.0) / 2.0) - 1) // stride
        self.scan_end = blocks * stride if blocks >= _SCAN_MIN_BLOCKS else 0
        self.first = 0  # the first order handed out
        self._x = math.copysign(_TINY_X, x) if _is_tiny(x) else float(x)
        self._coefficients = _Coefficients(float)
        self._k = 0  # the last order computed
        self._pair = (0.0, 1.0, 0)  # (p_{k-1}, p_k, walls)
        self._pending = [_ORDER_ZERO]  # computed orders not yet handed out, in parts

    def enter(self, a: int):
        """Enter this fresh stream at the block start a: (ln m_{a-1}, ln m_a), or None.

        The entry needs a multiple a of B below scan_end and a long
        double, and at both orders a - 1 and a an expansion (_expansion)
        whose first omitted term is at most _ENTRY_TOLERANCE.  Then
        p_k = m_k / s_k for k = a - 1 and a, with the scales of the
        coefficient cursor started at a, and the wall count that puts the
        larger of the two in [1, 2^512), as after a wall test.  Each ln p_k
        is formed from ln m_k in long double, less the walls as
        _log_magnitude adds them, so it carries the error of ln m_k and a
        few ulps of numbers below 355.  The stream then hands out orders
        from a - 1 on (first = a - 1).  Returns the two ln m_k, rounded to
        doubles, for the caller's head bound (decay_sum._head); None, and
        the stream unchanged, where it cannot enter.
        """
        if not (self._k == 0 and 0 < a < self.scan_end and a % self.stride == 0):
            return None
        found = [_expansion(k, self._x) for k in (a - 1, a)]
        if None in found or max(omitted for _, omitted in found) > _ENTRY_TOLERANCE:
            return None
        self._coefficients = _Coefficients(float, a)
        scales = self._coefficients.start_scales
        log_ps = [log_m - math.log(s) for (log_m, _), s in zip(found, scales)]
        walls = math.floor(float(max(log_ps)) / (512 * _LN_2))
        pair = tuple(
            math.exp(float(log_p - walls * _WALL_LOG_HI) - walls * _WALL_LOG_LO) for log_p in log_ps
        )
        self._k = a
        self._pair = (*pair, walls)
        self._pending = [
            (np.array(pair), np.full(2, walls, dtype=np.int64), np.array(scales, dtype=float))
        ]
        self.first = a - 1
        return tuple(float(log_m) for log_m, _ in found)

    def take(self, last: int):
        """(ps, walls, scales) of the orders not yet handed out, from first through last."""
        while self._k < last:
            if self._k < self.scan_end:
                _scan_pass([(self, self._blocks(last))])
            else:
                self._pending.append(self._steps(last))
        joined = [np.concatenate(field) for field in zip(*self._pending)]
        start = self._k + 1 - joined[0].size  # the order of the first value joined
        lo, hi = max(self.first - start, 0), max(last + 1 - start, 0)
        self._pending = [tuple(field[hi:] for field in joined)]
        return tuple(field[lo:hi] for field in joined)

    def logs(self, last: int) -> tuple[np.ndarray, np.ndarray]:
        """(int8 signs, ln|h_k|) of the orders not yet handed out, from first through last."""
        ps, walls, scales = self.take(last)
        logs = _log_magnitudes(ps, walls, scales, self.x, range(last + 1 - ps.size, last + 1))
        return np.sign(ps).astype(np.int8), logs

    def _blocks(self, last: int) -> int:
        """How many whole blocks the next scan pass takes to hold the orders through last, or 0.

        At most _SCAN_ORDERS orders a pass and never past scan_end.
        """
        b, k = self.stride, self._k
        return max(min(-(-(last - k) // b), (self.scan_end - k) // b, max(_SCAN_ORDERS // b, 1)), 0)

    def _steps(self, last: int):
        """(ps, walls, scales) of the orders after _k through last, stepped (_step_pairs)."""
        count = last - self._k
        a, scales = self._coefficients.take(count)
        ps, counts, lengths = values = [], [], []
        products = memoryview(np.multiply(self._x, a))
        self._pair = _step_pairs(products, self._k, self._pair, self.stride, values)
        self._k = last
        return np.fromiter(ps, float, count), np.repeat(counts, lengths), scales


def _step_rows(prev, cur, rows):
    """Step p_{k+1} = (x a'_k) p_k - p_{k-1} through rows in place; return the last pair.

    Each row holds the x a'_k of its step, elementwise, and leaves with
    its values: two in-place ufuncs a step, c p_k - p_{k-1}, where c p_k
    is p_k c in IEEE arithmetic.  prev and cur are the rows of the start
    pair, p_{k-1} and p_k; the one step loop of both numpy walks
    (_scan_pass and _array_blocks).
    """
    multiply, subtract = np.multiply, np.subtract
    for step in rows:
        multiply(step, cur, step)
        subtract(step, prev, step)
        prev, cur = cur, step
    return prev, cur


def _scan_pass(passes) -> None:
    """Advance several streams by whole scan blocks in one stacked pass.

    passes holds (stream, m) pairs: each stream scans its next m blocks
    of B = stream.stride orders, from its last pair and wall count, and
    keeps their (ps, walls, scales) among its pending orders.  Column j
    of the first half of the stack is U of one block, column j of the
    second half its V, the blocks of the streams side by side; with W
    the blocks in all, the pass runs max B steps, two ufuncs a step on
    the 2W-wide stack (see _OrderStream).  A stream of a smaller B has
    coefficient 0.0 past its B steps, which only cycles its last pair
    with flipped signs, so its columns stay bounded, and it reads its
    block ends and values at its own B.  Every column meets the same
    ufuncs, in the same order, on the same coefficients as in a pass of
    its stream alone (c p_k is p_k c in IEEE arithmetic), and each
    stream chains its blocks and tests its walls by itself, so no
    stream's values depend on the others.  Each step's row holds its
    coefficients until the step overwrites them with its values
    (_step_rows), and
    the linear combination runs in place, so a pass allocates one
    buffer of (max B + 2) x 2W doubles.
    """
    top = max(stream.stride for stream, _ in passes)
    width = sum(m for _, m in passes)
    # one row a step, U of every block and then V: rows 0 and 1 hold the
    # unit pairs, and each row after them x a'_k of its step, 0.0 past a
    # block's B, until the step overwrites it with its values
    uv = np.empty((top + 2, 2 * width))
    scales = []
    lo = 0
    for stream, m in passes:
        b = stream.stride
        a, s = stream._coefficients.take(m * b)
        np.multiply(stream._x, a.reshape(m, b).T, out=uv[2 : b + 2, lo : lo + m])
        uv[b + 2 :, lo : lo + m] = 0.0
        scales.append(s)
        lo += m
    uv[2:, width:] = uv[2:, :width]
    uv[0, :width] = uv[1, width:] = 1.0
    uv[0, width:] = uv[1, :width] = 0.0
    rows = list(uv)  # row views made once, not once a step
    _step_rows(rows[0], rows[1], rows[2:])
    prevs, curs, counts = [], [], []  # the start pair and wall count of every block
    lo = 0
    for stream, m in passes:
        b = stream.stride
        (u_last, u_end), (v_last, v_end) = (
            uv[b : b + 2, lo : lo + m].tolist(), uv[b : b + 2, width + lo : width + lo + m].tolist()
        )
        p_prev, p_cur, walls = stream._pair
        for ul, vl, ue, ve in zip(u_last, v_last, u_end, v_end):
            prevs.append(p_prev)
            curs.append(p_cur)
            counts.append(walls)
            p_prev, p_cur = ul * p_prev + vl * p_cur, ue * p_prev + ve * p_cur
            if abs(p_cur) > _WALL_HI or abs(p_prev) > _WALL_HI:
                p_cur *= _WALL_LO
                p_prev *= _WALL_LO
                walls += 1
        stream._pair = (p_prev, p_cur, walls)
        lo += m
    # every block's p_k in one linear combination over the stack, in place
    ps = uv[2:, :width]
    ps *= np.array(prevs)
    vs = uv[2:, width:]
    vs *= np.array(curs)
    ps += vs
    lo = 0
    for (stream, m), s in zip(passes, scales):
        b = stream.stride
        walls = np.repeat(counts[lo : lo + m], b)
        stream._pending.append((ps[:b, lo : lo + m].T.ravel(), walls, s))
        stream._k += m * b
        lo += m


def _group_scan(requests):
    """Scan the next blocks of several streams in stacked passes; yield each request's stream.

    requests holds (stream, last) pairs.  Each stream scans the whole
    blocks that its first walk in a take through order last would scan
    (_OrderStream._blocks), no more, so that take finds them pending and
    leaves the stream as it would have alone: pair, wall count, next
    order and pending orders.  The requests go, in order, into passes of
    _scan_pass of at most _SCAN_ORDERS cells a row (max B times the
    blocks in the pass), the bound of one stream's pass, so that a
    pass's buffers do not grow with the grid; a stream that alone fills
    that goes alone.  This yields once per request, in order: the
    request's stream, after the pass that holds its blocks has run.  It
    reads the requests lazily, the next pass's first one at most before
    it yields, so that a caller can take each stream's orders before the
    next pass runs and holds no more than one pass's orders at once.
    """
    held, passes, width, top = [], [], 0, 0  # held: the streams read and not yet yielded
    for stream, last in requests:
        m = stream._blocks(last)
        if m and passes and max(top, stream.stride) * (width + m) > _SCAN_ORDERS:
            _scan_pass(passes)
            yield from held
            held, passes, width, top = [], [], 0, 0
        held.append(stream)
        if m:
            passes.append((stream, m))
            width += m
            top = max(top, stream.stride)
    if passes:
        _scan_pass(passes)
    yield from held


class _RowBuffer:
    """Runs ufuncs on rows of width points with a ufunc buffer of one row, where numpy would copy.

    A ufunc that broadcasts runs through a buffer of np.getbufsize()
    elements, and where two rows fit in it and the rows of the operation
    fill more than half of it, numpy copies the result through that
    buffer: 91 us against 18 us for an outer product of 63 rows of 1025
    points, 7.6 against 5.4 us for 4 rows, but 2.2 against 5.1 us for 3
    (2-core x86-64 VM, numpy 2.4; set and restore included, about 3 us).
    A buffer of one row avoids the copy but pays numpy's per-row cost,
    about 35 ns a row against about 1 ns a cell for the copy: for an
    outer product of 65536 cells it took 50 against 76-83 us at 64
    points and 63 against 80 at 48, but 88 against 64 at 32 and 348
    against 123 at 8.  So "with row_buffer(rows):" runs its body with a
    buffer of one row where a row holds 48 points or more, two fit in
    the buffer and the rows fill more than half of it, and elsewhere
    leaves the buffer as it is.  The size read when the object was made
    is restored on the way out, so consumers of a walk see numpy's own.
    """

    def __init__(self, width: int) -> None:
        self._width = width
        self._bufsize = np.getbufsize()
        self._row = -(-width // 16) * 16
        self._wide = 48 <= width and 2 * width <= self._bufsize
        self._set = False

    def __call__(self, rows: int) -> "_RowBuffer":
        self._set = self._wide and self._bufsize < 2 * rows * self._width
        return self

    def __enter__(self) -> None:
        if self._set:
            np.setbufsize(self._row)

    def __exit__(self, *exc) -> None:
        if self._set:
            np.setbufsize(self._bufsize)


def _array_blocks(xs: np.ndarray, n_top: int):
    """The rescaled recurrence on every point of xs at once, in doubles, in blocks of orders.

    Yields (k, ps, walls, scales) for blocks of orders k..k+r-1 that
    cover 0..n_top in turn: ps is the (r, len(xs)) block of p values,
    walls the wall counts of all its rows and scales its r values s_k;
    h_k = p * s_k * 2^(512 walls) * pi^(-1/4) e^(-x^2/2).  The values
    and scaling are those of _scalar_loop per point, tiny points
    included, bit for bit.

    The walk runs in pages of orders, each at most _CELLS cells of the
    buffer below and never past n_top: whole strides, stride =
    _stride(max |xs|), where one fits, and otherwise the parts of one
    stride.  One outer product writes a'_k x into every row of a page,
    under _RowBuffer; the page then steps one stride at a time, each
    step in place on its row, two ufuncs (_step_rows): times p_k, minus
    p_{k-1}.  After every order that is a multiple of the stride the
    walls are tested, where _scalar_loop tests them.  If a wall count
    moves there, that row is rescaled in place and starts a new block,
    with a new walls array that holds the count after the test; the
    rows before it keep their values and count and go out as a block of
    their own, and the running pair goes on from a rescaled copy.  So a
    page goes out as one block, or one more per wall change, a consumer
    sees a wall change as a new walls object at a block's first order,
    and the arrays never change once yielded.

    The blocks are read-only views of one buffer of the page's rows and
    two more, each row starting on a 64-byte cache line.  Every page is
    written from row 0, where the page before it may hold its start
    pair, so the pair is first copied into the two trailing rows and the
    steps go on from there.  Later blocks overwrite earlier ones, and
    consumers read a block before they ask for the next and copy what
    they keep.
    """
    stride = _stride(np.max(np.abs(xs), initial=0.0))
    xs = np.where(_is_tiny(xs), np.copysign(_TINY_X, xs), xs)
    # rows of whole 64-byte lines, from a line boundary: a buffer that
    # malloc placed off one split the vector loads and stores of every
    # step, and ran 15-20% slower on 10^4 points
    width = -(-xs.size // 8) * 8
    rows = max(1, _CELLS // max(width, 8))
    span = rows // stride * stride or stride  # the orders of one coefficient request
    rows = min(rows, span, max(n_top, 1))  # the rows of a page
    buffer = np.empty((rows + 2) * width + 8)
    start = -buffer.ctypes.data % 64 // 8
    page = buffer[start : start + (rows + 2) * width].reshape(rows + 2, width)[:, : xs.size]
    views = list(page)  # row views made once, not once a step
    prev, cur = np.zeros(xs.size), views[0]
    cur[:] = 1.0
    walls = np.zeros(xs.size, dtype=np.int64)
    block = page[:1]
    block.flags.writeable = False
    yield 0, block, walls, np.ones(1)
    coefficients = _Coefficients(float)
    row_buffer = _RowBuffer(xs.size)
    for done in range(0, n_top, span):
        a_span, s_span = coefficients.take(min(span, n_top - done))
        for lo in range(0, a_span.size, rows):
            hi = min(lo + rows, a_span.size)
            np.copyto(views[rows], prev)
            np.copyto(views[rows + 1], cur)
            prev, cur = views[rows], views[rows + 1]
            with row_buffer(hi - lo):
                np.multiply.outer(a_span[lo:hi], xs, out=page[: hi - lo])
            base = -lo  # the page's row of the span's index 0
            first = edge = lo  # the span's index of the block's first row, and of the steps'
            # a page of whole strides starts at lo = 0, and a part of one
            # ends at or before lo + stride: either way the stride ends
            # are these, capped at hi
            for end in range(lo + stride, hi + stride, stride):
                end = min(end, hi)
                prev, cur = _step_rows(prev, cur, views[base + edge : base + end])
                edge = end
                if end % stride:
                    continue  # not a multiple of the stride: no test
                big = np.maximum(np.abs(cur), np.abs(prev))
                shift = (big > _WALL_HI).astype(np.intc)
                if shift.any():
                    scale = np.ldexp(1.0, -512 * shift)  # exactly 2^-512 or 1
                    cur *= scale
                    prev = prev * scale
                    if end - 1 > first:
                        block = page[base + first : base + end - 1]
                        block.flags.writeable = False
                        yield done + first + 1, block, walls, s_span[first : end - 1]
                    walls = walls + shift
                    first = end - 1
            block = page[base + first : base + hi]
            block.flags.writeable = False
            yield done + first + 1, block, walls, s_span[first:hi]


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
        Naming n where it is not a whole number >= 0 (a bool, 2.5, nan,
        inf or a string; _whole_number), naming x where it is not a
        point (_point), or for n > EXTENDED_PRECISION_ORDER on a
        platform whose long double has fewer than 64 significand bits.

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
    Up to EXTENDED_PRECISION_ORDER the loop runs in doubles.  Past it,
    whose drift alone would leave the contract by n = 10^6, the loop
    runs in doubles up to m, the last multiple of _stride(|x|) at or
    below that order (bit for bit the loop of hermite_exact(m, x)), and
    hands its pair on as the long-double m-values (p_{m-1} s_{m-1},
    p_m s_m) to a long-double walk from a cursor started at m, whose
    scales restart at 1 and whose walls are tested at the same multiples
    of the stride.  Only the orders past m pay for long double; they
    carry the double walk's drift up to m (8.5e-14 at 2e4, ROADMAP.md,
    item 3) on top of their own: 3.0e-13 at h_{1e6}(900).
    """
    n = _whole_number(n, "n")
    _point(x)
    if n <= EXTENDED_PRECISION_ORDER:
        (_, p), walls, (_, s_n) = _scalar_loop(n, x)
    elif _EXTENDED_FLOAT is None:
        raise ValueError(
            f"order {n} > {EXTENDED_PRECISION_ORDER} needs a long double with a "
            f"64-bit significand; this platform's has {np.finfo(np.longdouble).nmant + 1}"
        )
    else:
        # the hand-off order m lies past the coefficient table, so the
        # long-double cursor's scales restart at s_{m-1} = s_m = 1 and the
        # pair goes on as the m-values p s
        stride = _stride(abs(x))
        m = EXTENDED_PRECISION_ORDER // stride * stride
        pair, walls, scales = _scalar_loop(m, x)
        pair = tuple(_EXTENDED_FLOAT(p) * _EXTENDED_FLOAT(s) for p, s in zip(pair, scales))
        start = (m, pair, walls, _Coefficients(_EXTENDED_FLOAT, m))
        (_, p), walls, (_, s_n) = _scalar_loop(n, x, _EXTENDED_FLOAT, start)
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
    -10.839724161192401, an error of 6.9e-10, past the contract
    (ROADMAP.md, item 3).  One pass costs O(n_top) regardless of how far
    below double range the values sit.  Raises ValueError for an n_top
    or an x that hermite_exact rejects.
    """
    n_top = _whole_number(n_top, "n_top")
    return _OrderStream(_point(x)).logs(n_top)


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
    All pairs advance through the recurrence together, in the blocks of
    orders of _array_blocks, and the pairs whose orders a block holds are
    harvested from it with one gather; total work is O(max order)
    vectorized across the batch, two in-place ufuncs an order after one
    outer product a page, so a narrow batch pays numpy's per-call cost on
    every order.
    Runs in doubles at every order: its drift in ln|h_n| is
    3.4e-12 at n = 2e5, and 8.1e-10, past the 1e-10 contract, at
    h_{1e6}(900) (ROADMAP.md, item 3).  Raises ValueError for an order
    or an x that hermite_exact rejects, and for orders and xs that are
    not 1-D arrays of equal length.
    """
    orders = _whole_number(orders, "orders")
    xs = _array(xs, "xs", points=True)
    if np.shape(orders) != xs.shape:
        raise ValueError("orders and xs must be 1-D arrays of equal length")
    out_signs = np.zeros(orders.size, dtype=np.int8)
    out_logs = np.full(orders.size, -math.inf)
    if orders.size == 0:
        return out_signs, out_logs

    sort = np.argsort(orders, kind="stable")
    sorted_x = xs[sort]
    sorted_orders = orders[sort]
    bounds = sorted_orders.tolist()
    columns = np.arange(orders.size)
    ps = np.empty(orders.size)
    walls = np.empty(orders.size, dtype=np.int64)
    scales = np.empty(orders.size)
    lo = 0  # the first pair not yet harvested
    for k, block, walls_k, s_k in _array_blocks(sorted_x, bounds[-1]):
        hi = bisect.bisect_left(bounds, k + len(block), lo)
        if hi > lo:
            # the pairs lo..hi-1 have their orders in this block: one gather
            rows = sorted_orders[lo:hi] - k
            ps[lo:hi] = block[rows, columns[lo:hi]]
            walls[lo:hi] = walls_k[lo:hi]
            scales[lo:hi] = s_k[rows]
            lo = hi
    out_signs[sort] = np.sign(ps)
    out_logs[sort] = _log_magnitudes(ps, walls, scales, sorted_x, orders[sort])
    return out_signs, out_logs


def _gauss_factors(xs: np.ndarray):
    """(factors, e_gauss): pi^(-1/4) e^(-x^2/2) split as factor 2^e_gauss, per point.

    factor lies in [1, 2], and factors holds it for the even orders and
    for the odd ones, which also carry _odd_scale(xs), 1 unless a point
    is tiny.  A value (factor * s_k) * p_k then takes 2^(512 walls +
    e_gauss) by one exact ldexp, so only the result can underflow: the
    running pair grows to 2^912, so a value can be a normal double while
    its scale alone lies far below double range.
    """
    gauss = _log_magnitude(0, 0.0, xs)
    e_gauss = np.floor(gauss / _LN_2)
    # the remainder leaves [0, ln 2] only by rounding, where |g| is so
    # large (|x| ~ 1e8) that every value is 0.0: clipping keeps it finite
    factor = np.exp(np.clip(gauss - e_gauss * _LN_2, 0.0, _LN_2))
    return (factor, factor * _odd_scale(xs)), e_gauss


def _exponents(walls, e_gauss):
    """The exponents 512 walls + e_gauss of the scale 2^(512 walls) 2^e_gauss, as intc.

    |h| <= 1 keeps the true exponent of a value below 1075, and below
    -4096 every value is 0.0, so the clip changes no value.
    """
    return np.clip(512 * walls + e_gauss, -4096, 4096).astype(np.intc)


def hermite_values(n_top: int, xs) -> np.ndarray:
    """Matrix of h_k(xs[j]) doubles, shape (n_top + 1, len(xs)).

    Magnitudes below double range flush to 0.0; safe whenever consumers
    only need values down to the underflow threshold (reconstruction,
    quadrature, plotting).  Each block of _array_blocks converts at once,
    as (factor * s_k) * p_k times 2^(512 walls + e_gauss) (see
    _gauss_factors), with an exact ldexp, so only the result can
    underflow; the broadcast products factor * s_k run under the
    one-row ufunc buffer of the walk's outer products where it pays
    (_RowBuffer).  Raises ValueError for xs that is not 1-D (a scalar is
    one point), and for an n_top or an x that hermite_exact rejects.
    """
    n_top = _whole_number(n_top, "n_top")
    xs = _array(xs, "xs", points=True, scalar=True)
    out = np.empty((n_top + 1, xs.size))
    factors, e_gauss = _gauss_factors(xs)
    seen = None  # the walls array that exponent belongs to
    row_buffer = _RowBuffer(xs.size)
    with np.errstate(under="ignore"):
        for k, ps, walls, scales in _array_blocks(xs, n_top):
            if walls is not seen:
                seen, exponent = walls, _exponents(walls, e_gauss)
            block = out[k : k + len(ps)]
            with row_buffer(len(ps)):
                np.multiply(factors[k % 2], scales[0::2, None], out=block[0::2])
                np.multiply(factors[1 - k % 2], scales[1::2, None], out=block[1::2])
            block *= ps
            np.ldexp(block, exponent, out=block)
    return out


def hermite_moment_sweep(xs, weights, n_top: int) -> np.ndarray:
    """Dot products sum_j weights[j] * h_k(xs[j]) for k = 0..n_top.

    The quadrature workhorse for coefficient expansion, in O(len(xs))
    memory per block of orders.  h_k(-x) = (-1)^k h_k(x) holds bit for
    bit in the recurrence, so one walk of _array_blocks runs over the
    distinct |x|, each with an even weight (the sum of the weights of
    its points) and an odd one (the sum with the sign of x).  The
    Gaussian factor and the wall scale 2^(512 walls + e_gauss) fold into
    those weights once per wall change, relative to the power of two M
    with max|w| < M <= 2 max|w|; each block then costs one
    matrix-vector product per parity and one multiply by s_k.  Against
    sum_j weights[j] * hermite_values(n_top, xs)[k, j], the rounding
    regroups, and a folded weight that lands in the subnormals (near
    |x| = 40, before the first wall) is off by at most 2^-1075 M, which
    adds at most 2^-163 M to a moment (|p| < 2^912, s_k <= 1): at most
    2^-162 max|w| per distinct |x| whose folded weight is subnormal,
    before the moment's own last rounding.  Raises ValueError for xs and
    weights that are not 1-D arrays of equal length, for a weight that is
    not finite (one nan would make every moment nan), and for an n_top
    or an x that hermite_exact rejects.
    """
    xs = _array(xs, "xs", points=True)
    weights = _array(weights, "weights")
    if xs.shape != weights.shape:
        raise ValueError("xs and weights must be 1-D arrays of equal length")
    n_top = _whole_number(n_top, "n_top")
    points, where = np.unique(np.abs(xs), return_inverse=True)
    parities = (
        np.bincount(where, weights, points.size),
        np.bincount(where, np.where(xs < 0, -weights, weights), points.size),
    )
    _, top = np.frexp(np.max(np.abs(weights), initial=0.0))  # M = 2^top
    factors, e_gauss = _gauss_factors(points)
    out = np.empty(n_top + 1)
    seen = None  # the walls array that folded belongs to
    with np.errstate(under="ignore"):
        for k, ps, walls, scales in _array_blocks(points, n_top):
            if walls is not seen:
                exponent = _exponents(walls, e_gauss) - top
                seen, folded = walls, [np.ldexp(w * f, exponent) for w, f in zip(parities, factors)]
            block = out[k : k + len(ps)]
            np.matmul(ps[0::2], folded[k % 2], out=block[0::2])
            np.matmul(ps[1::2], folded[1 - k % 2], out=block[1::2])
            block *= scales
    return np.ldexp(out, top, out=out)


def _require_monotonic(n: float, x: float) -> None:
    """Validate 2 <= n+1 <= (1-eps) x^2 / 2 with eps = EPSILON_MONOTONIC, n real, x a point."""
    _real(n, "n")
    _point(x)
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
        x > 0.  The order n is a real number by design, as in
        phi_coordinate: the form is smooth in n.  ValueError names n
        where it is not a finite number and x where it is not a point
        (_real, _point), before the domain check.

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
    kappa, beta and y follow the rules of decay_sum.SumParams: kappa and
    y positive and finite, beta finite.  Raises ValueError naming the
    one that breaks them, before the domain check.
    """
    _positive(kappa, "kappa")
    _real(beta, "beta")
    _positive(y, "y")
    _require_monotonic(n, x)
    phi = phi_coordinate(n, x)
    disc = x * x - 2.0 * (n + 1.0)
    logmag = (-0.25 - beta) * math.log(n) + kappa * (
        n * phi - n * y - 0.5 * x * math.sqrt(disc)
    )
    return SignedLog(1, logmag)

"""Reference values computed apart from the package under test.

Every function here is written from the formulas alone, in mpmath at
REF_DPS significant digits, and shares no code with ``hermite_decay``.
The benchmark compares the package's outputs against these, outside the
timed sweeps.
"""

from __future__ import annotations

import math

import mpmath as mp

REF_DPS = 40


class HermiteRecurrence:
    """Orthonormal Hermite functions h_n(x) by the three-term recurrence.

    h_0 = pi^(-1/4) e^(-x^2/2), h_1 = sqrt(2) x h_0 and
    h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}.  At REF_DPS
    digits the rounding drift over 2e4 steps stays near 1e-35, far below
    any tolerance the benchmark checks.  The coefficient table is shared
    by every point, so it is built once up to the highest order asked for.
    """

    def __init__(self) -> None:
        self._a: list = []
        self._b: list = []
        self._weights: dict = {}

    def _coefficients(self, n_top: int) -> tuple[list, list]:
        with mp.workdps(REF_DPS):
            for k in range(len(self._a), n_top):
                self._a.append(mp.sqrt(mp.mpf(2) / (k + 1)))
                self._b.append(mp.sqrt(mp.mpf(k) / (k + 1)))
        return self._a, self._b

    def log_value(self, n: int, x: float) -> tuple[int, float]:
        """(sign, ln|h_n(x)|) with sign 0 and -inf at an exact zero."""
        a, b = self._coefficients(n)
        with mp.workdps(REF_DPS):
            xm = mp.mpf(x)
            prev, cur = mp.mpf(0), mp.pi ** mp.mpf(-0.25) * mp.exp(-xm * xm / 2)
            for k in range(n):
                prev, cur = cur, xm * a[k] * cur - b[k] * prev
            if cur == 0:
                return 0, -math.inf
            return (1 if cur > 0 else -1), float(mp.log(abs(cur)))

    def weighted_sum_log(self, x: float, kappa: float, beta: float, y: float) -> float:
        """ln S(x) with S = sum_{n >= 1} |h_n(x)|^kappa e^(-kappa n y) n^(-beta).

        Summed until the bound |h_n| <= pi^(-1/4) puts everything left
        below 1e-25 of the partial sum; beta >= 0 keeps that bound
        geometric.  The weights e^(-kappa n y) n^(-beta) are shared by
        every x with the same (kappa, beta, y).
        """
        if beta < 0:
            raise ValueError("the reference tail bound needs beta >= 0")
        with mp.workdps(REF_DPS):
            xm = mp.mpf(x)
            k_mp, b_mp, y_mp = mp.mpf(kappa), mp.mpf(beta), mp.mpf(y)
            ratio = mp.exp(-k_mp * y_mp)
            tail_scale = mp.pi ** (-k_mp / 4) / (1 - ratio)
            weights = self._weights.setdefault((kappa, beta, y), [mp.mpf(0)])
            prev, cur = mp.mpf(0), mp.pi ** mp.mpf(-0.25) * mp.exp(-xm * xm / 2)
            total = mp.mpf(0)
            n = 0
            while True:
                block_end = n + 512
                a, b = self._coefficients(block_end)
                for k in range(len(weights), block_end + 1):
                    weights.append(mp.exp(-k_mp * k * y_mp) * mp.mpf(k) ** (-b_mp))
                while n < block_end:
                    prev, cur = cur, xm * a[n] * cur - b[n] * prev
                    n += 1
                    magnitude = abs(cur) if kappa == 1 else abs(cur) ** k_mp
                    total += magnitude * weights[n]
                tail = tail_scale * ratio ** (n + 1) * mp.mpf(n + 1) ** (-b_mp)
                if total > 0 and tail <= total * mp.mpf("1e-25"):
                    return float(mp.log(total))


def mehler_sum_log(x: float, y: float) -> float:
    """ln S(x) at kappa = 2, beta = 0, from Mehler's formula.

    sum_{n >= 0} e^(-2ny) h_n(x)^2 = (pi (1 - e^(-4y)))^(-1/2) e^(-x^2 tanh y);
    the n = 0 term pi^(-1/2) e^(-x^2) is taken off.
    """
    with mp.workdps(REF_DPS):
        xm, ym = mp.mpf(x), mp.mpf(y)
        log_all = -mp.log(mp.pi * (1 - mp.exp(-4 * ym))) / 2 - xm * xm * mp.tanh(ym)
        log_first = -mp.log(mp.pi) / 2 - xm * xm
        return float(log_all + mp.log(1 - mp.exp(log_first - log_all)))


def envelope_log(x: float, kappa: float, beta: float, y: float) -> float:
    """ln of the sharp envelope x^(1 - kappa/2 - 2 beta) e^(-kappa x^2 tanh(y) / 2)."""
    with mp.workdps(REF_DPS):
        xm = mp.mpf(x)
        power = 1 - mp.mpf(kappa) / 2 - 2 * mp.mpf(beta)
        return float(power * mp.log(xm) - mp.mpf(kappa) * xm * xm * mp.tanh(mp.mpf(y)) / 2)


def evolved_gaussian(alpha: float, x: float, t: float) -> complex:
    """Phi(x, t) for the Gaussian e^(-a pi x^2), a = tanh(2 alpha), by Mehler's formula.

    With rho = e^(-4 alpha), w^2 = -rho e^(8 pi i t) and u = sqrt(2 pi) x:
    Phi = 2^(1/4) (1+a)^(-1/2) (2 pi)^(1/4) pi^(1/4) e^(2 pi i t)
          (pi (1 - w^2))^(-1/2) exp(-(1 + w^2) u^2 / (2 (1 - w^2))).
    """
    with mp.workdps(REF_DPS):
        a = mp.tanh(2 * mp.mpf(alpha))
        w2 = -mp.exp(-4 * mp.mpf(alpha)) * mp.expjpi(8 * mp.mpf(t))
        u2 = 2 * mp.pi * mp.mpf(x) ** 2
        scale = (
            mp.mpf(2) ** mp.mpf(0.25)
            / mp.sqrt(1 + a)
            * (2 * mp.pi) ** mp.mpf(0.25)
            * mp.pi ** mp.mpf(0.25)
            * mp.expjpi(2 * mp.mpf(t))
            / mp.sqrt(mp.pi * (1 - w2))
        )
        return complex(scale * mp.exp(-(1 + w2) * u2 / (2 * (1 - w2))))


def gaussian_coefficient(a: float, n: int) -> float:
    """<e^(-a pi x^2), e_n> against e_n(x) = (2 pi)^(1/4) h_n(sqrt(2 pi) x).

    c_{2m} = 2^(1/4) (1+a)^(-1/2) rho^m sqrt((2m)!) / (2^m m!) with
    rho = (1-a)/(1+a); odd coefficients vanish by parity.
    """
    if n % 2:
        return 0.0
    m = n // 2
    with mp.workdps(REF_DPS):
        am = mp.mpf(a)
        rho = (1 - am) / (1 + am)
        return float(
            mp.mpf(2) ** mp.mpf(0.25)
            / mp.sqrt(1 + am)
            * rho**m
            * mp.sqrt(mp.factorial(2 * m))
            / (mp.mpf(2) ** m * mp.factorial(m))
        )

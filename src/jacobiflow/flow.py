"""Taylor coefficients of the inverted spectral flow of the free Jacobi
process, plus the binomial-transform pair and the moment expansion.

The closed forms are nested alternating binomial sums.  Summed in binary64
they cancel catastrophically (twelve orders of magnitude are lost already at
n = 16), so the engine keeps every factor exact.  Its inputs are exact
rationals: eps = kappa**2 is the exact square of the input, t is dyadic, and
e^{-k t} enters as the k-th power of the once-rounded dyadic e^{-t}.  The
sums run on integer numerators over known denominators:

* The sum over m of L_{k-m-1}^{(m+1)}(2kt) 2**m P_{n,m}(eps) is reordered
  into sum_j (-1)**j C(n, j) eps**j Q(k, j), where
  Q(k, j) = sum_m (-2)**m (2j)_m / m! L_{k-m-1}^{(m+1)}(2kt) depends on t
  alone and is a polynomial of degree k-1 in j.
* Q(k, .) is kept in the binomial basis C(j, r) of j.  Its r-th forward
  difference at 0 is (-4)**r [s**(k-1-r)] (1+s)**(-2r) sum_N L_N^{(1)}(2kt) s**N,
  because Q(k, j) = [s**(k-1)] (1-s)**-2 e^{-2kts/(1-s)} ((1-s)/(1+s))**(2j)
  and ((1-s)/(1+s))**2 = 1 - 4s/(1+s)**2.  These integers, scaled by
  D**k (k-1)! 2**(tau (k-1)) (see ``_TTable``), and their sums over k for
  each order are cached per t and shared by every kappa.
* sum_j C(n, j) (-eps)**j C(j, r) = C(n, r) (-eps)**r (1-eps)**(n-r) turns
  the eps-sum into a sum over r < n, so b_n = n 4**n a_n is one integer over
  a known denominator; S_n is another, derived from the b_k.
* Per (kappa, t) the engine keeps rows of the powers of -E and e_d - E
  (eps = E / e_d) up to half the order; the rows C(n, r) and the signed
  weights of S_n depend on n alone and are cached per order.

A table is one pass, ``_CoeffEngine.table``.  Each coefficient is one integer
quotient, which Python rounds to binary64 once: float(Fraction(num, den)).
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, repeat

from .powerseries import MAX_ORDER, TruncatedSeries, _common_denominator
from .specfun import binomial, pochhammer


def _exp_neg_t(t) -> tuple[int, int]:
    """The anchor of every exact computation at time t: (D, delta) with the
    once-rounded binary64 e^{-t} equal to D / 2**delta.

    A t whose e^{-t} is subnormal or zero, t > 1022 ln 2 = 708.3964185322641,
    is refused: that e^{-t} has fewer than 53 bits (none above 745.1), and
    every digit computed from it would be wrong.
    """
    decay = math.exp(-t)
    if not decay >= sys.float_info.min:
        raise ValueError(
            f"t must be at most 708.3964185322641, where e^-t is a normal float, got {t}"
        )
    big_d, d = decay.as_integer_ratio()
    return big_d, d.bit_length() - 1


def _laguerre_scaled(x: int, tau: int, count: int) -> list:
    """(-1)**N L_N^{(1)}(x / 2**tau) N! 2**(tau N) for N < count, all
    integers, by the three-term recurrence of the Laguerre polynomials."""
    series, prev = [1], 0
    for N in range(count - 1):
        u = (x - (2 * N + 2 << tau)) * series[N] - (N * (N + 1) << 2 * tau) * prev
        prev = series[N]
        series.append(u)
    return series


@dataclass(frozen=True)
class FlowParams:
    """Trace asymmetry kappa = 2 tau(P) - 1 and time t; eps = kappa**2.

    ``kappa`` may be a Fraction for exact workflows; ``epsilon`` is always
    kappa**2 computed in kappa's own arithmetic.  ``t`` lies in
    (0, 708.3964185322641], where e^{-t} is a normal binary64 (see
    ``_exp_neg_t``).
    """

    kappa: float
    t: float
    epsilon: float = field(init=False)

    def __post_init__(self):
        if not -1 < self.kappa < 1:
            raise ValueError(f"kappa must lie in (-1, 1), got {self.kappa}")
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")
        _exp_neg_t(self.t)
        object.__setattr__(self, "epsilon", self.kappa * self.kappa)


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial in eps with exact Fraction coefficients (low degree first)."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        if not cs:
            cs = (Fraction(0),)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, eps):
        acc = self.coeffs[-1] * (0 * eps + 1)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * eps + c
        return acc


@lru_cache(maxsize=None)
def pnm_poly(n: int, m: int) -> RationalPoly:
    """Exact coefficient polynomial of the (z-1)^m term in the binomial
    expansion of (1 - eps/z**2)**n about z = 1.

    The eps**k coefficient is (-1)**(m+k) C(n, k) (2k)_m / m!.
    """
    if n < 0 or m < 0:
        raise ValueError("pnm_poly needs n, m >= 0")
    fact_m = math.factorial(m)
    coeffs = [
        Fraction((-1) ** (m + k) * binomial(n, k) * pochhammer(2 * k, m), fact_m)
        for k in range(n + 1)
    ]
    return RationalPoly(tuple(coeffs))


def invrel_weight(n: int, k: int) -> Fraction:
    """Inverse-transform weight (2n / (n+k)) C(n+k, n-k)."""
    return Fraction(2 * n * binomial(n + k, n - k), n + k)


def invrel_weight_split(n: int, k: int) -> int:
    """The same weight written as C(n+k, n-k) + C(n+k-1, n-k-1)."""
    return binomial(n + k, n - k) + binomial(n + k - 1, n - k - 1)


@cache
def _binomial_row(n: int) -> list:
    """C(n, r) for r <= n."""
    return [math.comb(n, r) for r in range(n + 1)]


@cache
def _weight_row(n: int) -> list:
    """(-1)**(k+n) invrel_weight_split(n, k) for k <= n, the signed weights
    of S_n, n >= 1."""
    return [(-1) ** (k + n) * invrel_weight_split(n, k) for k in range(n + 1)]


class _TTable:
    """The t-only integers of the coefficient sums, grown on demand.

    With t = T / 2**tau and the once-rounded e^{-t} = D / 2**delta
    (``_exp_neg_t``), both binary64 and so dyadic, and sigma = tau + delta.
    Q(k, j) is a polynomial of degree k-1 in j, kept by its forward
    differences at j = 0, its coefficients in the binomial basis C(j, r).
    By the Laguerre generating function
    sum_N L_N^{(1)}(x) s**N = (1-s)**-2 e^{-xs/(1-s)},

        Q(k, j) = [s**(k-1)] (1-s)**-2 e^{-2kts/(1-s)} ((1-s)/(1+s))**(2j),

    and with ((1-s)/(1+s))**2 = 1 - 4s/(1+s)**2, then s -> -s,

        Delta**r Q(k, 0) = (-4)**r [s**(k-1-r)] (1+s)**(-2r) sum_N L_N^{(1)}(2kt) s**N
                         = (-1)**(k-1) 4**r [s**(k-1-r)] (1-s)**(-2r)
                           sum_N (-1)**N L_N^{(1)}(2kt) s**N.

    * ``_diffs[k][r] = D**k (k-1)! 2**(tau (k-1)) Delta**r Q(k, 0)`` for
      r < k.  (-1)**N L_N^{(1)}(2kt) N! 2**(tau N), N < k, comes from the
      integer three-term recurrence and is brought to the common scale
      (k-1)! 2**(tau (k-1)); each division by (1-s)**2 is two prefix sums.
    * ``row(n)[r] = sum_{k>r} C(2n, n-k) (n-1)!/(k-1)! 2**(sigma (n-k))
      _diffs[k][r]`` for r < n, by Horner steps over ascending k with the
      multiplier (k-1) 2**sigma.

    With eps = E / e_d, sum_j C(n, j) (-eps)**j C(j, r)
    = C(n, r) (-eps)**r (1-eps)**(n-r) gives
    ``b_n = 2 sum_r C(n, r) (-E)**r (e_d-E)**(n-r) row(n)[r]
    / (e_d**n (n-1)! 2**(sigma n - tau))``.  Lists are indexed from 1;
    growth holds a lock, so threads may share one table.
    """

    def __init__(self, t: float):
        self.T, t_den = t.as_integer_ratio()
        self.D, delta = _exp_neg_t(t)
        self.tau = t_den.bit_length() - 1
        self.sigma = self.tau + delta
        self._diffs: list = [None]
        self._rows: list = [None]
        self._lock = threading.Lock()

    def _diff_row(self, k: int) -> list:
        """_diffs[k][r] for r < k, from (-1)**N L_N^{(1)}(2kt) N! 2**(tau N)."""
        tau = self.tau
        series = _laguerre_scaled(2 * k * self.T, tau, k)
        scale = 1
        for N in range(k - 1, -1, -1):  # to (k-1)! 2**(tau (k-1))
            series[N] *= scale
            scale = scale * N << tau
        dk = self.D**k if k % 2 else -(self.D**k)  # carries (-1)**(k-1)
        row = [series[k - 1] * dk]
        for r in range(1, k):  # divide by (1-s)**2, keeping k-r coefficients
            series = list(accumulate(accumulate(series[: k - r])))
            row.append(series[k - 1 - r] * dk << 2 * r)
        return row

    def _grow(self):
        n = len(self._rows)
        self._diffs.append(self._diff_row(n))
        weight = [binomial(2 * n, n - k) for k in range(n + 1)]
        row = []
        for r in range(n):
            acc = 0
            for k in range(r + 1, n + 1):
                acc = (acc * (k - 1) << self.sigma) + weight[k] * self._diffs[k][r]
            row.append(acc)
        self._rows.append(row)

    def row(self, n: int) -> list:
        with self._lock:
            while len(self._rows) <= n:
                self._grow()
            return self._rows[n]


@lru_cache(maxsize=4)
def _t_table(t: float) -> _TTable:
    return _TTable(t)


class _CoeffEngine:
    """Exact flow coefficients for one (kappa, t).

    b_n and S_n are kept as integer numerators over ``_den(n)``; a float is
    one integer quotient, which rounds once, and an exact value one Fraction.
    Power rows grow in ``_powers``; ``table`` makes a whole table in one pass.
    """

    def __init__(self, params: FlowParams):
        self.t = float(params.t)
        eps = Fraction(params.kappa) ** 2
        self.eps_num, self.eps_den = eps.numerator, eps.denominator
        table = _t_table(self.t)
        self.tau, self.sigma = table.tau, table.sigma
        self._pows = ([1], [1])
        self._b: dict = {}
        self._s: dict = {}

    def _den(self, n: int) -> int:
        return self.eps_den**n * math.factorial(n - 1) << self.sigma * n - self.tau

    def _powers(self, m: int) -> tuple:
        """(x**i, y**i for i <= m).  The rows are rebound, never changed in
        place, and each caller returns the rows it read or built."""
        pows = self._pows
        if len(pows[0]) <= m:
            pows = self._pows = tuple(list(accumulate(repeat(v, m), operator.mul, initial=1))
                                      for v in (-self.eps_num, self.eps_den - self.eps_num))
        return pows

    def _b_num(self, n: int) -> int:
        """b_n * _den(n) = 2 y sum_{r<n} C(n, r) x**r y**(n-1-r) row(n)[r]
        with x = -E and y = e_d - E, eps = E / e_d.  The sum over
        lo <= r < hi is split at mid into (sum over [lo, mid)) y**(hi-mid)
        and x**(mid-lo) (sum over [mid, hi)), so the big products are
        balanced; the powers, up to ceil(n/2), come from ``_powers``."""
        if n not in self._b:
            row, binom = _t_table(self.t).row(n), _binomial_row(n)
            xs, ys = self._powers((n + 1) // 2)

            def part(lo: int, hi: int) -> int:
                if hi - lo == 1:
                    return binom[lo] * row[lo]
                mid = (lo + hi) // 2
                return part(lo, mid) * ys[hi - mid] + xs[mid - lo] * part(mid, hi)

            self._b[n] = 2 * ys[1] * part(0, n)
        return self._b[n]

    def _s_num(self, n: int) -> int:
        """S_n * _den(n): the signed weights times the b_k, each b_k raised
        to _den(n) by Horner steps."""
        if n not in self._s:
            acc, weights = 0, _weight_row(n)
            for k in range(1, n + 1):
                acc = (acc * (self.eps_den * (k - 1)) << self.sigma) + weights[k] * self._b_num(k)
            self._s[n] = acc
        return self._s[n]

    def table(self, order: int) -> list:
        """(a_n, b_n, S_n, S_n / n) for n = 1..order, each one integer
        quotient over _den(n), which is formed once per n."""
        self._powers((order + 1) // 2)
        out = []
        for n in range(1, order + 1):
            den, b, s = self._den(n), self._b_num(n), self._s_num(n)
            out.append((b / (den * n << 2 * n), b / den, s / den, s / (den * n)))
        return out


@lru_cache(maxsize=16)
def _engine(params: FlowParams) -> _CoeffEngine:
    return _CoeffEngine(params)


def _check_index(n) -> int:
    """``n`` as an int, from any integer type but bool."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__") or n < 1:
        raise ValueError(f"coefficient index must be a positive integer, got {n!r}")
    return operator.index(n)


def _check_order(order) -> int:
    """A series order in [1, MAX_ORDER], checked before any coefficient is built."""
    order = _check_index(order)
    if order > MAX_ORDER:
        raise ValueError(f"truncation order is capped at {MAX_ORDER}, got {order}")
    return order


def a_coeff(params: FlowParams, n: int) -> float:
    """Taylor coefficient a_n of the local inverse of the pre-inversion flow
    map about its critical value, by the nested Laguerre/binomial sum."""
    n = _check_index(n)
    eng = _engine(params)
    return eng._b_num(n) / (eng._den(n) * n << 2 * n)


def b_coeff(params: FlowParams, n: int) -> float:
    """Rescaled coefficient b_n = n 4**n a_n."""
    n = _check_index(n)
    eng = _engine(params)
    return eng._b_num(n) / eng._den(n)


def s_coeff(params: FlowParams, n: int) -> float:
    """Alternating binomial-weighted combination S_n of b_1..b_n; equals the
    n-th coefficient of z d/dz of the inverted-flow series."""
    n = _check_index(n)
    eng = _engine(params)
    return eng._s_num(n) / eng._den(n)


def phi_inv_coeffs(params: FlowParams, order: int) -> TruncatedSeries:
    """Series of the inverted conformal flow about the origin.

    Constant term 1; the z**n coefficient is S_n / n.  At kappa = 0 this
    reduces exactly to the Herglotz transform of the time-2t spectral
    distribution of free unitary Brownian motion.
    """
    rows = _engine(params).table(_check_order(order))
    return TruncatedSeries(0.0, [1.0] + [row[3] for row in rows])


def m_series_coeffs(params: FlowParams, order: int) -> TruncatedSeries:
    """Derivative series M = z d/dz applied to the inverted-flow series.

    Constant term 0; the z**n coefficient is S_n, rounded once, as in the
    CLI ``M`` column.
    """
    rows = _engine(params).table(_check_order(order))
    return TruncatedSeries(0.0, [0.0] + [row[2] for row in rows])


def binom_transform(seq):
    """b_n = sum_{k<=n} C(2n, n-k) c_k; exact, on integer numerators for all-Fraction input."""
    seq = list(seq)
    if seq and all(type(c) is Fraction for c in seq):
        nums, den = _common_denominator(seq)
        return [Fraction(b, den) for b in binom_transform(nums)]
    return [
        sum((binomial(2 * n, n - k) * seq[k] for k in range(n + 1)), start=seq[0] * 0)
        for n in range(len(seq))
    ]


def inv_binom_transform(seq):
    """Inverse of :func:`binom_transform`, with the same all-Fraction route:
    c_0 = b_0, c_n = sum_k (-1)**(k+n) (2n/(n+k)) C(n+k, n-k) b_k."""
    seq = list(seq)
    if seq and all(type(c) is Fraction for c in seq):
        nums, den = _common_denominator(seq)
        return [Fraction(c, den) for c in inv_binom_transform(nums)]
    out = seq[:1]
    for n in range(1, len(seq)):
        acc = seq[0] * 0
        for k in range(n + 1):
            acc = acc + (-1) ** (k + n) * invrel_weight_split(n, k) * seq[k]
        out.append(acc)
    return out


def jacobi_moments(unitary_moments, params: FlowParams, order: int):
    """Moments of the free Jacobi process from the moments of the unitary one.

    ``unitary_moments[k-1]`` holds tau(U^k).  Exact when the moments and
    kappa are Fractions.
    """
    u = list(unitary_moments)
    if len(u) < order:
        raise ValueError(f"need at least {order} unitary moments, got {len(u)}")
    out = []
    for n in range(1, order + 1):
        tail = sum(
            (binomial(2 * n, n - k) * u[k - 1] for k in range(1, n + 1)),
            start=u[0] * 0,
        )
        out.append(
            Fraction(binomial(2 * n, n), 2 ** (2 * n + 1))
            + params.kappa * Fraction(1, 2)
            + Fraction(1, 4**n) * tail
        )
    return out

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
  alone.  The integer table of Q(k, j) (k-1)! t_d**(k-1), and its sums over
  k for each order, are cached per t and shared by every kappa.
* b_n = n 4**n a_n is one integer over a known denominator, turned into a
  Fraction once; a_n and S_n are derived from the b_k.

Each public coefficient is rounded to binary64 exactly once, at the very end.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .powerseries import TruncatedSeries, series_derive
from .specfun import _exact_div, binomial, pochhammer


@dataclass(frozen=True)
class FlowParams:
    """Trace asymmetry kappa = 2 tau(P) - 1 and time t; eps = kappa**2.

    ``kappa`` may be a Fraction for exact workflows; ``epsilon`` is always
    kappa**2 computed in kappa's own arithmetic.
    """

    kappa: float
    t: float
    epsilon: float = field(init=False)

    def __post_init__(self):
        if not -1 < self.kappa < 1:
            raise ValueError(f"kappa must lie in (-1, 1), got {self.kappa}")
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if not self.t < math.inf:
            raise ValueError(f"t must be finite, got {self.t}")
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
    return Fraction(2 * n, n + k) * binomial(n + k, n - k)


def invrel_weight_split(n: int, k: int) -> int:
    """The same weight written as C(n+k, n-k) + C(n+k-1, n-k-1)."""
    return binomial(n + k, n - k) + binomial(n + k - 1, n - k - 1)


class _TTable:
    """The t-only integers of the coefficient sums, grown on demand.

    With t = T / 2**tau and the once-rounded e^{-t} = D / 2**delta, both
    binary64 and so dyadic, and sigma = tau + delta:

    * ``_h[k][m] = C(k-1, m) L_{k-m-1}^{(m+1)}(2kt) (k-m-1)! 2**(tau (k-m-1))``;
    * ``_q[k][j] = Q(k, j) (k-1)! 2**(tau (k-1))
      = sum_m (2j)_m (-2**(tau+1))**m _h[k][m]``;
    * ``row(n)[j] = sum_k C(2n, n-k) (n-1)!/(k-1)! D**k 2**(sigma (n-k)) _q[k][j]``,

    so that ``b_n = 2 sum_j (-1)**j C(n, j) eps**j row(n)[j]
    / ((n-1)! 2**(sigma n - tau))``.  Each is an integer built by Horner
    steps whose multipliers are small or powers of two.  Lists are indexed
    from 1; growth holds a lock, so threads may share one table.
    """

    def __init__(self, t: float):
        self.T, t_den = t.as_integer_ratio()
        self.D, d_den = math.exp(-t).as_integer_ratio()
        self.tau = t_den.bit_length() - 1
        self.sigma = self.tau + d_den.bit_length() - 1
        self._h: list = [None]
        self._q: list = [None]
        self._rows: list = [None]
        self._lock = threading.Lock()

    def _laguerre_row(self, k: int) -> list:
        """_h[k][m] for m < k: L_N^{(m+1)}(x) = sum_i C(k, N-i) (-x)**i / i!
        with N = k-m-1, scaled by N! 2**(tau N), by Horner steps in -2kT."""
        x = -2 * k * self.T
        row = []
        for m in range(k):
            top = k - m - 1
            acc = scale = 1
            for i in range(top - 1, -1, -1):
                scale = scale * (i + 1) << self.tau  # top! / i! 2**(tau (top-i))
                acc = acc * x + binomial(k, top - i) * scale
            row.append(binomial(k - 1, m) * acc)
        return row

    def _q_value(self, k: int, j: int) -> int:
        h = self._h[k]
        step = -2 << self.tau
        acc = h[k - 1]
        for m in range(k - 2, -1, -1):
            acc = h[m] + (2 * j + m) * step * acc
        return acc

    def _grow(self):
        n = len(self._rows)
        self._h.append(self._laguerre_row(n))
        self._q.append([])
        for k in range(1, n + 1):
            qk = self._q[k]
            qk.extend(self._q_value(k, j) for j in range(len(qk), n + 1))
        weight = [0] * (n + 1)  # C(2n, n-k) (n-1)!/(k-1)!
        falling = 1
        for k in range(n, 0, -1):
            weight[k] = binomial(2 * n, n - k) * falling
            falling *= k - 1
        row = []
        for j in range(n + 1):
            acc = weight[n] * self._q[n][j]
            for k in range(n - 1, 0, -1):
                acc = acc * self.D + (weight[k] * self._q[k][j] << self.sigma * (n - k))
            row.append(acc * self.D)
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

    b_n is kept as an integer numerator over ``_den(n)``; a_n and S_n are
    derived from those numerators, and each value becomes one Fraction.
    """

    def __init__(self, params: FlowParams):
        self.t = float(params.t)
        eps = Fraction(params.kappa) ** 2
        self.eps_num, self.eps_den = eps.numerator, eps.denominator
        table = _t_table(self.t)
        self.tau, self.sigma = table.tau, table.sigma
        self._num: dict = {}
        self._b: dict = {}
        self._s: dict = {}

    def _den(self, n: int) -> int:
        return self.eps_den**n * math.factorial(n - 1) << self.sigma * n - self.tau

    def _b_num(self, n: int) -> int:
        """b_n * _den(n): the eps-sum by Horner steps in -E, eps = E / e_d."""
        if n not in self._num:
            row = _t_table(self.t).row(n)
            acc, scale = row[n], 1
            for j in range(n - 1, -1, -1):
                scale *= self.eps_den
                acc = acc * -self.eps_num + binomial(n, j) * row[j] * scale
            self._num[n] = 2 * acc
        return self._num[n]

    def a_exact(self, n: int) -> Fraction:
        return self.b_exact(n) / (n * 4**n)

    def b_exact(self, n: int) -> Fraction:
        if n not in self._b:
            self._b[n] = Fraction(self._b_num(n), self._den(n))
        return self._b[n]

    def s_exact(self, n: int) -> Fraction:
        if n not in self._s:
            # sum over k of the weighted b_k, each raised to _den(n)
            acc = 0
            for k in range(1, n + 1):
                sign = -1 if (k + n) % 2 else 1
                acc = (acc * (self.eps_den * (k - 1)) << self.sigma) + (
                    sign * invrel_weight_split(n, k) * self._b_num(k)
                )
            self._s[n] = Fraction(acc, self._den(n))
        return self._s[n]


@lru_cache(maxsize=16)
def _engine(params: FlowParams) -> _CoeffEngine:
    return _CoeffEngine(params)


def _check_index(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"coefficient index must be a positive integer, got {n}")


def a_coeff(params: FlowParams, n: int) -> float:
    """Taylor coefficient a_n of the local inverse of the pre-inversion flow
    map about its critical value, by the nested Laguerre/binomial sum."""
    _check_index(n)
    return float(_engine(params).a_exact(n))


def b_coeff(params: FlowParams, n: int) -> float:
    """Rescaled coefficient b_n = n 4**n a_n."""
    _check_index(n)
    return float(_engine(params).b_exact(n))


def s_coeff(params: FlowParams, n: int) -> float:
    """Alternating binomial-weighted combination S_n of b_1..b_n; equals the
    n-th coefficient of z d/dz of the inverted-flow series."""
    _check_index(n)
    return float(_engine(params).s_exact(n))


def phi_inv_coeffs(params: FlowParams, order: int) -> TruncatedSeries:
    """Series of the inverted conformal flow about the origin.

    Constant term 1; the z**n coefficient is S_n / n.  At kappa = 0 this
    reduces exactly to the Herglotz transform of the time-2t spectral
    distribution of free unitary Brownian motion.
    """
    _check_index(order)
    eng = _engine(params)
    coeffs = [1.0] + [float(eng.s_exact(n) / n) for n in range(1, order + 1)]
    return TruncatedSeries(0.0, coeffs)


def m_series_coeffs(params: FlowParams, order: int) -> TruncatedSeries:
    """Derivative series M = z d/dz applied to the inverted-flow series.

    This route multiplies the rounded S_n / n by n, so it is rounded twice and
    may differ from S_n in the last bit.  It is kept to cross-check
    :func:`s_series_coeffs`, which (like the CLI ``M`` column) gives the
    once-rounded S_n.
    """
    if order < 2:
        raise ValueError(f"m_series_coeffs needs order >= 2, got {order}")
    inv = phi_inv_coeffs(params, order)
    d = series_derive(inv)
    return TruncatedSeries(0.0, [0.0] + list(d.coeffs))


def s_series_coeffs(params: FlowParams, order: int) -> TruncatedSeries:
    """The raw sum-of-S_n form of the derivative series."""
    _check_index(order)
    return TruncatedSeries(0.0, [0.0] + [s_coeff(params, n) for n in range(1, order + 1)])


def binom_transform(seq):
    """b_n = sum_{k<=n} C(2n, n-k) c_k, exact on rational input."""
    seq = list(seq)
    return [
        sum((binomial(2 * n, n - k) * seq[k] for k in range(n + 1)), start=seq[0] * 0)
        for n in range(len(seq))
    ]


def inv_binom_transform(seq):
    """Inverse of :func:`binom_transform`:
    c_0 = b_0, c_n = sum_k (-1)**(k+n) (2n/(n+k)) C(n+k, n-k) b_k."""
    seq = list(seq)
    if not seq:
        return []
    out = [seq[0]]
    for n in range(1, len(seq)):
        acc = seq[0] * 0
        for k in range(n + 1):
            sign = -1 if (k + n) % 2 else 1
            acc = acc + sign * invrel_weight_split(n, k) * seq[k]
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
            _exact_div(binomial(2 * n, n), 2 ** (2 * n + 1))
            + _exact_div(params.kappa, 2)
            + _exact_div(1, 4**n) * tail
        )
    return out

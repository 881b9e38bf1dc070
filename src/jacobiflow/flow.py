"""Taylor coefficients of the inverted spectral flow of the free Jacobi
process, plus the binomial-transform pair and the moment expansion.

The closed forms are nested alternating binomial sums.  Summed in binary64
they cancel catastrophically (twelve orders of magnitude are lost already at
n = 16), so the engine never sums in binary64.  Its inputs are exact
rationals: eps = kappa**2 is the exact square of the input, t is dyadic, and
e^{-k t} enters as the k-th power of the once-rounded dyadic e^{-t}.  The
exact engine's sums run on integer numerators over known denominators, on
these identities:

* The sum over m of L_{k-m-1}^{(m+1)}(2kt) 2**m P_{n,m}(eps) is reordered
  into sum_j (-1)**j C(n, j) eps**j Q(k, j), where
  Q(k, j) = sum_m (-2)**m (2j)_m / m! L_{k-m-1}^{(m+1)}(2kt) depends on t
  alone and is a polynomial of degree k-1 in j.
* Q(k, .) is kept in the binomial basis C(j, r) of j.  Its r-th forward
  difference at 0 is (-4)**r [s**(k-1-r)] (1+s)**(-2r) sum_N L_N^{(1)}(2kt) s**N,
  because Q(k, j) = [s**(k-1)] (1-s)**-2 e^{-2kts/(1-s)} ((1-s)/(1+s))**(2j)
  and ((1-s)/(1+s))**2 = 1 - 4s/(1+s)**2.  These integers, scaled by
  D**k (k-1)! 2**(tau (k-1)) (see ``_t_rows``), are summed over k for each
  order, and the sums are cached per t and shared by every kappa.
* sum_j C(n, j) (-eps)**j C(j, r) = C(n, r) (-eps)**r (1-eps)**(n-r) turns
  the eps-sum into a sum over r < n, so b_n = n 4**n a_n is one integer over
  a known denominator; S_n is another, derived from the b_k.
* The exact engine makes the open rows of a table in one pass: the powers
  of -E and e_d - E (eps = E / e_d) up to half the largest open order, b_n
  up to that order, and S_n for the open n only.  The rows C(n, r) and the
  signed weights of S_n depend on n alone and are cached per order.

Every public float is float(exact), but a table rarely needs the exact
integers, whose thousands of bits rounding never reads.  ``_make_table``
runs the same sums on balls first (midpoint-radius arithmetic, as in Arb),
with one step made by another algorithm: the exact engine makes the forward
differences of Q(k, .) from Laguerre values and prefix sums, O(k**2) steps
for each k, and the ball pass makes them by a four-term recurrence in r
(``_diff_balls``), O(k) steps for each k.  An integer midpoint m and
radius e at scale 2**P stand for every real within e / 2**P of m / 2**P,
and each radius is a proven bound (``_diff_balls``, ``_t_balls``,
``_balls``).  An entry is kept when both ends of its ball
round to the same binary64 (Ziv's test); rounding is monotone, so that float
is float(exact).  P is a few hundred bits, set by the order and t
(``_precision``).  The t-only row sums of the pass are packed (Kronecker
substitution): the midpoints of each Delta_k sit in W-bit slots of one
integer, W = B + 2 order + 2 bits rounded up to whole bytes with B the bit
length of the largest midpoint, so a row is one product per (n, k) and no
slot overflows, since the binomial weights of a row sum to less than 4**n
(``_t_balls``).  The exact engine makes only the rows the pass leaves
open: a value halfway between two floats or exactly 0, and the values of
kappa near 0 or +-1 at t >= 5, which shrink like e^{-n t}.  Each of its coefficients is one integer
quotient, which Python rounds to binary64 once: float(Fraction(num, den)).
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, repeat

from .powerseries import MAX_ORDER, TruncatedSeries, _common_denominator
from .specfun import binomial


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


@lru_cache(maxsize=8)
def _t_scales(t: float) -> tuple[int, int, int, int]:
    """(T, tau, D, delta) with t = T / 2**tau and the once-rounded e^{-t}
    = D / 2**delta (``_exp_neg_t``), both binary64 and so dyadic; formed
    once per t, not once per k."""
    big_t, t_den = t.as_integer_ratio()
    return (big_t, t_den.bit_length() - 1, *_exp_neg_t(t))


def _laguerre_scaled(x: int, tau: int, count: int) -> list:
    """(-1)**N L_N^{(1)}(x / 2**tau) N! 2**(tau N) for N < count, all
    integers, by the three-term recurrence of the Laguerre polynomials."""
    series, prev = [1], 0
    for N in range(count - 1):
        u = (x - (2 * N + 2 << tau)) * series[N] - (N * (N + 1) << 2 * tau) * prev
        prev = series[N]
        series.append(u)
    return series


def _delta_rows(series: list) -> list:
    """4**r [s**(k-1-r)] (1-s)**(-2r) sum_N series[N] s**N for r < k, with
    k = len(series): each division by (1-s)**2 is two prefix sums, keeping
    k-r coefficients."""
    k = len(series)
    out = [series[k - 1]]
    for r in range(1, k):
        series = list(accumulate(accumulate(series[: k - r])))
        out.append(series[k - 1 - r] << 2 * r)
    return out


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
    """Polynomial in eps with exact coefficients (low degree first): ints
    stay ints, and every other entry becomes a Fraction."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(c if type(c) is int else Fraction(c) for c in self.coeffs) or (0,)
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

    The eps**k coefficient is (-1)**(m+k) C(n, k) (2k)_m / m!, an integer:
    (2k)_m / m! = C(2k+m-1, m) for k >= 1, and (0)_m / m! is 1 at m = 0 and
    0 otherwise.
    """
    if n < 0 or m < 0:
        raise ValueError("pnm_poly needs n, m >= 0")
    coeffs = [int(m == 0)] + [
        (-1) ** (m + k) * math.comb(n, k) * math.comb(2 * k + m - 1, m)
        for k in range(1, n + 1)
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


def _diff_row(t: float, k: int) -> list:
    """D**k (k-1)! 2**(tau (k-1)) Delta**r Q(k, 0) for r < k: see ``_t_rows``."""
    big_t, tau, big_d, _ = _t_scales(t)
    series = _laguerre_scaled(2 * k * big_t, tau, k)
    scale = 1
    for N in range(k - 1, -1, -1):  # to (k-1)! 2**(tau (k-1))
        series[N] *= scale
        scale = scale * N << tau
    dk = big_d**k if k % 2 else -(big_d**k)  # carries (-1)**(k-1)
    return [v * dk for v in _delta_rows(series)]


@lru_cache(maxsize=4)
def _t_rows(t: float, top: int) -> tuple:
    """The t-only integers of the coefficient sums: row n, for n = 1..top,
    at index n - 1.

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

    * ``_diff_row(t, k)[r] = D**k (k-1)! 2**(tau (k-1)) Delta**r Q(k, 0)``
      for r < k.  (-1)**N L_N^{(1)}(2kt) N! 2**(tau N), N < k, comes from
      the integer three-term recurrence and is brought to the common scale
      (k-1)! 2**(tau (k-1)) and divided by (1-s)**2 in ``_delta_rows``.
    * ``row(n)[r] = sum_{k>r} C(2n, n-k) (n-1)!/(k-1)! 2**(sigma (n-k))
      _diff_row(t, k)[r]`` for r < n, by Horner steps over ascending k with
      the multiplier (k-1) 2**sigma.

    ``_exact_nums`` forms b_n from row(n).
    """
    _, tau, _, delta = _t_scales(t)
    sigma = tau + delta
    diffs, rows = [None], []  # diffs[k] = _diff_row(t, k)
    for n in range(1, top + 1):
        diffs.append(_diff_row(t, n))
        weight = _binomial_row(2 * n)[n::-1]  # C(2n, n-k) for k <= n
        row = []
        for r in range(n):
            acc = 0
            for k in range(r + 1, n + 1):
                acc = (acc * (k - 1) << sigma) + weight[k] * diffs[k][r]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


@cache
def _recurrence_coeffs(m: int) -> memoryview:
    """The parameter-free integers of the recurrence of ``_diff_balls`` at
    m = k-1, seven per step r = m-1, ..., 0: 16 (m-r)(m+r+2)(r+2), then
    u0, v0, u1, v1, w and u2 with 16 (m-r)(m+r+2)(r+2) b_r = (u0 + v0 x)
    b_{r+1} + (u1 + v1 x + w x**2) b_{r+2} + u2 b_{r+3}.  They are packed
    as 64-bit integers in a read-only view: a tuple of Python ints would
    take about five times the memory."""
    steps = []
    for r in range(m - 1, -1, -1):
        steps += (16 * (m - r) * (m + r + 2) * (r + 2),
                  4 * (2 * r + 3) * (6 * r * r + 18 * r + 8 - 4 * m * m - 8 * m),
                  4 * (2 * r + 3) * (m + 1),
                  -(r + 1) * (16 * m * m + 32 * m - 48 * r * r - 192 * r - 176),
                  8 * (r + 1) * (m + 1), -(r + 1),
                  8 * (r + 1) * (r + 2) * (2 * r + 5))
    return memoryview(struct.pack(f"{len(steps)}q", *steps)).cast("q")


def _recurrence_balls(x: int, tau: int, m: int, scale: int) -> tuple:
    """(midpoints of b_r 2**scale for r <= m, one radius for all of them):
    the recurrence of ``_diff_balls`` at x = X / 2**tau, run on integer
    balls from the exact b_m = (-4)**m.

    A step is integer products, a shift by 2 tau and a floor division by a
    small integer, off by less than 1.  The running radius e_r bounds the
    distance of the midpoint from b_r 2**scale: the recurrence with each
    coefficient replaced by the integer above its absolute value, plus 2,
    one for the floor division of that bound and one for the midpoint's.
    """
    shift2 = 2 * tau
    x_tau, x_sq = x << tau, x * x
    b1, b2, b3 = (-1) ** m << scale + 2 * m, 0, 0  # b_{r+1}, b_{r+2}, b_{r+3}
    e1 = e2 = e3 = rad = 0
    mids = [b1]
    steps = iter(_recurrence_coeffs(m))
    for den, u0, v0, u1, v1, w, u2 in zip(*repeat(steps, 7)):
        c1 = (u0 << shift2) + v0 * x_tau  # 2**(2 tau) (u0 + v0 x)
        c2 = (u1 << shift2) + v1 * x_tau + w * x_sq
        b = ((c1 * b1 + c2 * b2 + (u2 * b3 << shift2)) >> shift2) // den
        e = (((abs(c1) >> shift2) + 1) * e1 + ((abs(c2) >> shift2) + 1) * e2 + u2 * e3) // den + 2
        b1, b2, b3, e1, e2, e3 = b, b1, b2, e, e1, e2
        mids.append(b)
        if e > rad:
            rad = e
    mids.reverse()
    return mids, rad


def _diff_balls(t: float, prec: int, k: int) -> tuple:
    """(midpoints of Delta_k[r] for r < k, their common radius) at scale
    2**prec: see ``_t_balls``.

    With m = k-1 and x = 2kt, b_r = Delta**r Q(k, 0) = (-4)**r a_r, where
    a_r = [s**(m-r)] (1+s)**(-2r) (1-s)**-2 e^{-xs/(1-s)}, satisfies

        (m-r)(m+r+2)(r+2) a_r
          + (2r+3)(6r**2 + 18r + 8 - 4m**2 - 8m + (m+1) x) a_{r+1}
          + (r+1)(16m**2 + 32m - 48r**2 - 192r - 176 - 8(m+1) x + x**2) a_{r+2}
          + 32 (r+1)(r+2)(2r+5) a_{r+3} = 0,

    run backward from a_m = 1 and a_{m+1} = a_{m+2} = 0 (a_r is the
    coefficient of a negative power of s for r > m).  Its certificate (creative
    telescoping, Zeilberger 1991): a_r is the residue at 0 of
    F_r = v**r g s**(-m-1), with v = s/(1+s)**2 and g = (1-s)**-2
    e^{-xs/(1-s)}, and the left side above with each a replaced by its F is
    d/ds [R F_r], R = s (1-s)**2 (q0 + q1 s + q2 s**2 + q3 s**3) / (1+s)**5,

        q0 = -(r+2)(m+r+2),           q1 = mr - 2m + 3r**2 - rx + 10r - x + 4,
        q2 = mr - 2m - 3r**2 - rx - 8r - x - 8,      q3 = (r-m)(r+2),

    whose residue at 0 is 0.  Times (-4)**(r+3), it is the recurrence of
    the b_r that ``_recurrence_coeffs(m)`` holds.

    The b_r run as balls of radius e at scale 2**(prec + 16)
    (``_recurrence_balls``).  Times e^{-kt} = (D / 2**delta)**k, formed
    with as many bits as the largest midpoint, the radius at scale 2**prec
    is at most e e^{-kt} / 2**16 + 3.  No step is shared with the exact
    engine's ``_diff_row``: the two make Delta_k by independent algorithms.
    """
    big_t, tau, big_d, delta = _t_scales(t)
    mids, rad = _recurrence_balls(2 * k * big_t, tau, k - 1, prec + 16)
    shift = max(prec, max(max(mids), -min(mids)).bit_length() - 16)
    decay = (big_d**k << shift) >> delta * k  # floor(e^{-kt} 2**shift)
    shift += 16
    return [b * decay >> shift for b in mids], (rad * (decay + 1) >> shift) + 3


@lru_cache(maxsize=4)
def _t_balls(t: float, prec: int, order: int) -> tuple:
    """The t-only sums of ``_t_rows`` as balls at scale 2**prec, for
    n = 1..order at index n - 1.

    A ball (m, e) stands for every real x with |x 2**prec - m| <= e.  With
    Delta_k[r] = e^{-kt} Delta**r Q(k, 0), the value ``_diff_row`` makes
    exactly, and rho_n[r] = sum_{k>r} C(2n, n-k) Delta_k[r]:

    * ``_diff_balls`` makes Delta_k[r] for r < k by a four-term recurrence
      in r on integer balls 16 bits finer than 2**prec
      (``_recurrence_balls``).  A radius runs along with the midpoints:
      each step bounds how far its coefficients carry the last three
      radii and adds 2 for its floors.  The k midpoints share one proven
      radius, 2**-16 e^{-kt} times the largest running radius, plus 3: at
      most 59 bits at order 64 and any t.  O(k) steps make Delta_k, so the
      pass makes its t-side in O(order**2) big-integer steps, where the
      exact engine's prefix sums take O(order**3).
    * Row n is (rho_n, e_n, beta_n): the midpoints of rho_n[r] for r < n,
      one radius for all of them, e_n = sum_{k<=n} C(2n, n-k) times the
      radius of Delta_k, and the bit length of the largest midpoint.

    The midpoint sums are Kronecker substitutions: Delta_k's k midpoints
    are packed into the integer sum_r Delta_k[r] 2**(r W), and row n is
    sum_{k<=n} C(2n, n-k) times those integers, one product per (n, k),
    its W-bit slots read once.  With B the bit length of the largest
    midpoint up to ``order``, W is B + 2 order + 2 rounded up to whole
    bytes; sum_{k<=n} C(2n, n-k) < 4**n, so |rho_n[r]| < 2**(B + 2n) <=
    2**(W-1) and no slot overflows.  Slots go to and from W-bit two's
    complement by a bias of 2**(W-1) each: for |v| < 2**(W-1),
    v + 2**(W-1) is v mod 2**W with its top bit flipped.
    """
    diffs = [_diff_balls(t, prec, k) for k in range(1, order + 1)]
    rads = [rad for _, rad in diffs]
    bits = max(max(max(mids), -min(mids)) for mids, _ in diffs).bit_length()  # B
    size = (bits + 2 * order + 9) // 8  # bytes per slot, W = 8 size
    # biases[n - 1]: the bias 2**(W-1) in each of slots 0..n-1
    biases = list(accumulate(1 << (r + 1) * 8 * size - 1 for r in range(order)))
    packed = [(int.from_bytes(b"".join(m.to_bytes(size, "little", signed=True) for m in mids),
                              "little") ^ bias) - bias
              for (mids, _), bias in zip(diffs, biases)]
    rows = []
    for n, bias in enumerate(biases, 1):
        weight = _binomial_row(2 * n)[n - 1::-1]  # C(2n, n-k) for k = 1..n
        slots = ((sum(map(operator.mul, weight, packed)) + bias) ^ bias).to_bytes(size * n, "little")
        row = tuple([int.from_bytes(slots[i:i + size], "little", signed=True)
                     for i in range(0, size * n, size)])
        rows.append((row, sum(map(operator.mul, weight, rads)), max(max(row), -min(row)).bit_length()))
    return tuple(rows)


def _precision(order: int, t: float) -> int:
    """P of the ball pass for a table to ``order`` at t.

    A ball's radius, in units of 2**-P, is at most about 2**(3.4 order + 6)
    after the sums (222 bits at order 64, measured at kappa in {0, 0.37,
    0.99999} and t from 1e-6 to 700; the powers of eps and the weights of
    S_n make most of it, Delta_k at most 59 bits), a coefficient is about
    e^{-t} or larger unless kappa is near 0 or +-1, and rounding reads 53
    bits: so P has 4 order + 96 bits above e^{-t}, rounded up to a
    multiple of 32.  At order 48 that is 320 bits for t up to 22; the
    smallest P that decided every row the pass decides at the 40 (kappa,
    t) of the benchmark's ``table`` pool was 232.
    """
    return -(-(96 + 4 * order + math.ceil(t / math.log(2))) // 32) * 32


def _rounded(mid: int, rad: int, den: int):
    """The binary64 nearest every point of [mid - rad, mid + rad] / den, or
    None when the ends round apart or the ball holds 0 with rad > 0.  Each
    end is an int/int quotient, rounded correctly, and rounding is monotone,
    so the float is that of any exact value in the ball; at rad = 0 it is
    the exact quotient, 0.0 for an exact 0."""
    if not rad:
        return mid / den
    lo, hi = mid - rad, mid + rad
    if lo > 0 or hi < 0:
        value = lo / den
        if value == hi / den:
            return value
    return None


def _rounded_row(n: int, b: int, e: int, s: int, f: int, den: int) -> tuple:
    """(a_n, b_n, S_n, S_n / n) by ``_rounded`` from the balls (b, e) of
    b_n and (s, f) of S_n over den, each entry a float or None."""
    return (_rounded(b, e, den * n << 2 * n), _rounded(b, e, den),
            _rounded(s, f, den), _rounded(s, f, den * n))


def _exact_nums(eps: Fraction, t: float, ns: list) -> list:
    """(b_n den_n, S_n den_n, den_n) at eps = kappa**2 and t for each n of
    the ascending ns, all integers, with den_n = e_d**n (n-1)! 2**(sigma n - tau).

    b_n den_n = 2 y sum_{r<n} C(n, r) x**r y**(n-1-r) row(n)[r] with
    x = -E and y = e_d - E, eps = E / e_d.  The sum over lo <= r < hi
    is split at mid into (sum over [lo, mid)) y**(hi-mid) and
    x**(mid-lo) (sum over [mid, hi)), so the big products are balanced;
    the powers go up to ceil(max(ns)/2).  S_n den_n is the signed
    weights times b_1..b_n, each b_k raised to den_n by Horner steps.
    """
    top = ns[-1]
    _, tau, _, delta = _t_scales(t)
    num, den, sigma = eps.numerator, eps.denominator, tau + delta
    xs, ys = (list(accumulate(repeat(v, (top + 1) // 2), operator.mul, initial=1))
              for v in (-num, den - num))
    bs = []
    for n, row in enumerate(_t_rows(t, top), 1):
        binom = _binomial_row(n)

        def part(lo: int, hi: int) -> int:
            if hi - lo == 1:
                return binom[lo] * row[lo]
            mid = (lo + hi) // 2
            return part(lo, mid) * ys[hi - mid] + xs[mid - lo] * part(mid, hi)

        bs.append(2 * ys[1] * part(0, n))
    out = []
    for n in ns:
        acc, weights = 0, _weight_row(n)
        for k in range(1, n + 1):
            acc = (acc * (den * (k - 1)) << sigma) + weights[k] * bs[k - 1]
        out.append((bs[n - 1], acc,
                    den**n * math.factorial(n - 1) << sigma * n - tau))
    return out


def _balls(eps: Fraction, t: float, order: int, prec: int) -> list:
    """[(b_n, e_n, S_n, f_n) for n = 1..order] at eps = kappa**2 and t: b_n
    and S_n as balls of radius e_n and f_n at scale 2**prec.

    With (-eps)**r and (1-eps)**j as balls of radius 2r and 2j (each
    power one floor step from the last), the products p_r =
    x_r y_{n-r} are within 2n 2**P + 4n**2 of their values at scale
    2**(2P), and the binomial weights C(n, r) |(-eps)**r (1-eps)**(n-r)|
    sum to 1, so b_n = 2 sum_r C(n, r) p_r rho_n[r] has radius
    2 e_n + (2n 2**P + 4n**2) 2**(n+1+beta_n-2P) + 2 (``_t_balls``).
    S_n's radius is the sum of |w(n, k)| times those of the b_k.  The
    bounds hold at every P.
    """
    num, den, one = eps.numerator, eps.denominator, 1 << prec
    xs, ys = (list(accumulate(repeat(v * one // den, order),
                              lambda p, q: p * q >> prec, initial=one))
              for v in (-num, den - num))
    b_mids, b_rads, out = [], [], []
    for n, (row, rad, beta) in enumerate(_t_balls(t, prec, order), 1):
        acc = sum(map(operator.mul, map(operator.mul, _binomial_row(n), xs),
                      map(operator.mul, ys[n:0:-1], row)))
        b_mids.append(2 * acc >> 2 * prec)
        spread = (n << prec + 1) + 4 * n * n << n + 1 + beta
        b_rads.append(2 * rad + (spread >> 2 * prec) + 2)
        weights = _weight_row(n)[1:]
        out.append((b_mids[-1], b_rads[-1], sum(map(operator.mul, weights, b_mids)),
                    sum(map(operator.mul, map(abs, weights), b_rads))))
    return out


def _make_table(eps: Fraction, t: float, size: int) -> tuple:
    """(a_n, b_n, S_n, S_n / n) for n = 1..size at eps = kappa**2 and t,
    each float(exact): from one ball pass (``_balls``) at ``_precision``,
    and from the exact engine (``_exact_nums``) for the rows the pass
    leaves open.  Both phases round through ``_rounded_row``: the exact
    engine's b_n and S_n are integer numerators over one denominator, balls
    of radius 0, so a float is one integer quotient, which rounds once.
    """
    prec = _precision(size, t)
    rows = [_rounded_row(n, b, e, s, f, 1 << prec)
            for n, (b, e, s, f) in enumerate(_balls(eps, t, size, prec), 1)]
    open_rows = [n for n, row in enumerate(rows, 1) if None in row]
    if open_rows:
        for n, (b, s, den) in zip(open_rows, _exact_nums(eps, t, open_rows)):
            rows[n - 1] = _rounded_row(n, b, 0, s, 0, den)
    return tuple(rows)


_table = lru_cache(maxsize=16)(_make_table)


def _coeff_rows(params: FlowParams, order: int) -> tuple:
    """Rows 1..``order`` of the cached table of at least 16 rows (a pass to
    order 16 takes about a millisecond), keyed by eps: -kappa, and a float
    kappa and its equal Fraction, share it.  It is a tuple of tuples."""
    return _table(Fraction(params.kappa) ** 2, float(params.t), max(order, 16))[:order]


def _check_index(n, name="coefficient index") -> int:
    """``n`` as an int, from any integer type but bool."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__") or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")
    return operator.index(n)


def _check_order(order) -> int:
    """A series order in [1, MAX_ORDER], checked before any coefficient is built."""
    order = _check_index(order, "truncation order")
    if order > MAX_ORDER:
        raise ValueError(f"truncation order is capped at {MAX_ORDER}, got {order}")
    return order


def a_coeff(params: FlowParams, n: int) -> float:
    """Taylor coefficient a_n of the local inverse of the pre-inversion flow
    map about its critical value, by the nested Laguerre/binomial sum."""
    n = _check_index(n)
    return _coeff_rows(params, n)[n - 1][0]


def b_coeff(params: FlowParams, n: int) -> float:
    """Rescaled coefficient b_n = n 4**n a_n."""
    n = _check_index(n)
    return _coeff_rows(params, n)[n - 1][1]


def s_coeff(params: FlowParams, n: int) -> float:
    """Alternating binomial-weighted combination S_n of b_1..b_n; equals the
    n-th coefficient of z d/dz of the inverted-flow series."""
    n = _check_index(n)
    return _coeff_rows(params, n)[n - 1][2]


def phi_inv_coeffs(params: FlowParams, order: int) -> TruncatedSeries:
    """Series of the inverted conformal flow about the origin.

    Constant term 1; the z**n coefficient is S_n / n.  At kappa = 0 this
    reduces exactly to the Herglotz transform of the time-2t spectral
    distribution of free unitary Brownian motion.
    """
    rows = _coeff_rows(params, _check_order(order))
    return TruncatedSeries(0.0, [1.0] + [row[3] for row in rows])


def m_series_coeffs(params: FlowParams, order: int) -> TruncatedSeries:
    """Derivative series M = z d/dz applied to the inverted-flow series.

    Constant term 0; the z**n coefficient is S_n, rounded once, as in the
    CLI ``M`` column.
    """
    rows = _coeff_rows(params, _check_order(order))
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
    order = _check_index(order, "truncation order")
    u = list(unitary_moments)
    if len(u) < order:
        raise ValueError(f"need at least {order} unitary moments, got {len(u)}")
    # c_0 = 0 in the moments' own type, so Fractions keep the integer route
    tails = binom_transform([c * 0 for c in u[:1]] + u[:order])
    return [
        Fraction(binomial(2 * n, n), 2 ** (2 * n + 1))
        + params.kappa * Fraction(1, 2)
        + Fraction(1, 4**n) * tails[n]
        for n in range(1, order + 1)
    ]

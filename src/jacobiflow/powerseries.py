"""Truncated power-series algebra over an arbitrary coefficient field.

A :class:`TruncatedSeries` stores the Taylor coefficients c_0..c_N of a
function about an expansion point ``base``:

    f(z) = c_0 + c_1 (z - base) + ... + c_N (z - base)**N.

Operations use nothing but ring arithmetic of the entries, so the same code
runs over complex binary64 and exact Fractions.  Exact inputs give exact
outputs, which makes the rational mode the oracle for the floating one.
The exceptions to the generic loop are products and compositions of
all-Fraction lists.  A product writes each operand as integer numerators
over one common denominator, convolves the integers by the ring loop itself
(integers are a ring) and reduces each output coefficient once: the same
Fractions, with one gcd per coefficient instead of about two per term.  A
composition writes f once over its common denominator and runs Horner on
integer numerators, dividing a step by a gcd only when that gcd exceeds 1:
over an integer g no step is divided.  A reversion of an all-Fraction
series rescales it to a series with integer coefficients and linear
coefficient 1, reverts that on integers, where no step takes a gcd, and
scales the result back, one Fraction per coefficient.  Every other
coefficient type, int mixed with Fraction included, runs the ring loop.

Compositional inversion (:func:`series_revert`) is done by Newton iteration
with order doubling.  It never touches any closed-form coefficient formula,
so it can serve as an independent cross-check for explicitly derived Taylor
coefficients.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

MAX_ORDER = 64


class NonInvertibleError(ValueError):
    """Raised when a series has no compositional inverse (c_1 = 0)."""


def _assert_finite(coeffs):
    for c in coeffs:
        if isinstance(c, (float, complex)) and not cmath.isfinite(c):
            raise ValueError("series coefficients must be finite")


class TruncatedSeries:
    """Taylor polynomial of fixed truncation order about a base point."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        if len(coeffs) - 1 > MAX_ORDER:
            raise ValueError(f"truncation order is capped at {MAX_ORDER}")
        _assert_finite(coeffs)
        self.base = base
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def variable(cls, base, order: int, one=1.0):
        """The identity function z, expanded about ``base``."""
        zero = one * 0
        return cls(base, ([base + zero, one] + [zero] * (order - 1))[: order + 1])

    def _like(self, coeffs):
        return TruncatedSeries(self.base, coeffs)

    def _check_aligned(self, other):
        if self.base != other.base:
            raise ValueError("series have different expansion points")
        if self.order != other.order:
            raise ValueError("series have different truncation orders")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_aligned(other)
            return self._like([a + b for a, b in zip(self.coeffs, other.coeffs)])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -1 * other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_aligned(other)
            return self._like(_mul_trunc(self.coeffs, other.coeffs, self.order))
        return self._like([a * other for a in self.coeffs])

    __rmul__ = __mul__

    def reciprocal(self):
        """Multiplicative inverse 1/f, requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series reciprocal needs a nonzero constant term")
        return self._like(_recip_trunc(self.coeffs, self.order))

    def __call__(self, z):
        """Evaluate the truncated polynomial at the point z (Horner)."""
        u = z - self.base
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * u + c
        return acc

    def __repr__(self):
        return f"TruncatedSeries(base={self.base!r}, coeffs={self.coeffs!r})"


# -- raw coefficient-list kernels (shared by the public operations) ---------


def _common_denominator(fracs):
    """Integer numerators of ``fracs`` over the lcm of their denominators."""
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _mul_trunc(a, b, order):
    a = a[: order + 1]
    b = b[: order + 1]
    if all(type(c) is Fraction for c in a + b):
        # one exact integer convolution, then one gcd per output coefficient
        na, da = _common_denominator(a)
        nb, db = _common_denominator(b)
        return [Fraction(c, da * db) for c in _mul_trunc(na, nb, order)]
    zero = a[0] * 0
    out = [zero] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def _recip_trunc(a, order):
    if all(type(c) is Fraction for c in a):
        # r_n = -r_0 sum_i a_i r_{n-i}: each sum on integer numerators over
        # the common denominator of its terms, then one Fraction per r_n
        nums, den = _common_denominator(a)
        out = [1 / a[0]]
        for n in range(1, order + 1):
            prev = [out[n - i] for i in range(1, min(n, len(a) - 1) + 1)]
            lcm = math.lcm(*(c.denominator for c in prev))
            acc = sum(nums[i] * c.numerator * (lcm // c.denominator)
                      for i, c in enumerate(prev, 1))
            out.append(-out[0] * Fraction(acc, den * lcm))
        return out
    zero = a[0] * 0
    r0 = (zero + 1) / a[0]
    out = [zero] * (order + 1)
    out[0] = r0
    for n in range(1, order + 1):
        acc = zero
        for i in range(1, min(n, len(a) - 1) + 1):
            acc = acc + a[i] * out[n - i]
        out[n] = -r0 * acc
    return out


def _recip_unit(a, order):
    """1/a to ``order`` for integers a with a_0 = 1: integers, no division."""
    out = [1]
    for n in range(1, order + 1):
        out.append(-sum(a[i] * out[n - i] for i in range(1, min(n, len(a) - 1) + 1)))
    return out


def _compose_trunc(f, g, order):
    """Coefficients of f(g(w)) to ``order``; g must have zero constant term.

    The Horner step that adds f[k] is followed by k more factors of g, each
    raising the lowest power by one, so it is carried to order - k only.
    """
    zero = g[0] * 0
    if all(type(c) is Fraction for c in f + g):
        # the accumulator is nums / (df scale), scale a divisor of a power of dg
        nf, df = _common_denominator(f)
        ng, dg = _common_denominator(g)
        nums, scale = [nf[-1]], 1
        for k in range(len(f) - 2, -1, -1):
            nums = _mul_trunc(nums, ng, order - k)
            scale *= dg
            nums[0] += nf[k] * scale
            common = math.gcd(scale, *nums)
            if common > 1:
                nums, scale = [c // common for c in nums], scale // common
        acc = [Fraction(c, df * scale) for c in nums]
    else:
        acc = [f[-1]]
        for k in range(len(f) - 2, -1, -1):
            acc = _mul_trunc(acc, g, order - k)
            acc[0] = acc[0] + f[k]
    return acc + [zero] * (order + 1 - len(acc))


# -- public operations -------------------------------------------------------


def series_compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Taylor coefficients of f(g(.)) about g's base.

    The constant term of g must equal f's expansion point, i.e. g's values
    feed exactly into the region where f is expanded.
    """
    if f.order != g.order:
        raise ValueError("series have different truncation orders")
    if g.coeffs[0] != f.base:
        raise ValueError("inner constant term must equal the outer expansion point")
    inner = list(g.coeffs)
    inner[0] = inner[0] * 0
    return TruncatedSeries(g.base, _compose_trunc(f.coeffs, inner, f.order))


def series_derive(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; drops the order by one."""
    if f.order < 1:
        raise ValueError("cannot differentiate an order-0 series")
    return TruncatedSeries(f.base, [k * f.coeffs[k] for k in range(1, f.order + 1)])


def _integer_form(c):
    """(d, n_1, H) for the all-Fraction coefficients c_0..c_N, with
    c_k = n_k / d**k for integers d and n_k, and f(w) = n_1**2 H(w / (d n_1)):
    H = w + sum_{k>=2} n_k n_1**(k-2) w**k has integer coefficients and H_1 = 1.

    d is the lcm of den(c_1) and of each den(c_{k+1}) / gcd(den(c_k),
    den(c_{k+1})).  So d**k clears den(c_k) at every k: den(c_{k+1}) is that
    gcd, a divisor of den(c_k) and so of d**k, times a divisor of d.
    """
    dens = [x.denominator for x in c[1:]]
    d = math.lcm(dens[0], *(b // math.gcd(a, b) for a, b in zip(dens, dens[1:])))
    nums = [x.numerator * (d**k // x.denominator) for k, x in enumerate(c[1:], 1)]
    return d, nums[0], [0, 1] + [n * nums[0] ** k for k, n in enumerate(nums[1:])]


def series_revert(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by Newton iteration with order doubling.

    Requires a vanishing constant term and a nonzero linear one.  Returns g
    expanded about 0 with g(0) = f.base, so that series_compose(f, g) is the
    identity to the common truncation order.  A step takes g, exact through
    w**m, to g - g' (f(g) - w), exact through w**(2m): f'(g) g' = 1 + O(w**m)
    makes g' = 1/f'(g) + O(w**m), and f(g) - w = O(w**(m+1)).  So a step
    composes f with g once and needs neither f' nor a reciprocal.

    An all-Fraction f is written as f(w) = n_1**2 H(w / (d n_1)) with H on
    integers and H_1 = 1 (``_integer_form``), so the loop reverts H on
    integers and takes no gcd; then [w**k] f^-1 = d [w**k] H^-1 / n_1**(2k-1).
    """
    c = f.coeffs
    if c[0] != 0:
        raise ValueError("reversion needs a vanishing constant term")
    if f.order < 1 or c[1] == 0:
        raise NonInvertibleError("vanishing linear coefficient, series not invertible")
    order = f.order
    zero = c[1] * 0
    exact = all(type(x) is Fraction for x in c)
    if exact:
        d, n_1, fa = _integer_form(c)
        g = [0, 1]
    else:
        fa = [zero] + c[1:]
        g = [zero, (zero + 1) / c[1]]
    nil, one = g[0], g[0] + 1

    m = 1
    while m < order:
        dg = [k * g[k] for k in range(1, m + 1)]  # 1/f'(g) + O(w^m)
        m = min(2 * m, order)
        gm = g + [nil] * (m + 1 - len(g))
        comp = _compose_trunc(fa[: m + 1], gm, m)
        comp[1] = comp[1] - one  # subtract the identity
        corr = _mul_trunc(comp, dg, m)
        g = [gm[k] - corr[k] for k in range(m + 1)]

    if exact:
        g[1:] = [Fraction(d * g[k], n_1 ** (2 * k - 1)) for k in range(1, order + 1)]
    return TruncatedSeries(zero * 0, [f.base + zero] + g[1:])


def series_sqrt(f: TruncatedSeries) -> TruncatedSeries:
    """Square root of a series with constant term 1 (principal branch), by
    the recurrence 2 s_n = f_n - sum_{0<i<n} s_i s_{n-i}."""
    c = f.coeffs
    if c[0] != 1:
        raise ValueError("series square root requires constant term 1")
    s = [c[0]]
    for n in range(1, f.order + 1):
        acc = c[n]
        for i in range(1, n):
            acc = acc - s[i] * s[n - i]
        s.append(acc / 2)
    return f._like(s)

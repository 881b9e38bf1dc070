"""Truncated power-series algebra over an arbitrary coefficient field.

A :class:`TruncatedSeries` stores the Taylor coefficients c_0..c_N of a
function about an expansion point ``base``:

    f(z) = c_0 + c_1 (z - base) + ... + c_N (z - base)**N.

Operations use nothing but ring arithmetic of the entries, so the same code
runs over complex binary64, exact Fractions and GaussianRationals.  Exact
inputs give exact outputs, which makes the rational mode the oracle for the
floating one.  The one exception to the generic loop is the product of two
all-Fraction lists: it writes each operand as integer numerators over one
common denominator, convolves the integers and reduces each output
coefficient once, which gives the same Fractions with one gcd per
coefficient instead of about two per term.  Every other coefficient type,
int mixed with Fraction included, runs the ring loop.

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
        if isinstance(c, complex) and not cmath.isfinite(c):
            raise ValueError("series coefficients must be finite")
        if isinstance(c, float) and not math.isfinite(c):
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
        return cls(base, [base + zero, one] + [zero] * (order - 1))

    def _zero(self):
        return self.coeffs[0] * 0

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

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_aligned(other)
            return self * other.reciprocal()
        return self._like([a / other for a in self.coeffs])

    def __rtruediv__(self, other):
        return other * self.reciprocal()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers need a nonnegative integer exponent")
        out = self._like([self._zero() + 1] + [self._zero()] * self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
    if all(type(c) is Fraction for c in a) and all(type(c) is Fraction for c in b):
        # one exact integer convolution, then one gcd per output coefficient
        na, da = _common_denominator(a)
        nb, db = _common_denominator(b)
        den = da * db
        out = [0] * (order + 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in enumerate(nb[: order + 1 - i]):
                    out[i + j] += ai * bj
        return [Fraction(c, den) for c in out]
    zero = a[0] * 0
    out = [zero] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def _recip_trunc(a, order):
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


def _compose_trunc(f, g, order):
    """Coefficients of f(g(w)) to ``order``; g must have zero constant term."""
    zero = g[0] * 0
    acc = [f[-1]] + [zero] * order
    for k in range(len(f) - 2, -1, -1):
        acc = _mul_trunc(acc, g, order)
        acc[0] = acc[0] + f[k]
    return acc


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


def series_revert(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by Newton iteration with order doubling.

    Requires a vanishing constant term and a nonzero linear one.  Returns g
    expanded about 0 with g(0) = f.base, so that series_compose(f, g) is the
    identity to the common truncation order.
    """
    c = f.coeffs
    if c[0] != 0:
        raise ValueError("reversion needs a vanishing constant term")
    if f.order < 1 or c[1] == 0:
        raise NonInvertibleError("vanishing linear coefficient, series not invertible")
    order = f.order
    zero = c[1] * 0
    one = zero + 1

    fa = list(c)
    fa[0] = zero
    dfa = [k * fa[k] for k in range(1, order + 1)]

    g = [zero, one / c[1]]
    m = 1
    while m < order:
        m = min(2 * m, order)
        gm = g + [zero] * (m + 1 - len(g))
        comp = _compose_trunc(fa[: m + 1], gm, m)
        comp[1] = comp[1] - one  # subtract the identity
        dcomp = _compose_trunc(dfa[: m + 1], gm, m)
        corr = _mul_trunc(comp, _recip_trunc(dcomp, m), m)
        g = [gm[k] - corr[k] for k in range(m + 1)]

    return TruncatedSeries(zero * 0, [f.base + zero] + g[1:])


def series_sqrt(f: TruncatedSeries) -> TruncatedSeries:
    """Square root of a series with constant term 1 (principal branch)."""
    if f.coeffs[0] != 1:
        raise ValueError("series square root requires constant term 1")
    zero = f._zero()
    one = zero + 1
    half = one / 2
    s = TruncatedSeries(f.base, [one] + [zero] * f.order)
    m = 1
    while True:
        s = (s + f / s) * half
        if m >= f.order:
            break
        m *= 2
    return s

"""Terminating hypergeometric evaluators: Pochhammer, binomial, Laguerre
and Jacobi polynomials.

Each term of a sum comes from the previous one by its term ratio
p_k / q_k, a quotient of small integers, so a value of degree n costs O(n)
multiplications.  The parameters (the Laguerre index, the Jacobi a and b)
are real: int, Fraction or float, a float taken exactly.

A real argument (int, Fraction, or float taken exactly) is split as r / s,
and ``_term_sum`` runs the Horner steps

    g_k = g_{k-1} p_k r,    acc_k = acc_{k-1} q_k s + g_k,    g_0 = acc_0 = 1,

on integer numerators.  acc_n = sum_k (p_1...p_k) (q_{k+1}...q_n) r^k
s^(n-k) is the sum over its term 0, times (q_1...q_n) s^n; it needs no
division, even where some q_k vanishes.  Each evaluator divides it once by
a denominator known in advance, (q_1...q_n) s^n over term 0 simplified:
n!^2 (d s)^n for Laguerre, e^n n!^2 s^n for Jacobi.  The value is that one
exact quotient: a Fraction, rounded once to binary64 when an input is a
float.  Exact sums have neither the cancellation of alternating terms nor
the overflow of intermediate powers (the value is representable long before
its largest term is).  Passing Fraction arguments therefore returns exact
values, which is the ground truth the floating path is tested against.

``laguerre`` and ``jacobi_poly`` take real arguments only and refuse a
Python complex with TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _ratio(v):
    """Integers (p, d), d > 0, with p / d equal to the real v."""
    if isinstance(v, float):
        return v.as_integer_ratio()
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    raise TypeError(f"expected a real int, Fraction or float, got {type(v).__name__}")


def _term_sum(ratios: list, r, s, den: int):
    """The terminating sum with term ratios (p_k / q_k) (r / s), k = 1..n, as
    the unreduced pair (acc_n, den s**n), where den s**n > 0 is
    (q_1...q_n) s**n over term 0."""
    g = acc = 1
    for p, q in ratios:
        g = g * (p * r)
        acc = acc * (q * s) + g
    return acc, den * s ** len(ratios)


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    The value is exact for int or Fraction ``a``.  Note (0)_k vanishes for
    every k >= 1 because the first factor is zero.
    """
    if k < 0:
        raise ValueError(f"pochhammer needs k >= 0, got {k}")
    out = a * 0 + 1
    for i in range(k):
        out = out * (a + i)
    return out


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; zero whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def laguerre(n: int, alpha, z):
    """Laguerre polynomial L_n^(alpha)(z) by its terminating sum
    sum_k (-1)^k C(n, k) (alpha+k+1)_{n-k} z^k / n!.

    Works for any real (or Fraction) index alpha, including the negative
    integer indices where L_m^(-m)(0) = 0 for m >= 1, and for a real z.
    Arguments are summed exactly and rounded once at the end.
    """
    acc, den = _laguerre_sum(n, alpha, z)
    # den > 0, so the int quotient is float(Fraction(acc, den)), +0.0 included
    return acc / den if isinstance(alpha, float) or isinstance(z, float) else Fraction(acc, den)


def _laguerre_sum(n: int, alpha, z):
    """The exact sum of :func:`laguerre`, as an unreduced pair (num, den > 0)."""
    if n < 0:
        raise ValueError(f"laguerre needs n >= 0, got {n}")
    p, d = _ratio(alpha)  # alpha = p / d
    r, s = _ratio(z)
    # coefficient k over coefficient k-1; q_k = 0 only at alpha = -k, where
    # every lower coefficient vanishes
    ratios = [((k - n - 1) * d, k * (p + k * d)) for k in range(1, n + 1)]
    return _term_sum(ratios, r, s, math.factorial(n) ** 2 * d**n)


def jacobi_poly(n: int, a, b, z):
    """Jacobi polynomial P_n^{a,b}(z) via the terminating 2F1 at (1-z)/2.

    Accepts a real z, summed exactly and rounded at the end.  For a in
    {-1, ..., -n} the 2F1 form has a vanishing denominator, and the sum
    still gives P_n^{a,b}, a polynomial in a.
    """
    if n < 0:
        raise ValueError(f"jacobi_poly needs n >= 0, got {n}")
    (pa, da), (pb, db) = _ratio(a), _ratio(b)
    e, A, B = da * db, pa * db, pb * da  # a = A / e, b = B / e
    scale = e**n * math.factorial(n) ** 2  # (a+1)_n / n! = (q_1...q_n) / scale
    r, s = _ratio(z)
    ratios = [((m - 1 - n) * (e * (n + m) + A + B), (A + e * m) * m) for m in range(1, n + 1)]
    acc, den = _term_sum(ratios, s - r, 2 * s, scale)  # (1-z)/2 = (s-r) / 2s
    return acc / den if any(isinstance(v, float) for v in (a, b, z)) else Fraction(acc, den)

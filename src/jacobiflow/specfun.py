"""Terminating hypergeometric evaluators: Pochhammer, binomial, Laguerre,
Charlier and Jacobi polynomials.

Each term of a sum comes from the previous one by its term ratio
p_k / q_k, a quotient of small integers, so a value of degree n costs O(n)
multiplications.  The parameters (the Laguerre index, the Jacobi a and b,
the Charlier x) are real: int, Fraction or float, a float taken exactly.

An exact argument (int, Fraction, float taken exactly, or GaussianRational)
is split as r / s, and the Horner steps

    g_k = g_{k-1} p_k r,    acc_k = acc_{k-1} q_k s + g_k,    g_0 = acc_0 = 1,

carry integer (or Gaussian) numerators.  acc_n = sum_k (p_1...p_k)
(q_{k+1}...q_n) r^k s^(n-k) is the sum over its term 0, times
(q_1...q_n) s^n; it needs no division, even where some q_k vanishes.  Each
evaluator divides it once by a denominator known in advance, (q_1...q_n)
s^n over term 0 simplified: n!^2 (d s)^n for Laguerre, e^n n!^2 s^n for
Jacobi, d^n n! s^n for Charlier.  The value is that one exact quotient: a
Fraction, rounded once to binary64 when an input is a float.  Exact sums
have neither the cancellation of alternating terms nor the overflow of
intermediate powers (the value is representable long before its largest
term is).  Passing Fraction (or GaussianRational) arguments therefore
returns exact values, which is the ground truth the floating path is tested
against.

A binary64 complex argument is summed in complex floating point, lowest
degree first: each exact coefficient, an integer quotient, is rounded once
and multiplied by the binary64 power of the argument.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _exact_div(num, den):
    """num / den, as a Fraction whenever both sides are exact integers."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def _ratio(v):
    """Integers (p, d), d > 0, with p / d equal to the real v."""
    if isinstance(v, float):
        return v.as_integer_ratio()
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    raise TypeError(f"expected a real int, Fraction or float, got {type(v).__name__}")


def _split(v):
    """(r, s) with v = r / s: integers for a real v, and v over the one of
    its own ring for an exact complex v such as a GaussianRational."""
    if isinstance(v, (int, Fraction, float)):
        return _ratio(v)
    return v, v**0


def _to_float(num: int, den: int) -> float:
    """num / den rounded once; equals float(Fraction(num, den)), +0.0 included."""
    return -num / -den if den < 0 else num / den


def _quotient(num, den, to_float: bool):
    """The exact value num / den, rounded once to binary64 when to_float."""
    if to_float and isinstance(num, int) and isinstance(den, int):
        return _to_float(num, den)
    out = _exact_div(num, den)
    return float(out) if to_float else out


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
    integer indices where L_m^(-m)(0) = 0 for m >= 1, and for complex z.
    Real arguments are summed exactly and rounded once at the end.
    """
    if n < 0:
        raise ValueError(f"laguerre needs n >= 0, got {n}")
    p, d = _ratio(alpha)  # alpha = p / d
    fact = math.factorial(n)
    binary = isinstance(z, complex)
    if binary:
        dn = d**n
        # coefficient k times d^n, from coefficient 0 = (alpha+1)_n
        num = math.prod(range(p + d, p + n * d + 1, d))
        total = z * 0 + num / dn  # term 0
    else:
        r, s = _split(z)
        g = acc = r**0
    for k in range(1, n + 1):
        # coefficient k over coefficient k-1; qk = 0 only at alpha = -k,
        # where every lower coefficient vanishes
        pk, qk = (k - n - 1) * d, k * (p + k * d)
        if binary:
            num = num * pk // qk if qk else (-1) ** k * fact // math.factorial(k)
            total = total + num / dn * z**k
        else:
            g = g * (pk * r)
            acc = acc * (qk * s) + g
    if binary:
        return total / fact
    to_float = isinstance(alpha, float) or isinstance(z, float)
    return _quotient(acc, fact * fact * (d * s) ** n, to_float)


def charlier(n: int, x, a):
    """Charlier polynomial C_n(x, a) = 2F0(-n, -x; -1/a) as a finite sum.

    Real arguments are summed exactly and rounded once at the end."""
    if n < 0:
        raise ValueError(f"charlier needs n >= 0, got {n}")
    if a == 0:
        raise ValueError("charlier parameter a must be nonzero")
    p, d = _ratio(x)  # x = p / d
    binary = isinstance(a, complex)
    if binary:
        u = -1 / a
        num = den = 1
        total = a * 0 + 1  # term 0
    else:
        r, s = _split(a)
        r, s = -s, r  # -1/a = r / s
        g = acc = r**0
    for j in range(1, n + 1):
        # (-n)_j (-x)_j / j! over its predecessor
        pj, qj = (j - 1 - n) * ((j - 1) * d - p), j * d
        if binary:
            num, den = num * pj, den * qj
            total = total + num / den * u**j
        else:
            g = g * (pj * r)
            acc = acc * (qj * s) + g
    if binary:
        return total
    to_float = isinstance(x, float) or isinstance(a, float)
    return _quotient(acc, d**n * math.factorial(n) * s**n, to_float)


def jacobi_poly(n: int, a, b, z):
    """Jacobi polynomial P_n^{a,b}(z) via the terminating 2F1 at (1-z)/2.

    Accepts complex z (pass a GaussianRational z for exact complex
    evaluation); real arguments are summed exactly and rounded at the end.
    As with the 2F1 form, a in {-1, ..., -n} raises ZeroDivisionError.
    """
    if n < 0:
        raise ValueError(f"jacobi_poly needs n >= 0, got {n}")
    (pa, da), (pb, db) = _ratio(a), _ratio(b)
    if da == 1 and -n <= pa <= -1:
        raise ZeroDivisionError(f"jacobi_poly: (a+1)_{n} vanishes at a = {a!r}")
    e, A, B = da * db, pa * db, pb * da  # a = A / e, b = B / e
    scale = e**n * math.factorial(n) ** 2  # (a+1)_n / n! = (q_1...q_n) / scale
    binary = isinstance(z, complex)
    if binary:
        half = (1 - z) / 2
        num = den = 1
        total = z * 0 + 1  # term 0
    else:
        r, s = _split(z)
        r, s = s - r, 2 * s  # (1-z)/2 = r / s
        g = acc = r**0
    for m in range(1, n + 1):
        # (-n)_m (n+a+b+1)_m / ((a+1)_m m!) over its predecessor
        pm, qm = (m - 1 - n) * (e * (n + m) + A + B), (A + e * m) * m
        if binary:
            num, den = num * pm, den * qm
            total = total + _to_float(num, den) * half**m
        else:
            g = g * (pm * r)
            acc = acc * (qm * s) + g
    if binary:
        return _to_float(den, scale) * total
    to_float = any(isinstance(v, float) for v in (a, b, z))
    return _quotient(acc, scale * s**n, to_float)

"""Independent mpmath reference for the benchmark's correctness checks.

Nothing here imports jacobiflow.  The disc-valued flow map is written out
from its formula,

    Phi(u) = alpha(phi(u)),  phi(u) = u^2 / (u^2 - kappa^2) * alpha_inv(xi(u)),
    xi(u) = (u - 1) / (u + 1) * e^{t u},

with the anchoring the package documents: kappa and t are the exact binary
values of the doubles, and e^{t u} = e^{t (u - 1)} / fl(e^{-t}) with the
once-rounded e^{-t}.  Two quantities are derived from it:

* the Taylor coefficients of the inverse flow 1 + sum c_n z^n about z = 0,
  by Lagrange inversion written as a contour integral,
  c_n = (1 / (2 pi i n)) * contour integral of dw / Phi(1 + w)^n;
  S_n = n c_n, b_n = sum_k C(2n, n-k) S_k and a_n = b_n / (n 4^n);
* M(z) = z / Phi'(u) with Phi(u) = z, where u is followed by Newton steps
  along the ray Phi(u) = s z, s from 0 to 1, starting at u = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from workloads import table_columns

DIGITS = 24  # significant digits kept for each stored a_n and S_n
AGREE = mp.mpf(10) ** -(DIGITS + 4)  # relative agreement of two evaluations
STEPS = 64  # continuation steps along the ray for M(z)
DPS = 40  # working digits for M(z)


def _flow_map(kappa: float, t: float):
    """Phi at the current working precision, anchored like the package."""
    kap = mp.mpf(float(kappa))
    tt = mp.mpf(float(t))
    growth = 1 / mp.mpf(math.exp(-float(t)))  # e^{t}, through the rounded e^{-t}
    eps = kap * kap

    def big_phi(u):
        xi = (u - 1) / (u + 1) * mp.exp(tt * (u - 1)) * growth
        ph = u * u / (u * u - eps) * 4 * xi / ((1 + xi) * (1 + xi))
        root = mp.sqrt(1 - ph)
        return (1 - root) / (1 + root)

    return big_phi


def _branch_distance(kappa: float, t: float) -> float:
    """First-order distance from u = 1 to the nearest singularity of Phi:
    the pole at u = kappa, or the branch point phi(u) = 1, which sits near
    |u - 1| = (1 - kappa^2) e^{-t} / 2 because phi'(1) = 2 e^t / (1 - kappa^2)."""
    return min(1 - abs(kappa), (1 - kappa * kappa) * math.exp(-t) / 2)


def _lagrange_s(kappa: float, t: float, n_max: int, radius, nodes: int, dps: int):
    """S_1..S_n_max by the trapezoidal rule on |w| = radius."""
    with mp.workdps(dps):
        big_phi = _flow_map(kappa, t)
        radius = mp.mpf(radius)
        acc = [mp.mpc(0)] * (n_max + 1)
        for j in range(nodes):
            w = radius * mp.expjpi(mp.mpf(2 * j) / nodes)
            inv = 1 / big_phi(1 + w)
            power = w  # dw / (2 pi i) = w dtheta / (2 pi)
            for n in range(1, n_max + 1):
                power *= inv
                acc[n] += power
        # S_n = n c_n = (1 / nodes) * sum_j w_j / Phi(1 + w_j)^n
        return [acc[n].real / nodes for n in range(1, n_max + 1)]


def _to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _a_and_s(kappa: float, t: float, n_max: int, radius_share: float, nodes: int, dps: int):
    s = _lagrange_s(kappa, t, n_max, radius_share * _branch_distance(kappa, t), nodes, dps)
    with mp.workdps(dps):
        a = [
            mp.fsum(math.comb(2 * n, n - k) * s[k - 1] for k in range(1, n + 1)) / (n * 4**n)
            for n in range(1, n_max + 1)
        ]
    return a, s


def coefficients(kappa: float, t: float, n_max: int) -> tuple[list[str], list[str]]:
    """(a_1..a_n_max, S_1..S_n_max) as decimal strings of DIGITS digits.

    a_n is formed from S_n at full working precision, because the binomial
    sum that leads from S to b cancels by up to 22 digits at n = 48.  Two
    evaluations on different circles, node counts and precisions must agree
    to better than the digits kept, and the stored digits must round to the
    same doubles as the full-precision values; otherwise ArithmeticError.
    """
    dps = 40 + 2 * n_max
    first = _a_and_s(kappa, t, n_max, 0.40, 320, dps)
    second = _a_and_s(kappa, t, n_max, 0.55, 448, dps + 20)
    digits = ([], [])
    with mp.workdps(dps):
        for kind, (xs, ys, out) in enumerate(zip(first, second, digits)):
            for n, (x, y) in enumerate(zip(xs, ys), start=1):
                if abs(x - y) > AGREE * abs(y):
                    raise ArithmeticError(
                        f"reference {'aS'[kind]}_{n} at kappa={kappa}, t={t} "
                        f"is unstable: {x} vs {y}"
                    )
                out.append(mp.nstr(y, DIGITS, min_fixed=0, max_fixed=0))
    exact = [[_to_fraction(v) for v in vs] for vs in second]
    if table_columns(*digits) != table_columns(*exact):
        raise ArithmeticError(f"{DIGITS} digits do not fix the doubles at kappa={kappa}, t={t}")
    return digits


def m_value(kappa: float, t: float, z: complex) -> complex:
    """M(z) = z (Phi^{-1})'(z), by root continuation along the ray from 0."""
    with mp.workdps(DPS):
        big_phi = _flow_map(kappa, t)
        target = mp.mpc(z)
        u = mp.mpc(1)
        tol = mp.mpf(10) ** (-DPS + 5)
        for i in range(1, STEPS + 1):
            goal = target * i / STEPS
            for _ in range(60):
                step = (big_phi(u) - goal) / mp.diff(big_phi, u)
                u -= step
                if abs(step) <= tol * abs(u):
                    break
            else:
                raise ArithmeticError(f"continuation stalled at s={i}/{STEPS}, z={z}")
        return complex(target / mp.diff(big_phi, u))

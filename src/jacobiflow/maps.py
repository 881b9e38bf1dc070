"""Conformal maps and Herglotz transforms driving the spectral flow.

Principal branches everywhere: every square root validates its argument
against the cut and fails loudly instead of switching sheets.  The inverse
Herglotz problem (find Z in the right half-plane Jordan domain with
xi(Z) = y) is solved by Newton iteration seeded from the Taylor series of
the transform.  Arguments beyond |y| = 0.5 are reached by radial
continuation: all of them walk outward along their own rays in lockstep,
one array-wide Newton solve per step.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .flow import FlowParams, _check_index, _exp_neg_t
from .powerseries import TruncatedSeries, series_sqrt
from .specfun import laguerre

NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
SEED_TERMS = 20
CONTINUATION_START = 0.5
CONTINUATION_STEP = 0.05


class DomainError(ValueError):
    """An argument left the domain of validity of a map (cut, pole, disc)."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the last iterate."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


# -- elementary maps ---------------------------------------------------------


def alpha(z) -> complex:
    """Riemann map of the cut plane C \\ [1, inf) onto the unit disc."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise DomainError(f"{z} lies on the branch cut [1, inf)")
    s = cmath.sqrt(1 - z)
    return (1 - s) / (1 + s)


def alpha_inv(z) -> complex:
    """Inverse of :func:`alpha`: 4 z / (1 + z)**2."""
    z = complex(z)
    return 4 * z / ((1 + z) * (1 + z))


def xi(t: float, z):
    """Exponential Cayley-type map (z - 1)/(z + 1) e^{t z}.

    Accepts complex scalars or arrays; pole at z = -1.
    """
    arr = np.asarray(z, dtype=complex)
    if np.any(arr == -1):
        raise DomainError("xi has a pole at z = -1")
    out = (arr - 1) / (arr + 1) * np.exp(t * arr)
    return complex(out) if arr.ndim == 0 else out


def k_series_coeff(t: float, n: int) -> float:
    """n-th Taylor coefficient of the Herglotz transform of the time-2t
    free unitary Brownian motion: 2 e^{-n t} L_{n-1}^{(1)}(2 n t) / n.

    The Laguerre factor alternates and cancels in binary64 for n beyond ~12,
    so it is evaluated in exact rationals at the dyadic argument and rounded
    once, together with the exact n-th power of the rounded e^{-t} =
    D / 2**delta: one integer quotient 2 D**n p / (q n 2**(delta n)), with
    p / q the Laguerre value.  Python's int / int is correctly rounded, as
    float(Fraction) is.  A t above 708.3964185322641 is refused.
    """
    n = _check_index(n)
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    t = float(t)
    big_d, delta = _exp_neg_t(t)
    lag = laguerre(n - 1, 1, 2 * n * Fraction(t))
    return 2 * big_d**n * lag.numerator / (lag.denominator * n << delta * n)


@lru_cache(maxsize=64)
def _seed_poly(t: float):
    coeffs = [k_series_coeff(t, n) for n in range(1, SEED_TERMS + 1)]
    return np.array(list(reversed(coeffs)) + [1.0], dtype=complex)


def _newton_solve(t, seeds, targets):
    Z = np.array(seeds, dtype=complex)
    for _ in range(NEWTON_MAX_ITER + 1):
        # xi and its derivative share e^{tZ} and Z + 1
        E = np.exp(t * Z)
        P = Z + 1
        F = (Z - 1) / P * E - targets
        done = np.abs(F) <= NEWTON_TOL
        if done.all():
            break
        Z = np.where(done, Z, Z - F / (E * (2 + t * (Z * Z - 1)) / (P * P)))
    else:
        raise ConvergenceError(
            "Newton inversion of the exponential map did not converge", last=Z
        )
    if np.any(Z.real <= 0):
        raise ConvergenceError("Newton iterate left the right half-plane", last=Z)
    return Z


def _continuation(t, y):
    # walk every point outward along its own ray from |y| = 0.5 in lockstep:
    # the points still short of their |y| share the radius r, and each step
    # is seeded by the previous solution
    radius = np.abs(y)
    phase = y / radius
    r = CONTINUATION_START
    target = r * phase
    Z = _newton_solve(t, np.polyval(_seed_poly(t), target), target)
    moving = radius > r
    while moving.any():
        r += CONTINUATION_STEP
        target = np.minimum(r, radius[moving]) * phase[moving]
        Z[moving] = _newton_solve(t, Z[moving], target)
        moving = radius > r
    return Z


def herglotz_k(t: float, y):
    """Herglotz transform K of the time-2t free unitary Brownian motion:
    the unique point of the right-half-plane Jordan domain with xi(K(y)) = y.

    Accepts complex scalars or arrays with entries in the open unit disc.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    arr = np.asarray(y, dtype=complex)
    flat = arr.reshape(-1)
    if not np.all(np.abs(flat) < 1):
        raise DomainError("Herglotz transform needs |y| < 1")
    out = np.empty(flat.shape, dtype=complex)
    small = np.abs(flat) <= CONTINUATION_START
    if small.any():
        pts = flat[small]
        out[small] = _newton_solve(t, np.polyval(_seed_poly(t), pts), pts)
    if not small.all():
        out[~small] = _continuation(t, flat[~small])
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


# -- flow maps ---------------------------------------------------------------


def v_deformed(params: FlowParams, z) -> complex:
    """Deformed Herglotz transform K(alpha[(1 - eps) alpha_inv(z)]).

    Bounded holomorphic on the disc with positive real part; coincides with
    the plain Herglotz transform when kappa = 0.
    """
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError("deformed transform needs |z| < 1")
    inner = (1 - float(params.epsilon)) * alpha_inv(z)
    return herglotz_k(float(params.t), alpha(inner))


def phi(params: FlowParams, z) -> complex:
    """Pre-inversion flow map z**2/(z**2 - kappa**2) alpha_inv(xi(t, z))."""
    z = complex(z)
    kap = float(params.kappa)
    if z == -1 or z == complex(kap) or z == complex(-kap):
        raise DomainError(f"{z} is a pole of the flow map")
    return z * z / (z * z - kap * kap) * alpha_inv(xi(float(params.t), z))


def big_phi(params: FlowParams, z) -> complex:
    """Disc-valued flow map alpha(phi(z)); vanishes at z = 1."""
    return alpha(phi(params, z))


def psi(params: FlowParams, z) -> complex:
    """Full flow on the disc: Cayley lift, axis deformation, then the
    disc-valued flow map."""
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError("flow argument must satisfy |z| < 1")
    kap = float(params.kappa)
    eps = kap * kap
    s = (1 + z) / (1 - z)
    a2 = eps + (1 - eps) * s * s
    a = cmath.sqrt(a2)
    denom = a2 - eps
    if denom == 0:
        raise DomainError("degenerate axis point")
    return alpha(a2 / denom * alpha_inv(xi(float(params.t), a)))


# -- contour kernels ---------------------------------------------------------


def r_func(z, w):
    """Principal square root of (1 - z)**2 + 4 w**2 z; near z = 0 it is
    close to 1.  Raises when the radicand touches (-inf, 0]."""
    zs = np.asarray(z, dtype=complex)
    ws = np.asarray(w, dtype=complex)
    v = (1 - zs) ** 2 + 4 * ws * ws * zs
    bad = (np.real(v) <= 0) & (np.imag(v) == 0)
    if np.any(bad):
        raise DomainError("branch argument reached (-inf, 0]; shrink the contour")
    out = np.sqrt(v)
    return complex(out) if (zs.ndim == 0 and ws.ndim == 0) else out


def y_func(z, w):
    """Kernel argument 4 z (1 - w**2) / (1 + z + R)**2 fed to the Herglotz
    transform; equals (1 + z - R)/(1 + z + R)."""
    zs = np.asarray(z, dtype=complex)
    ws = np.asarray(w, dtype=complex)
    rr = r_func(zs, ws)
    den = 1 + zs + rr
    if np.any(den == 0):
        raise DomainError("degenerate kernel denominator 1 + z + R = 0")
    out = 4 * zs * (1 - ws * ws) / (den * den)
    return complex(out) if (zs.ndim == 0 and ws.ndim == 0) else out


def m_zero(t: float, z):
    """Closed form of the derivative series in the symmetric case:
    (K**2 - 1) / (t K**2 + (2 - t)) with K the Herglotz transform."""
    K = herglotz_k(t, z)
    return (K * K - 1) / (t * K * K + (2 - t))


# -- Taylor expansions about the critical point ------------------------------


def phi_series(params: FlowParams, order: int, exact: bool = False) -> TruncatedSeries:
    """Taylor expansion of :func:`phi` about z = 1, built purely by
    power-series arithmetic (independent of the coefficient formulas).

    With ``exact=True`` the series is computed over Fractions, anchored at
    the same once-rounded dyadic e^{-t} the coefficient engine uses, so the
    only floating error in the comparison is the final rounding.
    """
    t = float(params.t)
    if exact:
        one = Fraction(1)
        tval = Fraction(t)
        big_d, delta = _exp_neg_t(t)
        expt = Fraction(1 << delta, big_d)
        kap2 = Fraction(params.kappa) ** 2
    else:
        one = 1.0 + 0j
        tval = complex(t)
        expt = complex(math.exp(t))
        kap2 = complex(float(params.kappa) ** 2)
    zvar = TruncatedSeries.variable(one * 1, order, one=one)
    expo = TruncatedSeries(
        one * 1, [expt * tval**k / math.factorial(k) for k in range(order + 1)]
    )
    xi_s = (zvar - 1) * (zvar + 1).reciprocal() * expo
    alpha_inv_s = 4 * xi_s * ((1 + xi_s) * (1 + xi_s)).reciprocal()
    pref = zvar * zvar * (zvar * zvar - kap2).reciprocal()
    return pref * alpha_inv_s


def big_phi_series(params: FlowParams, order: int, exact: bool = False) -> TruncatedSeries:
    """Taylor expansion of alpha(phi(z)) about z = 1; reverting it is the
    independent oracle for the inverted-flow coefficients."""
    v = phi_series(params, order, exact=exact)
    root = series_sqrt(1 - v)
    return v * ((1 + root) * (1 + root)).reciprocal()

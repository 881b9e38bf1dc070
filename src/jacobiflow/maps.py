"""Conformal maps and Herglotz transforms driving the spectral flow.

Principal branches everywhere: every square root validates its argument
against the cut and fails loudly instead of switching sheets.  The inverse
Herglotz problem (find Z in the right half-plane Jordan domain with
xi(Z) = y) is solved by Newton iteration seeded from the Taylor series of
the transform.  The seed's coefficients equal :func:`k_series_coeff`'s bit
for bit, but each is one integer quotient built from the three-term
Laguerre recurrence the coefficient engine runs, with no exact Laguerre sum
(``_seed_poly``).  One loop serves every argument: a first array-wide Newton
solve, seeded from the series, reaches y itself when |y| <= 0.5 and
0.5 y/|y| otherwise; the points beyond |y| = 0.5 then walk outward along
their own rays by predictor-corrector continuation (Allgower & Georg, ch. 2).
Each step is seeded by the tangent predictor K + (y1 - y0)/xi'(K), with the
slope xi'(K) left over from the Newton iteration that found K, and corrected
by Newton.  Every point keeps its own step: the first is 0.5, which reaches
y at once; a rejected step is halved for that point alone and an accepted
one doubled, and below 1/64 the point fails.  All points still moving share
one array-wide solve per round, and since no point's steps depend on the
others, K(y) does not depend on the batch y arrives in.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .flow import FlowParams, _check_index, _exp_neg_t, _laguerre_scaled
from .powerseries import TruncatedSeries, series_compose
from .specfun import _laguerre_sum

NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
SEED_TERMS = 20
CONTINUATION_START = 0.5
MAX_STEP = 0.5
MIN_STEP = 1 / 64


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

    Accepts complex scalars or arrays; pole at z = -1.  A scalar and the same
    point inside an array may differ by an ulp, as numpy's scalar complex
    arithmetic and its array loops round differently; :func:`herglotz_k`
    works on flat arrays only, so its K does not depend on the form.
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
    p / q the exact Laguerre sum, unreduced: Python's int / int is correctly
    rounded, as float(Fraction) is.  A t above 708.3964185322641 is refused.
    """
    n = _check_index(n)
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    t = float(t)
    big_d, delta = _exp_neg_t(t)
    num, den = _laguerre_sum(n - 1, 1, 2 * n * Fraction(t))
    return 2 * big_d**n * num / (den * n << delta * n)


@lru_cache(maxsize=64)
def _seed_poly(t: float):
    """The Taylor polynomial of K to order SEED_TERMS, highest power first.

    Its n-th coefficient is k_series_coeff(t, n), bit for bit: the same
    rational 2 D**n L / (n! 2**(tau (n-1) + delta n)) rounded once, with
    t = T / 2**tau and L = L_{n-1}^{(1)}(2nt) (n-1)! 2**(tau (n-1)) an
    integer from the Laguerre recurrence instead of an exact Laguerre sum.
    """
    t = float(t)
    big_t, t_den = t.as_integer_ratio()
    tau = t_den.bit_length() - 1
    big_d, delta = _exp_neg_t(t)
    coeffs = []
    for n in range(1, SEED_TERMS + 1):
        lag = _laguerre_scaled(2 * n * big_t, tau, n)[-1]  # carries (-1)**(n-1)
        num = 2 * big_d**n * (lag if n % 2 else -lag)
        coeffs.append(num / (math.factorial(n) << tau * (n - 1) + delta * n))
    return np.array(coeffs[::-1] + [1.0], dtype=complex)


def _newton_solve(t, seeds, targets):
    """Newton iteration for xi(Z) = targets from the seeds, each point on
    its own: one that meets the tolerance stays put while the others go on.

    Returns the iterates Z, the slopes xi'(Z) there, a mask of the points
    that converged, and the number of iterations, each one evaluation of xi
    on the batch (at most NEWTON_MAX_ITER + 1).
    """
    Z = np.array(seeds, dtype=complex)
    # a stray iterate may overflow e^{tZ}; it then fails its own test only
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, NEWTON_MAX_ITER + 2):
            # xi and its derivative share e^{tZ} and Z + 1
            E = np.exp(t * Z)
            P = Z + 1
            F = (Z - 1) / P * E - targets
            slope = E * (2 + t * (Z * Z - 1)) / (P * P)
            done = np.abs(F) <= NEWTON_TOL
            if done.all() or iterations > NEWTON_MAX_ITER:
                return Z, slope, done, iterations
            Z = np.where(done, Z, Z - F / slope)


def herglotz_k(t: float, y):
    """Herglotz transform K of the time-2t free unitary Brownian motion:
    the unique point of the right-half-plane Jordan domain with xi(K(y)) = y.

    Accepts complex scalars or arrays with entries in the open unit disc.
    Raises ConvergenceError when the first Newton solve fails at a point, or
    when a point's continuation step is rejected below ``MIN_STEP``: a step
    is rejected when Newton fails, the iterate leaves the right half-plane,
    or the corrector |Z - seed| exceeds the predictor increment |seed - K|.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    arr = np.asarray(y, dtype=complex)
    flat = arr.reshape(-1)
    radius = np.abs(flat)
    if not np.all(radius < 1):
        raise DomainError("Herglotz transform needs |y| < 1")
    # far points start at radius 0.5 on their own ray
    far = radius > CONTINUATION_START
    phase = np.divide(flat, radius, out=np.zeros_like(flat), where=far)
    reached = np.where(far, CONTINUATION_START * phase, flat)
    K, slope, ok, _ = _newton_solve(t, np.polyval(_seed_poly(t), reached), reached)
    if not ok.all():
        raise ConvergenceError(
            "Newton inversion of the exponential map did not converge", last=K
        )
    if np.any(K.real <= 0):
        raise ConvergenceError("Newton iterate left the right half-plane", last=K)
    # each far point walks on along its ray with a step of its own, from
    # reached = xi(K) to target
    r = np.full(flat.shape, CONTINUATION_START)
    step = np.full(flat.shape, MAX_STEP)
    moving = np.flatnonzero(far)
    while moving.size:
        r_next = np.minimum(r[moving] + step[moving], radius[moving])
        target = np.where(r_next < radius[moving], r_next * phase[moving], flat[moving])
        start = K[moving]
        seed = start + (target - reached[moving]) / slope[moving]
        Z, Z_slope, ok, _ = _newton_solve(t, seed, target)
        ok &= (Z.real > 0) & (np.abs(Z - seed) <= np.abs(seed - start))
        won, lost = moving[ok], moving[~ok]
        K[won], slope[won], reached[won] = Z[ok], Z_slope[ok], target[ok]
        r[won] = r_next[ok]
        step[won] = np.minimum(2 * step[won], MAX_STEP)
        step[lost] /= 2
        if np.any(step[lost] < MIN_STEP):
            raise ConvergenceError(
                f"Herglotz continuation step fell below {MIN_STEP}", last=Z[~ok]
            )
        moving = moving[r[moving] < radius[moving]]
    if arr.ndim == 0:
        return complex(K[0])
    return K.reshape(arr.shape)


# -- flow maps ---------------------------------------------------------------


def v_deformed(params: FlowParams, z):
    """Deformed Herglotz transform K(alpha[(1 - eps) alpha_inv(z)]).

    Bounded holomorphic on the disc with positive real part; coincides with
    the plain Herglotz transform when kappa = 0.  Accepts complex scalars or
    arrays; an array costs one :func:`herglotz_k` call, and each entry equals
    the scalar result bit for bit.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.abs(arr) < 1):
        raise DomainError("deformed transform needs |z| < 1")
    scale = 1 - float(params.epsilon)
    ys = [alpha(scale * alpha_inv(w)) for w in arr.ravel().tolist()]
    return herglotz_k(float(params.t), np.reshape(ys, arr.shape))


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


def _y_and_r(z, w):
    """The kernel argument y of :func:`y_func` and the root R = r_func(z, w)
    it is formed from, both as arrays."""
    zs = np.asarray(z, dtype=complex)
    ws = np.asarray(w, dtype=complex)
    rr = np.asarray(r_func(zs, ws))
    den = 1 + zs + rr
    if np.any(den == 0):
        raise DomainError("degenerate kernel denominator 1 + z + R = 0")
    return 4 * zs * (1 - ws * ws) / (den * den), rr


def y_func(z, w):
    """Kernel argument 4 z (1 - w**2) / (1 + z + R)**2 fed to the Herglotz
    transform; equals (1 + z - R)/(1 + z + R)."""
    out = _y_and_r(z, w)[0]
    return complex(out) if out.ndim == 0 else out


def m_zero(t: float, z):
    """Closed form of the derivative series in the symmetric case:
    (K**2 - 1) / (t K**2 + (2 - t)) with K the Herglotz transform."""
    K = herglotz_k(t, z)
    return (K * K - 1) / (t * K * K + (2 - t))


# -- Taylor expansions about the critical point ------------------------------


def phi_series(params: FlowParams, order: int) -> TruncatedSeries:
    """Taylor expansion of :func:`phi` about z = 1, built purely by
    power-series arithmetic (independent of the coefficient formulas).

    The coefficients are Fractions, anchored at the same once-rounded dyadic
    e^{-t} the coefficient engine uses, so the only floating error in a
    comparison with the engine is the final rounding.
    """
    t = float(params.t)
    big_d, delta = _exp_neg_t(t)
    expt = Fraction(1 << delta, big_d)
    one = Fraction(1)
    zvar = TruncatedSeries.variable(one, order, one=one)
    expo = TruncatedSeries(
        one, [expt * Fraction(t) ** k / math.factorial(k) for k in range(order + 1)]
    )
    xi_s = (zvar - 1) * (zvar + 1).reciprocal() * expo
    alpha_inv_s = 4 * xi_s * ((1 + xi_s) * (1 + xi_s)).reciprocal()
    pref = zvar * zvar * (zvar * zvar - Fraction(params.kappa) ** 2).reciprocal()
    return pref * alpha_inv_s


def big_phi_series(params: FlowParams, order: int) -> TruncatedSeries:
    """Taylor expansion of alpha(phi(z)) about z = 1, exact like
    :func:`phi_series`; reverting it is the independent oracle for the
    inverted-flow coefficients."""
    return _alpha_series(phi_series(params, order))


def _alpha_series(v: TruncatedSeries) -> TruncatedSeries:
    """alpha(v) = sum_{n>=1} Cat_n (v/4)**n of an exact series v vanishing at
    its base point: the Catalan generating function less 1, one composition."""
    cat = [Fraction(math.comb(2 * n, n), (n + 1) * 4**n) for n in range(1, v.order + 1)]
    return series_compose(TruncatedSeries(Fraction(0), [Fraction(0)] + cat), v)

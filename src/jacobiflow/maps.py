"""Conformal maps and Herglotz transforms driving the spectral flow.

Principal branches everywhere: every square root validates its argument
against the cut and fails loudly instead of switching sheets.  The inverse
Herglotz problem (find K in the right half-plane Jordan domain with
xi(K) = y) is solved for delta = K - 1, in the r-Lambert form
delta e^{t delta} / (2 + delta) = y e^{-t} (Mezo & Baricz 2017), so that no
formula forms K - 1 by cancellation; Newton stops at a residual relative to
|y e^{-t}|.  One loop serves every argument: each point starts at
K(0) = 1, delta = 0 with slope 1/2, and walks out along its own ray by
predictor-corrector continuation (Allgower & Georg, ch. 2).  Each step is
seeded by the tangent predictor delta + (u1 - u0)/g'(delta), with u the
right side and the slope g'(delta) left over from the Newton iteration that
found delta, and corrected by Newton.  Every point keeps its own step: the
first is 0.5, which reaches any |y| <= 0.5 at once; a rejected step is
halved for that point alone and an accepted one doubled, and below 1/64
the point fails.  All points still moving share one array-wide solve per
round, and since no point's steps depend on the others, K(y) does not
depend on the batch y arrives in.
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction

import numpy as np

from .flow import FlowParams, _check_index, _exp_neg_t, _t_scales
from .powerseries import TruncatedSeries, _mul_trunc, _recip_unit, series_compose
from .specfun import _laguerre_sum

REL_TOL = 1e-15
NEWTON_MAX_ITER = 50
MAX_STEP = 0.5
MIN_STEP = 1 / 64


class DomainError(ValueError):
    """An argument left the domain of validity of a map (cut, pole, disc)."""


class ConvergenceError(RuntimeError):
    """The Herglotz continuation failed to reach a point."""


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

    Accepts complex scalars or arrays; pole at z = -1.  A scalar is evaluated
    on numpy complex scalars, with no 0-d array, which would turn into such
    scalars after its first operation anyway.  A scalar and the same point
    inside an array may differ by an ulp, as numpy's scalar complex
    arithmetic and its array loops round differently; :func:`herglotz_k`
    works on flat arrays only, so its K does not depend on the form.
    """
    if isinstance(z, numbers.Number):
        z = np.complex128(z)
        if z == -1:
            raise DomainError("xi has a pole at z = -1")
        return complex((z - 1) / (z + 1) * np.exp(t * z))
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


def _newton_solve(t, seeds, targets):
    """Newton iteration for delta e^{t delta} / (2 + delta) = targets from
    the seeds, each point on its own: one whose residual is at most
    REL_TOL |target| stays put while the others go on.

    Returns the iterates delta, the slopes e^{t delta} (2 + t delta
    (2 + delta)) / (2 + delta)**2 there, a mask of the points that
    converged, and the number of iterations, each one evaluation on the
    batch (at most NEWTON_MAX_ITER + 1).
    """
    D = np.array(seeds, dtype=complex)
    tol = REL_TOL * np.abs(targets)
    # a stray iterate may overflow e^{t delta}; it then fails its own test only
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, NEWTON_MAX_ITER + 2):
            # the map and its derivative share e^{t delta} and 2 + delta
            E = np.exp(t * D)
            P = 2 + D
            H = D * E / P - targets
            slope = E * (2 + t * D * P) / (P * P)
            done = np.abs(H) <= tol
            if done.all() or iterations > NEWTON_MAX_ITER:
                return D, slope, done, iterations
            D = np.where(done, D, D - H / slope)


def _herglotz_delta(t: float, y):
    """delta = K(y) - 1 for :func:`herglotz_k`, without its cancellation.

    Raises ConvergenceError when a point's continuation step is rejected
    below ``MIN_STEP``: a step is rejected when Newton fails, the iterate
    leaves the right half-plane, or the corrector |delta - seed| exceeds
    the predictor increment |seed - start|.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    arr = np.asarray(y, dtype=complex)
    flat = arr.reshape(-1)
    radius = np.abs(flat)
    if not np.all(radius < 1):
        raise DomainError("Herglotz transform needs |y| < 1")
    big_d, delta = _exp_neg_t(t)  # refuses a t whose e^{-t} is not a normal float
    decay = math.ldexp(big_d, -delta)
    # a step is at least MIN_STEP, so the phase is read only where
    # radius > MIN_STEP; a subnormal |y| would overflow the division
    phase = np.divide(flat, radius, out=np.zeros_like(flat), where=radius > MIN_STEP)
    # every point starts at delta(0) = 0, where the slope is 1/2, and walks
    # out along its ray with a step of its own, from reached = u(r) to u(|y|)
    D = np.zeros_like(flat)
    slope = np.full(flat.shape, 0.5 + 0j)
    reached = np.zeros_like(flat)
    r = np.zeros(flat.shape)
    step = np.full(flat.shape, MAX_STEP)
    moving = np.arange(flat.size)
    while moving.size:
        r_next = np.minimum(r[moving] + step[moving], radius[moving])
        target = np.where(r_next < radius[moving], r_next * phase[moving], flat[moving]) * decay
        start = D[moving]
        seed = start + (target - reached[moving]) / slope[moving]
        found, found_slope, ok, _ = _newton_solve(t, seed, target)
        ok &= (found.real > -1) & (np.abs(found - seed) <= np.abs(seed - start))
        won, lost = moving[ok], moving[~ok]
        D[won], slope[won], reached[won] = found[ok], found_slope[ok], target[ok]
        r[won] = r_next[ok]
        step[won] = np.minimum(2 * step[won], MAX_STEP)
        step[lost] /= 2
        if np.any(step[lost] < MIN_STEP):
            raise ConvergenceError(f"Herglotz continuation step fell below {MIN_STEP}")
        moving = moving[r[moving] < radius[moving]]
    if arr.ndim == 0:
        return complex(D[0])
    return D.reshape(arr.shape)


def herglotz_k(t: float, y):
    """Herglotz transform K of the time-2t free unitary Brownian motion:
    the unique point of the right-half-plane Jordan domain with xi(K(y)) = y.

    Accepts complex scalars or arrays with entries in the open unit disc;
    K = 1 + delta, with delta from the continuation of the module docstring.
    Raises ConvergenceError when a point's continuation step is rejected
    below ``MIN_STEP``.
    """
    return 1 + _herglotz_delta(t, y)


# -- flow maps ---------------------------------------------------------------


def v_deformed(params: FlowParams, z):
    """Deformed Herglotz transform K(alpha[(1 - eps) alpha_inv(z)]).

    Bounded holomorphic on the disc with positive real part; coincides with
    the plain Herglotz transform when kappa = 0.  Accepts complex scalars or
    arrays; an array costs one :func:`herglotz_k` call, and each entry equals
    the scalar result bit for bit.
    """
    return herglotz_k(float(params.t), _v_argument(params, z))


def _v_argument(params: FlowParams, z) -> np.ndarray:
    """The Herglotz argument alpha[(1 - eps) alpha_inv(z)] of :func:`v_deformed`,
    an array of z's shape, so that a caller may solve it with other points."""
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.abs(arr) < 1):
        raise DomainError("deformed transform needs |z| < 1")
    scale = 1 - float(params.epsilon)
    ys = [alpha(scale * alpha_inv(w)) for w in arr.ravel().tolist()]
    return np.reshape(np.array(ys, dtype=complex), arr.shape)


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
    (K**2 - 1) / (t K**2 + (2 - t)) with K the Herglotz transform, formed
    from delta = K - 1 as delta (2 + delta) / (2 + t delta (2 + delta))."""
    return _m_of_delta(t, _herglotz_delta(t, z))


def _m_of_delta(t: float, D):
    """The closed form of ``m_zero`` from delta = K - 1, in that grouping."""
    D2 = D * (2 + D)
    return D2 / (2 + t * D2)


# -- Taylor expansions about the critical point ------------------------------


def phi_series(params: FlowParams, order: int) -> TruncatedSeries:
    """Taylor expansion of :func:`phi` about z = 1, built purely by
    power-series arithmetic (independent of the coefficient formulas).

    Exact, anchored at the once-rounded dyadic e^{-t} = D / 2**delta the
    engine uses.  With u = z - 1, xi = u/(2 + u) e^t e^{tu} and the partial
    fractions of z**2/(z**2 - kappa**2) are written term by term.  With
    kappa = K/q, a = q - K, b = q + K, t = T/2**tau and d = lcm(2**(tau+1)
    lcm(1..order) D, ab), d**k xi and (ab)**(k+1) times the prefactor are
    integer series, and coefficient k is one Fraction N_k/(ab d**k).
    """
    big_t, tau, big_d, delta = _t_scales(float(params.t))
    kap = Fraction(params.kappa)
    K, q = kap.numerator, kap.denominator
    a, b = q - K, q + K
    ab = a * b
    d = math.lcm(math.lcm(*range(1, order + 1)) * big_d << tau + 1, ab)
    # d**i [u**i] u/(2 + u) = -(-d/2)**i, d**j [u**j] e^t e^{tu} = 2**delta (t d)**j / (D j!);
    # term k of the prefactor carries (d/ab)**k, and its constant is ab + K**2 = q**2
    half, td, qd = d >> 1, big_t * (d >> tau), q * (d // ab)
    pref, cayley, expo = [q * q], [0], [1]
    ak, bk, qk = a, b, 1
    for k in range(1, order + 1):
        ak, bk, qk = ak * a, bk * b, -qk * qd
        pref.append(K * qk * (bk - ak) // 2)
        cayley.append(-cayley[-1] * half if k > 1 else half // big_d)
        expo.append(expo[-1] * td // k)
    xi_s = [x << delta for x in _mul_trunc(cayley, expo, order)]
    recip = _recip_unit([1] + xi_s[1:], order)
    alpha_inv_s = _mul_trunc([4 * x for x in xi_s], _mul_trunc(recip, recip, order), order)
    coeffs, den = [], ab
    for n in _mul_trunc(pref, alpha_inv_s, order):
        coeffs.append(Fraction(n, den))
        den *= d
    return TruncatedSeries(Fraction(1), coeffs)


def big_phi_series(params: FlowParams, order: int) -> TruncatedSeries:
    """Taylor expansion of alpha(phi(z)) about z = 1, exact like
    :func:`phi_series`; its reversion is the inverted-flow series, which
    ``verify`` forms as the reversion of phi composed with alpha_inv."""
    return _alpha_series(phi_series(params, order))


def _alpha_series(v: TruncatedSeries) -> TruncatedSeries:
    """alpha(v) = sum_{n>=1} Cat_n (v/4)**n of an exact series v vanishing at
    its base point: the Catalan generating function less 1, one composition."""
    cat = [Fraction(math.comb(2 * n, n), (n + 1) * 4**n) for n in range(1, v.order + 1)]
    return series_compose(TruncatedSeries(Fraction(0), [Fraction(0)] + cat), v)


def _alpha_inv_series(order: int) -> TruncatedSeries:
    """alpha_inv(w) = 4w/(1 + w)**2 = sum_{n>=1} 4 (-1)**(n-1) n w**n, exact, about 0."""
    return TruncatedSeries(Fraction(0), [Fraction(-4 * n * (-1) ** n) for n in range(order + 1)])

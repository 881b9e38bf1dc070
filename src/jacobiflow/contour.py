"""Circle-contour quadrature, the residue representation of the expansion
polynomials, and the contour-integral form of the derivative series.

Integrals are trapezoidal sums over uniformly spaced nodes (spectrally
accurate for analytic periodic integrands), with the sample count doubled
until two successive values agree to 1e-12.  Sums run in fixed index order,
so results are bit-reproducible regardless of how callers parallelize.

The doubled grids are nested: node 2k of the 2n-node grid is node k of the
n-node grid, bit for bit, since 2 pi (2k) / 2n = 2 pi k / n exactly in
binary64.  So the Herglotz kernel K is solved once per distinct node of a
circle: each doubling solves only its new odd nodes, and the nodes with K
are kept in a small bounded cache shared by the admissibility check, every
doubling of both integral forms, and the kernel checks.  The cached arrays
are read-only.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .flow import FlowParams
from .maps import DomainError, herglotz_k, r_func, y_func
from .report import VerifyEntry
from .specfun import jacobi_poly, laguerre

QUAD_TOL = 1e-12
MAX_SAMPLES = 2**16
ELLIPSE_PARAM = 0.5  # convergence ellipse for the Jacobi generating series
SEMI_MAJOR = (1 / ELLIPSE_PARAM + ELLIPSE_PARAM) / 2
SEMI_MINOR = (1 / ELLIPSE_PARAM - ELLIPSE_PARAM) / 2
KERNEL_MARGIN = 1e-8
NONVANISHING_FLOOR = 1e-10
MIN_RADIUS = 1e-6


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit the sample cap; carries the last two values."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


class NoAdmissibleContourError(RuntimeError):
    """No circle radius satisfies all kernel conditions at this point.

    Surfacing this (instead of retrying forever) is deliberate: the failure
    marks the obstruction to extending the derivative series further into
    the disc.  ``trail`` lists every radius tried, in order, with the first
    condition that rejected it (see :func:`admissible_contour`).
    """

    def __init__(self, message, trail=()):
        super().__init__(message)
        self.trail = list(trail)


@dataclass(frozen=True)
class ContourSpec:
    """Circle |w - center| = radius sampled at a power-of-two node count."""

    center: complex
    radius: float
    samples: int = 256

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        s = self.samples
        if s < 16 or s & (s - 1):
            raise ValueError(f"samples must be a power of two >= 16, got {s}")


def contour_nodes(spec: ContourSpec, count: int | None = None) -> np.ndarray:
    n = spec.samples if count is None else count
    theta = 2.0 * np.pi * np.arange(n) / n
    return spec.center + spec.radius * np.exp(1j * theta)


def _adaptive_quadrature(level, spec: ContourSpec):
    """(1/2 pi i) contour integral by doubling; ``level(n)`` returns the
    n nodes and the integrand's values there.  Returns (value, samples, delta)."""
    values = []
    n = spec.samples
    while n <= MAX_SAMPLES:
        w, fw = level(n)
        fw = np.asarray(fw, dtype=complex)
        if fw.shape != w.shape:
            raise ValueError("integrand must return one value per node")
        if not np.all(np.isfinite(fw)):
            raise ValueError("integrand is not finite at a sample point")
        values.append(complex(np.sum(fw * (w - spec.center)) / n))
        if len(values) >= 2:
            delta = abs(values[-1] - values[-2])
            if delta < QUAD_TOL:
                return values[-1], n, delta
        n *= 2
    raise QuadratureError(
        f"quadrature did not converge within {MAX_SAMPLES} samples",
        last_two=(values[-2], values[-1]),
    )


def circle_quadrature(f, spec: ContourSpec) -> complex:
    """(1/2 pi i) times the contour integral of f over the circle.

    ``f`` is called with an ndarray of nodes and must return matching values.
    """

    def level(n):
        w = contour_nodes(spec, n)
        return w, f(w)

    return _adaptive_quadrature(level, spec)[0]


def _kernel(t: float, z: complex, spec: ContourSpec, n: int):
    """Nodes w of the n-node grid of ``spec`` and K(y(z, w)) there, read-only."""
    # the key holds z's bit pattern, so z = x + 0j and x - 0j stay apart
    return _kernel_cached(t, struct.pack("<2d", z.real, z.imag), spec, n)


# eight grids hold the 256- and 512-node levels of a few points at once;
# an entry of 512 nodes keeps 16 KB
@lru_cache(maxsize=8)
def _kernel_cached(t, z_bits, spec, n):
    z = complex(*struct.unpack("<2d", z_bits))
    w = contour_nodes(spec, n)
    if n > spec.samples:
        # the even nodes are the n/2 grid's nodes; solve only the odd ones
        K = np.empty(n, dtype=complex)
        K[0::2] = _kernel_cached(t, z_bits, spec, n // 2)[1]
        K[1::2] = herglotz_k(t, y_func(z, w[1::2]))
    else:
        K = herglotz_k(t, y_func(z, w))
    w.flags.writeable = False
    K.flags.writeable = False
    return w, K


def pkm_residue(k: int, m: int, params: FlowParams, spec: ContourSpec) -> float:
    """Residue-integral evaluation of the expansion polynomials:

        kappa/(2 pi i) * integral of w**(m-1) (1 - w**2)**k / (w - kappa)**(m+1)

    over the circle, which equals (-1)**m P_k^(m)(eps).  For m = 0 the
    integrand has an extra pole at w = 0, so the circle must exclude the
    origin; the cross-check against the exact polynomials is the quadrature
    oracle of the whole contour machinery.
    """
    if k < 1 or m < 0:
        raise ValueError("pkm_residue needs k >= 1 and m >= 0")
    kap = float(params.kappa)
    if kap == 0.0:
        raise ValueError("the residue identity needs kappa != 0")
    if complex(spec.center) != complex(kap):
        raise ValueError("contour must be centered at kappa")
    if m == 0 and spec.radius >= abs(kap):
        raise ValueError("for m = 0 the circle must exclude the origin pole")

    def integrand(w):
        return w ** (m - 1) * (1 - w * w) ** k / (w - kap) ** (m + 1)

    return (kap * circle_quadrature(integrand, spec)).real


def _contour_admissible(t, kap, z, rho, samples):
    """None if the circle of radius rho around kappa passes conditions
    (i)-(vi) on its nodes, else the name of the first one it fails."""
    spec = ContourSpec(complex(kap), rho, samples)
    w = contour_nodes(spec)
    # (i) image of w -> 1 - 2 w**2 inside the convergence ellipse
    u = 1 - 2 * w * w
    if np.any((u.real / SEMI_MAJOR) ** 2 + (u.imag / SEMI_MINOR) ** 2 > 1):
        return "(i) ellipse"
    # (ii) branch argument stays off (-inf, 0]
    v = (1 - z) ** 2 + 4 * w * w * z
    if np.any((v.real <= 0) & (np.abs(v.imag) <= 1e-12)):
        return "(ii) branch cut"
    try:
        y = y_func(z, w)
        # (iii) kernel argument inside the disc
        if np.any(np.abs(y) >= 1):
            return "(iii) kernel argument"
        K = _kernel(t, z, spec, samples)[1]
    except DomainError:
        return "domain"
    # (iv) kernel zero set stays away from the circle
    if np.min(np.abs(w * K - kap)) <= KERNEL_MARGIN:
        return "(iv) kernel zero"
    # (v) origin excluded, needed whenever the 1/w integrand form is used
    if not rho < abs(kap):
        return "(v) origin"
    # (vi) geometric-series ratio below one; this is what makes the circle
    # enclose the kernel zero, so the integral picks up its residue
    if not np.max(np.abs(w * (1 - K) / (w - kap))) < 1:
        return "(vi) geometric ratio"
    return None


def admissible_contour(params: FlowParams, z) -> ContourSpec:
    """Search a circle radius around kappa satisfying all kernel conditions.

    Starts at min((1-|kappa|)/4, |kappa|/2) and halves, down to
    ``MIN_RADIUS``, until every check passes on the default
    ``ContourSpec.samples`` nodes.  Failure raises NoAdmissibleContourError,
    whose ``trail`` pairs each radius tried with the first condition that
    rejected it: "(i) ellipse" ... "(vi) geometric ratio", or "domain"
    when a map left its domain on the circle.  The caller is then near the
    kernel zero set and the representation genuinely stops being available.
    A Herglotz solve that does not converge is a numerical failure, not
    this obstruction, and propagates as ConvergenceError.
    """
    kap = float(params.kappa)
    if kap == 0.0:
        raise ValueError("contour search needs kappa != 0")
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError("target point must lie in the open unit disc")
    t = float(params.t)
    rho = min((1 - abs(kap)) / 4, abs(kap) / 2)
    trail = []
    while rho >= MIN_RADIUS:
        failed = _contour_admissible(t, kap, z, rho, ContourSpec.samples)
        if failed is None:
            return ContourSpec(complex(kap), rho)
        trail.append((rho, failed))
        rho /= 2
    raise NoAdmissibleContourError(
        f"no admissible circle around kappa={kap} for z={z}", trail
    )


@dataclass(frozen=True)
class IntegralResult:
    """Value of the contour integral plus the diagnostics collected along it."""

    value: complex
    form: str
    contour: ContourSpec
    samples: int
    quadrature_delta: float
    min_kernel_denominator: float
    geom_ratio_max: float


def m_integral_detailed(
    params: FlowParams, z, form: str = "corollary", spec: ContourSpec | None = None
) -> IntegralResult:
    """Contour-integral evaluation of the derivative series M at a point.

    ``corollary`` integrates K (K**2-1) / ([t K**2 + (2-t)][w K - kappa] R),
    which has no singularity at w = 0 and is the default; ``proposition``
    keeps the kappa/(w R) weight and is retained for cross-validation.
    Both carry the (1 - z) prefactor.
    """
    if form not in ("proposition", "corollary"):
        raise ValueError(f"unknown integral form {form!r}")
    kap = float(params.kappa)
    if kap == 0.0:
        raise ValueError("kappa = 0 has the closed form maps.m_zero")
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError("evaluation point must lie in the open unit disc")
    if spec is None:
        spec = admissible_contour(params, z)
    t = float(params.t)
    min_den = [math.inf]
    max_ratio = [0.0]

    def level(n):
        w, K = _kernel(t, z, spec, n)
        den = t * K * K + (2 - t)
        min_den[0] = min(min_den[0], float(np.min(np.abs(den))))
        max_ratio[0] = max(
            max_ratio[0], float(np.max(np.abs(w * (1 - K) / (w - kap))))
        )
        rr = r_func(z, w)
        core = (K * K - 1) / (den * (w * K - kap))
        if form == "corollary":
            return w, K * core / rr
        return w, core / (w * rr)

    value, samples, delta = _adaptive_quadrature(level, spec)
    scale = (1 - z) * (kap if form == "proposition" else 1.0)
    return IntegralResult(
        value=scale * value,
        form=form,
        contour=spec,
        samples=samples,
        quadrature_delta=delta,
        min_kernel_denominator=min_den[0],
        geom_ratio_max=max_ratio[0],
    )


def m_integral(params: FlowParams, z, form: str = "corollary") -> complex:
    """Value of the contour-integral representation of M at the point z."""
    return m_integral_detailed(params, z, form).value


# -- generating-function and kernel checks ------------------------------------


def laguerre_gen_check(m: int, t: float, y, n_terms: int = 120, tol: float = 1e-8) -> VerifyEntry:
    """Residual of the Laguerre generating identity

        2**(m+1) sum_{j>m} L_{j-m-1}^{(m+1)}(2jt) (e^{-t} y)^j
            = (K**2-1)/(t K**2 + 2-t) (K-1)**m,   K = K(y),

    from an n_terms partial sum on the left."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    y = complex(y)
    if abs(y) >= 0.95:
        raise DomainError("check needs |y| < 0.95")
    decay = cmath.exp(-t) * y
    lhs = 0j
    for j in range(m + 1, n_terms + 1):
        lhs += laguerre(j - m - 1, m + 1, 2.0 * j * t) * decay**j
    lhs *= 2 ** (m + 1)
    K = herglotz_k(t, y)
    rhs = (K * K - 1) / (t * K * K + (2 - t)) * (K - 1) ** m
    return VerifyEntry.make(
        "laguerre-generating", abs(lhs - rhs), tol, m=m, t=t, y=y, terms=n_terms
    )


def jacobi_gen_check(j: int, z, w, n_terms: int = 150, tol: float = 1e-8) -> VerifyEntry:
    """Residual of the Jacobi generating identity

        z**j sum_n P_n^{0,2j}(1 - 2 w**2) z**n
            = (4z)**j / (R (1 + z + R)**(2j)),

    together with its variant shifted by one degree (extra factor z)."""
    if j < 1:
        raise ValueError("j must be positive")
    z = complex(z)
    w = complex(w)
    if abs(z) > 0.3:
        raise DomainError("partial sums converge reliably only for |z| <= 0.3")
    arg = 1 - 2 * w * w
    vals = [jacobi_poly(n, 0, 2 * j, arg) for n in range(n_terms + 1)]
    acc = 0j
    for v in reversed(vals):
        acc = acc * z + v
    rr = r_func(z, w)
    rhs = (4 * z) ** j / (rr * (1 + z + rr) ** (2 * j))
    res_plain = abs(z**j * acc - rhs)
    shifted = 0j
    for n in range(j + 1, n_terms + 1):
        shifted += vals[n - j - 1] * z**n
    res_shifted = abs(shifted - z * rhs)
    return VerifyEntry.make(
        "jacobi-generating", max(res_plain, res_shifted), tol,
        j=j, z=z, w=w, terms=n_terms,
    )


def nonvanishing_check(params: FlowParams, z, spec: ContourSpec) -> VerifyEntry:
    """Minimum of |t K**2 + (2 - t)| over the contour nodes; the entry fails
    if this kernel denominator comes within ``NONVANISHING_FLOOR`` of zero."""
    z = complex(z)
    t = float(params.t)
    K = _kernel(t, z, spec, spec.samples)[1]
    min_abs = float(np.min(np.abs(t * K * K + (2 - t))))
    return VerifyEntry.make(
        "kernel-nonvanishing", max(0.0, NONVANISHING_FLOOR - min_abs), 0.0,
        min_abs=min_abs, floor=NONVANISHING_FLOOR, z=z, t=t,
    )


def geom_ratio_check(params: FlowParams, z, spec: ContourSpec) -> VerifyEntry:
    """Geometric-series ratio |w (1 - K) / (w - kappa)| must stay below one
    on the contour for the kernel resummation to be valid."""
    z = complex(z)
    kap = float(params.kappa)
    w, K = _kernel(float(params.t), z, spec, spec.samples)
    max_ratio = float(np.max(np.abs(w * (1 - K) / (w - kap))))
    return VerifyEntry.make(
        "geometric-ratio", max(0.0, max_ratio - 1.0), 0.0,
        max_ratio=max_ratio, z=z,
    )

"""Circle-contour quadrature, the residue representation of the expansion
polynomials, and the contour-integral form of the derivative series.

Integrals are trapezoidal sums over uniformly spaced nodes (spectrally
accurate for analytic periodic integrands), with the sample count doubled
until two successive values agree to 1e-12.  Sums run in fixed index order,
so results are bit-reproducible regardless of how callers parallelize.

The doubled grids are nested: node 2k of the 2n-node grid is node k of the
n-node grid, bit for bit, since 2 pi (2k) / 2n = 2 pi k / n exactly in
binary64.  So the Herglotz kernel K is solved once per distinct node of a
circle, as delta = K - 1, which every kernel formula here reads in place of
K so that none of them cancels.  Two levels must agree, so an accepted
circle always needs the first doubling: its 2n nodes are solved in one
call, and the n-node level is their even half, a strided view.  Each later
doubling solves only its new odd nodes.  The nodes with delta and the root
R = r_func(z, w), formed once with the kernel argument y, are kept in a
small bounded cache shared by the admissibility check, every doubling of
the integral (both forms in one pass), and the kernel checks.  The cached
arrays are read-only.
"""

from __future__ import annotations

import cmath
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .flow import FlowParams
from .maps import DomainError, _herglotz_delta, _m_of_delta, _y_and_r, r_func
from .report import VerifyEntry

QUAD_TOL = 1e-12
MAX_SAMPLES = 2**16
ELLIPSE_PARAM = 0.5  # convergence ellipse for the Jacobi generating series
SEMI_MAJOR = (1 / ELLIPSE_PARAM + ELLIPSE_PARAM) / 2
SEMI_MINOR = (1 / ELLIPSE_PARAM - ELLIPSE_PARAM) / 2
KERNEL_MARGIN = 1e-8
NONVANISHING_FLOOR = 1e-10
MIN_RADIUS = 1e-6


class QuadratureError(RuntimeError):
    """The circle quadrature failed in binary64: its radius is not a normal
    float, an integrand or its sum was not finite, a doubling put a node
    outside the kernel's domain, or the doubling hit the sample cap."""


class _OutsideDisc(DomainError):
    """A node's kernel argument y left the open unit disc: condition (iii)."""


class NoAdmissibleContourError(RuntimeError):
    """No radius among rho0 and its halvings passes (i)-(vi) at this point.

    The search tries no radius above rho0, so this does not prove that no
    admissible circle exists, nor that M stops being analytic there.
    ``trail`` lists every radius tried, in order, with the first condition
    that rejected it (see :func:`admissible_contour`).
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


def _circle(kap: float, rho: float, samples: int) -> ContourSpec:
    """The circle of radius rho around kappa; a radius below the least normal
    float cannot place the nodes, a numerical failure, not a ValueError."""
    if rho < sys.float_info.min:
        raise QuadratureError(f"the circle radius {rho} around kappa={kap} is not a normal float")
    return ContourSpec(complex(kap), rho, samples)


def contour_nodes(spec: ContourSpec, count: int | None = None) -> np.ndarray:
    n = spec.samples if count is None else count
    theta = 2.0 * np.pi * np.arange(n) / n
    return spec.center + spec.radius * np.exp(1j * theta)


def _adaptive_quadrature(level, spec: ContourSpec, groups=1, relative=False):
    """(1/2 pi i) contour integrals over one circle, by doubling, of
    ``groups`` groups of integrands.  ``level(n, live)`` returns the n nodes
    w and one complex array ``stack`` of the integrands' values on them for
    the still-live groups, ``live`` their ascending indices: ``stack`` has
    shape (live.size, integrands per group, n).  A group leaves at its
    first doubling where each of its integrands has moved by less than
    ``QUAD_TOL``; with ``relative``, by less than ``QUAD_TOL`` times the
    group's largest term |f(w) (w - center)| where that exceeds 1, since
    rounding alone moves a sum by about its largest term times the unit
    roundoff.  Returns (values, samples, delta) for each group, with delta
    the largest of its last moves."""
    out, live, previous, n = [None] * groups, np.arange(groups), None, spec.samples
    while live.size:
        if n > MAX_SAMPLES:
            raise QuadratureError(f"quadrature did not converge within {MAX_SAMPLES} samples")
        try:
            # an overflow or a zero division, in an integrand or in its sum,
            # shows as a value that is not finite
            with np.errstate(all="ignore"):
                w, stack = level(n, live)
                terms = stack * (w - spec.center)
                values = np.sum(terms, axis=-1) / n
        except DomainError as exc:
            # a doubling's new nodes, which no admissibility check has seen
            raise QuadratureError(f"{exc} at {n} nodes") from exc
        if not np.all(np.isfinite(values)):
            raise QuadratureError(f"integrand or its sum is not finite at {n} nodes")
        if previous is not None:
            moved = np.max(np.abs(values - previous), axis=1)
            scale = np.maximum(1.0, np.max(np.abs(terms), axis=(1, 2))) if relative else 1.0
            done = moved < QUAD_TOL * scale
            for group, vals, delta in zip(live[done], values[done], moved[done]):
                out[group] = (vals.tolist(), n, float(delta))
            live, values = live[~done], values[~done]
        previous, n = values, 2 * n
    return out


def circle_quadrature(f, spec: ContourSpec) -> complex:
    """(1/2 pi i) times the contour integral of f over the circle.

    ``f`` is called with an ndarray of nodes and must return matching values.
    """

    def level(n, live):
        w = contour_nodes(spec, n)
        fw = np.asarray(f(w), dtype=complex)
        if fw.shape != w.shape:
            raise ValueError("integrand must return one value per node")
        return w, fw[None, None]

    return _adaptive_quadrature(level, spec)[0][0][0]


def _kernel(t: float, z: complex, spec: ContourSpec, n: int):
    """Nodes w of the n-node grid of ``spec``, delta = K(y(z, w)) - 1 and
    R = r_func(z, w) there, all read-only."""
    # the key holds z's bit pattern, so z = x + 0j and x - 0j stay apart
    return _kernel_cached(t, struct.pack("<2d", z.real, z.imag), spec, n)


def _solve_nodes(t, z, w):
    """delta = K - 1 and R on the nodes w; y is formed once, and R with it."""
    y, R = _y_and_r(z, w)
    if np.any(np.abs(y) >= 1):
        raise _OutsideDisc("kernel argument left the unit disc on the circle")
    return _herglotz_delta(t, y), R


# eight grids hold the 256- and 512-node levels of a few points at once;
# an entry of 512 nodes keeps 24 KB, one of 256 nodes is a view into it
@lru_cache(maxsize=8)
def _kernel_cached(t, z_bits, spec, n):
    if n == spec.samples:
        # every accepted circle needs the first doubling: solve it in one
        # call, and take this grid as its even nodes
        w, D, R = _kernel_cached(t, z_bits, spec, 2 * n)
        return w[0::2], D[0::2], R[0::2]
    z = complex(*struct.unpack("<2d", z_bits))
    w = contour_nodes(spec, n)
    if n > 2 * spec.samples:
        # the even nodes are the n/2 grid's nodes; solve only the odd ones
        D = np.empty(n, dtype=complex)
        R = np.empty(n, dtype=complex)
        _, D[0::2], R[0::2] = _kernel_cached(t, z_bits, spec, n // 2)
        D[1::2], R[1::2] = _solve_nodes(t, z, w[1::2])
    else:
        D, R = _solve_nodes(t, z, w)
    for a in (w, D, R):
        a.flags.writeable = False
    return w, D, R


def pkm_residues(pairs, params: FlowParams, spec: ContourSpec) -> list:
    """Residue-integral evaluation of the expansion polynomials, for each
    (k, m) of ``pairs``:

        kappa/(2 pi i) * integral of w**(m-1) (1 - w**2)**k / (w - kappa)**(m+1)

    over the circle, which equals (-1)**m P_k^(m)(eps).  For m = 0 the
    integrand has an extra pole at w = 0, so the circle must exclude the
    origin; the cross-check against the exact polynomials is the quadrature
    oracle of the whole contour machinery.  It is integrated on the unit
    circle in u = (w - kappa)/rho: with c = kappa/rho and dw = rho du the
    integrand is c (c + u)**(m-1) (1 - w**2)**k / u**(m+1), every factor is
    of size 1, and none underflows or overflows at a tiny kappa.  On a wide
    circle at large k and m the terms still reach 1e5, where rounding alone
    moves a sum by more than ``QUAD_TOL``: the pairs stop relative to their
    largest term.

    Each pair is a group of :func:`_adaptive_quadrature` and leaves at its own
    first converged doubling; a level fills the live pairs' rows one m at a
    time.  Each power is formed once, with a scalar exponent: numpy squares
    ``w ** 2`` by its own path."""
    if any(k < 1 or m < 0 for k, m in pairs):
        raise ValueError("pkm_residues needs k >= 1 and m >= 0")
    kap = float(params.kappa)
    if kap == 0.0:
        raise ValueError("the residue identity needs kappa != 0")
    if complex(spec.center) != complex(kap):
        raise ValueError("contour must be centered at kappa")
    if any(m == 0 for _, m in pairs) and spec.radius >= abs(kap):
        raise ValueError("for m = 0 the circle must exclude the origin pole")
    all_ks, all_ms = np.array(pairs, dtype=int).reshape(-1, 2).T
    rho, unit = spec.radius, ContourSpec(0j, 1.0, spec.samples)
    c = kap / rho

    def level(n, live):
        u = contour_nodes(unit, n)
        w = spec.center + rho * u  # the nodes of spec, bit for bit
        ks, ms = all_ks[live], all_ms[live]
        one_minus_w2 = 1 - w * w
        k_pow = {k: one_minus_w2**k for k in set(ks.tolist())}
        stack = np.empty((live.size, 1, n), dtype=complex)
        for m in set(ms.tolist()):
            at = ms == m
            rows = np.array([k_pow[k] for k in ks[at].tolist()])
            stack[at, 0] = c * (c + u) ** (m - 1) * rows / u ** (m + 1)
        return u, stack

    groups = _adaptive_quadrature(level, unit, len(pairs), relative=True)
    return [values[0].real for values, _, _ in groups]


def _contour_admissible(t, kap, z, rho):
    """None if the circle of radius rho around kappa passes conditions
    (i)-(vi) on its nodes, else the name of the first one it fails."""
    spec = _circle(kap, rho, ContourSpec.samples)
    w = contour_nodes(spec)
    # (i) image of w -> 1 - 2 w**2 inside the convergence ellipse
    u = 1 - 2 * w * w
    if np.any((u.real / SEMI_MAJOR) ** 2 + (u.imag / SEMI_MINOR) ** 2 > 1):
        return "(i) ellipse"
    # (ii) branch argument stays off (-inf, 0]
    v = (1 - z) ** 2 + 4 * w * w * z
    if np.any((v.real <= 0) & (np.abs(v.imag) <= 1e-12)):
        return "(ii) branch cut"
    # delta = K - 1 comes from one solve on the first doubled grid, which an
    # accepted circle's quadrature needs next; (iii) holds on all its nodes,
    # and (iv) and (vi) read delta on the even ones, these samples
    try:
        D = _kernel(t, z, spec, spec.samples)[1]
    except _OutsideDisc:
        # (iii) kernel argument inside the disc
        return "(iii) kernel argument"
    except DomainError:
        return "domain"
    # (iv) kernel zero set stays away from the circle, relative to |kappa|:
    # w K - kappa = (w - kappa) + w delta
    if np.min(np.abs((w - kap) + w * D)) <= KERNEL_MARGIN * abs(kap):
        return "(iv) kernel zero"
    # (v) origin excluded, needed whenever the 1/w integrand form is used
    if not rho < abs(kap):
        return "(v) origin"
    # (vi) geometric-series ratio below one; this is what makes the circle
    # enclose the kernel zero, so the integral picks up its residue;
    # its numerator is w delta = w (K - 1) up to sign
    if not np.max(np.abs(w * D / (w - kap))) < 1:
        return "(vi) geometric ratio"
    return None


def admissible_contour(params: FlowParams, z) -> ContourSpec:
    """Search a circle radius around kappa satisfying all kernel conditions.

    Tries rho0 = min((1-|kappa|)/4, |kappa|/2) first, even below
    ``MIN_RADIUS``, then halves while the radius is at least ``MIN_RADIUS``,
    until every check passes on the default ``ContourSpec.samples`` nodes;
    (iii) is checked on the twice as many nodes of the first doubling.
    Failure raises NoAdmissibleContourError, whose ``trail`` pairs each
    radius tried with the first condition that rejected it: "(i) ellipse"
    ... "(vi) geometric ratio", or "domain" when a map left its domain on
    the circle.  Then no radius among rho0 and its halvings passes
    (i)-(vi); a wider circle may still pass.
    A Herglotz solve that does not converge is a numerical failure, not
    this search failure, and propagates as ConvergenceError.
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
    while rho >= MIN_RADIUS or not trail:
        failed = _contour_admissible(t, kap, z, rho)
        if failed is None:
            return ContourSpec(complex(kap), rho)
        trail.append((rho, failed))
        rho /= 2
    raise NoAdmissibleContourError(
        f"no admissible circle around kappa={kap} for z={z}", trail
    )


@dataclass(frozen=True)
class IntegralResult:
    """Both forms of the contour integral on one circle, and its diagnostics."""

    corollary: complex
    proposition: complex
    contour: ContourSpec
    samples: int
    quadrature_delta: float
    min_kernel_denominator: float
    geom_ratio_max: float


def m_integral_detailed(params: FlowParams, z) -> IntegralResult:
    """M at z from the contour integral on the admissible circle, in both
    forms from one run of doublings.  ``corollary`` integrates
    K (K**2-1) / ([t K**2 + (2-t)][w K - kappa] R), with no singularity at
    w = 0; ``proposition`` keeps the kappa/(w R) weight, as a cross-check.
    Both carry the (1 - z) prefactor.  Each factor is formed from
    delta = K - 1, so none cancels: K**2 - 1 = delta (2 + delta),
    t K**2 + (2-t) = 2 + t delta (2 + delta) and w K - kappa =
    (w - kappa) + w delta.  The grids are nested, so the diagnostics read
    on the last grid cover every level."""
    kap = float(params.kappa)
    if kap == 0.0:
        raise ValueError("kappa = 0 has the closed form maps.m_zero")
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError("evaluation point must lie in the open unit disc")
    spec = admissible_contour(params, z)
    t = float(params.t)

    def level(n, live):
        w, D, rr = _kernel(t, z, spec, n)
        D2 = D * (2 + D)
        core = D2 / ((2 + t * D2) * ((w - kap) + w * D))
        # kappa goes inside: QUAD_TOL is absolute, and the rest is of size 1/|kappa|
        return w, np.array([[(1 + D) * core / rr, kap * core / (w * rr)]])

    # one group of both forms: they stop together, at one node count
    [((cor, prop), samples, delta)] = _adaptive_quadrature(level, spec)
    w, D, _ = _kernel(t, z, spec, samples)
    return IntegralResult(
        corollary=(1 - z) * cor,
        proposition=(1 - z) * prop,
        contour=spec,
        samples=samples,
        quadrature_delta=delta,
        min_kernel_denominator=float(np.min(np.abs(2 + t * D * (2 + D)))),
        geom_ratio_max=float(np.max(np.abs(w * D / (w - kap)))),
    )


def m_integral(params: FlowParams, z, form: str = "corollary") -> complex:
    """M at z from the contour integral in one form of :func:`m_integral_detailed`."""
    if form not in ("proposition", "corollary"):
        raise ValueError(f"unknown integral form {form!r}")
    return getattr(m_integral_detailed(params, z), form)


# -- generating-function and kernel checks ------------------------------------


def _laguerre_diagonal(ms, t: float, n_terms) -> list:
    """A row L_d^{(a)}(2 j t), a = m + 1 and d = j - a, for j = a, ..., n, for
    each m of ``ms`` and n of ``n_terms``: one pass of the forward recurrence
    in the degree (DLMF 18.9.13) at every x = 2 j t of every row at once,
    (d+1) L_{d+1} = (2d + a + 1 - x) L_d - (d + a) L_{d-1}, with a a column
    and the rows zero-padded.  Both factors are formed for every d before the
    loop, each rounded as in the step.  Degrees past the one read may
    overflow, to no harm."""
    sizes = [max(n - m, 0) for m, n in zip(ms, n_terms)]
    a = np.array([[m + 1] for m in ms])
    x = np.zeros((len(sizes), max(sizes)))
    for row, m, size in zip(x, ms, sizes):
        row[:size] = 2.0 * np.arange(m + 1, m + 1 + size) * t
    degrees = np.arange(x.shape[1])[:, None, None]
    rise, fall = 2 * degrees + a + 1 - x, degrees + a
    prev, cur, out = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(x.shape[1]):
            out[:, d] = cur[:, d]
            prev, cur = cur, (rise[d] * cur - fall[d] * prev) / (d + 1)
    return [row[:size] for row, size in zip(out, sizes)]


def laguerre_gen_checks(specs, t: float) -> list:
    """Residual of the Laguerre generating identity

        2**(m+1) sum_{j>m} L_{j-m-1}^{(m+1)}(2jt) (e^{-t} y)^j
            = (K**2-1)/(t K**2 + 2-t) (K-1)**m,   K = K(y),

    at one t for each (m, y, n_terms, tol) of ``specs``, from an n_terms
    partial sum on the left.  The L of every spec come from one stacked
    pass of the binary64 recurrence of :func:`_laguerre_diagonal`, and
    delta = K - 1 at every y from one solve; the right side is
    delta (2 + delta) / (2 + t delta (2 + delta)) delta**m.

    At large t the recurrence overflows where (e^{-t} y)**j is already 0,
    and inf * 0 is NaN: the sum stops at the first term that is not
    finite, and the entry then gives the number of terms it summed."""
    ms, ys, n_terms, tols = zip(*specs)
    ys = [complex(y) for y in ys]
    if any(m < 0 for m in ms):
        raise ValueError("m must be nonnegative")
    if any(abs(y) >= 0.95 for y in ys):
        raise DomainError("check needs |y| < 0.95")
    rows = _laguerre_diagonal(ms, t, n_terms)
    ds = _herglotz_delta(t, np.array(ys)).tolist()
    out = []
    for m, y, terms, tol, row, D in zip(ms, ys, n_terms, tols, rows, ds):
        decay = cmath.exp(-t) * y
        lhs, summed = 0j, {}
        for j, lag in enumerate(row.tolist(), m + 1):
            term = lag * decay**j
            if not cmath.isfinite(term):
                summed = {"summed": j - m - 1}
                break
            lhs += term
        lhs *= 2 ** (m + 1)
        rhs = _m_of_delta(t, D) * D**m
        out.append(VerifyEntry.make("laguerre-generating", abs(lhs - rhs), tol,
                                    m=m, t=t, y=y, terms=terms, **summed))
    return out


def _jacobi_row(n_max: int, a: int, b: int, x):
    """P_0^{a,b}(x), ..., P_{n_max}^{a,b}(x) for integers a, b >= 0 and a
    binary64 real or complex x, by the forward three-term recurrence (DLMF
    18.9.2)

        2 (n+1) (n+a+b+1) c P_{n+1}
            = (c+1) (c (c+2) x + a**2 - b**2) P_n - 2 (n+a) (n+b) (c+2) P_{n-1},

    with c = 2n + a + b.  Each integer factor is exact, so a step rounds
    only its few products; no alternating sum cancels."""
    row = [x * 0 + 1, ((a + b + 2) * x + a - b) / 2]
    for n in range(1, n_max):
        c = 2 * n + a + b
        nxt = (c + 1) * (c * (c + 2) * x + a * a - b * b) * row[n]
        nxt -= 2 * (n + a) * (n + b) * (c + 2) * row[n - 1]
        row.append(nxt / (2 * (n + 1) * (n + a + b + 1) * c))
    return row[: n_max + 1]


def jacobi_gen_check(j: int, z, w, n_terms: int = 150, tol: float = 1e-8) -> VerifyEntry:
    """Residual of the Jacobi generating identity

        z**j sum_n P_n^{0,2j}(1 - 2 w**2) z**n
            = (4z)**j / (R (1 + z + R)**(2j)),

    together with its variant shifted by one degree (extra factor z).  The
    P_n come in one row from the binary64 recurrence of :func:`_jacobi_row`;
    the tests compare that row with exact values."""
    if j < 1:
        raise ValueError("j must be positive")
    z = complex(z)
    w = complex(w)
    if abs(z) > 0.3:
        raise DomainError("partial sums converge reliably only for |z| <= 0.3")
    vals = _jacobi_row(n_terms, 0, 2 * j, 1 - 2 * w * w)
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
    """Minimum of |t K**2 + (2 - t)| = |2 + t delta (2 + delta)| over the
    contour nodes; the entry fails if this kernel denominator comes within
    ``NONVANISHING_FLOOR`` of zero."""
    z = complex(z)
    t = float(params.t)
    D = _kernel(t, z, spec, spec.samples)[1]
    min_abs = float(np.min(np.abs(2 + t * D * (2 + D))))
    return VerifyEntry.make(
        "kernel-nonvanishing", max(0.0, NONVANISHING_FLOOR - min_abs), 0.0,
        min_abs=min_abs, floor=NONVANISHING_FLOOR, z=z, t=t,
    )

"""Full cross-validation suite: every closed form against its independent
oracle, every branch and kernel condition on explicit grids.

``run_checks`` is the one definition of each named check: the test suite
asserts its entries over a grid of parameters, and the command line re-runs
them for arbitrary ones.  ``fast`` keeps the grids small; ``full`` runs
acceptance-sized ones.  Every entry reads kappa or t; a check that reads
neither is a tier-1 test, since its result never depends on the run's input.
A run expands phi about z = 1 once, exactly, and hands truncations of it to
every check that reads it.  The reversion oracle reverts phi and composes
that with alpha_inv's integer series: (alpha o phi)^-1 = phi^-1 o alpha_inv.
The map layer's Herglotz points, from K(0) to the arguments of v_deformed,
are solved in one continuation and split back per check; each K is the one
a call of its own would give, since the continuation moves every point on
its own.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from . import contour, flow, maps, powerseries
from .powerseries import TruncatedSeries, series_compose, series_derive, series_revert
from .report import VerifyReport


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _lagrange_inverse(f: TruncatedSeries) -> list:
    """Coefficients 1, ..., order of the compositional inverse of the exact
    series f = c_1 w + c_2 w**2 + ..., by Lagrange: (1/n) [w^(n-1)] (w/f)^n.
    With f = n_1**2 H(w / (d n_1)), H on integers and H_1 = 1
    (``powerseries._integer_form``), w/H and its powers are integers, the
    division by n is exact, and [w**n] f^-1 = d [w^(n-1)] (w/H)**n / (n n_1**(2n-1))."""
    d, n_1, h = powerseries._integer_form(f.coeffs)
    top = f.order - 1
    ratio = powerseries._recip_unit(h[1:], top)
    power, out = ratio, [Fraction(d, n_1)]
    for n in range(2, f.order + 1):
        power = powerseries._mul_trunc(power, ratio, top)
        out.append(Fraction(d * (power[n - 1] // n), n_1 ** (2 * n - 1)))
    return out


def _check_flow_kappa(rep: VerifyReport, kappa: float):
    kap_exact = Fraction(kappa)
    p = flow.FlowParams(kap_exact, 1.0)
    moments = flow.jacobi_moments([Fraction(1)] * 16, p, 16)
    want = (1 + kap_exact) / 2
    worst = max(abs(m - want) for m in moments)
    rep.check("moment-expansion-constant", float(worst), 0.0, kappa=kappa)


# -- oracles for the coefficient formulas --------------------------------------


def _check_oracles(rep: VerifyReport, params: flow.FlowParams, phi_s, k_coeffs, full: bool):
    n_max = 10 if full else 6
    # truncated products leave the low coefficients alone, so the extraction
    # reads phi_s cut to the order it needs
    worst = 0.0
    cut = TruncatedSeries(phi_s.base, phi_s.coeffs[: n_max + 1])
    # a_n and b_n = n 4**n a_n, each rounded once from the exact a_n
    for n, lagrange in enumerate(_lagrange_inverse(cut), 1):
        worst = max(worst, _rel(float(lagrange), flow.a_coeff(params, n)),
                    _rel(float(n * 4**n * lagrange), flow.b_coeff(params, n)))
    rep.check("lagrange-inversion-oracle", worst, 0.0, n_max=n_max)

    order = phi_s.order
    oracle = series_compose(series_revert(phi_s), maps._alpha_inv_series(order))
    closed = flow.phi_inv_coeffs(params, order)
    worst = max(_rel(float(a), b) for a, b in zip(oracle.coeffs, closed.coeffs))
    rep.check("reversion-oracle", worst, 0.0, order=order,
              kappa=params.kappa, t=params.t)

    # symmetric-case reduction to the first 16 Herglotz coefficients
    t = float(params.t)
    inv0 = flow.phi_inv_coeffs(flow.FlowParams(0.0, t), 16)
    worst = max(_rel(a, b) for a, b in zip(inv0.coeffs[1:], k_coeffs))
    rep.check("kzero-closed-form", worst, 0.0, t=t)

    # S_n: the derivative of the exact oracle, n (S_n/n), against the engine
    mser = flow.m_series_coeffs(params, order)
    worst = max(_rel(float(a), b) for a, b in zip(series_derive(oracle).coeffs, mser.coeffs[1:]))
    rep.check("m-series-two-routes", worst, 0.0, order=order, note="sum starts at n=1")


# -- conformal maps -------------------------------------------------------------


def _check_maps(rep: VerifyReport, params: flow.FlowParams, phi_s, k_coeffs, full: bool):
    t = float(params.t)
    kap = float(params.kappa)

    # the points of every Herglotz check below, solved in one call: K(y) does
    # not depend on the batch y arrives in
    radii = (0.1, 0.3, 0.5, 0.7, 0.9)
    angles = np.linspace(0.0, 2 * np.pi, 12 if full else 8, endpoint=False)
    grid = [r * cmath.exp(1j * ang) for r in radii for ang in angles]
    series_ys = [0.2, -0.3, 0.15 + 0.2j, 0.3j]
    # xi point by point: numpy's vector loops may round array entries differently;
    # at large t, e^{tZ} overflows at a Z whose xi lies far off the disc anyway
    with np.errstate(over="ignore", invalid="ignore"):
        left = {Z: maps.xi(t, Z) for Z in (1.0, 1.1, 0.9 + 0.1j, 1.05 - 0.15j)}
    Zs = [Z for Z, y in left.items() if abs(y) < 1]
    # V(0), at kappa = 0 two points against K, and the radius x angle grid
    kz = [0.3, -0.2 + 0.4j] if kap == 0.0 else []
    rs = (0.5, 0.9, 0.95) if full else (0.5, 0.9)
    zs = [0.0] + kz + [r * cmath.exp(1j * ang) for r in rs for ang in angles]
    parts = [[0.0], grid, [y.conjugate() for y in grid], series_ys, [left[Z] for Z in Zs], kz,
             maps._v_argument(params, zs).tolist()]
    ks = iter(maps.herglotz_k(t, np.array([*itertools.chain(*parts)], dtype=complex)).tolist())
    [k0], ks_grid, ks_conj, ks_series, ks_left, ks_kz, vs = (
        list(itertools.islice(ks, len(part))) for part in parts)

    worst = abs(k0 - 1.0)
    pos = math.inf
    sym = 0.0
    for y, K, Kc in zip(grid, ks_grid, ks_conj):
        worst = max(worst, abs(maps.xi(t, K) - y))
        pos = min(pos, K.real)
        sym = max(sym, abs(Kc - K.conjugate()))
    rep.check("herglotz-inverse-grid", worst, 1e-11, t=t)
    rep.check("herglotz-positivity", max(0.0, -pos), 0.0, min_real=pos)
    rep.check("herglotz-conjugate-symmetry", sym, 1e-12)

    worst = 0.0
    for y, K in zip(series_ys, ks_series):
        partial = 1.0 + sum(c * y**n for n, c in enumerate(k_coeffs, start=1))
        worst = max(worst, abs(partial - K))
    rep.check("herglotz-series-agreement", worst, 1e-10, t=t)

    worst = max((abs(K - Z) for K, Z in zip(ks_left, Zs)), default=0.0)
    rep.check("herglotz-left-inverse", worst, 1e-11, t=t)

    res = abs(vs[0] - 1.0)
    if kz:
        res = max(res, abs(vs[1] - ks_kz[0]), abs(vs[2] - ks_kz[1]))
    ring = vs[1 + len(kz):]
    vmin = min(v.real for v in ring)
    vmax = max(abs(v) for v in ring)
    rep.check("v-deformed-values", res, 1e-12, kappa=kap)
    rep.check("v-deformed-positivity", max(0.0, -vmin), 0.0,
              min_real=vmin, max_abs=vmax)

    # critical point: phi(1) = 0 and a nonzero derivative there
    res = abs(maps.phi(params, 1.0))
    # phi has a pole at |kappa|: the step stays 1e-3 of the distance to it
    h = min(1e-6, 1e-3 * (1 - abs(kap)))
    fd = (maps.phi(params, 1 + h) - maps.phi(params, 1 - h)) / (2 * h)
    c1 = float(phi_s.coeffs[1])
    rep.check("phi-critical-point", res + _rel(fd, c1), 1e-5, derivative=c1)

    # the flow is only locally defined: walk down to a z where the whole
    # composition chain stays off the cut
    # the entry names the z whose term sets the residual, the later one on a tie
    res, z_worst = abs(maps.psi(params, 0.0)), 0.0
    s_of = lambda z: (1 + z) / (1 - z)
    evaluated = 0
    # at large t, e^{ts} and e^{ta} overflow for |s|, |a| > 1: the chain leaves
    # binary64 there, and that z is skipped like one off the cut
    with np.errstate(over="ignore", invalid="ignore"):
        if kap == 0.0:
            # the chain collapses onto xi(s) only while xi(s) stays in the
            # disc; a non-finite xi(s) is off it
            for z in (0.1, 0.05, 0.02, 0.005):
                y = maps.xi(t, s_of(z))
                if abs(y) < 1:
                    term = abs(maps.psi(params, z) - y)
                    if term >= res:
                        res, z_worst = term, z
                    break
        for z in (0.1, 0.05 - 0.1j, 0.02, 0.005, 0.001):
            s = s_of(z)
            a = cmath.sqrt(kap * kap + (1 - kap * kap) * s * s)
            try:
                term = abs(maps.psi(params, z) - maps.big_phi(params, a))
            except maps.DomainError:
                continue
            if not math.isfinite(term):
                continue
            evaluated += 1
            if term >= res:
                res, z_worst = term, z
    if evaluated:
        rep.check("psi-chain-identity", res, 1e-12, z=z_worst)
    else:
        rep.check("psi-chain-identity", math.inf, 1e-12, evaluated=0)

    # evaluate the inverted series and push it back through the flow map
    inv = flow.phi_inv_coeffs(params, 16)
    worst = 0.0
    for z in (0.03, -0.02 + 0.02j, 0.05):
        worst = max(worst, abs(maps.big_phi(params, inv(z)) - z))
    rep.check("flow-roundtrip-pointwise", worst, 1e-8)

    probe_kap = kap if kap != 0.0 else 0.3
    zs = np.linspace(-0.95, 0.95, 39)
    inner = np.real((1 + zs) * np.conj(maps.r_func(zs, probe_kap)))
    rep.check("branch-positivity-real-axis", max(0.0, -float(np.min(inner))), 0.0,
              kappa=probe_kap)

    grid = [
        r * cmath.exp(1j * ang)
        for r in (0.3, 0.6, 0.95)
        for ang in np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    ]
    vals = np.array([(1 - z) ** 2 + 4 * probe_kap**2 * z for z in grid])
    dist = np.where(vals.real <= 0, np.abs(vals.imag), np.abs(vals))
    rep.check("branch-polynomial-margin", max(0.0, 1e-12 - float(np.min(dist))), 0.0,
              min_distance=float(np.min(dist)))


# -- contour layer ---------------------------------------------------------------


def _check_contour(rep: VerifyReport, params: flow.FlowParams, full: bool):
    t = float(params.t)
    kap = float(params.kappa)

    probe = flow.FlowParams(kap if kap != 0.0 else 0.6, t)
    pk = float(probe.kappa)
    cs = contour._circle(pk, abs(pk) / 2, 64)
    worst = 0.0
    k_max, m_max = (12, 8) if full else (6, 4)
    eps = Fraction(pk) ** 2
    # float(pnm_poly(k, m)(eps)) rounds the int quotient below, over den(eps)**k_max
    scaled = [eps.numerator**j * eps.denominator ** (k_max - j) for j in range(k_max + 1)]
    pairs = [(k, m) for k in range(1, k_max + 1) for m in range(0, m_max + 1)]
    for (k, m), got in zip(pairs, contour.pkm_residues(pairs, probe, cs)):
        coeffs = flow.pnm_poly(k, m).coeffs
        want = (-1) ** m * sum(c * p for c, p in zip(coeffs, scaled)) / scaled[0]
        worst = max(worst, abs(got - want))
    rep.check("residue-oracle", worst, 1e-10, kappa=pk, k_max=k_max, m_max=m_max)

    specs = [(0, 0.2, 80, 1e-10)]  # (m, y, n_terms, tol)
    specs += [(m, 0.3, 120, 1e-8) for m in ((1, 2) if not full else (1, 2, 3, 4))]
    rep.entries += contour.laguerre_gen_checks(specs, t)

    mser = flow.m_series_coeffs(params, 16)
    if kap == 0.0:
        worst = max(
            abs(mser(z) - maps.m_zero(t, z)) for z in (0.05, 0.02 + 0.02j)
        )
        rep.check("mzero-closed-form", worst, 1e-10, t=t)
        return

    zs = (0.02, 0.03 + 0.01j, 0.05) if full else (0.03,)
    worst_series = 0.0
    worst_forms = 0.0
    circles = {}
    for z in zs:
        res = contour.m_integral_detailed(params, z)
        circles[z] = res.contour
        worst_series = max(worst_series, _rel(res.corollary, mser(z)))
        worst_forms = max(worst_forms, abs(res.corollary - res.proposition))
        rep.add(contour.nonvanishing_check(params, z, res.contour))
        # condition (vi) over every doubling, not just the nodes it was tested on
        ratio = res.geom_ratio_max
        rep.check("geometric-ratio", max(0.0, ratio - 1.0), 0.0, max_ratio=ratio, z=complex(z))
    rep.check("m-integral-vs-series", worst_series, 1e-6, points=len(zs))
    rep.check("m-integral-forms-agree", worst_forms, 1e-9, points=len(zs))

    # corrected branch estimate: |(1-z)^2 + 4 w^2 z - 1| <= |z| (|z| + 2 max|1-2w^2|),
    # on the circle of the z = 0.05 integral where one was run
    spec2 = circles[0.05] if 0.05 in circles else contour.admissible_contour(params, 0.05)
    w = contour.contour_nodes(spec2)
    bound_gap = 0.0
    for z in (0.05, 0.03 + 0.01j):
        lhs = np.abs((1 - z) ** 2 + 4 * w * w * z - 1)
        rhs = abs(z) * (abs(z) + 2 * float(np.max(np.abs(1 - 2 * w * w))))
        bound_gap = max(bound_gap, float(np.max(lhs)) - rhs)
    rep.check("branch-bound-estimate", max(0.0, bound_gap), 1e-12)


def run_checks(kappa: float, t: float, level: str = "fast") -> VerifyReport:
    """Run the named verification suite for one parameter pair."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    full = level == "full"
    params = flow.FlowParams(kappa, t)
    rep = VerifyReport()
    _check_flow_kappa(rep, kappa)
    phi_s = maps.phi_series(params, 12 if full else 8)
    # the Herglotz coefficients at kappa = 0: 16 for kzero-closed-form, 60 for the series
    k_coeffs = [maps.k_series_coeff(float(t), n) for n in range(1, 61)]
    _check_oracles(rep, params, phi_s, k_coeffs, full)
    _check_maps(rep, params, phi_s, k_coeffs, full)
    _check_contour(rep, params, full)
    return rep

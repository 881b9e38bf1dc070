"""Full cross-validation suite: every closed form against its independent
oracle, every branch and kernel condition on explicit grids.

``run_checks`` drives the same checks the test suite pins, packaged so the
command line can re-run them for arbitrary parameters.  ``fast`` keeps the
grids small; ``full`` runs acceptance-sized ones.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from . import contour, flow, maps
from .gaussian import GaussianRational
from .powerseries import TruncatedSeries, series_compose, series_derive, series_revert
from .report import VerifyReport
from .specfun import binomial, charlier, jacobi_poly, laguerre, pochhammer


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _gen_binom(x, j):
    """Generalized binomial x (x-1) ... (x-j+1) / j!, exact for exact x."""
    num = 1
    for i in range(j):
        num = num * (x - i)
    return Fraction(num, math.factorial(j)) if isinstance(num, int) else num / math.factorial(j)


# -- special functions ---------------------------------------------------------


def _check_specfun(rep: VerifyReport, full: bool):
    res = abs(pochhammer(0, 3)) + abs(pochhammer(1, 5) - 120) + abs(pochhammer(2.5, 0) - 1)
    rep.check("pochhammer-convention", res, 0.0)

    res = abs(binomial(5, 7)) + abs(binomial(4, 2) - 6) + abs(binomial(40, 20) - 137846528820)
    rep.check("binomial-edges", res, 0.0)

    n, x, a = 3, 5, 0.7
    lhs = (-a) ** n / math.factorial(n) * charlier(n, x, a)
    rhs = laguerre(n, x - n, a)
    rep.check("charlier-laguerre-float", abs(lhs - rhs), 1e-12, n=n, x=x, a=a)

    worst = 0
    n_max = 15 if full else 8
    for n in range(n_max + 1):
        for x in (-10, -3, 0, 4, 10):
            for a in (Fraction(7, 10), Fraction(-3, 2)):
                lhs = (-a) ** n / math.factorial(n) * charlier(n, x, a)
                rhs = laguerre(n, x - n, a)
                worst = max(worst, abs(lhs - rhs))
    rep.check("charlier-laguerre-exact", float(worst), 0.0, n_max=n_max)

    # generating function, numeric partial sums
    worst = 0.0
    cases = [(-2, -3.0, 0.1, 40, 1e-12)]
    if full:
        cases += [(x, 1.3, u, 60, 1e-10) for x in (-5, 5) for u in (0.3, -0.25)]
    for x, a, u, n_terms, tol in cases:
        lhs = sum(charlier(n, x, a) * (a * u) ** n / math.factorial(n) for n in range(n_terms + 1))
        rhs = math.exp(a * u) * (1 - u) ** x
        worst = max(worst, abs(lhs - rhs))
    rep.check("charlier-generating-numeric", worst, max(c[4] for c in cases))

    # generating function, exact coefficients: C_n(x,a) a^n / n! against the
    # n-th Taylor coefficient of e^{a u} (1-u)^x
    worst = 0
    for n in range(16):
        for x in (-4, -1, 0, 3, 7):
            a = Fraction(-3, 2)
            lhs = charlier(n, x, a) * a**n / math.factorial(n)
            rhs = sum(
                Fraction(a ** (n - j), math.factorial(n - j)) * (-1) ** j * _gen_binom(x, j)
                for j in range(n + 1)
            )
            worst = max(worst, abs(lhs - rhs))
    rep.check("charlier-generating-exact", float(worst), 0.0)

    n, a, b, z = 4, 2, 0, 0.3 + 0.2j
    res = abs(jacobi_poly(n, a, b, z) - (-1) ** n * jacobi_poly(n, b, a, -z))
    rep.check("jacobi-symmetry", res, 1e-12, n=n, a=a, b=b)

    worst = 0.0
    for n in (3, 6, 9):
        zg = GaussianRational(Fraction(3, 10), Fraction(1, 5))
        exact = complex(jacobi_poly(n, 0, 4, zg))
        approx = jacobi_poly(n, 0, 4, complex(zg))
        worst = max(worst, abs(approx - exact) / abs(exact))
    rep.check("jacobi-exact-complex", worst, 1e-12)

    rng = random.Random(1905)
    worst = 0.0
    n_max = 20 if full else 12
    for _ in range(12):
        n = rng.randint(0, n_max)
        alpha = Fraction(rng.randint(-40, 40), 8)
        z = Fraction(rng.randint(-32, 32), 16)
        exact = laguerre(n, alpha, z)
        approx = laguerre(n, float(alpha), float(z))
        worst = max(worst, abs(approx - float(exact)) / max(abs(float(exact)), 1.0))
        if n >= 2:  # three-term contiguous recurrence, exact arithmetic
            rec = ((2 * n - 1 + alpha - z) * laguerre(n - 1, alpha, z)
                   - (n - 1 + alpha) * laguerre(n - 2, alpha, z)) / n
            if rec != exact:
                worst = max(worst, 1.0)
    rep.check("laguerre-exact-consistency", worst, 1e-13, n_max=n_max)


# -- power series --------------------------------------------------------------


def _check_powerseries(rep: VerifyReport, full: bool):
    rng = random.Random(777)
    worst = 0.0
    for order in (16, 32 if full else 24):
        # geometric decay keeps the inverse series well conditioned
        coeffs = [0j, cmath.rect(rng.uniform(0.8, 1.2), rng.uniform(-3.1, 3.1))]
        coeffs += [
            cmath.rect(0.5**k * rng.uniform(0.0, 1.0), rng.uniform(-3.1, 3.1))
            for k in range(2, order + 1)
        ]
        f = TruncatedSeries(0j, coeffs)
        g = series_revert(f)
        ident = series_compose(f, g)
        want = [0j, 1.0 + 0j] + [0j] * (order - 1)
        worst = max(worst, max(abs(a - b) for a, b in zip(ident.coeffs, want)))
    rep.check("series-roundtrip-complex", worst, 1e-10)

    worst = 0
    coeffs = [Fraction(0), Fraction(1)] + [
        Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(10)
    ]
    f = TruncatedSeries(Fraction(0), coeffs)
    g = series_revert(f)
    ident = series_compose(f, g)
    want = [Fraction(0), Fraction(1)] + [Fraction(0)] * 10
    worst = max(abs(a - b) for a, b in zip(ident.coeffs, want))
    # reversion against the closed Lagrange extraction (1/n) [w^(n-1)] (w/f)^n
    ratio = TruncatedSeries(Fraction(0), coeffs[1:] + [Fraction(0)]).reciprocal()
    power = ratio
    for n in range(1, 12):
        lagr = power.coeffs[n - 1] / n
        worst = max(worst, abs(lagr - g.coeffs[n]))
        power = power * ratio
    rep.check("series-reversion-exact", float(worst), 0.0)


# -- combinatorial layer --------------------------------------------------------


def _check_flow_exact(rep: VerifyReport, kappa: float, full: bool):
    worst = 0
    n_max = 20 if full else 12
    for n in range(1, n_max + 1):
        p0 = flow.pnm_poly(n, 0)
        binom_row = tuple(Fraction((-1) ** k * binomial(n, k)) for k in range(n + 1))
        if p0.coeffs != binom_row:
            worst = max(worst, 1)
        for m in range(0, n_max + 1):
            poly = flow.pnm_poly(n, m)
            if poly.degree > n:
                worst = max(worst, 1)
            if poly.coeffs[0] != (1 if m == 0 else 0):
                worst = max(worst, 1)
    rep.check("pnm-structure", float(worst), 0.0, n_max=n_max)

    rng = random.Random(41)
    length = 30 if full else 12
    seq = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(length)]
    back = flow.inv_binom_transform(flow.binom_transform(seq))
    worst = max(abs(a - b) for a, b in zip(back, seq))
    rep.check("transform-roundtrip-exact", float(worst), 0.0, length=length)

    worst = 0
    for n in range(1, 31):
        for k in range(0, n + 1):
            if flow.invrel_weight(n, k) != flow.invrel_weight_split(n, k):
                worst = 1
    rep.check("invrel-forms-agree", float(worst), 0.0)

    kap_exact = Fraction(kappa)
    p = flow.FlowParams(kap_exact, 1.0)
    ones = [Fraction(1)] * 16
    moments = flow.jacobi_moments(ones, p, 16)
    want = (1 + kap_exact) / 2
    worst = max(abs(m - want) for m in moments)
    rep.check("moment-expansion-constant", float(worst), 0.0, kappa=kappa)

    if kappa != 0.0:
        pp = flow.FlowParams(kappa, 1.0)
        pm = flow.FlowParams(-kappa, 1.0)
        worst = max(
            abs(flow.a_coeff(pp, n) - flow.a_coeff(pm, n)) for n in range(1, 11)
        )
        rep.check("evenness-in-kappa", worst, 0.0)


# -- oracles for the coefficient formulas --------------------------------------


def _check_oracles(rep: VerifyReport, params: flow.FlowParams, full: bool):
    n_max = 10 if full else 6
    # truncated products leave the low coefficients alone, so the series is
    # built only to the order the extraction reads
    phis = maps.phi_series(params, n_max, exact=True)
    ratio = TruncatedSeries(phis.base, phis.coeffs[1:] + [Fraction(0)]).reciprocal()
    power = ratio
    worst = 0.0
    for n in range(1, n_max + 1):
        lagrange = float(power.coeffs[n - 1] / n)
        worst = max(worst, _rel(lagrange, flow.a_coeff(params, n)))
        if n < n_max:
            power = power * ratio
    rep.check("lagrange-inversion-oracle", worst, 1e-9, n_max=n_max)

    order = 12 if full else 8
    oracle = series_revert(maps.big_phi_series(params, order, exact=True))
    closed = flow.phi_inv_coeffs(params, order)
    worst = max(
        _rel(float(a), b) for a, b in zip(oracle.coeffs, closed.coeffs)
    )
    rep.check("reversion-oracle", worst, 1e-9, order=order,
              kappa=params.kappa, t=params.t)

    # symmetric-case reduction to the Herglotz coefficients
    t = float(params.t)
    p0 = flow.FlowParams(0.0, t)
    inv0 = flow.phi_inv_coeffs(p0, 16)
    worst = max(
        _rel(inv0.coeffs[n], maps.k_series_coeff(t, n)) for n in range(1, 17)
    )
    rep.check("kzero-closed-form", worst, 1e-10, t=t)

    # derivative series: z d/dz of the inverted-flow series against the
    # direct S_n route
    derived = series_derive(flow.phi_inv_coeffs(params, 12))
    mser = flow.m_series_coeffs(params, 12)
    worst = max(
        abs(a - b) / max(abs(b), 1e-300)
        for a, b in zip(derived.coeffs, mser.coeffs[1:])
    )
    rep.check("m-series-two-routes", worst, 1e-12,
              first_coeff=mser.coeffs[1], note="sum starts at n=1")


# -- conformal maps -------------------------------------------------------------


def _check_maps(rep: VerifyReport, params: flow.FlowParams, full: bool):
    t = float(params.t)
    kap = float(params.kappa)

    res = abs(maps.alpha(0.75) - 1 / 3) + abs(maps.alpha_inv(1 / 3) - 0.75)
    for z in (-0.5, 0.2 + 0.4j):
        res = max(res, abs(maps.alpha_inv(maps.alpha(z)) - z))
    res = max(res, abs(maps.alpha(maps.alpha_inv(0.3j)) - 0.3j))
    rep.check("alpha-roundtrip", res, 1e-13)

    radii = (0.1, 0.3, 0.5, 0.7, 0.9)
    angles = np.linspace(0.0, 2 * np.pi, 12 if full else 8, endpoint=False)
    worst = abs(maps.herglotz_k(t, 0.0) - 1.0)
    pos = math.inf
    sym = 0.0
    ys = [r * cmath.exp(1j * ang) for r in radii for ang in angles]
    ks = maps.herglotz_k(t, np.array(ys))
    ks_conj = maps.herglotz_k(t, np.conj(ys))
    for y, K, Kc in zip(ys, ks.tolist(), ks_conj.tolist()):
        worst = max(worst, abs(maps.xi(t, K) - y))
        pos = min(pos, K.real)
        sym = max(sym, abs(Kc - K.conjugate()))
    rep.check("herglotz-inverse-grid", worst, 1e-11, t=t)
    rep.check("herglotz-positivity", max(0.0, -pos), 0.0, min_real=pos)
    rep.check("herglotz-conjugate-symmetry", sym, 1e-12)

    coeffs = [maps.k_series_coeff(t, n) for n in range(1, 61)]
    worst = 0.0
    for y in (0.2, -0.3, 0.15 + 0.2j, 0.3j):
        partial = 1.0 + sum(c * y**n for n, c in enumerate(coeffs, start=1))
        worst = max(worst, abs(partial - maps.herglotz_k(t, y)))
    rep.check("herglotz-series-agreement", worst, 1e-10, t=t)

    worst = 0.0
    for Z in (1.0, 1.1, 0.9 + 0.1j, 1.05 - 0.15j):
        y = maps.xi(t, Z)
        if abs(y) < 1:
            worst = max(worst, abs(maps.herglotz_k(t, y) - Z))
    rep.check("herglotz-left-inverse", worst, 1e-11, t=t)

    res = abs(maps.v_deformed(params, 0.0) - 1.0)
    if kap == 0.0:
        for z in (0.3, -0.2 + 0.4j):
            res = max(res, abs(maps.v_deformed(params, z) - maps.herglotz_k(t, z)))
    vmin = math.inf
    vmax = 0.0
    for r in (0.5, 0.9, 0.95) if full else (0.5, 0.9):
        for ang in angles:
            v = maps.v_deformed(params, r * cmath.exp(1j * ang))
            vmin = min(vmin, v.real)
            vmax = max(vmax, abs(v))
    rep.check("v-deformed-values", res, 1e-12, kappa=kap)
    rep.check("v-deformed-positivity", max(0.0, -vmin), 0.0,
              min_real=vmin, max_abs=vmax)

    # critical point: phi(1) = 0 and a nonzero derivative there
    res = abs(maps.phi(params, 1.0))
    h = 1e-6
    fd = (maps.phi(params, 1 + h) - maps.phi(params, 1 - h)) / (2 * h)
    c1 = maps.phi_series(params, 4).coeffs[1]
    rep.check("phi-critical-point", res + _rel(fd, c1), 1e-5, derivative=c1)

    # the flow is only locally defined: walk down to a z where the whole
    # composition chain stays off the cut
    res = abs(maps.psi(params, 0.0))
    s_of = lambda z: (1 + z) / (1 - z)
    if kap == 0.0:
        # the chain collapses onto xi(s) only while xi(s) stays in the disc
        for z in (0.1, 0.05, 0.02, 0.005):
            if abs(maps.xi(t, s_of(z))) < 1:
                res = max(res, abs(maps.psi(params, z) - maps.xi(t, s_of(z))))
                break
    z_used = None
    for z in (0.1, 0.05 - 0.1j, 0.02, 0.005, 0.001):
        s = s_of(z)
        a = cmath.sqrt(kap * kap + (1 - kap * kap) * s * s)
        try:
            res = max(res, abs(maps.psi(params, z) - maps.big_phi(params, a)))
            z_used = z
        except maps.DomainError:
            continue
    rep.check("psi-chain-identity", res, 1e-12, z=z_used)

    # evaluate the inverted series and push it back through the flow map
    inv = flow.phi_inv_coeffs(params, 16)
    worst = 0.0
    for z in (0.03, -0.02 + 0.02j, 0.05):
        worst = max(worst, abs(maps.big_phi(params, inv(z)) - z))
    rep.check("flow-roundtrip-pointwise", worst, 1e-8)

    # kernel helpers
    res = abs(maps.r_func(0.3 + 0.1j, 0.0) - (1 - (0.3 + 0.1j)))
    res = max(res, abs(maps.r_func(0.0, 0.4) - 1.0))
    res = max(res, abs(maps.y_func(0.2 + 0.1j, 0.0) - (0.2 + 0.1j)))
    res = max(res, abs(maps.y_func(0.0, 0.4)))
    for z, w in ((0.1 + 0.05j, 0.45), (0.2, 0.3 + 0.2j)):
        rr = maps.r_func(z, w)
        res = max(res, abs(maps.y_func(z, w) - (1 + z - rr) / (1 + z + rr)))
    rep.check("kernel-identities", res, 1e-13)

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

    spec = contour.ContourSpec(0.4 + 0j, 0.2, 64)
    res = abs(contour.circle_quadrature(lambda w: 1.0 / (w - 0.4), spec) - 1.0)
    res = max(res, abs(contour.circle_quadrature(lambda w: np.ones_like(w), spec)))
    res = max(res, abs(contour.circle_quadrature(lambda w: (w - 0.4) ** -2.0, spec)))
    rep.check("quadrature-residues", res, 1e-12)

    probe = flow.FlowParams(kap if kap != 0.0 else 0.6, t)
    pk = float(probe.kappa)
    cs = contour.ContourSpec(complex(pk), abs(pk) / 2, 64)
    worst = 0.0
    k_max, m_max = (12, 8) if full else (6, 4)
    eps = Fraction(pk) ** 2
    for k in range(1, k_max + 1):
        for m in range(0, m_max + 1):
            got = contour.pkm_residue(k, m, probe, cs)
            want = (-1) ** m * float(flow.pnm_poly(k, m)(eps))
            worst = max(worst, abs(got - want))
    rep.check("residue-oracle", worst, 1e-10, kappa=pk, k_max=k_max, m_max=m_max)

    rep.add(contour.laguerre_gen_check(0, t, 0.2, n_terms=80, tol=1e-10))
    for m in (1, 2) if not full else (1, 2, 3, 4):
        rep.add(contour.laguerre_gen_check(m, t, 0.3, n_terms=120, tol=1e-8))
    rep.add(contour.jacobi_gen_check(1, 0.2, 0.6, n_terms=100, tol=1e-9))
    for j in (2,) if not full else (2, 3, 4):
        rep.add(contour.jacobi_gen_check(j, 0.15, 0.5 + 0.1j, n_terms=150, tol=1e-8))

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
    for z in zs:
        res_c = contour.m_integral_detailed(params, z, "corollary")
        res_p = contour.m_integral_detailed(params, z, "proposition", spec=res_c.contour)
        worst_series = max(worst_series, _rel(res_c.value, mser(z)))
        worst_forms = max(worst_forms, abs(res_c.value - res_p.value))
        rep.add(contour.nonvanishing_check(params, z, res_c.contour))
        rep.add(contour.geom_ratio_check(params, z, res_c.contour))
    rep.check("m-integral-vs-series", worst_series, 1e-6, points=len(zs))
    rep.check("m-integral-forms-agree", worst_forms, 1e-9, points=len(zs))

    # corrected branch estimate: |(1-z)^2 + 4 w^2 z - 1| <= |z| (|z| + 2 max|1-2w^2|)
    spec2 = contour.admissible_contour(params, 0.05)
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
    _check_specfun(rep, full)
    _check_powerseries(rep, full)
    _check_flow_exact(rep, kappa, full)
    _check_oracles(rep, params, full)
    _check_maps(rep, params, full)
    _check_contour(rep, params, full)
    return rep

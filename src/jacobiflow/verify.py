"""Full cross-validation suite: every closed form against its independent
oracle, every branch and kernel condition on explicit grids.

``run_checks`` is the one definition of each named check: the test suite
asserts its entries over a grid of parameters, and the command line re-runs
them for arbitrary ones.  ``fast`` keeps the grids small; ``full`` runs
acceptance-sized ones.  The 14 checks that read neither kappa nor t run once
per process and level, in ``_fixed_entries`` (``cache_clear()`` resets it).
A run expands phi about z = 1 once, exactly, and hands truncations of it to
every check that reads it.  The reversion oracle reverts phi and composes
that with alpha_inv's integer series: (alpha o phi)^-1 = phi^-1 o alpha_inv.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from fractions import Fraction

import numpy as np

from . import contour, flow, maps, powerseries
from .powerseries import TruncatedSeries, series_compose, series_derive, series_revert
from .report import VerifyReport
from .specfun import binomial, jacobi_poly, laguerre, pochhammer


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _lagrange_inverse(f: TruncatedSeries) -> list:
    """Coefficients 1, ..., order of the compositional inverse of the exact
    series f = c_1 w + c_2 w**2 + ..., by Lagrange: (1/n) [w^(n-1)] (w/f)^n,
    the powers of w/f as integers over one denominator, to w^(order-1)."""
    top = f.order - 1
    ratio, rden = powerseries._common_denominator(powerseries._recip_trunc(f.coeffs[1:], top))
    power, den, out = ratio, rden, [Fraction(ratio[0], rden)]
    for n in range(2, f.order + 1):
        power = powerseries._mul_trunc(power, ratio, top)
        common = math.gcd(den * rden, *power)
        power, den = [c // common for c in power], den * rden // common
        out.append(Fraction(power[n - 1], den * n))
    return out


# -- special functions ---------------------------------------------------------


def _jacobi_taylor(n, a, b, x, y):
    """Exact (re, im) of P_n^{a,b}(x + iy) for exact real a, b, x, y, by the
    Taylor expansion at x that d/dx P_n^{a,b} = (n+a+b+1)/2 P_{n-1}^{a+1,b+1}
    (DLMF 18.9.15) gives on the real exact path, each part's terms summed as
    integers over the lcm of their denominators:

        P_n^{a,b}(x + iy) = sum_k (n+a+b+1)_k / (2^k k!) P_{n-k}^{a+k,b+k}(x) (iy)^k."""
    parts = ([], [])
    for k in range(n + 1):
        p = jacobi_poly(n - k, a + k, b + k, x)
        num = (-1) ** (k // 2) * pochhammer(n + a + b + 1, k) * p.numerator * y.numerator**k
        parts[k % 2].append((num, 2**k * math.factorial(k) * p.denominator * y.denominator**k))
    lcms = [math.lcm(*(d for _, d in terms)) for terms in parts]
    return tuple(Fraction(sum(c * (l // d) for c, d in terms), l) for terms, l in zip(parts, lcms))


def _check_specfun(rep: VerifyReport, full: bool):
    res = abs(pochhammer(0, 3)) + abs(pochhammer(1, 5) - 120) + abs(pochhammer(2.5, 0) - 1)
    rep.check("pochhammer-convention", res, 0.0)

    res = abs(binomial(5, 7)) + abs(binomial(4, 2) - 6) + abs(binomial(40, 20) - 137846528820)
    rep.check("binomial-edges", res, 0.0)

    # P_n^{a,b}(z) = (-1)^n P_n^{b,a}(-z), the recurrence at z against the
    # exact value at -z (the recurrence alone is symmetric bit for bit)
    n, a, b, x, y = 4, 2, 0, Fraction(3, 10), Fraction(1, 5)
    re, im = _jacobi_taylor(n, b, a, -x, -y)
    mirror = (-1) ** n * complex(float(re), float(im))
    res = abs(contour._jacobi_row(n, a, b, complex(x, y))[n] - mirror)
    rep.check("jacobi-symmetry", res, 1e-12, n=n, a=a, b=b)

    # the recurrence behind the Jacobi generating checks, at 0.3 + 0.2i and
    # at their complex argument 1 - 2 (0.5 + 0.1i)^2 = 0.52 - 0.2i
    worst = 0.0
    for x, y in ((Fraction(3, 10), Fraction(1, 5)), (Fraction(13, 25), Fraction(-1, 5))):
        row = contour._jacobi_row(60, 0, 4, complex(x, y))
        for n in (20, 60):
            re, im = _jacobi_taylor(n, 0, 4, x, y)
            exact = complex(float(re), float(im))
            worst = max(worst, abs(row[n] - exact) / abs(exact))
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

    coeffs = [Fraction(0), Fraction(1)] + [
        Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(10)
    ]
    f = TruncatedSeries(Fraction(0), coeffs)
    g = series_revert(f)
    ident = series_compose(f, g)
    want = [Fraction(0), Fraction(1)] + [Fraction(0)] * 10
    worst = max(abs(a - b) for a, b in zip(ident.coeffs, want))
    # reversion against the closed Lagrange extraction
    for n, lagr in enumerate(_lagrange_inverse(f), 1):
        worst = max(worst, abs(lagr - g.coeffs[n]))
    rep.check("series-reversion-exact", float(worst), 0.0)


# -- combinatorial layer --------------------------------------------------------


def _check_flow_fixed(rep: VerifyReport, full: bool):
    # each P_{n,m} against its definition: the value at eps = 3 is the x**m
    # coefficient of (1 - 3/(1+x)**2)**n, expanded on integers by the ring
    # loop, with 1/(1+x)**2 = sum_j (-1)**j (j+1) x**j; and P_{n,0} is
    # (1-eps)**n, P_{n,m}(0) is 1 at m = 0 and 0 otherwise, the degree <= n
    n_max = 20 if full else 12
    base = [-2] + [3 * (-1) ** (j + 1) * (j + 1) for j in range(1, n_max + 1)]
    power, worst = [1] + [0] * n_max, 0
    for n in range(1, n_max + 1):
        power = powerseries._mul_trunc(power, base, n_max)
        bad = flow.pnm_poly(n, 0).coeffs != tuple((-1) ** k * binomial(n, k) for k in range(n + 1))
        for m in range(n_max + 1):
            poly = flow.pnm_poly(n, m)
            bad |= poly.degree > n or poly.coeffs[0] != int(m == 0) or poly(3) != power[m]
        worst = max(worst, int(bad))
    rep.check("pnm-structure", float(worst), 0.0, n_max=n_max)

    rng = random.Random(41)
    length = 30 if full else 12
    seq = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(length)]
    back = flow.inv_binom_transform(flow.binom_transform(seq))
    worst = max(abs(a - b) for a, b in zip(back, seq))
    rep.check("transform-roundtrip-exact", float(worst), 0.0, length=length)

    agree = all(flow.invrel_weight(n, k) == flow.invrel_weight_split(n, k)
                for n in range(1, 31) for k in range(n + 1))
    rep.check("invrel-forms-agree", 0.0 if agree else 1.0, 0.0)


def _check_flow_kappa(rep: VerifyReport, kappa: float):
    kap_exact = Fraction(kappa)
    p = flow.FlowParams(kap_exact, 1.0)
    moments = flow.jacobi_moments([Fraction(1)] * 16, p, 16)
    want = (1 + kap_exact) / 2
    worst = max(abs(m - want) for m in moments)
    rep.check("moment-expansion-constant", float(worst), 0.0, kappa=kappa)

    if kappa != 0.0:
        # a -kappa table of its own: flow._table files -kappa under +kappa
        pp = flow.FlowParams(kappa, 1.0)
        minus = flow._make_table(Fraction(-kappa) ** 2, 1.0, 16)[:10]
        worst = max(abs(flow.a_coeff(pp, n) - row[0]) for n, row in enumerate(minus, 1))
        rep.check("evenness-in-kappa", worst, 0.0)


# -- oracles for the coefficient formulas --------------------------------------


def _check_oracles(rep: VerifyReport, params: flow.FlowParams, phi_s, k_coeffs, full: bool):
    n_max = 10 if full else 6
    # truncated products leave the low coefficients alone, so the extraction
    # reads phi_s cut to the order it needs
    worst = 0.0
    cut = TruncatedSeries(phi_s.base, phi_s.coeffs[: n_max + 1])
    for n, lagrange in enumerate(_lagrange_inverse(cut), 1):
        worst = max(worst, _rel(float(lagrange), flow.a_coeff(params, n)))
    rep.check("lagrange-inversion-oracle", worst, 1e-9, n_max=n_max)

    order = phi_s.order
    oracle = series_compose(series_revert(phi_s), maps._alpha_inv_series(order))
    closed = flow.phi_inv_coeffs(params, order)
    worst = max(_rel(float(a), b) for a, b in zip(oracle.coeffs, closed.coeffs))
    rep.check("reversion-oracle", worst, 1e-9, order=order,
              kappa=params.kappa, t=params.t)

    # symmetric-case reduction to the first 16 Herglotz coefficients
    t = float(params.t)
    inv0 = flow.phi_inv_coeffs(flow.FlowParams(0.0, t), 16)
    worst = max(_rel(a, b) for a, b in zip(inv0.coeffs[1:], k_coeffs))
    rep.check("kzero-closed-form", worst, 1e-10, t=t)

    # derivative series: z d/dz of the inverted-flow series against the
    # direct S_n route
    derived = series_derive(flow.phi_inv_coeffs(params, 12))
    mser = flow.m_series_coeffs(params, 12)
    worst = max(_rel(a, b) for a, b in zip(derived.coeffs, mser.coeffs[1:]))
    rep.check("m-series-two-routes", worst, 1e-12,
              first_coeff=mser.coeffs[1], note="sum starts at n=1")


# -- conformal maps -------------------------------------------------------------


def _check_helpers(rep: VerifyReport, full: bool):
    res = abs(maps.alpha(0.75) - 1 / 3) + abs(maps.alpha_inv(1 / 3) - 0.75)
    for z in (-0.5, 0.2 + 0.4j):
        res = max(res, abs(maps.alpha_inv(maps.alpha(z)) - z))
    res = max(res, abs(maps.alpha(maps.alpha_inv(0.3j)) - 0.3j))
    rep.check("alpha-roundtrip", res, 1e-13)

    res = abs(maps.r_func(0.3 + 0.1j, 0.0) - (1 - (0.3 + 0.1j)))
    res = max(res, abs(maps.r_func(0.0, 0.4) - 1.0))
    res = max(res, abs(maps.y_func(0.2 + 0.1j, 0.0) - (0.2 + 0.1j)))
    res = max(res, abs(maps.y_func(0.0, 0.4)))
    for z, w in ((0.1 + 0.05j, 0.45), (0.2, 0.3 + 0.2j)):
        rr = maps.r_func(z, w)
        res = max(res, abs(maps.y_func(z, w) - (1 + z - rr) / (1 + z + rr)))
    rep.check("kernel-identities", res, 1e-13)

    spec = contour.ContourSpec(0.4 + 0j, 0.2, 64)
    res = abs(contour.circle_quadrature(lambda w: 1.0 / (w - 0.4), spec) - 1.0)
    res = max(res, abs(contour.circle_quadrature(lambda w: np.ones_like(w), spec)))
    res = max(res, abs(contour.circle_quadrature(lambda w: (w - 0.4) ** -2.0, spec)))
    rep.check("quadrature-residues", res, 1e-12)

    rep.add(contour.jacobi_gen_check(1, 0.2, 0.6, n_terms=100, tol=1e-9))
    for j in (2,) if not full else (2, 3, 4):
        rep.add(contour.jacobi_gen_check(j, 0.15, 0.5 + 0.1j, n_terms=150, tol=1e-8))


def _check_maps(rep: VerifyReport, params: flow.FlowParams, phi_s, k_coeffs, full: bool):
    t = float(params.t)
    kap = float(params.kappa)

    rep.entries += _fixed_entries(full)["alpha-roundtrip"]
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

    ys = (0.2, -0.3, 0.15 + 0.2j, 0.3j)
    worst = 0.0
    for y, K in zip(ys, maps.herglotz_k(t, np.array(ys)).tolist()):
        partial = 1.0 + sum(c * y**n for n, c in enumerate(k_coeffs, start=1))
        worst = max(worst, abs(partial - K))
    rep.check("herglotz-series-agreement", worst, 1e-10, t=t)

    # xi point by point: numpy's vector loops may round array entries differently;
    # at large t, e^{tZ} overflows at a Z whose xi lies far off the disc anyway
    with np.errstate(over="ignore", invalid="ignore"):
        ys = {Z: maps.xi(t, Z) for Z in (1.0, 1.1, 0.9 + 0.1j, 1.05 - 0.15j)}
    Zs = [Z for Z, y in ys.items() if abs(y) < 1]
    ks = maps.herglotz_k(t, np.array([ys[Z] for Z in Zs], dtype=complex)).tolist()
    worst = max((abs(K - Z) for K, Z in zip(ks, Zs)), default=0.0)
    rep.check("herglotz-left-inverse", worst, 1e-11, t=t)

    # V(0), at kappa = 0 two points against K, and the radius x angle grid, in one call
    kz = [0.3, -0.2 + 0.4j] if kap == 0.0 else []
    rs = (0.5, 0.9, 0.95) if full else (0.5, 0.9)
    zs = [0.0] + kz + [r * cmath.exp(1j * ang) for r in rs for ang in angles]
    vs = maps.v_deformed(params, np.array(zs)).tolist()
    res = abs(vs[0] - 1.0)
    if kz:
        ks = maps.herglotz_k(t, np.array(kz)).tolist()
        res = max(res, abs(vs[1] - ks[0]), abs(vs[2] - ks[1]))
    grid = vs[1 + len(kz):]
    vmin = min(v.real for v in grid)
    vmax = max(abs(v) for v in grid)
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
    if kap == 0.0:
        # the chain collapses onto xi(s) only while xi(s) stays in the disc
        for z in (0.1, 0.05, 0.02, 0.005):
            if abs(maps.xi(t, s_of(z))) < 1:
                term = abs(maps.psi(params, z) - maps.xi(t, s_of(z)))
                if term >= res:
                    res, z_worst = term, z
                break
    evaluated = 0
    for z in (0.1, 0.05 - 0.1j, 0.02, 0.005, 0.001):
        s = s_of(z)
        a = cmath.sqrt(kap * kap + (1 - kap * kap) * s * s)
        try:
            # at large t, e^{ta} overflows for |a| > 1: the chain leaves
            # binary64 there, and that z is skipped like one off the cut
            with np.errstate(over="ignore", invalid="ignore"):
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

    rep.entries += _fixed_entries(full)["kernel-identities"]

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

    rep.entries += _fixed_entries(full)["quadrature-residues"]
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
    rep.entries += _fixed_entries(full)["jacobi-generating"]

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
        res = contour.m_integral_detailed(params, z)
        worst_series = max(worst_series, _rel(res.corollary, mser(z)))
        worst_forms = max(worst_forms, abs(res.corollary - res.proposition))
        rep.add(contour.nonvanishing_check(params, z, res.contour))
        # condition (vi) over every doubling, not just the nodes it was tested on
        ratio = res.geom_ratio_max
        rep.check("geometric-ratio", max(0.0, ratio - 1.0), 0.0, max_ratio=ratio, z=complex(z))
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


@functools.cache
def _fixed_entries(full: bool) -> dict:
    """The entries that read neither kappa nor t, once per process and level:
    ``"lead"`` opens each report, in order; each ``_check_helpers`` entry sits
    under its name.  Reports share them, as VerifyEntry is frozen."""
    lead, helpers = VerifyReport(), VerifyReport()
    for check in (_check_specfun, _check_powerseries, _check_flow_fixed):
        check(lead, full)
    _check_helpers(helpers, full)
    parts = {"lead": tuple(lead.entries)}
    for e in helpers.entries:
        parts[e.name] = parts.get(e.name, ()) + (e,)
    return parts


def run_checks(kappa: float, t: float, level: str = "fast") -> VerifyReport:
    """Run the named verification suite for one parameter pair; the entries
    of ``_fixed_entries`` go where their sections put them."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    full = level == "full"
    params = flow.FlowParams(kappa, t)
    rep = VerifyReport()
    rep.entries += _fixed_entries(full)["lead"]
    _check_flow_kappa(rep, kappa)
    phi_s = maps.phi_series(params, 12 if full else 8)
    # the Herglotz coefficients at kappa = 0: 16 for kzero-closed-form, 60 for the series
    k_coeffs = [maps.k_series_coeff(float(t), n) for n in range(1, 61)]
    _check_oracles(rep, params, phi_s, k_coeffs, full)
    _check_maps(rep, params, phi_s, k_coeffs, full)
    _check_contour(rep, params, full)
    return rep

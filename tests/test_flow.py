import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from jacobiflow import cli, contour, flow, maps
from jacobiflow.flow import (
    FlowParams,
    RationalPoly,
    _coeff_rows,
    _diff_balls,
    _diff_row,
    _exact_nums,
    _exp_neg_t,
    _rounded,
    _t_balls,
    _t_rows,
    _table,
    a_coeff,
    b_coeff,
    binom_transform,
    inv_binom_transform,
    invrel_weight,
    invrel_weight_split,
    jacobi_moments,
    m_series_coeffs,
    phi_inv_coeffs,
    pnm_poly,
    s_coeff,
)
from jacobiflow.powerseries import MAX_ORDER, series_revert
from jacobiflow.specfun import binomial, laguerre, pochhammer


def _reference_ttable(t, n_max):
    """The point-value table: q[k][j] = Q(k, j) (k-1)! 2**(tau (k-1)) for
    j <= n_max and rows[n][j] = sum_k C(2n, n-k) (n-1)!/(k-1)! D**k
    2**(sigma (n-k)) q[k][j] for j <= n, as the engine built it before the
    binomial basis."""
    T, t_den = t.as_integer_ratio()
    D, d_den = math.exp(-t).as_integer_ratio()
    tau = t_den.bit_length() - 1
    sigma = tau + d_den.bit_length() - 1
    q, rows = [None], [None]
    for k in range(1, n_max + 1):
        x, h = -2 * k * T, []
        for m in range(k):  # C(k-1, m) L_{k-m-1}^{(m+1)}(2kt) (k-m-1)! 2**(tau (k-m-1))
            top = k - m - 1
            acc = scale = 1
            for i in range(top - 1, -1, -1):
                scale = scale * (i + 1) << tau
                acc = acc * x + binomial(k, top - i) * scale
            h.append(binomial(k - 1, m) * acc)
        row = []
        for j in range(n_max + 1):
            acc = h[k - 1]
            for m in range(k - 2, -1, -1):
                acc = h[m] + (2 * j + m) * (-2 << tau) * acc
            row.append(acc)
        q.append(row)
    for n in range(1, n_max + 1):
        row = []
        for j in range(n + 1):
            acc = 0
            for k in range(n, 0, -1):
                weight = binomial(2 * n, n - k) * math.factorial(n - 1) // math.factorial(k - 1)
                acc = acc * D + (weight * q[k][j] << sigma * (n - k))
            row.append(acc * D)
        rows.append(row)
    return q, rows


def _exact(p, order):
    """[(a_n, b_n, S_n) for n = 1..order] as Fractions, from the exact
    engine's integer numerators."""
    nums = _exact_nums(Fraction(p.kappa) ** 2, float(p.t), list(range(1, order + 1)))
    return [(Fraction(b, den * n << 2 * n), Fraction(b, den), Fraction(s, den))
            for n, (b, s, den) in enumerate(nums, 1)]


def _reference_b_num(rows, kappa, n):
    """b_n den_n as 2 sum_j (-1)**j C(n, j) E**j e_d**(n-j) rows[n][j]."""
    eps = Fraction(kappa) ** 2
    return 2 * sum(
        (-1) ** j * binomial(n, j) * eps.numerator**j * eps.denominator ** (n - j) * rows[n][j]
        for j in range(n + 1)
    )


def _reference_t_balls(t, prec, order):
    """``_t_balls`` as a product per (n, r, k): each rho_n[r] summed over
    the column of Delta_k[r], k > r, as the engine summed it before the
    packed row sums.  It calls ``flow._diff_balls``, so a patch of it reaches
    both."""
    cols, rads, rows = [], [], []  # cols[r]: midpoints of Delta_k[r], k > r
    for n in range(1, order + 1):
        mids, rad = flow._diff_balls(t, prec, n)
        cols.append([])
        for col, m in zip(cols, mids):
            col.append(m)
        rads.append(rad)
        weight = flow._binomial_row(2 * n)[n::-1]  # C(2n, n-k) for k <= n
        row = tuple(sum(w * m for w, m in zip(weight[r + 1:], col)) for r, col in enumerate(cols))
        rows.append((row, sum(w * e for w, e in zip(weight[1:], rads)),
                     max(abs(v).bit_length() for v in row)))
    return tuple(rows)


class TestFlowParams:
    def test_epsilon_is_exact_square(self):
        p = FlowParams(0.3, 1.0)
        assert p.epsilon == 0.3 * 0.3

    def test_fraction_kappa(self):
        p = FlowParams(Fraction(1, 3), 2.0)
        assert p.epsilon == Fraction(1, 9)

    @pytest.mark.parametrize(
        "kappa,t",
        [(1.0, 1.0), (-1.0, 1.0), (0.5, 0.0), (0.5, -2.0),
         (0.5, math.inf), (0.5, math.nan), (math.nan, 1.0),
         # e^-t subnormal or zero: the exact anchor would have fewer than 53 bits
         (0.0, 708.3964185322642), (0.0, 740.0), (0.5, 800.0)],
    )
    def test_domain_validation(self, kappa, t):
        with pytest.raises(ValueError):
            FlowParams(kappa, t)

    @pytest.mark.parametrize("t", [5e-324, 0.5, 700.0, 708.3964185322641])
    def test_anchor_is_the_rounded_decay(self, t):
        FlowParams(0.0, t)
        big_d, delta = _exp_neg_t(t)
        assert Fraction(big_d, 2**delta) == Fraction(math.exp(-t))


class TestPnmPoly:
    def test_m_zero_is_binomial_power(self):
        # (1 - eps)^n expanded
        for n in range(0, 21):
            want = tuple(Fraction((-1) ** k * binomial(n, k)) for k in range(n + 1))
            assert pnm_poly(n, 0).coeffs == want

    def test_value_at_zero_is_kronecker(self):
        for n in range(1, 21):
            for m in range(21):
                assert pnm_poly(n, m).coeffs[0] == int(m == 0), (n, m)

    def test_value_at_three_is_its_definition(self):
        # P_{n,m}(3) is the x**m coefficient of (1 - 3/(1+x)**2)**n, expanded
        # on integers with 1/(1+x)**2 = sum_j (-1)**j (j+1) x**j; flow.pnm_poly
        # is read at call time, so a patched one is checked too
        n_max = 20
        base = [-2] + [3 * (-1) ** (j + 1) * (j + 1) for j in range(1, n_max + 1)]
        power = [1] + [0] * n_max
        for n in range(1, n_max + 1):
            power = [sum(power[i] * base[m - i] for i in range(m + 1)) for m in range(n_max + 1)]
            assert [flow.pnm_poly(n, m)(3) for m in range(n_max + 1)] == power, n

    def test_hand_expanded_low_case(self):
        assert pnm_poly(1, 1).coeffs == (0, 2)  # 2 eps

    def test_degree_bound(self):
        for n in range(1, 21):
            for m in range(21):
                assert pnm_poly(n, m).degree <= n, (n, m)

    def test_rational_poly_trims(self):
        p = RationalPoly((Fraction(1), Fraction(0), Fraction(0)))
        assert p.coeffs == (Fraction(1),)
        assert p.degree == 0

    def test_rational_poly_keeps_ints(self):
        p = RationalPoly((3, Fraction(1, 2), 0.25, 0))
        assert p.coeffs == (3, Fraction(1, 2), Fraction(1, 4))
        assert [type(c) for c in p.coeffs] == [int, Fraction, Fraction]
        assert RationalPoly(()).coeffs == (0,)

    def test_integer_coefficients_equal_the_pochhammer_form(self):
        # the eps**k coefficient (-1)**(m+k) C(n, k) (2k)_m / m!, as Fractions
        for n in range(21):
            for m in range(21):
                old = [Fraction((-1) ** (m + k) * binomial(n, k) * pochhammer(2 * k, m),
                                math.factorial(m)) for k in range(n + 1)]
                got = pnm_poly(n, m).coeffs
                assert all(type(c) is int for c in got), (n, m)
                assert got == RationalPoly(tuple(old)).coeffs, (n, m)


class TestACoeff:
    def test_first_coefficient_symmetric(self):
        for t in (0.5, 1.0, 2.5):
            assert a_coeff(FlowParams(0.0, t), 1) == pytest.approx(
                math.exp(-t) / 2, rel=1e-15, abs=0
            )

    def test_first_coefficient_general(self):
        # single term k=1, m=0: (1 - eps) e^{-t} / 2
        p = FlowParams(0.6, 1.3)
        assert a_coeff(p, 1) == pytest.approx((1 - 0.36) * math.exp(-1.3) / 2, rel=1e-13, abs=0)

    def test_symmetric_case_matches_plain_sum(self):
        # only m = 0 survives at kappa = 0
        t = 0.8
        p = FlowParams(0.0, t)
        for n in (1, 3, 6, 8):
            plain = 2 * sum(
                binomial(2 * n, n - k)
                * math.exp(-k * t)
                * float(laguerre(k - 1, 1, 2 * k * Fraction(t)))
                for k in range(1, n + 1)
            )
            assert b_coeff(p, n) == pytest.approx(plain, rel=1e-12, abs=0)

    def test_even_in_kappa(self):
        # the contour integral on circles centred at kappa and at -kappa, whose
        # nodes differ, against the 64-term series
        for kappa, t, z in ((0.4, 0.8, 0.03), (0.5, 1.0, 0.02 + 0.01j), (0.9, 0.5, 0.05)):
            want = m_series_coeffs(FlowParams(kappa, t), 64)(z)
            for kap in (kappa, -kappa):
                res = contour.m_integral_detailed(FlowParams(kap, t), z)
                assert res.contour.center == kap
                for got in (res.corollary, res.proposition):
                    assert abs(got - want) <= 1e-16, (kap, t, z, got, want)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            a_coeff(FlowParams(0.0, 1.0), 0)

    def test_index_takes_any_integer_type_but_bool(self):
        p = FlowParams(0.3, 1.0)
        for accessor, n in [(a_coeff, True), (b_coeff, False), (phi_inv_coeffs, True),
                            (m_series_coeffs, 3.0), (s_coeff, "2")]:
            with pytest.raises(ValueError, match="positive integer"):
                accessor(p, n)
        assert a_coeff(p, np.int64(5)) == a_coeff(p, 5)
        assert phi_inv_coeffs(p, np.int64(8)).coeffs == phi_inv_coeffs(p, 8).coeffs
        assert m_series_coeffs(p, np.uint8(4)).coeffs == m_series_coeffs(p, 4).coeffs


class TestBCoeff:
    def test_rescaling(self):
        p = FlowParams(0.3, 0.7)
        for n in (1, 2, 5):
            assert b_coeff(p, n) == n * 4**n * a_coeff(p, n)

    def test_first_symmetric(self):
        assert b_coeff(FlowParams(0.0, 1.0), 1) == pytest.approx(
            2 * math.exp(-1), rel=1e-15, abs=0
        )

    def test_continuity_at_kappa_zero(self):
        b_small = b_coeff(FlowParams(1e-6, 1.0), 3)
        b_zero = b_coeff(FlowParams(0.0, 1.0), 3)
        assert b_small == pytest.approx(b_zero, abs=1e-5)


class TestSCoeff:
    def test_first_is_b1(self):
        p = FlowParams(0.45, 1.2)
        assert s_coeff(p, 1) == b_coeff(p, 1)

    def test_weight_normalization(self):
        # with b_k = delta_{k,n} only the k = n term survives, weight 1
        for n in range(1, 12):
            assert invrel_weight(n, n) == 1
            assert invrel_weight_split(n, n) == 1

    def test_symmetric_case_reduces_to_herglotz(self):
        t = 0.5
        p = FlowParams(0.0, t)
        for n in (1, 4, 9, 16):
            want = n * maps.k_series_coeff(t, n)
            assert s_coeff(p, n) == pytest.approx(want, rel=1e-12, abs=0)


class TestSeries:
    def test_phi_inv_constant_term(self):
        assert phi_inv_coeffs(FlowParams(0.2, 1.0), 4).coeffs[0] == 1.0

    def test_phi_inv_symmetric_reduction(self):
        t = 1.0
        inv = phi_inv_coeffs(FlowParams(0.0, t), 10)
        for n in range(1, 11):
            assert inv.coeffs[n] == pytest.approx(maps.k_series_coeff(t, n), rel=1e-12, abs=0)

    def test_m_series_is_z_ddz(self):
        p = FlowParams(0.35, 0.9)
        inv = phi_inv_coeffs(p, 8)
        m = m_series_coeffs(p, 8)
        assert m.coeffs[0] == 0.0
        for n in range(1, 9):
            assert m.coeffs[n] == pytest.approx(n * inv.coeffs[n], rel=1e-15, abs=0)

    def test_m_series_matches_direct_s_route(self):
        p = FlowParams(0.5, 1.0)
        m = m_series_coeffs(p, 10)
        for n in range(1, 11):
            assert m.coeffs[n] == s_coeff(p, n)

    def test_symmetric_closed_form_value(self):
        t = 1.0
        m = m_series_coeffs(FlowParams(0.0, t), 16)
        z = 0.05
        assert m(z) == pytest.approx(maps.m_zero(t, z), abs=1e-12)

    def test_composition_with_flow_map_series_is_identity(self):
        from jacobiflow.powerseries import series_compose

        p = FlowParams(0.4, 1.0)
        N = 12
        outer = maps.big_phi_series(p, N)  # about z = 1, vanishing there
        inner = phi_inv_coeffs(p, N)       # about 0, constant term 1
        ident = series_compose(outer, inner)
        assert abs(ident.coeffs[0]) < 1e-12
        assert ident.coeffs[1] == pytest.approx(1.0, abs=1e-10)
        assert max(abs(c) for c in ident.coeffs[2:]) < 1e-10

    def test_order_validation(self):
        for order in (0, 2.0):
            with pytest.raises(ValueError):
                m_series_coeffs(FlowParams(0.1, 1.0), order)

    @pytest.mark.parametrize("build,t", [(phi_inv_coeffs, 1.128), (m_series_coeffs, 1.129)])
    def test_order_cap_checked_before_the_work(self, build, t):
        caches = (_t_balls, _t_rows, _table)
        infos = [cache.cache_info() for cache in caches]
        with pytest.raises(ValueError, match=f"capped at {MAX_ORDER}"):
            build(FlowParams(0.37, t), MAX_ORDER + 1)
        assert [cache.cache_info() for cache in caches] == infos


class TestExactEngine:
    @pytest.mark.parametrize("kappa", [0.5, 0.37, Fraction(2, 7)])
    def test_one_engine_per_eps_and_t(self, kappa):
        # kappa enters through eps alone: -kappa, and a float kappa and its
        # equal Fraction, share one table; at 0.37 the float's FlowParams
        # rounds epsilon, so the two FlowParams are not equal
        _table.cache_clear()
        for k in (kappa, -kappa, Fraction(kappa), -Fraction(kappa)):
            a_coeff(FlowParams(k, 1.25), 5)
        assert _table.cache_info()[:2] == (3, 1)  # (hits, misses)
        a_coeff(FlowParams(kappa, 1.5), 5)
        assert _table.cache_info()[:2] == (3, 2)
        assert a_coeff(FlowParams(-kappa, 1.25), 5) == a_coeff(FlowParams(kappa, 1.25), 5)

    @pytest.mark.parametrize("kappa", [0.3, 0.7])
    @pytest.mark.parametrize("t", [0.5, 2.5])
    def test_b_and_m_rounded_once(self, kappa, t):
        p = FlowParams(kappa, t)
        rows = cli._table_rows(kappa, t, 40)
        m = m_series_coeffs(p, 40)
        for n, (row, (_, b, s)) in enumerate(zip(rows, _exact(p, 40)), start=1):
            assert b_coeff(p, n) == float(b)
            assert row["M"] == float(s)
            assert m.coeffs[n] == float(s)

    @pytest.mark.parametrize(
        "kappa,t", [(0.37, 1.23), (-0.61, 0.83), (Fraction(1, 3), 0.7), (0.0, 0.5)]
    )
    def test_matches_exact_reversion_oracle(self, kappa, t):
        p = FlowParams(kappa, t)
        oracle = series_revert(maps.big_phi_series(p, 10))
        for n, (_, _, s) in enumerate(_exact(p, 10), start=1):
            assert s / n == oracle.coeffs[n]

    @pytest.mark.parametrize("kappa,t", [(0.5, 1.0), (0.7, 0.5)])
    def test_matches_exact_reversion_oracle_to_order_24(self, kappa, t):
        p = FlowParams(kappa, t)
        oracle = series_revert(maps.big_phi_series(p, 24))
        for n, (_, _, s) in enumerate(_exact(p, 24), start=1):
            assert s / n == oracle.coeffs[n]

    def test_matches_laguerre_pnm_sum(self):
        # the nested sum in its original order, over specfun and pnm_poly
        kappa, t = Fraction(2, 5), 0.75
        eps, decay = kappa**2, Fraction(math.exp(-t))
        exact = _exact(FlowParams(kappa, t), 8)
        for n in range(1, 9):
            total = sum(
                binomial(2 * n, n - k) * decay**k * sum(
                    laguerre(k - m - 1, m + 1, 2 * k * Fraction(t)) * 2**m * pnm_poly(n, m)(eps)
                    for m in range(k)
                )
                for k in range(1, n + 1)
            )
            assert exact[n - 1][0] == Fraction(2, 4**n * n) * total

    @pytest.mark.parametrize("t", [1e-6, 0.5, 1.37, 2.5, 40.0, 800.0])
    def test_b_num_matches_point_value_table(self, t):
        if math.exp(-t) < sys.float_info.min:  # e^-800 is 0.0: refused
            with pytest.raises(ValueError):
                FlowParams(0.0, t)
            return
        _, rows = _reference_ttable(t, 48)
        for kappa in (0.0, -0.61, 0.37, Fraction(1, 3), 0.999):
            nums = _exact_nums(Fraction(kappa) ** 2, t, list(range(1, 49)))
            for n, (b, _, _) in enumerate(nums, start=1):
                assert b == _reference_b_num(rows, kappa, n)

    @pytest.mark.parametrize("t", [1e-6, 1.37, 40.0])
    def test_diffs_are_forward_differences_of_q(self, t):
        q, _ = _reference_ttable(t, 24)
        d = math.exp(-t).as_integer_ratio()[0]
        for k in range(1, 25):
            diffs = [sum((-1) ** (r - i) * binomial(r, i) * q[k][i] for i in range(r + 1))
                     for r in range(k + 1)]
            assert _diff_row(t, k) == [d**k * diff for diff in diffs[:k]]
            assert diffs[k] == 0  # Q(k, j) has degree k-1 in j

    def test_shared_table_under_threads(self):
        t, n_max = 0.6180339887, 14
        want = _t_rows.__wrapped__(t, n_max)
        orders = [random.Random(seed).sample(range(1, n_max + 1), n_max) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    _t_rows.cache_clear()
                    futures = [pool.submit(lambda o: [(n, _t_rows(t, n)) for n in o], o)
                               for o in orders]
                    for f in futures:
                        for n, rows in f.result(timeout=60):
                            assert rows == want[:n]
        finally:
            sys.setswitchinterval(interval)

    def test_shared_engine_under_threads(self):
        p, n_max = FlowParams(0.6180339887, 0.5772156649), 20
        want = _fresh_table(p, n_max)
        jobs = [(kind, n) for kind in ("table", "a", "s") for n in range(1, n_max + 1)]
        orders = [random.Random(seed).sample(jobs, len(jobs)) for seed in range(8)]
        calls = {"table": lambda n: _coeff_rows(p, n),
                 "a": lambda n: a_coeff(p, n), "s": lambda n: s_coeff(p, n)}
        serial = {"table": lambda n: want[:n],
                  "a": lambda n: want[n - 1][0], "s": lambda n: want[n - 1][2]}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    _table.cache_clear()
                    futures = [pool.submit(lambda o: [(k, n, calls[k](n)) for k, n in o], o)
                               for o in orders]
                    for f in futures:
                        for kind, n, value in f.result(timeout=60):
                            assert value == serial[kind](n)
        finally:
            sys.setswitchinterval(interval)


def _hex(rows) -> list:
    """Table rows as float.hex strings, which tell -0.0 from 0.0."""
    return [tuple(x.hex() for x in row) for row in rows]


def _fresh_table(p, order):
    """The first ``order`` rows of a table made afresh, past the cache, by
    ``flow._make_table``, which reads any patch of ``flow._exact_nums``."""
    return flow._make_table(Fraction(p.kappa) ** 2, float(p.t), max(order, 16))[:order]


def _exact_floats(p, order):
    """``_hex`` of (a_n, b_n, S_n, S_n / n) as float(Fraction) from the
    exact engine's integer numerators."""
    return _hex([(float(a), float(b), float(s), float(s / n))
                 for n, (a, b, s) in enumerate(_exact(p, order), start=1)])


def _no_exact_rows(eps, t, ns):
    raise AssertionError(f"the exact engine made rows {ns}")


def _forbidden(name):
    """A stand-in for ``flow.<name>`` that fails any call."""
    def call(*args):
        raise AssertionError(f"{name} was called")
    return call


def _record_exact_rows(monkeypatch):
    """The list of rows the exact engine makes from here on."""
    made = []
    monkeypatch.setattr(flow, "_exact_nums",
                        lambda eps, t, ns: made.extend(ns) or _exact_nums(eps, t, ns))
    return made


class TestBallPass:
    """Each float of a ball pass is float(exact); the exact engine makes
    only the rows no pass decides."""

    SPECIAL_KAPPAS = (0.0, 1e-300, 1 - 1e-5, -(1 - 1e-5), Fraction(2, 7), 0.5)

    @staticmethod
    def _cases():
        # kappa = 1e-300 has e_d = 2**2098, so its exact reference is kept to n <= 24
        rng = random.Random(20260314)
        cases = [(kappa, t, order) for kappa in TestBallPass.SPECIAL_KAPPAS
                 for t, order in ((1e-6, 64), (0.7, 40), (5.0, 24), (40.0, 16), (708.0, 12))]
        for _ in range(18):
            kappa = rng.choice([rng.uniform(-0.999, 0.999), *TestBallPass.SPECIAL_KAPPAS])
            cases.append((kappa, math.exp(rng.uniform(math.log(1e-6), math.log(708.0))),
                          rng.randint(1, 64)))
        return [(kappa, t, min(order, 24) if kappa == 1e-300 else order)
                for kappa, t, order in cases]

    def test_public_floats_equal_exact(self):
        for kappa, t, order in self._cases():
            p = FlowParams(kappa, t)
            want = _exact_floats(p, order)
            _table.cache_clear()
            assert _hex(_coeff_rows(p, order)) == want, (kappa, t, order)
            inv, m = phi_inv_coeffs(p, order), m_series_coeffs(p, order)
            _table.cache_clear()  # the accessors, each from a cold table
            for n in (1, (order + 1) // 2, order):
                assert a_coeff(p, n).hex() == want[n - 1][0], (kappa, t, n)
                assert b_coeff(p, n).hex() == want[n - 1][1], (kappa, t, n)
                assert s_coeff(p, n).hex() == m.coeffs[n].hex() == want[n - 1][2], (kappa, t, n)
                assert inv.coeffs[n].hex() == want[n - 1][3], (kappa, t, n)

    @pytest.mark.parametrize("kappa,t", [(0.37, 1.23), (-0.81, 0.14), (Fraction(1, 3), 2.5),
                                         (0.3, 1e-6), (0.7, 700.0)])
    def test_ball_pass_decides_alone(self, kappa, t, monkeypatch):
        # to order 64 at t = 1e-6 and 700, where the error of the recurrence
        # for Delta_k grows most
        p, order = FlowParams(kappa, t), 64 if t in (1e-6, 700.0) else 48
        want = _exact_floats(p, order)
        monkeypatch.setattr(flow, "_exact_nums", _no_exact_rows)
        assert _hex(_fresh_table(p, order)) == want

    def test_ball_pass_shares_no_step_with_the_exact_engine(self, monkeypatch):
        # Delta_k of the pass comes from the recurrence in r alone: neither
        # the Laguerre values nor the prefix sums of the exact engine
        p = FlowParams(0.37, 1.23)
        want = _exact_floats(p, 48)
        for name in ("_laguerre_scaled", "_delta_rows", "_exact_nums"):
            monkeypatch.setattr(flow, name, _forbidden(name))
        _t_balls.cache_clear()
        assert _hex(_fresh_table(p, 48)) == want

    @pytest.mark.parametrize("t", [1e-6, 0.12, 1.37, 40.0, 708.0])
    def test_recurrence_equals_diff_row(self, t):
        # a_r = [s**(m-r)] (1+s)**(-2r) (1-s)**-2 e^{-xs/(1-s)}, m = k-1 and
        # x = 2kt, by the backward recurrence from a_m = 1, a_{m+1} = a_{m+2}
        # = 0, in Fractions; Delta**r Q(k, 0) = b_r = (-4)**r a_r.  The balls
        # of b_r at scale 2**0 and 2**4, where each step's floor is felt,
        # hold it
        big_t, tau, big_d, _ = flow._t_scales(t)
        for k in range(1, 65):
            m, x = k - 1, Fraction(2 * k * big_t, 1 << tau)
            a = [Fraction(0)] * (k + 2)
            a[m] = Fraction(1)
            for r in range(m - 1, -1, -1):
                a[r] = -((2 * r + 3) * (6 * r * r + 18 * r + 8 - 4 * m * m - 8 * m + (m + 1) * x) * a[r + 1]
                         + (r + 1) * (16 * m * m + 32 * m - 48 * r * r - 192 * r - 176
                                      - 8 * (m + 1) * x + x * x) * a[r + 2]
                         + 32 * (r + 1) * (r + 2) * (2 * r + 5) * a[r + 3]) / ((m - r) * (m + r + 2) * (r + 2))
            exact = _diff_row(t, k)
            unit = big_d**k * math.factorial(m) << tau * m
            assert [unit * (-4) ** r * a[r] for r in range(k)] == exact, k
            for scale in (0, 4):
                mids, rad = flow._recurrence_balls(2 * k * big_t, tau, m, scale)
                for r, v in enumerate(exact):
                    assert abs(Fraction(v << scale, unit) - mids[r]) <= rad, (k, scale, r)

    @pytest.mark.parametrize("prec", [0, 4, 40, 64])
    @pytest.mark.parametrize("kappa,t", [(0.37, 1.23), (0.0, 8.0), (0.5, 1.35)])
    def test_forced_fallback_keeps_every_float(self, prec, kappa, t, monkeypatch):
        # a pass at a few bits decides few rows or none; the exact engine
        # makes the rest
        p = FlowParams(kappa, t)
        want = _exact_floats(p, 32)
        monkeypatch.setattr(flow, "_precision", lambda order, t: prec)
        made = _record_exact_rows(monkeypatch)
        assert _hex(_fresh_table(p, 32)) == want
        if prec <= 4:
            assert made == list(range(1, 33))

    @pytest.mark.parametrize("prec", [8, 128])
    @pytest.mark.parametrize("kappa,t", [(0.37, 1.23), (0.0, 8.0), (Fraction(2, 7), 0.01),
                                         (-0.99999, 40.0), (0.5, 700.0)])
    def test_balls_hold_the_exact_values(self, kappa, t, prec):
        # every midpoint is within its radius of the exact value, at any P:
        # Delta_k[r] (to k = 64, where the recurrence's radius grows most)
        # and rho_n[r] against the exact t-table, b_n and S_n against the
        # exact engine
        order = 24
        P = prec
        _, tau, _, delta = flow._t_scales(t)
        for k in range(1, 65):
            scale = math.factorial(k - 1) << tau * (k - 1) + delta * k
            mids, rad = _diff_balls(t, P, k)
            for r, exact in enumerate(_diff_row(t, k)):
                assert abs(Fraction(exact << P, scale) - mids[r]) <= rad, (k, r)
        exact_rows = _t_rows(t, order)
        for n, (mids, rad, beta) in enumerate(_t_balls(t, P, order), 1):
            scale = math.factorial(n - 1) << (tau + delta) * n - tau
            assert max(abs(m) for m in mids) < 1 << beta
            for r, mid in enumerate(mids):
                assert abs(Fraction(exact_rows[n - 1][r] << P, scale) - mid) <= rad, (n, r)
        p = FlowParams(kappa, t)
        for n, ((b, e, s, f), (_, b_exact, s_exact)) in enumerate(
                zip(flow._balls(Fraction(kappa) ** 2, t, order, P), _exact(p, order)), 1):
            assert abs(b_exact * 2**P - b) <= e and abs(s_exact * 2**P - s) <= f, n

    def test_ci_coeffs_commands_take_both_paths(self, monkeypatch):
        # the two `coeffs --n 64` commands of the CI's console-script step
        made = _record_exact_rows(monkeypatch)
        _fresh_table(FlowParams(0.3, 0.001), 64)
        assert made == []
        _fresh_table(FlowParams(0.99999, 50.0), 64)
        assert made

    def test_tie_goes_to_the_exact_engine(self, monkeypatch):
        # b_1 = 2 (1 - eps) e^{-t} at eps = 1/4 is 3 D / 2**(delta-1), and 3 D
        # is odd with 54 bits: halfway between two floats, which no ball decides
        p = FlowParams(0.5, 1.35)
        big_d, _ = _exp_neg_t(1.35)
        assert (3 * big_d).bit_length() == 54 and big_d % 2 == 1
        want = _exact_floats(p, 48)
        made = _record_exact_rows(monkeypatch)
        assert _hex(_fresh_table(p, 48)) == want
        assert made == [1]

    def test_precision(self):
        assert flow._precision(48, 1.35) == 320  # 96 + 192 + 2, rounded up
        assert flow._precision(64, 1e-6) == 384  # 96 + 256 + 1
        assert flow._precision(64, 700.0) == 1376

    def test_rounded_at_radius_zero(self):
        # the exact engine's rows: the int/int quotient, rounded once
        assert _rounded(0, 0, 7).hex() == "0x0.0p+0"
        assert _rounded(2**53 + 1, 0, 1) == 2**53  # ties to even
        assert _rounded(2**53 + 3, 0, 1) == 2**53 + 4
        assert _rounded(-(2**54 + 2), 0, 2) == -(2**53)
        rng = random.Random(41)
        for _ in range(200):
            mid, den = rng.randrange(-(2**300), 2**300), rng.randrange(1, 2**250)
            assert _rounded(mid, 0, den) == float(Fraction(mid, den))

    def test_rounded_ball_holding_zero_is_open(self):
        for mid, rad in [(0, 1), (3, 3), (-2, 5), (2, 2)]:
            assert _rounded(mid, rad, 9) is None
        assert _rounded(10**30, 1, 3) == 10**30 / 3

    def test_t_balls_one_table_per_precision(self):
        t = 0.4142135623
        _t_balls.cache_clear()
        low = _t_balls(t, 96, 8)
        high = _t_balls(t, 160, 12)
        assert high[:8] != low
        assert _t_balls(t, 96, 8) is low and _t_balls.cache_info()[:2] == (1, 2)
        assert _t_balls(t, 96, 10)[:8] == low  # row n does not depend on the order
        assert high == _t_balls.__wrapped__(t, 160, 12)

    @pytest.mark.parametrize("t", [1e-6, 0.5, 1.37, 5.0, 40.0, 708.0])
    def test_packed_row_sums_equal_the_reference(self, t):
        # a reference row does not depend on the order, so one reference per
        # precision serves every order that shares it
        want = {}
        for order in range(1, 65):
            prec = flow._precision(order, t)
            if prec not in want:
                want[prec] = _reference_t_balls(t, prec, 64)
            assert _t_balls.__wrapped__(t, prec, order) == want[prec][:order], (t, order)

    @pytest.mark.parametrize("first", [1, -1])
    @pytest.mark.parametrize("bits", range(60, 68))
    def test_packed_slots_at_their_bound(self, bits, first, monkeypatch):
        # every midpoint at +-(2**B - 1), the sign alternating over r: each
        # |rho_n[r]| is (2**B - 1) sum_{k>r} C(2n, n-k), the most a slot has
        # to hold, and neighbouring slots differ in sign; eight consecutive B
        # put B + 2 order + 2 at every offset from a whole byte
        mid = (1 << bits) - 1
        monkeypatch.setattr(flow, "_diff_balls",
                            lambda t, prec, k: ([first * (-1) ** r * mid for r in range(k)], 1))
        rows = _t_balls.__wrapped__(1.0, 0, 64)
        assert rows == _reference_t_balls(1.0, 0, 64)
        assert rows[-1][2] > bits + 2 * 64 - 3  # near the bound, not far below it

    def test_shared_ball_table_under_threads(self):
        # threads that ask for the tables of two P in any order
        t, n_max, precs = 0.6180339887, 14, (96, 160)
        serial = {prec: _t_balls.__wrapped__(t, prec, n_max) for prec in precs}
        jobs = [(n, prec) for n in range(1, n_max + 1) for prec in precs]
        orders = [random.Random(seed).sample(jobs, len(jobs)) for seed in range(8)]

        def work(order):
            return [(n, prec, _t_balls(t, prec, n)) for n, prec in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    _t_balls.cache_clear()
                    futures = [pool.submit(work, o) for o in orders]
                    for f in futures:
                        for n, prec, rows in f.result(timeout=60):
                            assert rows == serial[prec][:n]
        finally:
            sys.setswitchinterval(interval)

    def test_cached_tables_are_tuples(self):
        # no caller can change a cached table in place
        def frozen(value):
            return not isinstance(value, list) and (
                not isinstance(value, tuple) or all(map(frozen, value)))

        t = 1.3
        _coeff_rows(FlowParams(0.37, t), 20)
        for table in (_table(Fraction(0.37) ** 2, t, 20), _t_balls(t, flow._precision(20, t), 20),
                      _t_rows(t, 20)):
            assert type(table) is tuple and len(table) == 20
            assert all(type(row) is tuple for row in table) and frozen(table)


class TestRoundedOnce:
    """Every float is its exact value rounded once: an int/int quotient."""

    # e_d = 9 at kappa = 1/3 is not a power of two
    @pytest.mark.parametrize("kappa,t", [(0.0, 1.0), (-0.61, 0.83), (0.37, 2.5), (0.5, 700.0),
                                         (Fraction(1, 3), 0.7)])
    def test_table_columns(self, kappa, t):
        exact = _exact(FlowParams(kappa, t), MAX_ORDER)
        rows = cli._table_rows(kappa, t, MAX_ORDER)
        assert len(rows) == MAX_ORDER
        for n, (row, (a, b, s)) in enumerate(zip(rows, exact), start=1):
            assert row == {"n": n, "a_n": float(a), "b_n": float(b),
                           "S_n": float(s), "phi_inv": float(s / n), "M": float(s)}
        if t == 700.0:  # the tail of a_n is subnormal
            assert 0 < abs(rows[-1]["a_n"]) < sys.float_info.min

    @pytest.mark.parametrize("kappa", [0.0, -0.61, Fraction(1, 3)])
    @pytest.mark.parametrize("t", [0.5, 700.0])
    def test_library_accessors(self, kappa, t):
        p = FlowParams(kappa, t)
        inv, m = phi_inv_coeffs(p, 32), m_series_coeffs(p, 32)
        for n, (a, b, s) in enumerate(_exact(p, 32), start=1):
            assert a_coeff(p, n) == float(a)
            assert b_coeff(p, n) == float(b)
            assert s_coeff(p, n) == m.coeffs[n] == float(s)
            assert inv.coeffs[n] == float(s / n)


class TestBinomTransforms:
    def test_unit_sequence(self):
        c = [Fraction(1)] + [Fraction(0)] * 7
        out = binom_transform(c)
        assert out == [binomial(2 * n, n) for n in range(8)]

    def test_delta_one(self):
        c = [Fraction(0), Fraction(1)] + [Fraction(0)] * 6
        out = binom_transform(c)
        assert out == [binomial(2 * n, n - 1) for n in range(8)]

    def test_inverse_of_unit(self):
        b = [Fraction(1)] + [Fraction(0)] * 9
        c = inv_binom_transform(b)
        assert c[0] == 1
        for n in range(1, 10):
            assert c[n] == (-1) ** n * 2

    def test_roundtrip_exact_length_30(self):
        rng = random.Random(17)
        seq = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(30)]
        assert inv_binom_transform(binom_transform(seq)) == seq
        assert binom_transform(inv_binom_transform(seq)) == seq

    def test_weight_forms_agree(self):
        for n in range(1, 31):
            for k in range(n + 1):
                assert invrel_weight(n, k) == invrel_weight_split(n, k), (n, k)

    @pytest.mark.parametrize("transform", [binom_transform, inv_binom_transform])
    def test_fraction_route_matches_ring_loop(self, transform):
        # all-Fraction input runs on integer numerators; the same values as
        # ints, or with ints mixed in, run the ring loop
        rng = random.Random(29)
        ints = [rng.randint(-20, 20) for _ in range(24)]
        assert transform([Fraction(c) for c in ints]) == transform(ints)
        assert all(type(c) is int for c in transform(ints))
        fracs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(24)]
        fracs[0] = Fraction(7)
        mixed = [c.numerator if c.denominator == 1 else c for c in fracs]
        assert type(mixed[0]) is int and any(type(c) is Fraction for c in mixed)
        got = transform(fracs)
        assert got == transform(mixed)
        assert all(type(c) is Fraction for c in got)
        assert transform([]) == []

    @pytest.mark.parametrize("transform", [binom_transform, inv_binom_transform])
    def test_other_input_takes_the_ring_loop(self, transform, monkeypatch):
        def boom(fracs):
            raise AssertionError("the integer route ran")

        want = transform([Fraction(1), Fraction(2), Fraction(-3, 2)])
        monkeypatch.setattr(flow, "_common_denominator", boom)
        assert transform([1, 2, -3]) == transform([1.0, 2.0, -3.0])
        assert all(type(c) is float for c in transform([1.0, 2.0, -3.0]))
        assert transform([Fraction(1), 2, Fraction(-3, 2)]) == want
        with pytest.raises(AssertionError, match="integer route"):
            transform([Fraction(1), Fraction(2)])


class TestJacobiMoments:
    def test_degenerate_time_zero(self):
        # tau(U^k) = 1 is the time-zero unitary; moments collapse to (1+kappa)/2
        for kap in (Fraction(0), Fraction(1, 3), Fraction(-3, 5)):
            p = FlowParams(kap, 1.0)
            out = jacobi_moments([Fraction(1)] * 16, p, 16)
            assert all(m == (1 + kap) / 2 for m in out)

    def test_vanishing_moments(self):
        p = FlowParams(Fraction(2, 7), 1.0)
        out = jacobi_moments([Fraction(0)] * 6, p, 6)
        for n, m in enumerate(out, start=1):
            assert m == Fraction(binomial(2 * n, n), 2 ** (2 * n + 1)) + Fraction(2, 7) / 2

    def test_symmetric_case_against_operator_moments(self):
        # at kappa = 0 the process law matches (Y + Y* + 2)/4 built from the
        # same unitary moments, up to the trace compression factor 2:
        # (Y + 1/Y + 2)^n = Y^{-n} (1 + Y)^{2n} termwise
        t = 0.9
        moments = [maps.k_series_coeff(t, k) / 2 for k in range(1, 17)]
        p = FlowParams(0.0, t)
        jac = jacobi_moments(moments, p, 16)
        for n in range(1, 17):
            direct = 4.0**-n * (
                binomial(2 * n, n)
                + 2 * sum(binomial(2 * n, n - k) * moments[k - 1] for k in range(1, n + 1))
            )
            assert 2 * jac[n - 1] == pytest.approx(direct, rel=1e-14, abs=0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            jacobi_moments([1.0, 1.0], FlowParams(0.0, 1.0), 3)

    @pytest.mark.parametrize("order", [0, -2, 2.0])
    def test_order_validation(self, order):
        # an order below 1 once returned [] and a float one a bare TypeError
        with pytest.raises(ValueError, match="truncation order must be a positive integer"):
            jacobi_moments([0.5] * 3, FlowParams(0.3, 1.0), order)

    def test_order_above_the_series_cap(self):
        # the coefficient engine's MAX_ORDER does not bound the moment expansion
        kappa = Fraction(3, 10)
        order = MAX_ORDER + 6
        got = jacobi_moments([Fraction(1)] * order, FlowParams(kappa, 1.0), order)
        assert got == [(1 + kappa) / 2] * order

    @staticmethod
    def _inline_sum(u, params, order):
        """Each moment from its own binomial sum, in the order it adds the terms."""
        out = []
        for n in range(1, order + 1):
            tail = sum((binomial(2 * n, n - k) * u[k - 1] for k in range(1, n + 1)),
                       start=u[0] * 0)
            out.append(Fraction(binomial(2 * n, n), 2 ** (2 * n + 1))
                       + params.kappa * Fraction(1, 2) + Fraction(1, 4**n) * tail)
        return out

    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    def test_float_moments_bit_for_bit(self, kappa):
        rng = random.Random(577)
        p = FlowParams(kappa, 0.9)
        # a unitary law's moments, and signed ones whose zero is -0.0
        for u in ([maps.k_series_coeff(0.9, k) / 2 for k in range(1, 17)],
                  [-0.5] + [rng.uniform(-1, 1) for _ in range(15)]):
            got = jacobi_moments(u, p, 16)
            assert [x.hex() for x in got] == [x.hex() for x in self._inline_sum(u, p, 16)]

    def test_fraction_moments_exact(self):
        rng = random.Random(578)
        u = [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(12)]
        p = FlowParams(Fraction(-2, 9), 1.0)
        got = jacobi_moments(u, p, 12)
        assert got == self._inline_sum(u, p, 12)
        assert all(type(m) is Fraction for m in got)

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from jacobiflow import cli, maps
from jacobiflow.flow import (
    FlowParams,
    RationalPoly,
    _engine,
    _exp_neg_t,
    _t_table,
    _TTable,
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
from jacobiflow.powerseries import series_revert
from jacobiflow.specfun import binomial, laguerre


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


def _exact(eng, n):
    """(a_n, b_n, S_n) as Fractions, from the engine's integer numerators."""
    den = eng._den(n)
    return (Fraction(eng._b_num(n), den * n << 2 * n), Fraction(eng._b_num(n), den),
            Fraction(eng._s_num(n), den))


def _reference_b_num(rows, kappa, n):
    """b_n * _den(n) as 2 sum_j (-1)**j C(n, j) E**j e_d**(n-j) rows[n][j]."""
    eps = Fraction(kappa) ** 2
    return 2 * sum(
        (-1) ** j * binomial(n, j) * eps.numerator**j * eps.denominator ** (n - j) * rows[n][j]
        for j in range(n + 1)
    )


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
        for n in range(0, 15):
            want = tuple(Fraction((-1) ** k * binomial(n, k)) for k in range(n + 1))
            assert pnm_poly(n, 0).coeffs == want

    def test_value_at_zero_is_kronecker(self):
        for n in range(1, 15):
            for m in range(0, 15):
                assert pnm_poly(n, m)(Fraction(0)) == (1 if m == 0 else 0)

    def test_hand_expanded_low_case(self):
        assert pnm_poly(1, 1).coeffs == (0, 2)  # 2 eps

    def test_degree_bound(self):
        for n in range(1, 21):
            for m in range(0, 21):
                assert pnm_poly(n, m).degree <= n

    def test_rational_poly_trims(self):
        p = RationalPoly((Fraction(1), Fraction(0), Fraction(0)))
        assert p.coeffs == (Fraction(1),)
        assert p.degree == 0


class TestACoeff:
    def test_first_coefficient_symmetric(self):
        for t in (0.5, 1.0, 2.5):
            assert a_coeff(FlowParams(0.0, t), 1) == pytest.approx(
                math.exp(-t) / 2, rel=1e-15
            )

    def test_first_coefficient_general(self):
        # single term k=1, m=0: (1 - eps) e^{-t} / 2
        p = FlowParams(0.6, 1.3)
        assert a_coeff(p, 1) == pytest.approx((1 - 0.36) * math.exp(-1.3) / 2, rel=1e-13)

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
            assert b_coeff(p, n) == pytest.approx(plain, rel=1e-12)

    def test_even_in_kappa(self):
        for n in range(1, 9):
            assert a_coeff(FlowParams(0.4, 1.0), n) == a_coeff(FlowParams(-0.4, 1.0), n)

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
        assert b_coeff(FlowParams(0.0, 1.0), 1) == pytest.approx(2 * math.exp(-1), rel=1e-15)

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
            assert s_coeff(p, n) == pytest.approx(want, rel=1e-12)


class TestSeries:
    def test_phi_inv_constant_term(self):
        assert phi_inv_coeffs(FlowParams(0.2, 1.0), 4).coeffs[0] == 1.0

    def test_phi_inv_symmetric_reduction(self):
        t = 1.0
        inv = phi_inv_coeffs(FlowParams(0.0, t), 10)
        for n in range(1, 11):
            assert inv.coeffs[n] == pytest.approx(maps.k_series_coeff(t, n), rel=1e-12)

    def test_m_series_is_z_ddz(self):
        p = FlowParams(0.35, 0.9)
        inv = phi_inv_coeffs(p, 8)
        m = m_series_coeffs(p, 8)
        assert m.coeffs[0] == 0.0
        for n in range(1, 9):
            assert m.coeffs[n] == pytest.approx(n * inv.coeffs[n], rel=1e-15)

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


class TestExactEngine:
    @pytest.mark.parametrize("kappa", [0.3, 0.7])
    @pytest.mark.parametrize("t", [0.5, 2.5])
    def test_b_and_m_rounded_once(self, kappa, t):
        p = FlowParams(kappa, t)
        eng = _engine(p)
        rows = cli._table_rows(kappa, t, 40)
        m = m_series_coeffs(p, 40)
        for n, row in enumerate(rows, start=1):
            _, b, s = _exact(eng, n)
            assert b_coeff(p, n) == float(b)
            assert row["M"] == float(s)
            assert m.coeffs[n] == float(s)

    @pytest.mark.parametrize(
        "kappa,t", [(0.37, 1.23), (-0.61, 0.83), (Fraction(1, 3), 0.7), (0.0, 0.5)]
    )
    def test_matches_exact_reversion_oracle(self, kappa, t):
        p = FlowParams(kappa, t)
        oracle = series_revert(maps.big_phi_series(p, 10, exact=True))
        eng = _engine(p)
        for n in range(1, 11):
            assert _exact(eng, n)[2] / n == oracle.coeffs[n]

    @pytest.mark.parametrize("kappa,t", [(0.5, 1.0), (0.7, 0.5)])
    def test_matches_exact_reversion_oracle_to_order_24(self, kappa, t):
        p = FlowParams(kappa, t)
        oracle = series_revert(maps.big_phi_series(p, 24, exact=True))
        eng = _engine(p)
        for n in range(1, 25):
            assert _exact(eng, n)[2] / n == oracle.coeffs[n]

    def test_matches_laguerre_pnm_sum(self):
        # the nested sum in its original order, over specfun and pnm_poly
        kappa, t = Fraction(2, 5), 0.75
        eps, decay = kappa**2, Fraction(math.exp(-t))
        eng = _engine(FlowParams(kappa, t))
        for n in range(1, 9):
            total = sum(
                binomial(2 * n, n - k) * decay**k * sum(
                    laguerre(k - m - 1, m + 1, 2 * k * Fraction(t)) * 2**m * pnm_poly(n, m)(eps)
                    for m in range(k)
                )
                for k in range(1, n + 1)
            )
            assert _exact(eng, n)[0] == Fraction(2, 4**n * n) * total

    @pytest.mark.parametrize("t", [1e-6, 0.5, 1.37, 2.5, 40.0, 800.0])
    def test_b_num_matches_point_value_table(self, t):
        if math.exp(-t) < sys.float_info.min:  # e^-800 is 0.0: refused
            with pytest.raises(ValueError):
                FlowParams(0.0, t)
            return
        _, rows = _reference_ttable(t, 48)
        for kappa in (0.0, -0.61, 0.37, Fraction(1, 3), 0.999):
            eng = _engine(FlowParams(kappa, t))
            for n in range(1, 49):
                assert eng._b_num(n) == _reference_b_num(rows, kappa, n)

    @pytest.mark.parametrize("t", [1e-6, 1.37, 40.0])
    def test_diffs_are_forward_differences_of_q(self, t):
        q, _ = _reference_ttable(t, 24)
        d = math.exp(-t).as_integer_ratio()[0]
        table = _TTable(t)
        table.row(24)
        for k in range(1, 25):
            diffs = [sum((-1) ** (r - i) * binomial(r, i) * q[k][i] for i in range(r + 1))
                     for r in range(k + 1)]
            assert table._diffs[k] == [d**k * diff for diff in diffs[:k]]
            assert diffs[k] == 0  # Q(k, j) has degree k-1 in j

    def test_shared_table_under_threads(self):
        t, n_max = 0.6180339887, 14
        serial = _TTable(t)
        want = [serial.row(n) for n in range(1, n_max + 1)]
        orders = [random.Random(seed).sample(range(1, n_max + 1), n_max) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    shared = _TTable(t)
                    futures = [pool.submit(lambda tab, o: [(n, tab.row(n)) for n in o], shared, o)
                               for o in orders]
                    for f in futures:
                        for n, row in f.result(timeout=60):
                            assert row == want[n - 1]
        finally:
            sys.setswitchinterval(interval)



class TestRoundedOnce:
    """Every float is its exact value rounded once: an int/int quotient."""

    @pytest.mark.parametrize("kappa,t", [(0.0, 1.0), (-0.61, 0.83), (0.37, 2.5), (0.5, 700.0)])
    def test_table_columns(self, kappa, t):
        eng = _engine(FlowParams(kappa, t))
        rows = cli._table_rows(kappa, t, 48)
        for n, row in enumerate(rows, start=1):
            a, b, s = _exact(eng, n)
            assert row == {"n": n, "a_n": float(a), "b_n": float(b),
                           "S_n": float(s), "phi_inv": float(s / n), "M": float(s)}
        if t == 700.0:  # the tail of a_n is subnormal
            assert 0 < abs(rows[-1]["a_n"]) < sys.float_info.min

    @pytest.mark.parametrize("kappa", [0.0, -0.61, Fraction(1, 3)])
    @pytest.mark.parametrize("t", [0.5, 700.0])
    def test_library_accessors(self, kappa, t):
        p = FlowParams(kappa, t)
        eng = _engine(p)
        inv, m = phi_inv_coeffs(p, 32), m_series_coeffs(p, 32)
        for n in range(1, 33):
            a, b, s = _exact(eng, n)
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
            for k in range(0, n + 1):
                assert invrel_weight(n, k) == invrel_weight_split(n, k)


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
            assert 2 * jac[n - 1] == pytest.approx(direct, rel=1e-14)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            jacobi_moments([1.0, 1.0], FlowParams(0.0, 1.0), 3)

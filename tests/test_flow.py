import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from jacobiflow import cli, maps
from jacobiflow.flow import (
    FlowParams,
    RationalPoly,
    _engine,
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
    s_series_coeffs,
)
from jacobiflow.powerseries import series_revert
from jacobiflow.specfun import binomial, laguerre


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
         (0.5, math.inf), (0.5, math.nan), (math.nan, 1.0)],
    )
    def test_domain_validation(self, kappa, t):
        with pytest.raises(ValueError):
            FlowParams(kappa, t)


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
        s = s_series_coeffs(p, 10)
        for a, b in zip(m.coeffs[1:], s.coeffs[1:]):
            assert a == pytest.approx(b, rel=1e-13)

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
        with pytest.raises(ValueError):
            m_series_coeffs(FlowParams(0.1, 1.0), 1)


class TestExactEngine:
    @pytest.mark.parametrize("kappa", [0.3, 0.7])
    @pytest.mark.parametrize("t", [0.5, 2.5])
    def test_b_and_m_rounded_once(self, kappa, t):
        p = FlowParams(kappa, t)
        eng = _engine(p)
        rows = cli._table_rows(kappa, t, 40)
        for n, row in enumerate(rows, start=1):
            assert b_coeff(p, n) == float(eng.b_exact(n))
            assert row["M"] == float(eng.s_exact(n))

    @pytest.mark.parametrize(
        "kappa,t", [(0.37, 1.23), (-0.61, 0.83), (Fraction(1, 3), 0.7), (0.0, 0.5)]
    )
    def test_matches_exact_reversion_oracle(self, kappa, t):
        p = FlowParams(kappa, t)
        oracle = series_revert(maps.big_phi_series(p, 10, exact=True))
        eng = _engine(p)
        for n in range(1, 11):
            assert eng.s_exact(n) / n == oracle.coeffs[n]

    @pytest.mark.parametrize("kappa,t", [(0.5, 1.0), (0.7, 0.5)])
    def test_matches_exact_reversion_oracle_to_order_24(self, kappa, t):
        p = FlowParams(kappa, t)
        oracle = series_revert(maps.big_phi_series(p, 24, exact=True))
        eng = _engine(p)
        for n in range(1, 25):
            assert eng.s_exact(n) / n == oracle.coeffs[n]

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
            assert eng.a_exact(n) == Fraction(2, 4**n * n) * total

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

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jacobiflow import maps
from jacobiflow.flow import FlowParams, phi_inv_coeffs
from jacobiflow.maps import (
    ConvergenceError,
    DomainError,
    alpha,
    alpha_inv,
    big_phi,
    big_phi_series,
    herglotz_k,
    k_series_coeff,
    m_zero,
    phi,
    phi_series,
    psi,
    r_func,
    v_deformed,
    xi,
    y_func,
)
from jacobiflow.specfun import laguerre


class TestAlpha:
    def test_fixed_values(self):
        assert alpha(0.0) == 0
        assert alpha(0.75) == pytest.approx(1 / 3, rel=1e-15)
        assert alpha_inv(0.0) == 0
        assert alpha_inv(1 / 3) == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("z", [-0.5, 0.2 + 0.4j])
    def test_roundtrip_through_cut_plane(self, z):
        assert alpha_inv(alpha(z)) == pytest.approx(z, abs=1e-13)

    def test_roundtrip_through_disc(self):
        assert alpha(alpha_inv(0.3j)) == pytest.approx(0.3j, abs=1e-13)

    @pytest.mark.parametrize("z", [1.0, 1.5, 100.0])
    def test_cut_rejected(self, z):
        with pytest.raises(DomainError):
            alpha(z)


class TestXi:
    def test_fixed_values(self):
        assert xi(1.0, 1.0) == 0
        assert xi(0.7, 0.0) == pytest.approx(-1.0)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            xi(1.0, -1.0)

    def test_array_input(self):
        z = np.array([1.0, 2.0, 1 + 1j])
        out = xi(0.5, z)
        assert out.shape == z.shape
        assert out[0] == 0


class TestHerglotz:
    def test_value_at_origin(self):
        for t in (0.5, 1.0, 2.5):
            assert herglotz_k(t, 0.0) == 1.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    def test_compositional_inverse_on_radial_grid(self, t):
        worst = 0.0
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                y = r * cmath.exp(1j * ang)
                worst = max(worst, abs(xi(t, herglotz_k(t, y)) - y))
        assert worst < 1e-11

    def test_right_half_plane(self):
        ys = 0.85 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
        assert np.all(herglotz_k(0.8, ys).real > 0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    def test_left_inverse_near_one(self, t):
        # K(xi(Z)) = Z on the Jordan domain side, close to Z = 1
        for Z in (1.0, 1.1, 0.9 + 0.1j, 1.05 - 0.15j):
            y = xi(t, Z)
            if abs(y) >= 1:
                continue
            assert herglotz_k(t, y) == pytest.approx(Z, abs=1e-11)

    def test_conjugate_symmetry(self):
        y = 0.4 + 0.3j
        assert herglotz_k(1.0, y.conjugate()) == pytest.approx(
            herglotz_k(1.0, y).conjugate(), abs=1e-13
        )

    def test_vectorized_matches_scalar(self):
        ys = np.array([0.1 + 0.2j, -0.4, 0.3j, 0.85])
        vec = herglotz_k(1.0, ys)
        for y, v in zip(ys, vec):
            assert v == herglotz_k(1.0, complex(y))

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            herglotz_k(1.0, 1.0)
        with pytest.raises(ValueError):
            herglotz_k(-1.0, 0.1)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError):
            herglotz_k(t, 0.1)

    @pytest.mark.parametrize(
        "y", [complex(math.nan, 0), complex(0.1, math.nan), np.array([0.1, 0.9, math.nan])]
    )
    def test_nan_point_rejected(self, y):
        with pytest.raises(DomainError):
            herglotz_k(1.0, y)

    def test_series_agreement(self):
        t, y = 1.0, 0.2
        partial = 1.0 + sum(k_series_coeff(t, n) * y**n for n in range(1, 61))
        assert partial == pytest.approx(herglotz_k(t, y), abs=1e-11)


class TestBatchedContinuation:
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 2.5, 6.0])
    def test_residual_on_polar_grid(self, t):
        radii = np.array([0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99])
        ys = (radii[:, None] * np.exp(2j * np.pi * np.arange(16) / 16)).ravel()
        assert np.max(np.abs(xi(t, herglotz_k(t, ys)) - ys)) <= 1e-13

    @pytest.mark.parametrize("t", [0.1, 1.0, 2.5])
    def test_far_batch_matches_per_point_calls(self, t):
        rng = np.random.default_rng(11)
        ys = rng.uniform(0.51, 0.99, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
        single = np.array([herglotz_k(t, complex(y)) for y in ys])
        np.testing.assert_allclose(herglotz_k(t, ys), single, rtol=1e-14, atol=0)

    def test_mixed_near_far_two_dimensional(self):
        ys = np.array([[0.1 + 0.2j, 0.9j, -0.4], [0.7 - 0.6j, 0.3, -0.95]])
        out = herglotz_k(1.3, ys)
        assert out.shape == ys.shape
        single = np.array([[herglotz_k(1.3, complex(y)) for y in row] for row in ys])
        np.testing.assert_allclose(out, single, rtol=1e-14, atol=0)

    def test_far_points_share_each_solve(self, monkeypatch):
        calls = []
        solve = maps._newton_solve

        def counting(t, seeds, targets):
            calls.append(len(targets))
            return solve(t, seeds, targets)

        monkeypatch.setattr(maps, "_newton_solve", counting)
        rng = np.random.default_rng(5)
        ys = rng.uniform(0.51, 0.99, 512) * np.exp(2j * np.pi * rng.uniform(size=512))
        herglotz_k(1.0, ys)
        steps = math.ceil((0.99 - maps.CONTINUATION_START) / maps.CONTINUATION_STEP)
        assert calls[0] == 512
        assert len(calls) <= 2 + steps

    def test_one_failing_point_fails_the_batch(self):
        # at t = 8 the absolute Newton tolerance cannot be met near the
        # positive real axis, while the left half of the circle converges
        good = 0.9 * np.exp(2j * np.pi * np.arange(5, 12) / 16)
        assert np.all(herglotz_k(8.0, good).real > 0)
        with pytest.raises(ConvergenceError):
            herglotz_k(8.0, np.append(good, 0.9))


def _reference_k_series_coeff(t: float, n: int) -> float:
    """The coefficient as float() of one exact Fraction expression."""
    decay = Fraction(math.exp(-t)) ** n
    lag = laguerre(n - 1, 1, 2 * n * Fraction(t))
    return float(2 * decay * lag / n)


class TestKSeriesCoeff:
    def test_same_bits_as_the_fraction_form(self):
        rng = random.Random(20261018)
        ts = [5e-324, 1e-300, 1e-3, 0.5, 1.0, 2.5, 40.0, 745.0, 800.0]
        ts += [10 ** rng.uniform(-4, 2.9) for _ in range(20)]
        for t in ts:
            if t > 708.3964185322641:  # e^-t subnormal or zero: refused
                with pytest.raises(ValueError):
                    k_series_coeff(t, 1)
                continue
            for n in range(1, 61):
                # hex() tells 0.0 from -0.0
                assert k_series_coeff(t, n).hex() == _reference_k_series_coeff(t, n).hex(), (t, n)

    def test_first(self):
        assert k_series_coeff(1.0, 1) == pytest.approx(2 * math.exp(-1), rel=1e-15)

    def test_decay_in_time(self):
        assert abs(k_series_coeff(50.0, 2)) < 1e-40

    def test_validation(self):
        with pytest.raises(ValueError):
            k_series_coeff(1.0, 0)
        with pytest.raises(ValueError):
            k_series_coeff(0.0, 1)

    def test_index_is_checked(self):
        for n in (True, 2.0, -1):
            with pytest.raises(ValueError):
                k_series_coeff(1.0, n)
        assert k_series_coeff(1.0, np.int64(3)) == k_series_coeff(1.0, 3)


class TestVDeformed:
    def test_center_value(self):
        assert v_deformed(FlowParams(0.6, 1.0), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_case_is_plain_transform(self):
        p = FlowParams(0.0, 1.2)
        for z in (0.3, -0.2 + 0.4j):
            assert v_deformed(p, z) == pytest.approx(herglotz_k(1.2, z), abs=1e-13)

    def test_positive_real_part(self):
        p = FlowParams(0.6, 1.0)
        for r in (0.5, 0.9):
            for ang in np.linspace(0, 2 * np.pi, 12, endpoint=False):
                assert v_deformed(p, r * cmath.exp(1j * ang)).real > 0

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            v_deformed(FlowParams(0.5, 1.0), 1.2)

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError):
            v_deformed(FlowParams(0.5, 1.0), complex(math.nan, 0))


class TestFlowMaps:
    def test_phi_vanishes_at_one(self):
        assert phi(FlowParams(0.5, 1.0), 1.0) == 0

    def test_phi_poles_rejected(self):
        p = FlowParams(0.5, 1.0)
        for z in (0.5, -0.5, -1.0):
            with pytest.raises(DomainError):
                phi(p, z)

    def test_phi_symmetric_is_composition(self):
        p = FlowParams(0.0, 1.0)
        z = 1.2
        assert phi(p, z) == pytest.approx(alpha_inv(xi(1.0, z)), rel=1e-14)

    def test_phi_derivative_nonzero_at_one(self):
        p = FlowParams(0.5, 1.0)
        h = 1e-6
        fd = (phi(p, 1 + h) - phi(p, 1 - h)) / (2 * h)
        c1 = phi_series(p, 4).coeffs[1]
        assert abs(c1) > 0.1
        assert fd == pytest.approx(c1, rel=1e-6)

    def test_big_phi_vanishes_at_one(self):
        assert big_phi(FlowParams(0.3, 0.5), 1.0) == 0

    def test_big_phi_cut_violation_raises(self):
        # the composed value lands on [1, inf) for this parameter choice
        p = FlowParams(0.7, 2.5)
        s = (1 + 0.1) / (1 - 0.1)
        a = math.sqrt(0.49 + 0.51 * s * s)
        with pytest.raises(DomainError):
            big_phi(p, a)

    def test_big_phi_symmetric_collapse(self):
        # alpha(alpha_inv(xi)) peels off, leaving xi itself
        p = FlowParams(0.0, 1.0)
        assert big_phi(p, 1.1) == pytest.approx(xi(1.0, 1.1), abs=1e-14)

    def test_big_phi_inverts_series(self):
        p = FlowParams(0.4, 1.0)
        inv = phi_inv_coeffs(p, 16)
        for z in (0.05, 0.02 - 0.03j):
            assert big_phi(p, inv(z)) == pytest.approx(z, abs=1e-8)

    def test_series_match_pointwise_values(self):
        p = FlowParams(0.4, 1.0)
        z = 1.02
        assert phi_series(p, 24)(z) == pytest.approx(phi(p, z), rel=1e-12)
        assert big_phi_series(p, 24)(z) == pytest.approx(big_phi(p, z), rel=1e-12)

    def test_exact_series_mode_matches_float(self):
        p = FlowParams(0.5, 1.0)
        f64 = big_phi_series(p, 10)
        exact = big_phi_series(p, 10, exact=True)
        for a, b in zip(f64.coeffs, exact.coeffs):
            assert a == pytest.approx(complex(float(b)), rel=1e-11)


class TestPsi:
    def test_origin(self):
        assert psi(FlowParams(0.5, 1.0), 0.0) == 0

    def test_symmetric_collapse(self):
        p = FlowParams(0.0, 1.0)
        z = 0.1
        assert psi(p, z) == pytest.approx(xi(1.0, (1 + z) / (1 - z)), abs=1e-14)

    def test_equals_flow_map_after_axis_change(self):
        p = FlowParams(0.3, 1.0)
        for z in (0.1, 0.05 - 0.1j):
            s = (1 + z) / (1 - z)
            a = cmath.sqrt(0.09 + 0.91 * s * s)
            assert psi(p, z) == pytest.approx(big_phi(p, a), abs=1e-13)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            psi(FlowParams(0.3, 1.0), 1.5)

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError):
            psi(FlowParams(0.3, 1.0), complex(0.1, math.nan))


class TestKernels:
    def test_r_limits(self):
        z = 0.3 + 0.1j
        assert r_func(z, 0.0) == pytest.approx(1 - z, abs=1e-15)
        assert r_func(0.0, 0.77) == 1

    def test_r_branch_violation(self):
        with pytest.raises(DomainError):
            r_func(0.5, 0.8j)

    def test_y_limits(self):
        z = 0.2 + 0.1j
        assert y_func(z, 0.0) == pytest.approx(z, abs=1e-15)
        assert y_func(0.0, 0.4) == 0

    def test_y_moebius_identity(self):
        for z, w in ((0.1 + 0.05j, 0.45), (0.2, 0.3 + 0.2j)):
            rr = r_func(z, w)
            assert y_func(z, w) == pytest.approx((1 + z - rr) / (1 + z + rr), abs=1e-13)

    def test_disc_membership_criterion(self):
        # |y| < 1 exactly when the inner product of (1+z) and R is positive
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            w = complex(*rng.uniform(-0.8, 0.8, 2))
            try:
                rr = r_func(z, w)
                y = y_func(z, w)
            except DomainError:
                continue
            inner = ((1 + z) * rr.conjugate()).real
            assert (abs(y) < 1) == (inner > 0)

    def test_corrected_branch_estimate(self):
        # |(1-z)^2 + 4 w^2 z - 1| <= |z| (|z| + 2 max |1 - 2 w^2|)
        w = 0.5 + 0.2 * np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
        bound = 2 * float(np.max(np.abs(1 - 2 * w * w)))
        for z in (0.05, 0.2 + 0.1j, -0.3):
            lhs = np.abs((1 - z) ** 2 + 4 * w * w * z - 1)
            assert float(np.max(lhs)) <= abs(z) * (abs(z) + bound) + 1e-15


class TestMZero:
    def test_series_consistency(self):
        t, z = 1.0, 0.05
        from jacobiflow.flow import m_series_coeffs

        ser = m_series_coeffs(FlowParams(0.0, t), 16)
        assert m_zero(t, z) == pytest.approx(ser(z), abs=1e-12)

    def test_relation_to_derivative_of_transform(self):
        # z K'(z) equals (K^2-1)/(t K^2 + 2 - t) at kappa = 0
        t, z = 0.8, 0.1
        h = 1e-6
        dk = (herglotz_k(t, z + h) - herglotz_k(t, z - h)) / (2 * h)
        assert z * dk == pytest.approx(m_zero(t, z), rel=1e-8)

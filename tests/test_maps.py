import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jacobiflow import contour, maps
from jacobiflow.contour import m_integral
from jacobiflow.flow import FlowParams, _exp_neg_t, _laguerre_scaled, phi_inv_coeffs
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
from jacobiflow.powerseries import TruncatedSeries, series_compose, series_revert, series_sqrt
from jacobiflow.specfun import laguerre
from jacobiflow.verify import run_checks
from conftest import assert_entries, entries


def _reference_xi(t, z):
    """xi on a 0-d array, as the package evaluated a scalar before it ran
    scalars on numpy complex scalars."""
    arr = np.asarray(z, dtype=complex)
    if np.any(arr == -1):
        raise DomainError("xi has a pole at z = -1")
    return complex((arr - 1) / (arr + 1) * np.exp(t * arr))


def _reference_phi_series(params, order):
    """phi about z = 1 with three series reciprocals, for the Cayley factor,
    alpha_inv and the prefactor, as the package built it before it wrote
    the Cayley factor and the prefactor's partial fractions term by term."""
    t = float(params.t)
    big_d, delta = _exp_neg_t(t)
    one = Fraction(1)
    zvar = TruncatedSeries.variable(one, order, one=one)
    expo = TruncatedSeries(one, [Fraction(1 << delta, big_d) * Fraction(t) ** k
                                 / math.factorial(k) for k in range(order + 1)])
    xi_s = (zvar - 1) * (zvar + 1).reciprocal() * expo
    alpha_inv_s = 4 * xi_s * ((1 + xi_s) * (1 + xi_s)).reciprocal()
    pref = zvar * zvar * (zvar * zvar - Fraction(params.kappa) ** 2).reciprocal()
    return pref * alpha_inv_s


class TestAlpha:
    def test_fixed_values(self):
        assert alpha(0.0) == 0
        assert alpha(0.75) == pytest.approx(1 / 3, rel=1e-15, abs=0)
        assert alpha_inv(0.0) == 0
        assert alpha_inv(1 / 3) == pytest.approx(0.75, rel=1e-15, abs=0)

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

    @pytest.mark.parametrize("t", [0.01, 0.65, 1.37, 2.45, 20.0, 600.0])
    def test_scalar_has_the_bits_of_the_0d_array_path(self, t):
        # a scalar runs on numpy complex scalars; the 0-d array it used to
        # take turns into those scalars after its first operation
        rng = random.Random(23)
        zs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(400)]
        zs += [rng.uniform(-3, 3) for _ in range(100)] + [0, 1, 2, 0.5, -0.0, 1e-320]
        zs += [np.complex128(z) for z in zs[:50]] + [np.float64(z.real) for z in zs[:50]]
        with np.errstate(over="ignore", invalid="ignore"):
            for z in zs:
                got, want = xi(t, z), _reference_xi(t, z)
                assert type(got) is complex
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), z


class TestHerglotz:
    def test_value_at_origin(self):
        for t in (0.5, 1.0, 2.5):
            assert herglotz_k(t, 0.0) == 1.0

    def test_subnormal_points(self):
        # warnings are errors here: the phase y / |y| of a subnormal y
        # overflows, and no step may form it
        ys = np.array([1e-320, 5e-324j, -1e-310 + 1e-310j])
        delta = maps._herglotz_delta(1.0, ys)
        assert list(delta) == [maps._herglotz_delta(1.0, y) for y in ys]
        assert delta[2] == pytest.approx(2 * math.exp(-1) * ys[2], rel=1e-9)
        assert herglotz_k(1.0, 1e-320) == 1

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    def test_compositional_inverse_on_radial_grid(self, t):
        assert_entries("herglotz-inverse-grid", 0.5, t)

    def test_right_half_plane(self):
        ys = 0.85 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
        assert np.all(herglotz_k(0.8, ys).real > 0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    def test_left_inverse_near_one(self, t):
        assert_entries("herglotz-left-inverse", 0.5, t)

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

    @pytest.mark.parametrize("t", [0.01, 1.37, 20.0, 700.0])
    @pytest.mark.parametrize("top", [0.0, 0.5, 0.95])
    def test_concatenation_has_the_bits_of_its_parts(self, t, top):
        # verify solves the map layer's points in one call and splits the
        # result: every point must keep the bits of the batch it came from
        rng = np.random.default_rng(29)
        parts = [rng.uniform(0, top, size) * np.exp(2j * np.pi * rng.uniform(size=size))
                 for size in (1, 60, 60, 4, 3, 2, 37)]
        parts[0][:] = 0
        whole = maps._herglotz_delta(t, np.concatenate(parts))
        apart = np.concatenate([maps._herglotz_delta(t, part) for part in parts])
        assert whole.view(np.uint64).tolist() == apart.view(np.uint64).tolist()

    def test_mixed_near_far_two_dimensional(self):
        ys = np.array([[0.1 + 0.2j, 0.9j, -0.4], [0.7 - 0.6j, 0.3, -0.95]])
        out = herglotz_k(1.3, ys)
        assert out.shape == ys.shape
        single = np.array([[herglotz_k(1.3, complex(y)) for y in row] for row in ys])
        np.testing.assert_allclose(out, single, rtol=1e-14, atol=0)

    def test_far_points_share_each_solve(self, count_solves):
        # a first step of 0.5 from K(0) = 1 to |y| or 0.5, then one predicted
        # step of 0.5 takes every far point to its y when no step is rejected
        rng = np.random.default_rng(5)
        ys = rng.uniform(0.51, 0.99, 512) * np.exp(2j * np.pi * rng.uniform(size=512))
        herglotz_k(1.0, ys)
        assert [size for size, _ in count_solves] == [512, 512]

    def test_near_and_far_share_the_first_solve(self, count_solves):
        # near points are solved at y, far ones at 0.5 y/|y| in the same
        # call; y = 0 is never divided by its modulus, so nothing warns
        ys = np.array([0, 0.3, -0.5, 0.5j, 0.7j, -0.95])
        herglotz_k(1.0, ys)
        assert [size for size, _ in count_solves] == [6, 2]

    def test_integral_takes_four_solves(self, count_solves):
        # one herglotz_k call on the 512 nodes of the admissibility grid's
        # first doubling: a solve at |y| or 0.5 and one predicted step
        contour._kernel_cached.cache_clear()
        m_integral(FlowParams(0.2, 1.7), 0.7 + 0.1j)
        contour._kernel_cached.cache_clear()
        assert len(count_solves) == 2
        assert sum(iterations for _, iterations in count_solves) <= 9

    def test_rejected_step_is_halved_for_its_point_only(self, count_solves):
        # at t = 0.01 the step 0.5 -> 0.83 is rejected by the corrector test;
        # y = 0.83 retries 0.5 -> 0.75 and 0.75 -> 0.83 alone, and every
        # point keeps the bits of a call of its own
        t = 0.01
        ys = np.array([0.83, 0.6j, -0.7, 0.3 - 0.8j, 0.2])
        batch = herglotz_k(t, ys)
        assert [size for size, _ in count_solves] == [5, 4, 1, 1]
        for y, k in zip(ys, batch):
            count_solves.clear()
            assert herglotz_k(t, complex(y)) == k
            assert len(count_solves) == (4 if y == 0.83 else 1 if abs(y) <= 0.5 else 2)

    def test_one_failing_point_fails_the_batch(self, monkeypatch):
        # with no room to halve a step, the one point whose step is rejected
        # (y = 0.83 at t = 0.01, as above) fails, while the others converge
        monkeypatch.setattr(maps, "MIN_STEP", maps.MAX_STEP)
        good = np.array([0.6j, -0.7, 0.3 - 0.8j, 0.2])
        assert np.all(herglotz_k(0.01, good).real > 0)
        with pytest.raises(ConvergenceError, match="step fell below"):
            herglotz_k(0.01, np.append(good, 0.83))

    @pytest.mark.parametrize("t", [8.0, 10.0, 20.0])
    def test_hopeless_circle_still_fails(self, t, monkeypatch):
        # the circle |y| = 0.9 converges at these t (see the residual test
        # below); with Newton cut to its first evaluation no step on it is
        # accepted, and the continuation raises instead of returning a guess
        monkeypatch.setattr(maps, "NEWTON_MAX_ITER", 0)
        with pytest.raises(ConvergenceError):
            herglotz_k(t, 0.9 * np.exp(2j * np.pi * np.arange(16) / 16))

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0, 50.0])
    def test_relative_residual_of_the_delta_form(self, t):
        # delta e^{t delta} / (2 + delta) = y e^{-t}, evaluated in 40 digits
        # at the binary64 delta, is within 2 REL_TOL of |y e^{-t}|
        mpmath = pytest.importorskip("mpmath")
        radii = np.array([0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99])
        ys = (radii[:, None] * np.exp(2j * np.pi * np.arange(16) / 16)).ravel()
        ds = maps._herglotz_delta(t, ys)
        worst = 0.0
        with mpmath.workdps(40):
            for y, d in zip(ys.tolist(), ds.tolist()):
                d, u = mpmath.mpc(d), mpmath.mpc(y) * mpmath.exp(-mpmath.mpf(t))
                worst = max(worst, float(abs(d * mpmath.exp(t * d) / (2 + d) - u) / abs(u)))
        assert worst <= 2 * maps.REL_TOL

    def test_real_point_at_large_time_converges(self):
        # the continuation reaches y = 0.9 at t = 8, on the root a 40-digit
        # solve finds
        mpmath = pytest.importorskip("mpmath")
        K = herglotz_k(8.0, 0.9)
        with mpmath.workdps(40):
            root = mpmath.findroot(
                lambda Z: (Z - 1) / (Z + 1) * mpmath.exp(8 * Z) - mpmath.mpf(0.9), K
            )
        assert abs(K - complex(root)) <= 5e-17

    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 1.0, 1.7, 2.5, 5.0])
    def test_same_branch_as_fixed_steps(self, t):
        # the adaptive continuation lands on the root the fixed steps of 0.05
        # reach, to 1e-12 relative; where the two differ by more, the fixed
        # steps are the ones off a 40-digit root
        radii = np.array([0.0, 0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99])
        ys = (radii[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
        new, ref = herglotz_k(t, ys), _reference_herglotz(t, ys)
        off = np.flatnonzero(np.abs(new - ref) > 1e-12 * np.abs(ref))
        assert len(off) <= 2
        if off.size:
            mpmath = pytest.importorskip("mpmath")
        for i in off:
            with mpmath.workdps(40):
                root = complex(mpmath.findroot(
                    lambda Z: (Z - 1) / (Z + 1) * mpmath.exp(t * Z) - mpmath.mpc(ys[i]), ref[i]
                ))
            assert abs(new[i] - root) <= 1e-12 * abs(root) < abs(ref[i] - root)


def _seed_poly(t: float):
    """The Taylor polynomial of K to order 20, highest power first, built
    without the exact Laguerre sums of k_series_coeff: its n-th coefficient
    is the rational 2 D**n L / (n! 2**(tau (n-1) + delta n)) rounded once,
    with e^{-t} = D / 2**delta, t = T / 2**tau and
    L = L_{n-1}^{(1)}(2nt) (n-1)! 2**(tau (n-1)) an integer from the
    Laguerre recurrence."""
    big_t, t_den = float(t).as_integer_ratio()
    tau = t_den.bit_length() - 1
    big_d, delta = _exp_neg_t(t)
    coeffs = []
    for n in range(1, 21):
        lag = _laguerre_scaled(2 * n * big_t, tau, n)[-1]  # carries (-1)**(n-1)
        num = 2 * big_d**n * (lag if n % 2 else -lag)
        coeffs.append(num / (math.factorial(n) << tau * (n - 1) + delta * n))
    return np.array(coeffs[::-1] + [1.0], dtype=complex)


def _reference_herglotz(t, ys):
    """K by Newton on xi itself with an absolute stop of 1e-13, seeded at
    radius 0.5 from :func:`_seed_poly`, then by fixed continuation steps of
    0.05, each seeded with the last K, all far points in lockstep."""
    flat = np.asarray(ys, dtype=complex).reshape(-1)
    radius = np.abs(flat)

    def solve(seeds, targets):
        Z = np.array(seeds, dtype=complex)
        for _ in range(maps.NEWTON_MAX_ITER + 1):
            E = np.exp(t * Z)
            P = Z + 1
            F = (Z - 1) / P * E - targets
            done = np.abs(F) <= 1e-13
            if done.all():
                return Z
            Z = np.where(done, Z, Z - F / (E * (2 + t * (Z * Z - 1)) / (P * P)))
        raise ConvergenceError("reference Newton iteration did not converge")

    r = 0.5
    far = moving = radius > r
    phase = np.divide(flat, radius, out=np.zeros_like(flat), where=far)
    target = np.where(far, r * phase, flat)
    out = solve(np.polyval(_seed_poly(t), target), target)
    while moving.any():
        r += 0.05
        target = np.minimum(r, radius[moving]) * phase[moving]
        out[moving] = solve(out[moving], target)
        moving = radius > r
    return out


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

    @pytest.mark.parametrize(
        "t", [5e-324, 1e-300, 1e-6, 0.01, 1.0, 1.7, 10.0, 100.0, 708.3964185322641]
    )
    def test_seed_has_the_same_bits(self, t):
        # the reference solver's seed takes its Laguerre factors from the
        # integer recurrence, not from exact sums; tobytes() tells 0.0 from -0.0
        want = [k_series_coeff(t, n) for n in range(20, 0, -1)] + [1.0]
        assert _seed_poly(t).tobytes() == np.array(want, dtype=complex).tobytes()

    def test_first(self):
        assert k_series_coeff(1.0, 1) == pytest.approx(2 * math.exp(-1), rel=1e-15, abs=0)

    def test_decay_in_time(self):
        assert abs(k_series_coeff(50.0, 2)) < 1e-40

    def test_validation(self):
        with pytest.raises(ValueError):
            k_series_coeff(1.0, 0)
        with pytest.raises(ValueError):
            k_series_coeff(0.0, 1)

    def test_nan_time_is_not_positive(self):
        with pytest.raises(ValueError, match="time must be positive"):
            k_series_coeff(math.nan, 1)

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

    @pytest.mark.parametrize("kappa", [0.37, 0.0])
    def test_array_matches_scalar_calls(self, kappa):
        p = FlowParams(kappa, 2.45)
        zs = np.array([[0.0, 0.3, -0.2 + 0.4j], [0.95j, -0.9, 0.6 - 0.7j]])
        vs = v_deformed(p, zs)
        assert vs.shape == zs.shape
        for z, v in zip(zs.ravel().tolist(), vs.ravel().tolist()):
            assert v == v_deformed(p, z)
        if kappa == 0.0:
            # alpha(alpha_inv(z)) rounds, so K agrees to rounding level only
            assert np.abs(vs - herglotz_k(2.45, zs)).max() < 1e-13

    def test_array_domain_validation(self):
        with pytest.raises(DomainError):
            v_deformed(FlowParams(0.5, 1.0), np.array([0.2, 0.1 + 0.3j, 1.0]))


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
        assert phi(p, z) == pytest.approx(alpha_inv(xi(1.0, z)), rel=1e-14, abs=0)

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

    @pytest.mark.parametrize("kappa, t", [(0.5, 1.0), (Fraction(1, 3), 2.45)])
    def test_phi_series_truncates_exactly(self, kappa, t):
        # verify expands phi once and cuts it to the order each oracle reads
        p = FlowParams(kappa, t)
        full = phi_series(p, 12).coeffs
        for n in (4, 6, 8, 10):
            assert full[: n + 1] == phi_series(p, n).coeffs

    @pytest.mark.parametrize("kappa, t", [
        (0.5, 1.0), (0.0, 2.0), (-0.5, 0.3), (0.92, 1.12), (1e-300, 700.0),
        (Fraction(1, 3), 0.7), (0.99999, 50.0), (-0.99999, 2.0),
        *((kappa, t) for kappa in (0.0, 1e-300, Fraction(1, 3), -0.99999) for t in (1e-6, 700.0)
          if (kappa, t) != (1e-300, 700.0))])
    def test_phi_series_equals_three_reciprocals(self, kappa, t):
        # the integer series give the Fractions of the three series reciprocals
        p = FlowParams(kappa, t)
        for order in [*range(13), 24]:
            got, want = phi_series(p, order), _reference_phi_series(p, order)
            assert got.base == want.base
            assert got.coeffs == want.coeffs, order
            assert all(type(c) is Fraction for c in got.coeffs)

    @pytest.mark.parametrize("kappa, t", [(0.5, 1.0), (0.37, 2.45), (Fraction(1, 3), 0.7)])
    def test_alpha_series_matches_the_sqrt_route(self, kappa, t):
        # the Catalan composition against alpha(v) = v / (1 + sqrt(1 - v))**2
        top = phi_series(FlowParams(kappa, t), 24)
        for order in range(1, 25):
            v = TruncatedSeries(top.base, top.coeffs[: order + 1])
            root = series_sqrt(1 - v)
            want = v * ((1 + root) * (1 + root)).reciprocal()
            got = maps._alpha_series(v)
            assert got.base == want.base
            assert got.coeffs == want.coeffs, order
            assert all(type(c) is Fraction for c in got.coeffs)

    def test_series_match_pointwise_values(self):
        p = FlowParams(0.4, 1.0)
        z = 1.02
        assert phi_series(p, 24)(z) == pytest.approx(phi(p, z), rel=1e-12, abs=0)
        assert big_phi_series(p, 24)(z) == pytest.approx(big_phi(p, z), rel=1e-12, abs=0)

    @pytest.mark.parametrize("kappa, t", [(0.5, 1.0), (0.0, 2.0), (-0.3, 0.01), (0.99999, 50.0)])
    @pytest.mark.parametrize("order", [8, 12])
    def test_reversion_through_phi_inverse(self, kappa, t, order):
        # verify's reversion oracle: (alpha o phi)^-1 = phi^-1 o alpha_inv, exactly
        p = FlowParams(kappa, t)
        got = series_compose(series_revert(phi_series(p, order)), maps._alpha_inv_series(order))
        want = series_revert(big_phi_series(p, order))
        assert got.base == want.base
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)

    @pytest.mark.parametrize("order", [1, 2, 8, 12, 64])
    def test_alpha_inv_series(self, order):
        # 4 xi / (1 + xi)**2 in the exact series arithmetic phi_series uses
        one = Fraction(1)
        xi_s = TruncatedSeries.variable(Fraction(0), order, one=one)
        want = 4 * xi_s * ((1 + xi_s) * (1 + xi_s)).reciprocal()
        got = maps._alpha_inv_series(order)
        assert got.base == want.base
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)


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

    @pytest.mark.parametrize("kappa, t, worst", [
        (0.99999, 1.0, 0.05 - 0.1j),  # the entry fails here, at this z only
        (0.92, 1.12, 0.05 - 0.1j),
        (0.0, 1.0, 0.1),  # the kappa = 0 comparison with xi
        (0.5, 1.0, 0.001),  # every term is 0: the last z evaluated
    ])
    def test_chain_entry_names_its_worst_z(self, kappa, t, worst):
        [entry] = entries("psi-chain-identity", kappa, t)
        assert dict(entry.context)["z"] == str(worst)
        if kappa != 0.0:
            s = (1 + worst) / (1 - worst)
            a = cmath.sqrt(kappa * kappa + (1 - kappa * kappa) * s * s)
            p = FlowParams(kappa, t)
            assert entry.residual == abs(psi(p, worst) - big_phi(p, a))

    def test_chain_skips_terms_that_are_not_finite(self, monkeypatch):
        # NaN at the first three z, as where e^{ta} overflows at large t:
        # the entry reads the two z left
        nan_at = {0.1, 0.05 - 0.1j, 0.02}
        phi = maps.big_phi

        def patched(params, a):
            s = (a * a - params.kappa**2) / (1 - params.kappa**2)
            z = (cmath.sqrt(s) - 1) / (cmath.sqrt(s) + 1)
            if any(abs(z - w) < 1e-9 for w in nan_at):
                return complex(math.nan, math.nan)
            return phi(params, a)

        monkeypatch.setattr(maps, "big_phi", patched)
        [entry] = [e for e in run_checks(0.5, 1.0, "fast").entries
                   if e.name == "psi-chain-identity"]
        assert entry.passed and dict(entry.context)["z"] in ("0.005", "0.001")

    def test_chain_with_no_z_evaluated_fails(self, monkeypatch):
        monkeypatch.setattr(maps, "big_phi", lambda params, a: complex(math.nan, math.nan))
        [entry] = [e for e in run_checks(0.5, 1.0, "fast").entries
                   if e.name == "psi-chain-identity"]
        assert not entry.passed
        assert dict(entry.context) == {"evaluated": "0"}

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
            r = r_func(z, w)
            assert abs(y_func(z, w) - (1 + z - r) / (1 + z + r)) <= 1e-13, (z, w)

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

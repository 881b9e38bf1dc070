import cmath
import collections
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from jacobiflow import contour, maps
from jacobiflow.contour import (
    ContourSpec,
    NoAdmissibleContourError,
    admissible_contour,
    circle_quadrature,
    contour_nodes,
    jacobi_gen_check,
    laguerre_gen_checks,
    m_integral,
    m_integral_detailed,
    nonvanishing_check,
    pkm_residues,
)
from jacobiflow.flow import FlowParams, m_series_coeffs
from jacobiflow.maps import DomainError, herglotz_k, m_zero, r_func, y_func
from jacobiflow.specfun import jacobi_poly, laguerre
from conftest import assert_entries, entries


class TestContourSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(0.5 + 0j, -0.1)
        with pytest.raises(ValueError):
            ContourSpec(0.5 + 0j, 0.1, samples=48)  # not a power of two
        with pytest.raises(ValueError):
            ContourSpec(0.5 + 0j, 0.1, samples=8)  # too few

    def test_nodes(self):
        spec = ContourSpec(1j, 0.25, 16)
        w = contour_nodes(spec)
        assert w.shape == (16,)
        assert np.allclose(np.abs(w - 1j), 0.25)


class TestCircleQuadrature:
    def test_simple_pole(self):
        spec = ContourSpec(0.4 + 0j, 0.2, 64)
        assert circle_quadrature(lambda w: 1 / (w - 0.4), spec) == pytest.approx(1, abs=1e-13)

    def test_no_residue(self):
        spec = ContourSpec(0.4 + 0j, 0.2, 64)
        assert abs(circle_quadrature(lambda w: np.ones_like(w), spec)) < 1e-13

    def test_double_pole(self):
        spec = ContourSpec(0.4 + 0j, 0.2, 64)
        assert abs(circle_quadrature(lambda w: (w - 0.4) ** -2.0, spec)) < 1e-13

    def test_geometric_convergence(self):
        # trapezoid residual decays at least tenfold per doubling until floor
        spec = ContourSpec(0j, 1.0, 16)
        pole = 0.62

        def raw(n):
            w = contour_nodes(spec, n)
            return complex(np.sum(np.exp(w) / (w - pole) * w) / n)

        exact = complex(np.exp(pole))
        errs = [abs(raw(n) - exact) for n in (16, 32, 64, 128)]
        for a, b in zip(errs, errs[1:]):
            assert b < a / 10 or b < 1e-13

    def test_nonfinite_integrand_rejected(self):
        # a numerical failure, as the sample cap is; exit 3 on the command line
        spec = ContourSpec(0j, 1.0, 16)
        with pytest.raises(contour.QuadratureError, match="not finite"):
            circle_quadrature(lambda w: w * np.nan, spec)

    def test_overflowing_sum_rejected(self):
        # every value is finite, but the weighted sum overflows binary64
        spec = ContourSpec(0j, 4.0, 16)
        with pytest.raises(contour.QuadratureError, match="not finite at 16 nodes"):
            circle_quadrature(lambda w: np.full(w.shape, 1e308 + 0j), spec)


class TestStopRule:
    """The one doubling loop behind circle_quadrature, m_integral_detailed
    and pkm_residues."""

    SPEC = ContourSpec(0j, 1.0, 16)

    @staticmethod
    def fast(w):
        return 1 / (w - 0.1)  # settles at the first doubling, 32 nodes

    @staticmethod
    def slow(w):
        return np.exp(w) / (w - 0.62)  # settles at 128 nodes

    def test_group_stops_at_its_slowest_integrand(self):
        spec = self.SPEC

        def level(n, live):
            w = contour_nodes(spec, n)
            return w, np.array([[self.fast(w), self.slow(w)]])

        [(values, samples, delta)] = contour._adaptive_quadrature(level, spec)
        assert samples == 128
        # both values come from the 128-node doubling, the fast one too
        w = contour_nodes(spec, 128)
        assert values == [complex(np.sum(f(w) * w) / 128) for f in (self.fast, self.slow)]
        assert values[0] != circle_quadrature(self.fast, spec)  # its own stop, at 32 nodes
        half = contour_nodes(spec, 64)
        moves = [abs(v - complex(np.sum(f(half) * half) / 64))
                 for v, f in zip(values, (self.fast, self.slow))]
        assert delta == max(moves) < contour.QUAD_TOL

    def test_sample_cap(self, monkeypatch):
        monkeypatch.setattr(contour, "MAX_SAMPLES", 64)
        with pytest.raises(contour.QuadratureError, match="did not converge within 64"):
            circle_quadrature(self.slow, self.SPEC)
        # on a coarse circle near the origin pole, 12 of these pairs need 128 nodes
        spec = contour._circle(0.53, 0.265, 16)
        pairs = [(k, m) for k in range(1, 13) for m in range(9)]
        with pytest.raises(contour.QuadratureError, match="did not converge within 64"):
            pkm_residues(pairs, FlowParams(0.53, 1.0), spec)

    def test_relative_stop(self):
        # 1e6 (w + 2 + 1/w) sums to 2e6 exactly from 4 nodes on; rounding
        # moves the sum by about 1e-11 per doubling, which the absolute stop
        # chases and the relative one does not
        spec = self.SPEC

        def level(n, live):
            w = contour_nodes(spec, n)
            return w, np.array([[1e6 * (w + 2 + 1 / w) / w]])

        [(values, samples, _)] = contour._adaptive_quadrature(level, spec, relative=True)
        assert samples == 32
        assert values[0] == pytest.approx(2e6, rel=1e-15, abs=1e-9)
        [(_, samples, _)] = contour._adaptive_quadrature(level, spec)
        assert samples > 32

    def test_domain_error_at_a_later_level(self):
        def f(w):
            if w.size == 64:
                raise DomainError("left the domain")
            return self.slow(w)

        with pytest.raises(contour.QuadratureError, match="left the domain at 64 nodes"):
            circle_quadrature(f, self.SPEC)


class TestPkmResidue:
    def test_m_zero_gives_power(self):
        p = FlowParams(0.5, 1.0)
        spec = ContourSpec(0.5 + 0j, 0.2, 64)
        got = pkm_residues([(k, 0) for k in (1, 3, 7)], p, spec)
        for k, value in zip((1, 3, 7), got):
            assert value == pytest.approx((1 - 0.25) ** k, abs=1e-12)

    def test_hand_case(self):
        p = FlowParams(0.5, 1.0)
        spec = ContourSpec(0.5 + 0j, 0.2, 64)
        [value] = pkm_residues([(1, 1)], p, spec)
        assert value == pytest.approx(-0.5, abs=1e-12)  # -2 eps

    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
    def test_matches_exact_polynomials(self, kappa):
        assert_entries("residue-oracle", kappa, 1.0, "full")

    @pytest.mark.parametrize("kappa", [5e-4, 1e-5, 1e-7])
    def test_small_kappa(self, kappa):
        # the integrand is of size 1/kappa before its factor kappa; the
        # quadrature's absolute tolerance must see the product
        assert_entries("residue-oracle", kappa, 1.0, "full")

    @staticmethod
    def _per_pair(kappa, spec, pairs):
        """Each pair's residue by its own quadrature, and the node count it
        stopped at: the integral on the unit circle in u = (w - kappa)/rho,
        with c = kappa/rho and dw = rho du."""
        rho, unit = spec.radius, ContourSpec(0j, 1.0, spec.samples)
        c = kappa / rho
        out = []
        for k, m in pairs:
            def level(n, live, k=k, m=m):
                u = contour_nodes(unit, n)
                w = spec.center + rho * u
                fw = c * (c + u) ** (m - 1) * (1 - w * w) ** k / u ** (m + 1)
                return u, fw[None, None]

            [(values, samples, _)] = contour._adaptive_quadrature(level, unit, relative=True)
            out.append((values[0].real, samples))
        return out

    @pytest.mark.parametrize("kappa", [0.37, -0.9, 0.53])
    def test_batch_matches_per_pair_quadrature(self, kappa):
        # the stacked loop leaves every residue bit for bit; 0.53 is the kappa
        # of the verify pool pair (0.53, 1.63)
        p = FlowParams(kappa, 1.0)
        spec = contour._circle(kappa, abs(kappa) / 2, 64)
        pairs = [(k, m) for k in range(1, 13) for m in range(9)]
        want = self._per_pair(kappa, spec, pairs)
        got = pkm_residues(pairs, p, spec)
        assert [v.hex() for v in got] == [v.hex() for v, _ in want]
        # the nodes are spec's, and each value is the old w-form integral's to 1e-13
        unit = ContourSpec(0j, 1.0, 64)
        assert np.array_equal(spec.center + spec.radius * contour_nodes(unit, 256),
                              contour_nodes(spec, 256))
        for (k, m), value in zip(pairs, got):
            old = circle_quadrature(
                lambda w: kappa * w ** (m - 1) * (1 - w * w) ** k / (w - kappa) ** (m + 1), spec)
            assert abs(value - old.real) <= 1e-13 * max(1.0, abs(value)), (k, m)

    @pytest.mark.parametrize("kappa", [1e-300, -1e-62, 1e-34])
    def test_tiny_kappa(self, kappa):
        # (w - kappa)**(m+1) would underflow here; in u every factor is of size 1
        spec = contour._circle(kappa, abs(kappa) / 2, 64)
        pairs = [(k, m) for k in (1, 5, 12) for m in range(9)]
        got = pkm_residues(pairs, FlowParams(kappa, 1.0), spec)
        # P_k^(m)(eps) at eps below 1e-67 is its constant term, 1 at m = 0 and 0 otherwise
        assert got == pytest.approx([float(m == 0) for _, m in pairs], abs=1e-12)

    @pytest.mark.parametrize("kappa, share, samples, stops", [
        pytest.param(0.53, 0.5, 16, {32: 64, 64: 32, 128: 12}, id="0.53-0.5-16"),
        pytest.param(-0.9, 0.85, 32, {64: 96, 512: 12}, id="-0.9-0.85-32"),
    ])
    def test_rows_stop_at_their_own_doubling(self, kappa, share, samples, stops):
        # a coarse first grid on a circle near the origin pole: the pairs
        # converge at different node counts, and each row keeps its own value.
        # For m >= 1 the sum is exact once the nodes outnumber the 2k + 2m
        # powers of u in the integrand, and the next doubling stops it: on the
        # second circle the terms of (12, 8) reach 1e5, so that doubling moves
        # its sum by about 1e-11, by rounding alone
        spec = contour._circle(kappa, abs(kappa) * share, samples)
        pairs = [(k, m) for k in range(1, 13) for m in range(9)]
        want = self._per_pair(kappa, spec, pairs)
        assert collections.Counter(n for _, n in want) == stops
        got = pkm_residues(pairs, FlowParams(kappa, 1.0), spec)
        assert [v.hex() for v in got] == [v.hex() for v, _ in want]

    def test_validation(self):
        p = FlowParams(0.5, 1.0)
        with pytest.raises(ValueError):
            pkm_residues([(1, 0)], FlowParams(0.0, 1.0), ContourSpec(0j, 0.1))
        with pytest.raises(ValueError):
            pkm_residues([(1, 0)], p, ContourSpec(0.4 + 0j, 0.1))  # center mismatch
        with pytest.raises(ValueError):
            pkm_residues([(1, 0)], p, ContourSpec(0.5 + 0j, 0.6))  # origin enclosed


class TestAdmissibleContour:
    def test_origin_is_easy(self):
        spec = admissible_contour(FlowParams(0.5, 1.0), 0.0)
        assert 0 < spec.radius < 0.5

    def test_conditions_hold_on_returned_circle(self):
        p = FlowParams(0.5, 1.0)
        z = 0.02
        spec = admissible_contour(p, z)
        w = contour_nodes(spec)
        u = 1 - 2 * w * w
        assert np.all((u.real / 1.25) ** 2 + (u.imag / 0.75) ** 2 <= 1)
        y = y_func(z, w)
        assert np.all(np.abs(y) < 1)
        K = herglotz_k(1.0, y)
        assert np.min(np.abs(w * K - 0.5)) > 1e-8
        assert np.max(np.abs(w * (1 - K) / (w - 0.5))) < 1
        assert spec.radius < 0.5

    def test_symmetric_center_rejected(self):
        with pytest.raises(ValueError):
            admissible_contour(FlowParams(0.0, 1.0), 0.1)

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError):
            admissible_contour(FlowParams(0.5, 1.0), complex(math.nan, 0))

    def test_obstruction_surfaces(self):
        with pytest.raises(NoAdmissibleContourError):
            admissible_contour(FlowParams(0.9, 0.5), 0.2)

    def test_obstruction_trail(self):
        # every radius tried, halving from rho0 = 0.025 while it is at least
        # MIN_RADIUS, each with the first condition that rejected it
        with pytest.raises(NoAdmissibleContourError) as err:
            admissible_contour(FlowParams(0.9, 0.5), 0.2)
        rho0 = min((1 - 0.9) / 4, 0.9 / 2)
        assert rho0 == pytest.approx(0.025)
        assert err.value.trail == [(rho0 / 2**k, "(vi) geometric ratio") for k in range(15)]
        assert rho0 / 2**15 < contour.MIN_RADIUS <= rho0 / 2**14
        assert str(err.value) == "no admissible circle around kappa=0.9 for z=(0.2+0j)"

    def test_failed_search_misses_a_wider_circle(self):
        # the search above only halves from rho0, yet a wider circle passes
        # (i)-(vi) at the same point: exit 2 is not an analytic obstruction
        rho = math.sqrt(0.0417 * 0.152)
        assert contour._contour_admissible(0.5, 0.9, 0.2, rho) is None

    def test_rho0_below_min_radius_is_tried(self):
        # rho0 = |kappa| / 2 = 5e-8 lies below MIN_RADIUS and is admissible
        p = FlowParams(1e-7, 1.0)
        assert contour.MIN_RADIUS > 5e-8
        assert admissible_contour(p, 0.03).radius == 5e-8
        assert m_integral(p, 0.03) == pytest.approx(m_series_coeffs(p, 16)(0.03), abs=1e-14)

    def test_rho0_below_min_radius_trail(self):
        # condition (iv)'s margin scales with |kappa|, so rho0 = |kappa|/2
        # is admitted at |kappa| <= 1e-8 too
        for kappa in (1e-9, 1e-12, 1e-15):
            p = FlowParams(kappa, 1.0)
            assert admissible_contour(p, 0.05).radius == kappa / 2
            want = m_series_coeffs(p, 16)(0.05)
            assert m_integral(p, 0.05) == pytest.approx(want, abs=1e-14)

    def test_failing_condition_is_named(self):
        # rho0 = 0.1 sends part of the circle to |y| >= 1; its half is admissible
        z = 0.9 * cmath.exp(1j * math.pi / 4)
        assert contour._contour_admissible(2.0, 0.2, z, 0.1) == "(iii) kernel argument"
        assert contour._contour_admissible(2.0, 0.2, z, 0.05) is None
        assert admissible_contour(FlowParams(0.2, 2.0), z).radius == 0.05

    @pytest.mark.parametrize("kappa", [5e-324, -1e-323, 3e-308])
    def test_subnormal_radius_is_numerical(self, kappa):
        # rho0 = |kappa|/2 is zero or subnormal: no circle to sample, and no
        # obstruction either; a radius chosen by a caller stays a ValueError
        with pytest.raises(contour.QuadratureError, match="not a normal float"):
            admissible_contour(FlowParams(kappa, 1.0), 0.03)
        with pytest.raises(ValueError):
            ContourSpec(complex(kappa), 0.0)


class TestMIntegral:
    def test_forms_agree(self):
        assert_entries("m-integral-forms-agree", 0.5, 1.0)

    def test_matches_series(self):
        p = FlowParams(0.5, 1.0)
        ser = m_series_coeffs(p, 16)
        for z in (0.03, 0.02 + 0.01j):
            val = m_integral(p, z)
            assert abs(val - ser(z)) / abs(ser(z)) < 1e-6

    def test_vanishes_at_origin(self):
        assert abs(m_integral(FlowParams(0.5, 1.0), 0.0)) < 1e-12

    def test_symmetric_limit(self):
        # corollary form at small kappa approaches the closed symmetric form
        t, z = 1.0, 0.05
        val = m_integral(FlowParams(1e-3, t), z)
        assert val == pytest.approx(m_zero(t, z), rel=1e-4)

    def test_diagnostics(self):
        res = m_integral_detailed(FlowParams(0.5, 1.0), 0.03)
        assert res.min_kernel_denominator > 1e-6
        assert res.geom_ratio_max < 1
        assert res.samples >= res.contour.samples
        assert res.quadrature_delta < 1e-12

    @pytest.mark.parametrize("kappa", [1e-7, 1e-9, 1e-12])
    @pytest.mark.parametrize("z", [0.02, 0.03 + 0.01j, 0.05])
    def test_tiny_kappa_stops_at_the_first_doubling(self, kappa, z):
        # the 1e-12 stop is absolute, so the proposition form carries kappa
        # inside its integrand: outside, it would see a value of size |M|/|kappa|
        res = m_integral_detailed(FlowParams(kappa, 1.0), z)
        assert res.samples == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            m_integral(FlowParams(0.0, 1.0), 0.03)
        with pytest.raises(ValueError):
            m_integral(FlowParams(0.5, 1.0), 0.03, form="other")
        with pytest.raises(DomainError):
            m_integral(FlowParams(0.5, 1.0), 1.5)

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0.1, math.nan)])
    def test_nan_point_rejected(self, z):
        with pytest.raises(DomainError):
            m_integral_detailed(FlowParams(0.5, 1.0), z)

    @pytest.mark.parametrize("kappa,t,z", [(0.5, 1.0, 0.03), (0.2, 1.7, 0.7 + 0.1j)])
    def test_one_form_is_a_field_of_both(self, kappa, t, z):
        p = FlowParams(kappa, t)
        res = m_integral_detailed(p, z)
        for form in ("corollary", "proposition"):
            # repr round-trips a binary64 pair, signed zeros included
            assert repr(m_integral(p, z, form)) == repr(getattr(res, form))
        # the form is checked before any work: 1.5 would be a DomainError
        with pytest.raises(ValueError, match="unknown integral form"):
            m_integral(p, 1.5, "other")

    @pytest.mark.parametrize(
        "kappa,t,z,levels", [(0.2, 1.7, 0.7 + 0.1j, 2), (-0.26, 0.8, -0.35 + 0.1j, 4)]
    )
    def test_diagnostics_cover_every_level(self, kappa, t, z, levels):
        # the doubled grids are nested, so the extremes over every level,
        # from the first grid up to res.samples, are those of the last one
        res = m_integral_detailed(FlowParams(kappa, t), z)
        dens, ratios = [], []
        n = res.contour.samples
        while n <= res.samples:
            w, D, _ = contour._kernel(t, complex(z), res.contour, n)
            dens.append(float(np.min(np.abs(2 + t * D * (2 + D)))))
            ratios.append(float(np.max(np.abs(w * D / (w - kappa)))))
            n *= 2
        assert len(dens) == levels
        assert res.min_kernel_denominator == min(dens)
        assert res.geom_ratio_max == max(ratios)


class TestGeneratingChecks:
    def test_laguerre_base_case(self):
        [entry] = laguerre_gen_checks([(0, 0.2, 80, 1e-10)], 1.0)
        assert entry.passed

    def test_laguerre_zero_argument(self):
        [entry] = laguerre_gen_checks([(3, 0.0, 40, 1e-14)], 1.0)
        assert entry.passed and entry.residual < 1e-14

    def test_laguerre_shifted_index(self):
        [entry] = laguerre_gen_checks([(2, 0.3, 120, 1e-8)], 0.8)
        assert entry.passed

    def test_laguerre_recurrence_overflows_quietly(self):
        # at t = 100 the high degrees overflow, and must do so without a
        # warning: the tests turn warnings into errors
        [row] = contour._laguerre_diagonal([4], 100.0, [120])
        assert row.shape == (116,)
        for d in range(4):
            want = float(laguerre(d, 5, 2.0 * (d + 5) * 100.0))
            assert abs(row[d] - want) <= 1e-13 * abs(want)
        assert not np.all(np.isfinite(row))

    @staticmethod
    def _reference_laguerre_diagonal(ms, t, n_terms):
        """The recurrence pass of ``_laguerre_diagonal`` as it ran before it
        formed its two factors for every degree ahead of the loop."""
        sizes = [max(n - m, 0) for m, n in zip(ms, n_terms)]
        a = np.array([[m + 1] for m in ms])
        x = np.zeros((len(sizes), max(sizes)))
        for row, m, size in zip(x, ms, sizes):
            row[:size] = 2.0 * np.arange(m + 1, m + 1 + size) * t
        prev, cur, out = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            for d in range(x.shape[1]):
                out[:, d] = cur[:, d]
                prev, cur = cur, ((2 * d + a + 1 - x) * cur - (d + a) * prev) / (d + 1)
        return [row[:size] for row, size in zip(out, sizes)]

    @pytest.mark.parametrize("t", [0.3, 1.37, 2.45, 20.0, 700.0])
    @pytest.mark.parametrize("ms, n_terms", [
        ((0, 1, 2, 3, 4), (80, 120, 120, 120, 120)), ((0, 1, 2), (80, 120, 120)), ((7,), (5,))])
    def test_laguerre_factors_ahead_of_the_loop_keep_every_bit(self, ms, n_terms, t):
        # verify's full and fast stacks, and a row with no degree at all
        got = contour._laguerre_diagonal(list(ms), t, list(n_terms))
        want = self._reference_laguerre_diagonal(list(ms), t, list(n_terms))
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]

    @pytest.mark.parametrize("t", [100.0, 300.0, 700.0])
    def test_laguerre_overflow_keeps_the_residual_finite(self, t):
        # the recurrence overflows before the last term, where e^{-tj} is 0:
        # the partial sum stops at the first term that is not finite and
        # says how many it summed
        specs = [(m, 0.3, 120, 1e-8) for m in range(1, 5)]
        rows = contour._laguerre_diagonal([m for m, *_ in specs], t, [120] * 4)
        for (m, *_), row, entry in zip(specs, rows, laguerre_gen_checks(specs, t)):
            first = int(np.argmin(np.isfinite(row)))
            assert 0 < first < len(row)
            assert math.isfinite(entry.residual) and entry.passed, entry.format_line()
            assert dict(entry.context)["summed"] == str(first)

    def test_laguerre_overflow_entries_in_verify(self):
        for entry in entries("laguerre-generating", 0.5, 100.0, "full"):
            assert math.isfinite(entry.residual), entry.format_line()

    @pytest.mark.parametrize("t", [0.35, 2.45])
    def test_stacked_laguerre_checks_match_single(self, t):
        # zero-padded rows and one delta solve for all y leave each entry as it
        # is when the check runs alone
        specs = [(m, y, n_terms, 1e-8) for m in range(5)
                 for y, n_terms in ((0.2, 80), (0.3, 120), (-0.1 + 0.25j, 60))]
        single = [laguerre_gen_checks([spec], t)[0] for spec in specs]
        assert laguerre_gen_checks(specs, t) == single

    def test_laguerre_domain(self):
        with pytest.raises(DomainError):
            laguerre_gen_checks([(0, 0.97, 120, 1e-8)], 1.0)

    def test_jacobi_real_argument(self):
        entry = jacobi_gen_check(1, 0.2, 0.6, n_terms=100, tol=1e-9)
        assert entry.passed

    def test_jacobi_complex_argument(self):
        entry = jacobi_gen_check(2, 0.15, 0.5 + 0.1j, n_terms=150, tol=1e-8)
        assert entry.passed

    @pytest.mark.parametrize("x", [0.28, -0.7])
    def test_jacobi_row_matches_exact_real_path(self, x):
        # 0.28 = 1 - 2 (0.6)^2 is the argument of the real generating check
        for b in (2, 4, 6, 8):
            row = contour._jacobi_row(150, 0, b, x)
            for n, got in enumerate(row):
                want = float(jacobi_poly(n, 0, b, Fraction(x)))
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, b, got, want)

    def test_jacobi_zero_point(self):
        entry = jacobi_gen_check(2, 0.0, 0.4, n_terms=20, tol=1e-15)
        assert entry.passed

    def test_jacobi_domain(self):
        with pytest.raises(DomainError):
            jacobi_gen_check(1, 0.5, 0.5)


class TestKernelChecks:
    def test_nonvanishing_at_origin(self):
        p = FlowParams(0.5, 1.0)
        spec = admissible_contour(p, 0.0)
        entry = nonvanishing_check(p, 0.0, spec)
        assert entry.passed
        # K = 1 on the whole circle, so the denominator is exactly 2
        assert float(dict(entry.context)["min_abs"]) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_nonvanishing_along_admissible(self, t):
        assert_entries("kernel-nonvanishing", 0.5, t)


class TestSharedKernel:
    """delta = K - 1 is solved once per distinct contour node and shared by
    the admissibility check, every doubling of the integral and the kernel
    checks."""

    @staticmethod
    def _count_points(monkeypatch):
        sent = []

        def counting(t, y):
            sent.append(np.size(y))
            return maps._herglotz_delta(t, y)

        contour._kernel_cached.cache_clear()
        monkeypatch.setattr(contour, "_herglotz_delta", counting)
        return sent

    @pytest.mark.parametrize(
        "kappa,t,z",
        [
            (0.5, 1.0, 0.03),
            (0.2, 1.7, 0.7 + 0.1j),
            (-0.4, 0.9, 0.1 + 0.2j),
            # rho0 fails (iii), before its delta is solved
            (0.2, 2.0, 0.9 * cmath.exp(1j * math.pi / 4)),
        ],
    )
    def test_one_solve_per_distinct_node(self, kappa, t, z, monkeypatch):
        sent = self._count_points(monkeypatch)
        params = FlowParams(kappa, t)
        res = m_integral_detailed(params, z)
        nonvanishing_check(params, z, res.contour)
        assert sum(sent) == res.samples

    def test_rejected_radii_cost_one_grid_each(self, monkeypatch):
        # each radius tried solves its first doubled grid in one call, the
        # grid an accepted circle's quadrature would need next
        sent = self._count_points(monkeypatch)
        with pytest.raises(NoAdmissibleContourError) as err:
            admissible_contour(FlowParams(0.9, 0.5), 0.2)
        assert sent == [2 * ContourSpec.samples] * len(err.value.trail)

    @pytest.mark.parametrize("n", [256, 512, 1024, 2048])
    def test_nested_grid_matches_a_direct_solve(self, n):
        # node 2k of the 2n grid is node k of the n grid, bit for bit, so
        # the shared delta equals a solve on all n nodes at once
        spec = ContourSpec(0.2 + 0j, 0.1, 256)
        z = 0.7 + 0.1j
        contour._kernel_cached.cache_clear()
        w, D, R = contour._kernel(1.7, z, spec, n)
        direct_w = contour_nodes(spec, n)
        assert w.tobytes() == direct_w.tobytes()
        assert D.tobytes() == maps._herglotz_delta(1.7, y_func(z, direct_w)).tobytes()
        assert R.tobytes() == r_func(z, direct_w).tobytes()

    def test_arrays_are_read_only(self):
        spec = ContourSpec(0.5 + 0j, 0.125, 256)
        for n in (256, 512):
            w, D, R = contour._kernel(1.0, 0.03 + 0j, spec, n)
            with pytest.raises(ValueError):
                D[0] = 0
            with pytest.raises(ValueError):
                w[1] = 0
            with pytest.raises(ValueError):
                R[2] = 0

    def test_signed_zero_points_stay_apart(self):
        spec = ContourSpec(0.5 + 0j, 0.125, 256)
        plus = contour._kernel(1.0, complex(0.03, 0.0), spec, 256)
        minus = contour._kernel(1.0, complex(0.03, -0.0), spec, 256)
        assert plus is not minus

    def test_shared_cache_under_threads(self):
        spec = ContourSpec(0.2 + 0j, 0.1, 256)
        points = [(1.7, 0.7 + 0.1j), (1.7, 0.6 - 0.2j), (0.9, 0.7 + 0.1j), (2.3, 0.8 + 0.05j)]
        jobs = [(t, z, n) for t, z in points for n in (256, 512, 1024)]

        def solve_all(order):
            return [((t, z, n), contour._kernel(t, z, spec, n)[1].tobytes()) for t, z, n in order]

        contour._kernel_cached.cache_clear()
        want = dict(solve_all(jobs))
        orders = [[jobs[i] for i in np.random.default_rng(seed).permutation(len(jobs))]
                  for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(5):
                    contour._kernel_cached.cache_clear()
                    futures = [pool.submit(solve_all, order) for order in orders]
                    for f in futures:
                        for job, got in f.result(timeout=120):
                            assert got == want[job]
        finally:
            sys.setswitchinterval(interval)

import cmath
import math
import random
from fractions import Fraction

import pytest

from jacobiflow import flow, maps, powerseries, verify
from jacobiflow.powerseries import (
    MAX_ORDER,
    NonInvertibleError,
    TruncatedSeries,
    series_compose,
    series_derive,
    series_revert,
    series_sqrt,
)


def frac_series(*coeffs):
    return TruncatedSeries(Fraction(0), [Fraction(c) for c in coeffs])


def _reference_mul_trunc(a, b, order):
    """The ring loop ``_mul_trunc`` runs for every coefficient type but
    all-Fraction lists: one ring operation per term."""
    zero = a[0] * 0
    out = [zero] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def _reference_compose_trunc(f, g, order):
    """Horner's rule for f(g) with every step carried to the full order."""
    acc = [f[-1]] + [g[0] * 0] * order
    for k in range(len(f) - 2, -1, -1):
        acc = powerseries._mul_trunc(acc, g, order)
        acc[0] = acc[0] + f[k]
    return acc


def _reference_revert(f):
    """The Newton loop ``series_revert`` runs for every coefficient type but
    all-Fraction lists, on f's own coefficients: over Fractions, each step's
    composition takes ``_compose_trunc``'s Fraction branch."""
    c = f.coeffs
    zero = c[1] * 0
    one = zero + 1
    fa = [zero] + c[1:]
    g = [zero, one / c[1]]
    m = 1
    while m < f.order:
        dg = [k * g[k] for k in range(1, m + 1)]
        m = min(2 * m, f.order)
        gm = g + [zero] * (m + 1 - len(g))
        comp = powerseries._compose_trunc(fa[: m + 1], gm, m)
        comp[1] = comp[1] - one
        corr = powerseries._mul_trunc(comp, dg, m)
        g = [gm[k] - corr[k] for k in range(m + 1)]
    return [f.base + zero] + g[1:]


def _reference_lagrange_inverse(f):
    """The Lagrange extraction ``verify._lagrange_inverse`` ran before it
    worked on integers: the powers of w/f over one denominator, each step
    divided by the gcd of its numerators and that denominator."""
    top = f.order - 1
    ratio, rden = powerseries._common_denominator(powerseries._recip_trunc(f.coeffs[1:], top))
    power, den, out = ratio, rden, [Fraction(ratio[0], rden)]
    for n in range(2, f.order + 1):
        power = powerseries._mul_trunc(power, ratio, top)
        common = math.gcd(den * rden, *power)
        power, den = [c // common for c in power], den * rden // common
        out.append(Fraction(power[n - 1], den * n))
    return out


def _random_fraction(rng):
    # zeros, negatives and unrelated denominators
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-10**6, 10**6), rng.choice([1, 3, 7, 12, 2**20, 999983]))


_KINDS = {
    "fraction": lambda a, b, rng: (a, b),
    "zeros": lambda a, b, rng: ([Fraction(0)] * len(a), b),
    "int-mixed": lambda a, b, rng: (
        [rng.randint(-9, 9) if k % 2 else x for k, x in enumerate(a)], b),
    "int-mixed-right": lambda a, b, rng: (
        b, [rng.randint(-9, 9) if k % 2 else x for k, x in enumerate(a)]),
    "int-first": lambda a, b, rng: ([rng.randint(-9, 9)] + a[1:], b),
    "int": lambda a, b, rng: ([x.numerator for x in a], [x.numerator for x in b]),
    "float": lambda a, b, rng: ([float(x) for x in a], [float(x) for x in b]),
    "complex": lambda a, b, rng: (
        [complex(float(x), -float(y)) for x, y in zip(a, a[::-1])],
        [complex(float(x), 0.5) for x in b]),
}


class TestMulTruncKernel:
    """All-Fraction products on integer numerators give the ring loop's
    values and types; every other list still runs the ring loop."""

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_matches_ring_loop(self, kind):
        rng = random.Random(2718)
        for order in (0, 1, 2, 5, 12, 24):
            # equal lengths, b shorter than order + 1, a longer than it
            for len_a, len_b in ((order + 1, order + 1), (order + 1, max(1, order // 2)),
                                 (order + 4, order + 1), (order + 3, 1)):
                a = [_random_fraction(rng) for _ in range(len_a)]
                b = [_random_fraction(rng) for _ in range(len_b)]
                a, b = _KINDS[kind](a, b, rng)
                got = powerseries._mul_trunc(a, b, order)
                want = _reference_mul_trunc(a, b, order)
                assert got == want, (order, len_a, len_b)
                assert [type(c) for c in got] == [type(c) for c in want]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: series_revert(maps.big_phi_series(flow.FlowParams(0.5, 1.0), 16)),
            lambda: series_sqrt(maps.phi_series(flow.FlowParams(0.3, 0.7), 16) * -1 + 1),
            lambda: maps.phi_series(flow.FlowParams(Fraction(1, 3), 2.5), 16),
        ],
        ids=["series_revert", "series_sqrt", "phi_series"],
    )
    def test_exact_series_unchanged(self, build, monkeypatch):
        got = build().coeffs
        monkeypatch.setattr(powerseries, "_mul_trunc", _reference_mul_trunc)
        want = build().coeffs
        assert got == want
        assert all(type(c) is Fraction for c in got + want)


class TestComposeTruncKernel:
    @pytest.mark.parametrize("kind", ["fraction", "float", "complex"])
    def test_matches_full_order_horner(self, kind):
        # the step that adds f[k] is carried to order - k only
        rng = random.Random(1414)
        for order in (0, 1, 2, 5, 12, 24):
            for _ in range(4):
                f = [_random_fraction(rng) for _ in range(order + 1)]
                g = [_random_fraction(rng) for _ in range(order + 1)]
                f, g = _KINDS[kind](f, g, rng)
                g[0] = g[0] * 0
                got = powerseries._compose_trunc(f, g, order)
                assert got == _reference_compose_trunc(f, g, order), order
                assert len(got) == order + 1

    @pytest.mark.parametrize("f_kind", ["integer", "unequal-denominators"])
    def test_fractions_match_the_ring_loop(self, f_kind):
        # f over its common denominator, Horner on integer numerators,
        # against Horner on the Fractions themselves
        rng = random.Random(1618)
        dens = [1] if f_kind == "integer" else [1, 2, 3, 4, 7, 12, 2**20, 999983]
        for order in range(1, 13):
            for _ in range(3):
                f = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(order + 1)]
                g = [Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 6, 9]))
                                     for _ in range(order)]
                want = [f[-1]]
                for k in range(order - 1, -1, -1):
                    want = _reference_mul_trunc(want, g, order)
                    want[0] += f[k]
                got = powerseries._compose_trunc(f, g, order)
                assert got == want, (order, f, g)
                assert all(type(c) is Fraction for c in got)


def _revert_cases():
    rng = random.Random(3141)
    cases = {}
    # a zero at every third power, and more at random
    cases["zeros"] = [Fraction(0), Fraction(7, 12)] + [
        _random_fraction(rng) if k % 3 else Fraction(0) for k in range(2, 17)]
    cases["negative-c1"] = [Fraction(0), Fraction(-3, 4)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(15)]
    # denominators that are not powers of one base
    dens = [Fraction(1, 7), Fraction(3, 10), Fraction(5, 2**40 * 3)]
    cases["unrelated-denominators"] = [Fraction(0)] + [dens[k % 3] * (k % 4 - 1 or 2)
                                                       for k in range(16)]
    return cases


_REVERT_CASES = _revert_cases()


class TestRevertKernel:
    """An all-Fraction series is reverted on integers (``_integer_form``);
    the result equals the Newton loop on its Fractions at every order.
    [w**k] of the inverse reads c_1..c_k only, so one reference inversion
    at order 16 holds the answers at every lower order."""

    @pytest.mark.parametrize("case", sorted(_REVERT_CASES))
    def test_matches_the_fraction_loop(self, case):
        coeffs = _REVERT_CASES[case]
        for base in (Fraction(0), Fraction(-5, 3)):
            want = _reference_revert(TruncatedSeries(base, coeffs))
            for order in range(1, 17):
                got = series_revert(TruncatedSeries(base, coeffs[: order + 1])).coeffs
                assert got == want[: order + 1], (base, order)
                assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("kappa, t", [(1e-300, 1.0), (0.5, 700.0), (-0.3, 0.01)])
    def test_matches_the_fraction_loop_on_phi(self, kappa, t):
        phi = maps.phi_series(flow.FlowParams(kappa, t), 16)
        want = _reference_revert(phi)
        for order in range(1, 17):
            got = series_revert(TruncatedSeries(phi.base, phi.coeffs[: order + 1])).coeffs
            assert got == want[: order + 1], order

    def test_mixed_int_keeps_the_generic_loop(self, monkeypatch):
        f = TruncatedSeries(Fraction(0), [0, Fraction(2, 3), 1, Fraction(-1, 5), 0, 3])
        want = _reference_revert(f)
        monkeypatch.setattr(powerseries, "_integer_form", None)
        got = series_revert(f).coeffs
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]


class TestConstruction:
    def test_order(self):
        f = TruncatedSeries(0.0, [1.0, 2.0, 3.0])
        assert f.order == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0.0, [])

    def test_order_cap(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0.0, [0.0] * (MAX_ORDER + 2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0.0, [1.0, math.inf])

    def test_variable_represents_identity(self):
        z = TruncatedSeries.variable(2.0, 4)
        assert z(2.3) == pytest.approx(2.3)

    def test_variable_at_order_zero(self):
        assert TruncatedSeries.variable(2.0, 0).coeffs == [2.0]
        one = Fraction(1)
        assert TruncatedSeries.variable(one, 0, one=one).coeffs == [one]
        # the series built on it keep order 0: the constant term phi(1) = 0
        assert maps.phi_series(flow.FlowParams(0.4, 1.0), 0).coeffs == [0]


class TestArithmetic:
    def test_product_truncates(self):
        f = frac_series(1, 1, 0)   # 1 + z
        g = frac_series(1, -1, 0)  # 1 - z
        assert (f * g).coeffs == [1, 0, -1]

    def test_multiplicative_identity(self):
        f = frac_series(2, 3, 5, 7)
        one = frac_series(1, 0, 0, 0)
        assert (f * one).coeffs == f.coeffs

    def test_exponential_square(self):
        # (sum z^n/n!)^2 = sum 2^n z^n / n!
        N = 6
        e = TruncatedSeries(Fraction(0), [Fraction(1, math.factorial(n)) for n in range(N + 1)])
        sq = e * e
        assert sq.coeffs == [Fraction(2**n, math.factorial(n)) for n in range(N + 1)]

    def test_mismatched_order_rejected(self):
        with pytest.raises(ValueError):
            frac_series(1, 2) * frac_series(1, 2, 3)

    def test_mismatched_base_rejected(self):
        f = TruncatedSeries(0.0, [1.0, 2.0])
        g = TruncatedSeries(1.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            f + g

    def test_reciprocal(self):
        f = frac_series(2, 1, 0, 0)
        r = f.reciprocal()
        assert (f * r).coeffs == [1, 0, 0, 0]

    def test_reciprocal_zero_constant_rejected(self):
        with pytest.raises(ZeroDivisionError):
            frac_series(0, 1).reciprocal()

    @pytest.mark.parametrize("length,order", [(9, 8), (4, 10), (1, 5)])
    def test_fraction_reciprocal_matches_ring_loop(self, length, order):
        # the all-Fraction route sums integer numerators over one common
        # denominator per coefficient; the ring loop on the same Fractions
        # is the reference
        def ring_loop(a, order):
            out = [Fraction(1) / a[0]]
            for n in range(1, order + 1):
                acc = sum((a[i] * out[n - i] for i in range(1, min(n, len(a) - 1) + 1)),
                          Fraction(0))
                out.append(-out[0] * acc)
            return out

        rng = random.Random(length * 31 + order)
        for lead in (Fraction(3, 7), Fraction(-5, 2), Fraction(1)):
            a = [lead] + [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                          for _ in range(length - 1)]
            got = powerseries._recip_trunc(a, order)
            assert got == ring_loop(a, order)
            assert all(type(c) is Fraction for c in got) and len(got) == order + 1

    def test_float_reciprocal_takes_the_ring_loop(self):
        r = TruncatedSeries(0.0, [2.0, 1.0, 0.0]).reciprocal()
        assert r.coeffs == [0.5, -0.25, 0.125]
        assert all(type(c) is float for c in r.coeffs)


class TestCompose:
    def test_identity_inner(self):
        f = TruncatedSeries(0.0, [3.0, 1.0, -2.0, 0.5])
        ident = TruncatedSeries.variable(0.0, 3)
        out = series_compose(f, ident)
        assert out.coeffs == pytest.approx(f.coeffs)

    def test_geometric_composition(self):
        # 1/(1-z) composed with z/(1-z) is (1-z)/(1-2z): 1, 1, 2, 4, 8, 16
        N = 5
        outer = frac_series(*([1] * (N + 1)))
        inner = frac_series(0, *([1] * N))
        out = series_compose(outer, inner)
        assert out.coeffs == [1, 1, 2, 4, 8, 16]

    def test_misaligned_constant_rejected(self):
        f = TruncatedSeries(0.0, [1.0, 1.0])
        g = TruncatedSeries(0.0, [0.5, 1.0])
        with pytest.raises(ValueError):
            series_compose(f, g)

    def test_base_alignment(self):
        # outer expanded about 1, inner sends 0 to 1
        outer = TruncatedSeries(1.0, [0.0, 1.0, 1.0])  # f(w) = (w-1) + (w-1)^2
        inner = TruncatedSeries(0.0, [1.0, 2.0, 0.0])  # g(u) = 1 + 2u
        out = series_compose(outer, inner)
        assert out.coeffs == pytest.approx([0.0, 2.0, 4.0])


class TestRevert:
    def test_identity(self):
        ident = TruncatedSeries.variable(0.0, 5)
        assert series_revert(ident).coeffs == pytest.approx(ident.coeffs)

    def test_catalan_numbers(self):
        f = frac_series(0, 1, -1, 0, 0)
        g = series_revert(f)
        assert g.coeffs == [0, 1, 1, 2, 5]

    def test_roundtrip_random_complex(self):
        rng = random.Random(99)
        for order in (8, 16, 32):
            coeffs = [0j, cmath.rect(rng.uniform(0.8, 1.2), rng.uniform(-3, 3))]
            coeffs += [
                cmath.rect(0.5**k * rng.random(), rng.uniform(-3, 3))
                for k in range(2, order + 1)
            ]
            f = TruncatedSeries(0j, coeffs)
            ident = series_compose(f, series_revert(f))
            assert abs(ident.coeffs[1] - 1) < 1e-10
            assert max(abs(c) for c in ident.coeffs[2:]) < 1e-10

    def test_roundtrip_exact(self):
        rng = random.Random(5)
        coeffs = [Fraction(0), Fraction(1)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(12)
        ]
        f = TruncatedSeries(Fraction(0), coeffs)
        ident = series_compose(f, series_revert(f))
        assert ident.coeffs == [Fraction(0), Fraction(1)] + [Fraction(0)] * 12

    def test_matches_closed_lagrange_formula(self):
        # g_n = (1/n) [w^{n-1}] (w / f(w))^n, exactly over rationals
        rng = random.Random(13)
        coeffs = [Fraction(0), Fraction(2, 3)] + [
            Fraction(rng.randint(-5, 5), rng.randint(2, 7)) for _ in range(11)
        ]
        f = TruncatedSeries(Fraction(0), coeffs)
        g = series_revert(f)
        ratio = TruncatedSeries(Fraction(0), coeffs[1:] + [Fraction(0)]).reciprocal()
        power = ratio
        for n in range(1, 13):
            assert g.coeffs[n] == power.coeffs[n - 1] / n
            power = power * ratio

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_revert(frac_series(1, 1))

    def test_vanishing_linear_rejected(self):
        with pytest.raises(NonInvertibleError):
            series_revert(frac_series(0, 0, 1))

    def test_base_bookkeeping(self):
        # expansion about 1 with zero value there; inverse has value 1 at 0
        f = TruncatedSeries(1.0, [0.0, 2.0, 1.0, 0.0])
        g = series_revert(f)
        assert g.base == 0
        assert g.coeffs[0] == 1.0
        ident = series_compose(f, g)
        assert ident.coeffs == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-14)

    @pytest.mark.parametrize("order", range(1, 25))
    def test_newton_step_matches_lagrange_at_every_order(self, order):
        # odd orders end in a partial doubling; the exact inverse is unique,
        # so the g' step must land on the Lagrange coefficients exactly
        rng = random.Random(2024 + order)
        coeffs = [Fraction(0), Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))]
        coeffs += [Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(order - 1)]
        f = TruncatedSeries(Fraction(0), coeffs)
        assert series_revert(f).coeffs[1:] == verify._lagrange_inverse(f)

    @pytest.mark.parametrize("kappa, t", [(0.5, 1.0), (Fraction(1, 3), 0.7)])
    def test_newton_step_matches_lagrange_on_big_phi(self, kappa, t):
        f = maps.big_phi_series(flow.FlowParams(kappa, t), 12)
        g = series_revert(f)
        assert g.coeffs[0] == 1
        assert g.coeffs[1:] == verify._lagrange_inverse(f)

    @pytest.mark.parametrize("kappa, t", [(0.37, 2.45), (Fraction(1, 3), 0.7)])
    def test_lagrange_powers_match_the_product_loop(self, kappa, t):
        # the integer powers of w/f give the Fractions of TruncatedSeries products
        for order in range(1, 13):
            f = maps.phi_series(flow.FlowParams(kappa, t), order)
            ratio = TruncatedSeries(f.base, f.coeffs[1:] + [Fraction(0)]).reciprocal()
            power, want = ratio, [ratio.coeffs[0]]
            for n in range(2, order + 1):
                power = power * ratio
                want.append(power.coeffs[n - 1] / n)
            assert verify._lagrange_inverse(f) == want, order

    @pytest.mark.parametrize("order", range(1, 17))
    def test_lagrange_on_integers_matches_the_gcd_loop(self, order):
        # zeros, a negative c_1 and the denominators 7, 10 and 2**40 * 3
        rng = random.Random(3900 + order)
        dens = [Fraction(1, 7), Fraction(3, 10), Fraction(5, 3 << 40)]
        coeffs = [Fraction(0), -rng.randint(1, 9) * rng.choice(dens)]
        coeffs += [rng.choice([0, rng.randint(-9, 9)]) * rng.choice(dens)
                   for _ in range(order - 1)]
        f = TruncatedSeries(Fraction(0), coeffs)
        got = verify._lagrange_inverse(f)
        assert got == _reference_lagrange_inverse(f)
        assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("kappa, t", [(1e-300, 1.0), (0.5, 700.0), (-0.3, 0.01)])
    def test_lagrange_on_integers_matches_the_gcd_loop_on_phi(self, kappa, t):
        f = maps.phi_series(flow.FlowParams(kappa, t), 12)
        assert verify._lagrange_inverse(f) == _reference_lagrange_inverse(f)

    @pytest.mark.parametrize("order", [16, 31, 47, MAX_ORDER])
    def test_newton_step_roundtrip_complex(self, order):
        rng = random.Random(order)
        coeffs = [0j, cmath.rect(rng.uniform(0.8, 1.2), rng.uniform(-3, 3))]
        coeffs += [
            cmath.rect(0.5**k * rng.random(), rng.uniform(-3, 3)) for k in range(2, order + 1)
        ]
        f = TruncatedSeries(0j, coeffs)
        ident = series_compose(f, series_revert(f))
        want = [0j, 1 + 0j] + [0j] * (order - 1)
        assert max(abs(a - b) for a, b in zip(ident.coeffs, want)) <= 1e-12


class TestDerive:
    def test_constant(self):
        assert series_derive(frac_series(5, 0, 0)).coeffs == [0, 0]

    def test_monomial(self):
        f = frac_series(0, 0, 0, 1)
        assert series_derive(f).coeffs == [0, 0, 3]

    def test_exponential_exact(self):
        N = 8
        e = TruncatedSeries(Fraction(0), [Fraction(1, math.factorial(n)) for n in range(N + 1)])
        d = series_derive(e)
        assert d.coeffs == e.coeffs[: N]

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            series_derive(frac_series(1))


class TestSqrt:
    def test_square_roundtrip_exact(self):
        f = frac_series(1, 2, -1, 3, 0, 1)
        s = series_sqrt(f)
        assert (s * s).coeffs == f.coeffs

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_sqrt(frac_series(4, 1))


class TestEvaluation:
    def test_horner(self):
        f = TruncatedSeries(1.0, [2.0, 3.0, 4.0])
        z = 1.5
        assert f(z) == pytest.approx(2 + 3 * 0.5 + 4 * 0.25)

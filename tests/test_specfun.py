import math
import random
from fractions import Fraction

import pytest

from jacobiflow import maps
from jacobiflow.gaussian import GaussianRational
from jacobiflow.specfun import binomial, charlier, jacobi_poly, laguerre, pochhammer


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1
        assert pochhammer(0, 0) == 1

    def test_zero_base_vanishes(self):
        for k in range(1, 6):
            assert pochhammer(0, k) == 0

    def test_one_base_is_factorial(self):
        assert pochhammer(1, 5) == 120
        assert pochhammer(1, 10) == math.factorial(10)

    def test_exact_rational(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)


class TestBinomial:
    def test_basic(self):
        assert binomial(4, 2) == 6
        assert binomial(40, 20) == 137846528820

    def test_out_of_range_vanishes(self):
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_large_exact(self):
        assert binomial(200, 100) == math.comb(200, 100)
        assert isinstance(binomial(200, 100), int)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 0.3, 2.5) == 1
        assert laguerre(0, Fraction(3, 10), GaussianRational(5, 2)) == 1

    def test_binary64_complex_rejected(self):
        # only jacobi_poly takes a binary64 complex; a GaussianRational
        # still gives the exact complex value
        with pytest.raises(TypeError):
            laguerre(3, 0.5, 1.5 + 1j)
        z = GaussianRational(Fraction(3, 2), 1)
        assert laguerre(3, Fraction(1, 2), z) == _reference_laguerre(3, Fraction(1, 2), z)

    def test_degree_one(self):
        alpha, z = 0.7, 0.4
        assert laguerre(1, alpha, z) == pytest.approx(alpha + 1 - z, rel=1e-15)

    def test_negative_integer_index_at_zero(self):
        for m in range(1, 11):
            assert laguerre(m, -m, 0) == 0

    def test_exact_mode(self):
        val = laguerre(3, Fraction(1), Fraction(1, 2))
        assert isinstance(val, Fraction)
        # L_3^{(1)}(x) = (24 - 36 x + 12 x^2 - x^3)/6
        x = Fraction(1, 2)
        assert val == (24 - 36 * x + 12 * x**2 - x**3) / 6

    def test_float_path_matches_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(0, 20)
            alpha = Fraction(rng.randint(-40, 40), 8)
            z = Fraction(rng.randint(-48, 48), 16)
            exact = laguerre(n, alpha, z)
            approx = laguerre(n, float(alpha), float(z))
            assert approx == pytest.approx(float(exact), rel=1e-13, abs=1e-300)

    def test_three_term_recurrence_exact(self):
        alpha = Fraction(3, 4)
        z = Fraction(5, 8)
        for n in range(2, 21):
            rec = (
                (2 * n - 1 + alpha - z) * laguerre(n - 1, alpha, z)
                - (n - 1 + alpha) * laguerre(n - 2, alpha, z)
            ) / n
            assert rec == laguerre(n, alpha, z)

    def test_large_argument_no_overflow(self):
        # the value is representable long before its largest inner term is
        val = laguerre(119, 5, 600.0)
        assert math.isfinite(val)


class TestCharlier:
    def test_degree_zero(self):
        assert charlier(0, 5, 0.3) == 1

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            charlier(2, 1, 0)

    def test_binary64_complex_rejected(self):
        with pytest.raises(TypeError):
            charlier(3, 2, 0.7 - 1.3j)
        a = GaussianRational(Fraction(7, 10), Fraction(-13, 10))
        assert charlier(3, 2, a) == _reference_charlier(3, 2, a)

    def test_laguerre_link_float(self):
        n, x, a = 3, 5, 0.7
        lhs = (-a) ** n / math.factorial(n) * charlier(n, x, a)
        assert lhs == pytest.approx(laguerre(n, x - n, a), rel=1e-12)

    @pytest.mark.parametrize("x", [-10, -4, 0, 3, 10])
    def test_laguerre_link_exact(self, x):
        a = Fraction(7, 10)
        for n in range(16):
            lhs = (-a) ** n / math.factorial(n) * charlier(n, x, a)
            assert lhs == laguerre(n, x - n, a)

    @pytest.mark.parametrize("x,u", [(-5, 0.3), (-2, 0.1), (0, -0.2), (5, 0.25)])
    def test_generating_function_numeric(self, x, u):
        a = 1.3
        lhs = sum(
            charlier(n, x, a) * (a * u) ** n / math.factorial(n) for n in range(61)
        )
        assert lhs == pytest.approx(math.exp(a * u) * (1 - u) ** x, abs=1e-10)

    def test_generating_function_exact_coefficients(self):
        # coefficient of u^n in e^{a u} (1-u)^x equals C_n(x, a) a^n / n!
        a = Fraction(-3, 1)
        for x in (-3, -1, 2, 6):
            for n in range(16):
                lhs = charlier(n, x, a) * a**n / math.factorial(n)
                rhs = Fraction(0)
                for j in range(n + 1):
                    gbin = Fraction(math.prod(x - i for i in range(j)), math.factorial(j))
                    rhs += Fraction(a ** (n - j), math.factorial(n - j)) * (-1) ** j * gbin
                assert lhs == rhs


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_poly(0, 1.5, -0.5, 0.7 + 0.1j) == 1

    def test_value_at_one(self):
        for n in range(8):
            want = pochhammer(Fraction(5, 2) + 1, n) / math.factorial(n)
            assert jacobi_poly(n, Fraction(5, 2), Fraction(1, 3), 1.0) == pytest.approx(
                float(want), rel=1e-14
            )

    def test_symmetry(self):
        n, a, b, z = 4, 2, 0, 0.3 + 0.2j
        lhs = jacobi_poly(n, a, b, z)
        rhs = (-1) ** n * jacobi_poly(n, b, a, -z)
        assert abs(lhs - rhs) < 1e-12

    def test_exact_gaussian_rational(self):
        z = GaussianRational(Fraction(3, 10), Fraction(1, 5))
        for n in (2, 5, 9):
            exact = complex(jacobi_poly(n, 0, 4, z))
            approx = jacobi_poly(n, 0, 4, complex(z))
            assert abs(approx - exact) / abs(exact) < 1e-12

    def test_exact_rational_argument(self):
        val = jacobi_poly(2, 0, 2, Fraction(1, 3))
        assert isinstance(val, Fraction)
        # hand expansion: sum_m (-2)_m (5)_m / ((1)_m m!) h^m = 1 - 10 h + 15 h^2
        h = (1 - Fraction(1, 3)) / 2
        assert val == 1 - 10 * h + 15 * h**2


class TestGaussianRational:
    def test_field_operations(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        b = GaussianRational(Fraction(-2, 5), Fraction(1, 7))
        assert complex((a + b) * (a - b)) == pytest.approx(complex(a) ** 2 - complex(b) ** 2)
        assert (a / b) * b == a

    def test_from_complex_is_exact(self):
        z = 0.1 + 0.3j
        g = GaussianRational.from_complex(z)
        assert complex(g) == z
        assert g.re == Fraction(0.1)

    def test_powers(self):
        g = GaussianRational(1, 1)
        assert g**2 == GaussianRational(0, 2)
        assert g**0 == GaussianRational(1)


# -- the term-by-term sums the evaluators replaced, kept as references ---------
#
# Each builds every term from fresh Pochhammer products, O(n^2) work per
# value.  The evaluators carry term ratios instead, and must return the same
# value of the same type, bit for bit.


def _reference_exact_div(num, den):
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def _reference_exactify(*values):
    converted = [Fraction(v) if isinstance(v, float) else v for v in values]
    return (*converted, any(isinstance(v, float) for v in values))


def _reference_laguerre(n, alpha, z):
    alpha, z, round_back = _reference_exactify(alpha, z)
    total = z * 0
    for j in range(n + 1):
        c = (-1) ** j * binomial(n, j)
        total = total + c * pochhammer(alpha + j + 1, n - j) * z**j
    out = _reference_exact_div(total, math.factorial(n))
    return float(out) if round_back and not isinstance(out, complex) else out


def _reference_charlier(n, x, a):
    if a == 0:
        raise ValueError("charlier parameter a must be nonzero")
    if isinstance(a, int):
        a = Fraction(a)
    x, a, round_back = _reference_exactify(x, a)
    u = -1 / a
    total = a * 0
    for j in range(n + 1):
        num = pochhammer(-n, j) * pochhammer(-x, j)
        total = total + _reference_exact_div(num, math.factorial(j)) * u**j
    return float(total) if round_back else total


def _reference_jacobi(n, a, b, z):
    a, b, z, round_back = _reference_exactify(a, b, z)
    half = (1 - z) / 2 if isinstance(z, complex) else (1 - z) * Fraction(1, 2)
    total = z * 0
    for m in range(n + 1):
        num = pochhammer(-n, m) * pochhammer(n + a + b + 1, m)
        den = pochhammer(a + 1, m) * math.factorial(m)
        total = total + _reference_exact_div(num, den) * half**m
    out = _reference_exact_div(pochhammer(a + 1, n), math.factorial(n)) * total
    return float(out) if round_back and not isinstance(out, complex) else out


def _assert_same(got, want):
    """Equal values of equal type; floats and complexes bit for bit, so a
    signed zero counts too."""
    assert type(got) is type(want), (got, want)
    assert got == want, (got, want)
    if isinstance(want, (float, complex)):
        want = complex(want)
        got = complex(got)
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert math.copysign(1.0, g) == math.copysign(1.0, w), (got, want)


def _parameter(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-12, 12)
    if kind == 1:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 9))
    return rng.choice([rng.uniform(-6.0, 6.0), float(rng.randint(-8, 8))])


def _argument(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    if kind == 2:
        return rng.uniform(-4.0, 4.0) * rng.choice([1.0, 10.0, 0.01])
    if kind == 3:
        return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    if kind == 4:  # signed zeros in the parts
        return complex(rng.choice([0.0, -0.0, 1.5, -2.0]), rng.choice([0.0, -0.0, 0.5]))
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    )


def _exact_parameter(rng):
    """A parameter that is not a float: a float parameter with an exact
    complex argument has no value in either version (float() of a
    GaussianRational)."""
    return rng.choice([rng.randint(-12, 12), Fraction(rng.randint(-40, 40), rng.randint(1, 9))])


class TestTermRatioBitIdentity:
    def test_random_grid(self):
        rng = random.Random(20260)
        for _ in range(400):
            n = rng.randint(0, 24)
            z = _argument(rng)
            param = _exact_parameter if isinstance(z, GaussianRational) else _parameter
            alpha, a, b = param(rng), param(rng), param(rng)
            if not (-n <= a <= -1 and a == int(a)):
                _assert_same(jacobi_poly(n, a, b, z), _reference_jacobi(n, a, b, z))
            if isinstance(z, complex):  # binary64 complex goes to jacobi_poly only
                with pytest.raises(TypeError):
                    laguerre(n, alpha, z)
                if z != 0:
                    with pytest.raises(TypeError):
                        charlier(n, _exact_parameter(rng), z)
                continue
            _assert_same(laguerre(n, alpha, z), _reference_laguerre(n, alpha, z))
            if z != 0:
                x = param(rng)
                _assert_same(charlier(n, x, z), _reference_charlier(n, x, z))

    def test_negative_integer_index(self):
        zs = (0, Fraction(0), 0.0, -0.0, GaussianRational(0), Fraction(7, 3), -1.25,
              GaussianRational(Fraction(1, 2), Fraction(-1, 3)))
        for n in range(0, 9):
            for m in range(1, n + 2):
                for alpha in (-m, Fraction(-m), float(-m)):
                    for z in zs:
                        if isinstance(alpha, float) and isinstance(z, GaussianRational):
                            continue
                        _assert_same(laguerre(n, alpha, z), _reference_laguerre(n, alpha, z))
        for m in range(1, 11):  # L_m^(-m)(0) = 0
            for z in (0, Fraction(0), 0.0, GaussianRational(0)):
                assert laguerre(m, -m, z) == 0

    def test_exact_zero_is_positive_zero(self):
        # C_1(x, a) = 1 - x/a vanishes at x = a; a < 0 makes the common
        # denominator negative, and the rounded zero must still be +0.0
        for x, a in ((-2.0, -2), (-1.5, Fraction(-3, 2)), (Fraction(-3, 4), -0.75)):
            _assert_same(charlier(1, x, a), _reference_charlier(1, x, a))
        _assert_same(laguerre(3, -3.0, 0.0), _reference_laguerre(3, -3.0, 0.0))

    @pytest.mark.parametrize("m,t", [(0, 1.78), (2, 0.3), (4, 2.5)])
    def test_laguerre_generating_check_inputs(self, m, t):
        for j in range(m + 1, 121):
            args = (j - m - 1, m + 1, 2.0 * j * t)
            _assert_same(laguerre(*args), _reference_laguerre(*args))

    @pytest.mark.parametrize("j,w,n_terms", [(1, 0.6, 100), (2, 0.5 + 0.1j, 150), (4, 0.5 + 0.1j, 150)])
    def test_jacobi_generating_check_inputs(self, j, w, n_terms):
        arg = 1 - 2 * complex(w) * complex(w)
        for n in range(n_terms + 1):
            _assert_same(jacobi_poly(n, 0, 2 * j, arg), _reference_jacobi(n, 0, 2 * j, arg))

    def test_k_series_coefficients(self, monkeypatch):
        ts = (0.01, 1.0, 2.5, 40.0)
        got = [[maps.k_series_coeff(t, n) for n in range(1, 61)] for t in ts]
        monkeypatch.setattr(maps, "laguerre", _reference_laguerre)
        want = [[maps.k_series_coeff(t, n) for n in range(1, 61)] for t in ts]
        for row_got, row_want in zip(got, want):
            for g, w in zip(row_got, row_want):
                _assert_same(g, w)

    def test_charlier_float_x_complex_a(self):
        # a binary64 complex a is refused; its exact embedding is summed
        # exactly, with the float x taken exactly too
        for n in range(12):
            for x in (2.5, -1.0, 0.0):
                a = 0.7 - 1.3j
                with pytest.raises(TypeError):
                    charlier(n, x, a)
                exact_a = GaussianRational.from_complex(a)
                _assert_same(charlier(n, Fraction(x), exact_a),
                             _reference_charlier(n, Fraction(x), exact_a))

    def test_jacobi_vanishing_normalisation_raises(self):
        # the complex floating sum divides by (a+1)_m; exact arguments do not
        for z in (0.1 + 0.2j, -0.5 + 0j):
            for a in (-1, -3, Fraction(-2), -2.0):
                with pytest.raises(ZeroDivisionError):
                    jacobi_poly(3, a, 1, z)
                with pytest.raises(ZeroDivisionError):
                    _reference_jacobi(3, a, 1, z)

    def test_jacobi_vanishing_normalisation_exact(self):
        # P_n^{a,b}(z) = sum_m C(n+a, n-m) C(n+b, m) ((z-1)/2)**m ((z+1)/2)**(n-m),
        # a polynomial in a, also at a in {-1, ..., -n}
        def gen_binom(x, j):
            return math.prod((x - i for i in range(j)), start=Fraction(1)) / math.factorial(j)

        def reference(n, a, b, z):
            return sum(
                gen_binom(n + a, n - m) * gen_binom(n + b, m) * ((z - 1) / 2) ** m
                * ((z + 1) / 2) ** (n - m)
                for m in range(n + 1)
            )

        zs = (Fraction(1, 3), -2, GaussianRational(Fraction(1, 2), Fraction(-3, 4)))
        for n in range(1, 9):
            for a in range(-n, 0):
                for b in (0, 3, Fraction(-5, 2)):
                    for z in zs:
                        assert jacobi_poly(n, a, b, z) == reference(n, a, b, z), (n, a, b, z)
                    assert jacobi_poly(n, Fraction(a), b, 0.25) == float(reference(n, a, b, Fraction(1, 4)))
                    assert jacobi_poly(n, float(a), b, 0.25) == float(reference(n, a, b, Fraction(1, 4)))

    @pytest.mark.parametrize("call", [
        lambda: laguerre(3, 1 + 1j, 0.5),
        lambda: jacobi_poly(3, 0, GaussianRational(1, 1), 0.5),
        lambda: charlier(3, 2j, 1.5),
    ])
    def test_complex_parameters_rejected(self, call):
        with pytest.raises(TypeError):
            call()

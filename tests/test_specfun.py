import math
import random
from fractions import Fraction

import pytest

from jacobiflow import maps
from jacobiflow.contour import _jacobi_row, _laguerre_diagonal
from jacobiflow.specfun import binomial, jacobi_poly, laguerre, pochhammer


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
        assert laguerre(0, Fraction(3, 10), Fraction(5, 2)) == 1

    def test_binary64_complex_rejected(self):
        with pytest.raises(TypeError):
            laguerre(3, 0.5, 1.5 + 1j)
        with pytest.raises(TypeError):
            jacobi_poly(3, 0, 2, 0.3 + 0.2j)

    def test_degree_one(self):
        alpha, z = 0.7, 0.4
        assert laguerre(1, alpha, z) == pytest.approx(alpha + 1 - z, rel=1e-15, abs=0)

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
        rng = random.Random(1905)
        points = [(Fraction(3, 4), Fraction(5, 8))] + [
            (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-32, 32), 16))
            for _ in range(4)]
        for alpha, z in points:
            for n in range(2, 21):
                rec = (
                    (2 * n - 1 + alpha - z) * laguerre(n - 1, alpha, z)
                    - (n - 1 + alpha) * laguerre(n - 2, alpha, z)
                ) / n
                assert rec == laguerre(n, alpha, z), (n, alpha, z)

    def test_large_argument_no_overflow(self):
        # the value is representable long before its largest inner term is
        val = laguerre(119, 5, 600.0)
        assert math.isfinite(val)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_poly(0, 1.5, -0.5, 0.7) == 1

    def test_value_at_one(self):
        for n in range(8):
            want = pochhammer(Fraction(5, 2) + 1, n) / math.factorial(n)
            assert jacobi_poly(n, Fraction(5, 2), Fraction(1, 3), 1.0) == pytest.approx(
                float(want), rel=1e-14, abs=0
            )

    def test_symmetry(self):
        # P_n^{a,b}(z) = (-1)^n P_n^{b,a}(-z), the recurrence at z against the
        # exact value at -z (the recurrence alone is symmetric bit for bit)
        n, a, b, x, y = 4, 2, 0, Fraction(3, 10), Fraction(1, 5)
        re, im = _jacobi_taylor(n, b, a, -x, -y)
        mirror = (-1) ** n * complex(float(re), float(im))
        assert abs(_jacobi_row(n, a, b, complex(x, y))[n] - mirror) <= 1e-12

    def test_recurrence_matches_exact_complex(self):
        # the recurrence behind the Jacobi generating checks, at 0.3 + 0.2i and
        # at their complex argument 1 - 2 (0.5 + 0.1i)^2 = 0.52 - 0.2i
        for x, y in ((Fraction(3, 10), Fraction(1, 5)), (Fraction(13, 25), Fraction(-1, 5))):
            row = _jacobi_row(60, 0, 4, complex(x, y))
            for n in (20, 60):
                re, im = _jacobi_taylor(n, 0, 4, x, y)
                exact = complex(float(re), float(im))
                assert abs(row[n] - exact) <= 1e-12 * abs(exact), (n, x, y)

    def test_exact_complex_taylor_oracle(self):
        # the exact value behind test_recurrence_matches_exact_complex, against
        # the explicit sum on (re, im) pairs, which needs no derivative identity
        points = ((Fraction(3, 10), Fraction(1, 5)), (Fraction(-5, 4), Fraction(2, 3)),
                  (Fraction(7, 9), Fraction(0)))
        for n in range(10):
            pairs = [(0, 4), (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-7, 3), 2)]
            pairs += [(-j, Fraction(5, 2)) for j in range(1, n + 1)]
            for a, b in pairs:
                for x, y in points:
                    got = _jacobi_taylor(n, a, b, x, y)
                    assert got == _explicit_jacobi_pair(n, a, b, x, y), (n, a, b, x, y)
                    if y == 0:
                        assert got == (jacobi_poly(n, a, b, x), 0)

    def test_integer_sums_match_fraction_sums(self):
        # test_recurrence_matches_exact_complex's four (n, point) pairs, each part summed
        # term by term in Fractions
        for x, y in ((Fraction(3, 10), Fraction(1, 5)), (Fraction(13, 25), Fraction(-1, 5))):
            for n in (20, 60):
                parts = [Fraction(0), Fraction(0)]
                for k in range(n + 1):
                    coeff = Fraction(pochhammer(n + 5, k), 2**k * math.factorial(k))
                    term = coeff * jacobi_poly(n - k, k, 4 + k, x) * y**k
                    parts[k % 2] += (-1) ** (k // 2) * term
                assert _jacobi_taylor(n, 0, 4, x, y) == tuple(parts), (n, x, y)

    def test_exact_rational_argument(self):
        val = jacobi_poly(2, 0, 2, Fraction(1, 3))
        assert isinstance(val, Fraction)
        # hand expansion: sum_m (-2)_m (5)_m / ((1)_m m!) h^m = 1 - 10 h + 15 h^2
        h = (1 - Fraction(1, 3)) / 2
        assert val == 1 - 10 * h + 15 * h**2


# -- the term-by-term sums the evaluators replaced, kept as references ---------
#
# Each builds every term from fresh Pochhammer products, O(n^2) work per
# value.  The evaluators carry term ratios instead, and must return the same
# value of the same type, bit for bit.


def _reference_exactify(*values):
    converted = [Fraction(v) if isinstance(v, float) else v for v in values]
    return (*converted, any(isinstance(v, float) for v in values))


def _reference_laguerre(n, alpha, z):
    alpha, z, round_back = _reference_exactify(alpha, z)
    total = z * 0
    for j in range(n + 1):
        c = (-1) ** j * binomial(n, j)
        total = total + c * pochhammer(alpha + j + 1, n - j) * z**j
    out = Fraction(total, math.factorial(n))
    return float(out) if round_back else out


def _reference_laguerre_sum(n, alpha, z):
    """The reference sum as the (numerator, denominator) pair that
    ``specfun._laguerre_sum`` returns unreduced."""
    exact = _reference_laguerre(n, alpha, z)
    return exact.numerator, exact.denominator


def _reference_jacobi(n, a, b, z):
    a, b, z, round_back = _reference_exactify(a, b, z)
    half = (1 - z) * Fraction(1, 2)
    total = z * 0
    for m in range(n + 1):
        num = pochhammer(-n, m) * pochhammer(n + a + b + 1, m)
        den = pochhammer(a + 1, m) * math.factorial(m)
        total = total + Fraction(num, den) * half**m
    out = Fraction(pochhammer(a + 1, n), math.factorial(n)) * total
    return float(out) if round_back else out


def _gen_binom(x, j):
    return math.prod((x - i for i in range(j)), start=Fraction(1)) / math.factorial(j)


def _explicit_jacobi(n, a, b, z):
    """P_n^{a,b}(z) = sum_m C(n+a, n-m) C(n+b, m) ((z-1)/2)**m ((z+1)/2)**(n-m),
    a polynomial in a, also at a in {-1, ..., -n}."""
    z = Fraction(z)
    return sum(
        _gen_binom(n + a, n - m) * _gen_binom(n + b, m) * ((z - 1) / 2) ** m
        * ((z + 1) / 2) ** (n - m)
        for m in range(n + 1)
    )


def _explicit_jacobi_pair(n, a, b, x, y):
    """The same sum at z = x + iy, on (re, im) pairs of Fractions."""
    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    lo, hi = [(Fraction(1), Fraction(0))], [(Fraction(1), Fraction(0))]
    for _ in range(n):  # powers of (z-1)/2 and (z+1)/2
        lo.append(mul(lo[-1], ((x - 1) / 2, y / 2)))
        hi.append(mul(hi[-1], ((x + 1) / 2, y / 2)))
    re = im = Fraction(0)
    for m in range(n + 1):
        c = _gen_binom(n + a, n - m) * _gen_binom(n + b, m)
        term = mul(lo[m], hi[n - m])
        re, im = re + c * term[0], im + c * term[1]
    return re, im


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
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    if kind == 2:
        return rng.uniform(-4.0, 4.0) * rng.choice([1.0, 10.0, 0.01])
    if kind == 3:
        return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    # signed zeros in the parts
    return complex(rng.choice([0.0, -0.0, 1.5, -2.0]), rng.choice([0.0, -0.0, 0.5]))


class TestTermRatioBitIdentity:
    def test_random_grid(self):
        rng = random.Random(20260)
        for _ in range(400):
            n = rng.randint(0, 24)
            z = _argument(rng)
            alpha, a, b = _parameter(rng), _parameter(rng), _parameter(rng)
            if isinstance(z, complex):  # both evaluators take real arguments only
                with pytest.raises(TypeError):
                    jacobi_poly(n, a, b, z)
                with pytest.raises(TypeError):
                    laguerre(n, alpha, z)
                continue
            if not (-n <= a <= -1 and a == int(a)):
                _assert_same(jacobi_poly(n, a, b, z), _reference_jacobi(n, a, b, z))
            _assert_same(laguerre(n, alpha, z), _reference_laguerre(n, alpha, z))

    def test_negative_integer_index(self):
        zs = (0, Fraction(0), 0.0, -0.0, Fraction(7, 3), -1.25)
        for n in range(0, 9):
            for m in range(1, n + 2):
                for alpha in (-m, Fraction(-m), float(-m)):
                    for z in zs:
                        _assert_same(laguerre(n, alpha, z), _reference_laguerre(n, alpha, z))
        for m in range(1, 11):  # L_m^(-m)(0) = 0
            for z in (0, Fraction(0), 0.0):
                assert laguerre(m, -m, z) == 0

    def test_exact_zero_is_positive_zero(self):
        # L_3^(-3)(0) vanishes; the rounded zero must be +0.0
        _assert_same(laguerre(3, -3.0, 0.0), _reference_laguerre(3, -3.0, 0.0))

    @pytest.mark.parametrize("m,t", [(0, 1.78), (2, 0.3), (4, 2.5)])
    def test_laguerre_generating_check_inputs(self, m, t):
        # the check's L, one pass of the binary64 recurrence, against the
        # exact evaluator at each of the check's arguments
        [row] = _laguerre_diagonal([m], t, [120])
        assert len(row) == 120 - m
        for j in range(m + 1, 121):
            args = (j - m - 1, m + 1, 2.0 * j * t)
            want = float(laguerre(*args))
            assert abs(row[j - m - 1] - want) <= 1e-13 * max(1.0, abs(want)), (args, want)

    @pytest.mark.parametrize("j,w,n_terms", [(1, 0.6, 100), (2, 0.5 + 0.1j, 150), (4, 0.5 + 0.1j, 150)])
    def test_jacobi_generating_check_inputs(self, j, w, n_terms):
        # the check's P_n, one row of the binary64 recurrence, against the
        # explicit sum at the exact binary64 argument up to degree 40
        # (test_contour.py takes real arguments to degree 150)
        arg = 1 - 2 * complex(w) * complex(w)
        row = _jacobi_row(n_terms, 0, 2 * j, arg)
        assert len(row) == n_terms + 1
        for n in range(41):
            re, im = _explicit_jacobi_pair(n, 0, 2 * j, Fraction(arg.real), Fraction(arg.imag))
            exact = complex(float(re), float(im))
            assert abs(row[n] - exact) <= 1e-13 * max(1.0, abs(exact)), (n, row[n], exact)

    def test_k_series_coefficients(self, monkeypatch):
        ts = (0.01, 1.0, 2.5, 40.0)
        got = [[maps.k_series_coeff(t, n) for n in range(1, 61)] for t in ts]
        monkeypatch.setattr(maps, "_laguerre_sum", _reference_laguerre_sum)
        want = [[maps.k_series_coeff(t, n) for n in range(1, 61)] for t in ts]
        for row_got, row_want in zip(got, want):
            for g, w in zip(row_got, row_want):
                _assert_same(g, w)

    def test_jacobi_vanishing_normalisation_exact(self):
        # the explicit sum is a polynomial in a, also at a in {-1, ..., -n}
        for n in range(1, 9):
            for a in range(-n, 0):
                for b in (0, 3, Fraction(-5, 2)):
                    for z in (Fraction(1, 3), -2):
                        assert jacobi_poly(n, a, b, z) == _explicit_jacobi(n, a, b, z), (n, a, b, z)
                    want = float(_explicit_jacobi(n, a, b, Fraction(1, 4)))
                    assert jacobi_poly(n, Fraction(a), b, 0.25) == want
                    assert jacobi_poly(n, float(a), b, 0.25) == want

    @pytest.mark.parametrize("call", [
        lambda: laguerre(3, 1 + 1j, 0.5),
        lambda: jacobi_poly(3, 0, 1j, 0.5),
        lambda: jacobi_poly(3, 2j, 0, 1.5),
    ])
    def test_complex_parameters_rejected(self, call):
        with pytest.raises(TypeError):
            call()

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from ncqm.errors import ConvergenceError, DomainError, SingularityError
from ncqm.specfun import (bessel_j, bessel_j_asymptotic, bessel_y, beta_fn,
                          gamma_fn, laguerre, log_gamma, mittag_leffler)


class TestGamma:
    def test_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_half_is_sqrt_pi(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_recurrence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.uniform(1e-2, 50.0)
            assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z),
                                                      rel=1e-12)

    def test_integer_factorials(self):
        fact = 1
        for n in range(1, 20):
            fact *= n
            assert gamma_fn(n + 1) == pytest.approx(fact, rel=1e-13)

    def test_large_argument_against_duplication(self):
        # Legendre duplication: Gamma(2z) = 2^(2z-1)/sqrt(pi) G(z) G(z+1/2)
        for z in (30.25, 60.5, 84.75):
            lhs = log_gamma(2 * z)
            rhs = ((2 * z - 1) * math.log(2.0) - 0.5 * math.log(math.pi)
                   + log_gamma(z) + log_gamma(z + 0.5))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(SingularityError):
                gamma_fn(z)

    def test_complex_reflection(self):
        z = complex(0.3, 0.4)
        # reflection identity Gamma(z)Gamma(1-z) = pi/sin(pi z)
        import cmath
        prod = gamma_fn(z) * gamma_fn(1.0 - z)
        assert abs(prod - math.pi / cmath.sin(math.pi * z)) < 1e-12


class TestBeta:
    def test_unit(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = rng.uniform(0.1, 20.0, size=2)
            assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-13)

    def test_quadrature_oracle(self):
        # B(2,3) = Int_0^1 u (1-u)^2 du
        val, _ = integrate.quad(lambda u: u * (1 - u) ** 2, 0.0, 1.0)
        assert beta_fn(2.0, 3.0) == pytest.approx(val, rel=1e-12)
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for m in range(1, 8):
            assert bessel_j(m, 0.0) == 0.0

    def test_small_argument_law(self):
        # J_m(x) ~ (x/2)^m / Gamma(m+1)
        for m in range(0, 6):
            x = 1e-3
            lead = (x / 2.0) ** m / gamma_fn(m + 1.0)
            assert bessel_j(m, x) == pytest.approx(lead, rel=1e-5)

    def test_first_zero_by_bisection(self):
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_j(0, lo) * bessel_j(0, mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.404825558, abs=1e-8)

    def test_recurrence_consistency(self):
        # J_{m-1}(x) + J_{m+1}(x) = (2m/x) J_m(x), spanning both branches
        for x in (0.5, 3.0, 11.0, 13.0, 27.0, 50.0):
            for m in range(1, 20):
                lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
                rhs = 2.0 * m / x * bessel_j(m, x)
                assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_addition_theorem_sum(self):
        # J_0^2 + 2 sum_{m>=1} J_m^2 = 1
        for x in (1.0, 9.0, 24.0, 42.0):
            acc = bessel_j(0, x) ** 2
            for m in range(1, 80):
                acc += 2.0 * bessel_j(m, x) ** 2
            assert acc == pytest.approx(1.0, abs=1e-10)

    def test_asymptote_helper(self):
        x = 30.0
        assert bessel_j_asymptotic(0, x) == pytest.approx(bessel_j(0, x),
                                                          abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0, -1.0)


class TestBesselY:
    def test_singular_at_origin(self):
        with pytest.raises(SingularityError):
            bessel_y(0, 0.0)

    def test_wronskian(self):
        # J_m Y_m' - J_m' Y_m = 2/(pi x), derivatives via X' = (m/x)X - X_{m+1}
        for m in (0, 1, 2, 5):
            for x in np.arange(0.5, 40.0, 0.37):
                jm, ym = bessel_j(m, x), bessel_y(m, x)
                jn, yn = bessel_j(m + 1, x), bessel_y(m + 1, x)
                wron = jm * (m / x * ym - yn) - (m / x * jm - jn) * ym
                assert wron == pytest.approx(2.0 / (math.pi * x), abs=1e-8)

    def test_high_order_recurrence(self):
        for x in (2.0, 20.0, 45.0):
            for m in range(1, 20):
                lhs = bessel_y(m - 1, x) + bessel_y(m + 1, x)
                rhs = 2.0 * m / x * bessel_y(m, x)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def laguerre_rodrigues_exact(n: int, a: int, x: int) -> Fraction:
    """Explicit binomial-sum (Rodrigues) form in exact rationals."""
    acc = Fraction(0)
    for k in range(n + 1):
        acc += Fraction((-1) ** k * math.comb(n + a, n - k),
                        math.factorial(k)) * Fraction(x) ** k
    return acc


def laguerre_recurrence_exact(n: int, a: int, x: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    prev, cur = Fraction(1), Fraction(1 + a - x)
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) \
            / Fraction(k + 1)
    return cur


class TestLaguerre:
    def test_constant(self):
        assert laguerre(0, 2.5, 1.7) == 1.0

    def test_linear_seed(self):
        for a in (0.0, 1.0, 2.5):
            for x in (0.0, 0.4, 3.0):
                assert laguerre(1, a, x) == pytest.approx(1.0 + a - x,
                                                          rel=1e-15)

    def test_recurrence_matches_rodrigues_exactly(self):
        for n in range(0, 7):
            for a in (0, 1, 2):
                for x in (0, 1, 2, 5):
                    exact = laguerre_rodrigues_exact(n, a, x)
                    assert laguerre_recurrence_exact(n, a, x) == exact
                    assert laguerre(n, a, float(x)) == pytest.approx(
                        float(exact), rel=1e-12, abs=1e-12)

    def test_orthonormalization_identity(self):
        # Int_0^inf e^-x x^a [L_n^(a)]^2 dx = (n+a)!/n!
        for n in range(0, 6):
            for a in (0, 1, 2):
                val, err = integrate.quad(
                    lambda x: math.exp(-x) * x ** a * laguerre(n, a, x) ** 2,
                    0.0, np.inf, limit=300)
                expected = math.factorial(n + a) / math.factorial(n)
                assert val == pytest.approx(expected, rel=1e-8)


class TestMittagLeffler:
    def test_exponential(self):
        for z in (-2.0, 0.5, 3.0):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z),
                                                                rel=1e-13)

    def test_expm1_form(self):
        for z in (0.5, 2.0):
            assert mittag_leffler(1.0, 2.0, z) == pytest.approx(
                (math.exp(z) - 1.0) / z, rel=1e-13)

    def test_cosh_partial_sum_oracle(self):
        z = 1.3
        # independent partial-sum evaluation of sum z^(2n)/(2n)!
        acc, term, n = 0.0, 1.0, 0
        while term > 1e-18:
            acc += term
            n += 1
            term = z ** (2 * n) / math.factorial(2 * n)
        assert mittag_leffler(2.0, 1.0, z * z) == pytest.approx(acc, rel=1e-13)
        assert mittag_leffler(2.0, 1.0, z * z) == pytest.approx(math.cosh(z),
                                                                rel=1e-13)

    def test_complex_argument(self):
        z = complex(0.0, -4.0)
        ref = complex(math.cos(4.0), -math.sin(4.0))
        assert abs(mittag_leffler(1.0, 1.0, z) - ref) < 1e-12

    def test_budget_respected(self):
        # alpha = 0.01 makes the terms 1/Gamma(0.01 n + 1) decay far too
        # slowly for the fixed 500-term budget
        with pytest.raises(ConvergenceError, match="in 500 terms"):
            mittag_leffler(0.01, 1.0, 1.0)


def ml_log10_largest_term(alpha, beta, z):
    return max(n * math.log10(abs(z)) - math.lgamma(n * alpha + beta)
               / math.log(10.0) for n in range(1, 20000))


def ml_series_mp(alpha, beta, z):
    """E_{alpha,beta}(z) summed in mpmath. At real z > 0 (with beta > 0)
    every term is positive, so nothing cancels and 40 digits suffice;
    elsewhere the sum keeps 60 digits beyond the largest term, so that
    cancellation costs no accuracy."""
    mpmath = pytest.importorskip("mpmath")
    if isinstance(z, float) and z > 0 and beta > 0:
        digits = 40
    else:
        digits = 60 + max(0, math.ceil(ml_log10_largest_term(alpha, beta,
                                                             z)))
    with mpmath.workdps(digits):
        z_mp, a = mpmath.mpmathify(z), mpmath.mpf(alpha)
        acc, power, n, small = mpmath.mpf(0), mpmath.mpf(1), 0, 0
        while small < 3:
            term = power * mpmath.rgamma(n * a + beta)
            acc += term
            small = (small + 1 if abs(term) < mpmath.mpf(10) ** -digits
                     * abs(acc) else 0)
            power *= z_mp
            n += 1
        return complex(acc) if isinstance(z, complex) else float(acc)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("z", [5.0, -5.0, 10.0, -10.0, 30.0, -30.0, 10j,
                               -10j])
def test_mittag_leffler_accurate_or_refused(alpha, z):
    # a value comes back within 1e-10 relative, or ConvergenceError; at
    # real z > 0 the terms are positive, so only a sum beyond the float
    # range may be refused
    try:
        value = mittag_leffler(alpha, 1.0, z)
    except ConvergenceError:
        assert (isinstance(z, complex) or z < 0
                or ml_log10_largest_term(alpha, 1.0, z) > 308.3)
        return
    ref = ml_series_mp(alpha, 1.0, z)
    assert abs(value - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("alpha,z,closed", [
    (0.5, 15.0, lambda z: special.erfcx(-z)),   # e^{z^2} erfc(-z)
    (0.5, 20.0, lambda z: special.erfcx(-z)),
    (0.5, 26.5, lambda z: special.erfcx(-z)),   # ~ 1.9e305
    (1.0, 300.0, math.exp),
    (1.0, 700.0, math.exp),
    (2.0, 1e4, lambda z: math.cosh(math.sqrt(z))),
    (2.0, 4e5, lambda z: math.cosh(math.sqrt(z))),  # ~ 1e274
])
def test_mittag_leffler_closed_forms_at_large_positive_z(alpha, z, closed):
    # the terms peak near n = z^(1/alpha)/alpha, and their tail reaches
    # past 500 terms for E_{1/2,1}(15) and E_{1,1}(700)
    assert mittag_leffler(alpha, 1.0, z) == pytest.approx(closed(z),
                                                          rel=1e-12)


@pytest.mark.parametrize("alpha,z", [(0.5, 15.0), (0.7, 50.0), (0.3, 5.0),
                                     (0.9, 300.0), (0.1, 1.9), (0.01, 1.01)])
def test_mittag_leffler_large_positive_z_matches_series(alpha, z):
    # finite doubles whose terms reach past 500
    value = mittag_leffler(alpha, 1.0, z)
    assert value == pytest.approx(ml_series_mp(alpha, 1.0, z), rel=1e-10)


@pytest.mark.parametrize("alpha,z", [(0.5, 27.0), (0.3, 8.0), (1.0, 710.0),
                                     (1e-4, 2.0)])
def test_mittag_leffler_beyond_double_range_is_overflow(alpha, z):
    with pytest.raises(ConvergenceError, match="overflow"):
        mittag_leffler(alpha, 1.0, z)


class TestMpmathReference:
    """Every scipy-backed wrapper against mpmath at 30 digits, on grids
    inside the accuracy envelopes the module docstring states."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield

    def test_gamma_real(self):
        import mpmath
        for z in np.linspace(0.01, 170.0, 120):
            assert gamma_fn(z) == pytest.approx(float(mpmath.gamma(z)),
                                                rel=1e-12)

    def test_gamma_complex(self):
        import mpmath
        for re in np.linspace(-5.0, 20.0, 9):
            for im in np.linspace(-10.0, 10.0, 8):
                z = complex(re, im)
                ref = complex(mpmath.gamma(z))
                assert abs(gamma_fn(z) - ref) <= 1e-13 * abs(ref)

    def test_log_gamma(self):
        import mpmath
        for z in np.concatenate([np.linspace(0.01, 10.0, 60),
                                 np.linspace(10.0, 1000.0, 40)]):
            ref = float(mpmath.loggamma(z))
            assert log_gamma(z) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_beta(self):
        import mpmath
        grid = np.linspace(0.05, 50.0, 12)
        for a in grid:
            for b in grid:
                assert beta_fn(a, b) == pytest.approx(
                    float(mpmath.beta(a, b)), rel=1e-12)

    def test_bessel_j_and_y(self):
        import mpmath
        for m in range(0, 21):
            for x in np.linspace(0.1, 50.0, 10):
                assert bessel_j(m, x) == pytest.approx(
                    float(mpmath.besselj(m, x)), abs=1e-10)
                ref_y = float(mpmath.bessely(m, x))
                assert abs(bessel_y(m, x) - ref_y) <= 1e-10 * max(1.0,
                                                                  abs(ref_y))

    def test_bessel_array_matches_scalar(self):
        xs = np.linspace(0.0, 50.0, 33)
        for m in (0, 3, 20):
            assert np.array_equal(bessel_j(m, xs),
                                  [bessel_j(m, x) for x in xs])
            assert np.array_equal(bessel_y(m, xs[1:]),
                                  [bessel_y(m, x) for x in xs[1:]])

    def test_laguerre(self):
        import mpmath
        for n in range(0, 21, 2):
            for a in (0.0, 0.5, 3.0, 20.0):
                for x in np.linspace(0.0, 50.0, 9):
                    terms = [mpmath.binomial(n + a, n - k) * mpmath.mpf(x) ** k
                             / mpmath.factorial(k) for k in range(n + 1)]
                    scale = float(mpmath.fsum(abs(t) for t in terms))
                    ref = float(mpmath.laguerre(n, a, x))
                    assert abs(laguerre(n, a, x) - ref) <= 1e-12 * scale

    def test_scalar_results_are_python_numbers(self):
        # the CLI writes repr(value); numpy scalars would print as
        # np.float64(...)
        for v in (gamma_fn(2.5), log_gamma(2.5), beta_fn(1.5, 2.0),
                  bessel_j(1, 2.0), bessel_y(1, 2.0), laguerre(3, 1.0, 0.5)):
            assert type(v) is float
        assert type(gamma_fn(complex(1.0, 1.0))) is complex

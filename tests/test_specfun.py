import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ncqm import specfun
from ncqm.errors import ConvergenceError, DomainError, SingularityError
from ncqm.specfun import (bessel_j, bessel_j_asymptotic, bessel_y, beta_fn,
                          gamma_fn, laguerre, log_gamma, mittag_leffler,
                          recip_gamma)
from ncqm.wavefunctions import BESSEL_WINDOW, radial_bessel

# the series cutoff of bessel_j and its two neighbouring doubles
CUTOFF = specfun._J_SERIES_MAX_X
NEAR_CUTOFF = [np.nextafter(CUTOFF, 0.0), CUTOFF, np.nextafter(CUTOFF, 50.0)]


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
        # -inf too, where the poles accumulate
        for z in (0.0, -0.0, -1.0, -7.0, -1e300, -math.inf):
            with pytest.raises(SingularityError):
                gamma_fn(z)

    @pytest.mark.parametrize("z", [0.0, -2.5, math.nan, -math.inf])
    def test_log_gamma_domain(self, z):
        with pytest.raises(DomainError, match=r"log_gamma z must be in \(0"):
            log_gamma(z)

    def test_log_gamma_beyond_the_double_range_is_inf(self):
        # ln Gamma(z) ~ z ln z passes the largest double near z = 2.5e305
        assert log_gamma(2.5e305) == pytest.approx(
            float(special.gammaln(2.5e305)), rel=1e-13)
        for z in (3e305, 1e308, math.inf):
            assert log_gamma(z) == math.inf

    def test_log_gamma_at_subnormal_z(self):
        # ln Gamma(z) = -ln z - gamma_E z + O(z^2) stays finite down to the
        # smallest double
        for z in (1e-310, 1e-320, 5e-324):
            assert log_gamma(z) == pytest.approx(-math.log(z), rel=1e-15)

    def test_beyond_the_double_range_is_inf(self):
        # Gamma overflows past 171.62 and, as 1/x, below 5.6e-309 in size
        for x in (171.63, 200.0, 1e300, math.inf):
            assert gamma_fn(x) == math.inf
        for x in (5e-324, 1e-320, 1e-310, 5.5e-309):
            assert gamma_fn(x) == math.inf
            assert gamma_fn(-x) == -math.inf
        assert math.isfinite(gamma_fn(171.62))
        assert math.isfinite(gamma_fn(5.6e-309))

    def test_real_argument_only(self):
        # a complex x raises the typed error, as a string or None does
        with pytest.raises(DomainError, match="gamma_fn x must be"):
            gamma_fn(complex(0.3, 0.4))


class TestRecipGamma:
    def test_poles_are_zero(self):
        for x in (0.0, -0.0, -1.0, -170.0, -1e300, -math.inf):
            assert recip_gamma(x) == 0.0

    def test_zero_past_the_overflow(self):
        for x in (171.63, 180.0, 1e300, math.inf):
            assert recip_gamma(x) == 0.0

    def test_inf_below_the_underflow(self):
        # 1/Gamma(x) passes the largest double near x = -171.09 (between
        # the poles -171 and -172) and beyond -172; its sign is (-1)^k
        # between -k and -k+1, and Gamma itself underflows to +-0 past
        # about -178
        for x in (-171.6, -171.7, -173.5, -175.5, -181.5):
            assert recip_gamma(x) == math.inf
        for x in (-172.5, -180.5, -1000.5, -1e15 - 0.5):
            assert recip_gamma(x) == -math.inf

    def test_nan_raises_domain_error(self):
        # it returned nan, while gamma_fn(nan) raised
        with pytest.raises(DomainError, match="recip_gamma x must be in "
                                              r"\[-inf, inf\], got nan"):
            recip_gamma(math.nan)


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

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_a_refused(self, a):
        with pytest.raises(DomainError, match=r"laguerre a must be in \(-1"):
            laguerre(2, a, 1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, [0.5, math.inf]])
    def test_non_finite_x_refused(self, x):
        with pytest.raises(DomainError, match="finite x"):
            laguerre(2, 0.0, x)


def laguerre_abs_terms(n, a, x):
    """Sum of the absolute terms of the explicit sum
    sum_k (-1)^k C(n+a, n-k) x^k / k!, the scale of laguerre's envelope."""
    return sum(special.binom(n + a, n - k) * abs(x) ** k / math.factorial(k)
               for k in range(n + 1))


class TestLaguerreRecurrence:
    """laguerre runs its recurrence up to _LAGUERRE_RECURRENCE_MAX_N and is
    scipy's eval_genlaguerre beyond."""

    MAX_N = specfun._LAGUERRE_RECURRENCE_MAX_N

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(0, 20), a=st.floats(0.0, 20.0),
           x=st.floats(0.0, 50.0))
    def test_matches_scipy_within_envelope(self, n, a, x):
        ref = special.eval_genlaguerre(n, a, x)
        assert abs(laguerre(n, a, x) - ref) <= 1e-12 * laguerre_abs_terms(
            n, a, x)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(0, 30), a=st.floats(0.0, 20.0),
           xs=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40))
    def test_array_equals_scalars(self, n, a, xs):
        values = laguerre(n, a, np.array(xs))
        assert values.shape == (len(xs),)
        assert np.array_equal(values, [laguerre(n, a, x) for x in xs])

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(MAX_N + 1, 400), a=st.floats(0.0, 20.0),
           xs=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8))
    def test_beyond_the_cutoff_is_scipy(self, n, a, xs):
        assert np.array_equal(laguerre(n, a, np.array(xs)),
                              special.eval_genlaguerre(n, a, np.array(xs)))

    def test_huge_order_is_scipy_and_fast(self):
        # a Python loop of 10^6 steps per call is what the cutoff avoids
        xs = np.linspace(0.0, 50.0, 8)
        start = time.perf_counter()
        values = laguerre(10 ** 6, 1.0, xs)
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(values, special.eval_genlaguerre(10 ** 6, 1.0,
                                                               xs))
        assert type(laguerre(10 ** 6, 1.0, 0.5)) is float


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
        # alpha = 0.01 makes the terms 1/Gamma(0.01 n + 1) decay slowly:
        # the tail test is first met past n = 2000, inside the budget
        value = mittag_leffler(0.01, 1.0, 1.0)
        assert abs(value - ml_series_mp(0.01, 1.0, 1.0)) <= 1e-10 * value

    def test_budget_runs_out(self):
        # the terms peak near n = 2.7e5 and are still above the tail
        # tolerance at the last of the 10^6 terms
        with pytest.raises(ConvergenceError, match="in 1000000 terms"):
            mittag_leffler(1e-5, 1.0, 1.00001)

    @pytest.mark.parametrize("alpha,beta,z", [
        (1e-9, 1.0, 1.000000001), (1e-300, 1.0, 0.5), (1.0, -1e300, 0.5)])
    def test_refused_before_the_first_term(self, monkeypatch, alpha, beta,
                                           z):
        # (10^6 - 1) alpha + beta <= 2: no term of the budget can meet the
        # tail test, so no term is summed
        def no_term(x):
            raise AssertionError("a term was summed")
        monkeypatch.setattr(specfun, "recip_gamma", no_term)
        with pytest.raises(ConvergenceError,
                           match="cannot converge in 1000000 terms"):
            mittag_leffler(alpha, beta, z)

    @pytest.mark.parametrize("alpha,beta,z,named", [
        (math.nan, 1.0, 0.5, "alpha must be in .*, got nan"),
        (0.5, math.nan, 0.5, "beta must be in .*, got nan"),
        (0.5, 1.0, math.nan, "z must be in .*, got nan"),
        (0.5, 1.0, complex(0.5, math.nan), r"z must be .*\(0\.5\+nanj\)"),
    ], ids=["alpha", "beta", "real_z", "complex_z"])
    def test_nan_input_raises_domain_error(self, monkeypatch, alpha, beta,
                                           z, named):
        # refused by name before the loop: no term is summed
        def no_term(x):
            raise AssertionError("a term was summed")
        monkeypatch.setattr(specfun, "recip_gamma", no_term)
        with pytest.raises(DomainError, match=named):
            mittag_leffler(alpha, beta, z)


def ml_log10_largest_term(alpha, beta, z):
    # the terms at the poles of Gamma vanish
    return max(n * math.log10(abs(z)) - math.lgamma(n * alpha + beta)
               / math.log(10.0) for n in range(1, 20000)
               if not specfun._is_nonpositive_int(n * alpha + beta))


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_alpha=st.floats(-2.0, math.log10(2.0)), beta=st.floats(-3.0, 3.0),
       log_z=st.floats(-6.0, math.log10(30.0)))
def test_mittag_leffler_at_positive_z_accurate_or_refused(log_alpha, beta,
                                                          log_z):
    alpha, z = 10.0 ** log_alpha, 10.0 ** log_z
    try:
        value = mittag_leffler(alpha, beta, z)
    except ConvergenceError:
        return
    ref = ml_series_mp(alpha, beta, z)
    assert abs(value - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("alpha,beta,z,ref", [
    # the Gamma argument at the terms' peak is negative: E is a 13-term sum
    (2.0, -0.5, 1.5, None),
    # the terms decay slowly past their peak near n = 2700; the sum takes
    # 20147 terms. ref is ml_series_mp(1e-3, 1.0, 1.001), which takes
    # about 3 s to sum.
    (1e-3, 1.0, 1.001, 14767.72840521599),
])
def test_mittag_leffler_at_positive_z_returns(alpha, beta, z, ref):
    ref = ml_series_mp(alpha, beta, z) if ref is None else ref
    assert abs(mittag_leffler(alpha, beta, z) - ref) <= 1e-10 * abs(ref)


def test_mittag_leffler_where_gamma_is_subnormal():
    # the first term 1/Gamma(-170.8) = -9.1e307 is a finite double, though
    # Gamma(-170.8) = -1.2e-308 is below the smallest normal one
    assert mittag_leffler(0.5, -170.8, 1.0) == pytest.approx(
        ml_series_mp(0.5, -170.8, 1.0), rel=1e-10)


class TestMpmathReference:
    """The gamma functions and every scipy-backed wrapper against mpmath
    at 30 digits, on grids inside the accuracy envelopes the module
    docstring states."""

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

    def test_recip_gamma(self):
        import mpmath
        grid = np.linspace(-170.0, 171.6, 1200)
        for x in grid[grid != np.round(grid)]:
            assert recip_gamma(x) == pytest.approx(float(mpmath.rgamma(x)),
                                                   rel=2e-15)

    def test_recip_gamma_near_minus_171(self):
        # Gamma is subnormal or near it here; 1/Gamma stays a finite double
        # up to about -171.09, and is +-inf beyond
        import mpmath
        for x in np.linspace(-171.1, -170.6, 101)[1:-1]:
            ref = mpmath.rgamma(x)
            if abs(ref) > sys.float_info.max:
                assert recip_gamma(x) == math.copysign(math.inf, ref)
            else:
                assert recip_gamma(x) == pytest.approx(float(ref), rel=2e-15)

    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-320, -1e-320,
                                   1e-310, -1e-310, 5.5e-309, -5.5e-309])
    def test_recip_gamma_at_tiny_x(self, x):
        # Gamma(x) overflows, and 1/Gamma(x) = x + 0.577 x^2 rounds to x
        import mpmath
        assert recip_gamma(x) == float(mpmath.rgamma(x)) == x

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
        xs = np.concatenate([np.linspace(0.0, 50.0, 33), NEAR_CUTOFF])
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


class TestBesselJSeries:
    """bessel_j sums its ascending series up to the cutoff and calls
    scipy's jv only beyond it."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield

    @staticmethod
    def check_against_mpmath(order, x):
        import mpmath
        ref = float(mpmath.besselj(order, mpmath.mpf(float(x))))
        assert abs(bessel_j(order, x) - ref) <= 1e-10

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(order=st.integers(0, 20), x=st.floats(0.0, 50.0))
    def test_within_envelope_of_mpmath(self, order, x):
        self.check_against_mpmath(order, x)

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 20])
    @pytest.mark.parametrize("x", NEAR_CUTOFF)
    def test_within_envelope_at_the_cutoff(self, order, x):
        self.check_against_mpmath(order, x)

    def test_relative_accuracy_at_small_argument(self):
        # no cancellation here; (x/2)^m/m! takes 2m roundings, at most
        # 4.4e-15 at order 20
        import mpmath
        for order in range(0, 21):
            for x in np.geomspace(1e-12, 1.0, 25):
                ref = float(mpmath.besselj(order, mpmath.mpf(float(x))))
                assert bessel_j(order, x) == pytest.approx(ref, rel=5e-15)

    def test_jv_not_reached_up_to_the_cutoff(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("scipy.special.jv reached")

        # bessel_j imports scipy.special on call and reads jv from it
        monkeypatch.setattr(special, "jv", refuse)
        xs = np.concatenate([np.linspace(0.0, CUTOFF, 257), NEAR_CUTOFF[:2]])
        for order in range(0, 21):
            bessel_j(order, xs)
            bessel_j(order, CUTOFF)
        # radial states sample sqrt(C) xi <= sqrt(BESSEL_WINDOW) C inside
        # the window, which stays below 12 for C = 2(2n + |m_phi| + 1) <= 36
        for weight in range(1, 19):
            c_big = 2.0 * weight
            xi = (np.arange(2048) + 0.5) / 2048 * math.sqrt(BESSEL_WINDOW
                                                            * c_big)
            for m_phi in range(0, weight):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # inside the window
                    radial_bessel(m_phi, c_big, xi)
        with pytest.raises(AssertionError, match="jv reached"):
            bessel_j(0, NEAR_CUTOFF[2])


def log_uniform(low, high):
    """Doubles log-uniform in (low, high]."""
    return st.floats(math.log(low), math.log(high)).map(
        lambda u: min(max(math.exp(u), math.nextafter(low, math.inf)), high))


class TestBetaEnvelope:
    """beta_fn against mpmath over its stated envelope and past it, and the
    values it returns where B leaves the double range."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(a=log_uniform(1e-6, 50.0), b=log_uniform(1e-6, 50.0))
    def test_envelope_against_mpmath(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.beta(a, b))
        assert beta_fn(a, b) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(a=log_uniform(50.0, 1000.0), b=log_uniform(50.0, 1000.0))
    def test_lgamma_route_past_the_envelope(self, a, b):
        # where Gamma(a + b) overflows, lgamma's rounding (about eps l ln l
        # at l = a + b) sets the error: 2.6e-12 at worst on 3000 points,
        # as for scipy.special.beta, so 1e-11 is pinned; a B below the
        # normal range must underflow here too
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.beta(a, b))
        if ref < sys.float_info.min:
            assert beta_fn(a, b) < sys.float_info.min
        else:
            assert beta_fn(a, b) == pytest.approx(ref, rel=1e-11)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(small=log_uniform(1e-6, 10.0), large=log_uniform(1e3, 1e6))
    def test_stirling_route_for_a_large_argument(self, small, large):
        # ln Gamma(l + s) - ln Gamma(l) by Stirling's series keeps the
        # digits lgamma loses (scipy.special.beta is 3e-9 off here)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.beta(small, large))
        assert beta_fn(small, large) == pytest.approx(ref, rel=1e-12)
        assert beta_fn(large, small) == beta_fn(small, large)

    def test_small_argument_next_to_a_huge_one(self):
        # 1e300 + 1e-10 rounds to 1e300, so lgamma(a) + lgamma(b) -
        # lgamma(a + b) would give B = Gamma(1e-10)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(340):
            ref = float(mpmath.beta(mpmath.mpf(1e-10), mpmath.mpf(1e300)))
        assert beta_fn(1e-10, 1e300) == pytest.approx(ref, rel=1e-13)
        # B = Gamma(1e-10) (1e300)^(-1e-10) (1 + O(1e-310))
        assert beta_fn(1e-10, 1e300) < (1.0 - 6e-8) * gamma_fn(1e-10)

    @pytest.mark.parametrize("a,b,expected", [
        (1e-320, 1.0, math.inf),         # B = 1/a + O(1) overflows
        (5e-324, 2.0, math.inf),
        (1e-308, 1e-308, math.inf),
        (1e-320, 1e306, math.inf),
        (math.inf, 1.0, 0.0),            # the limit at b fixed
        (1.0, math.inf, 0.0),
        (math.inf, math.inf, 0.0),       # scipy gives nan for these three
        (math.inf, 1e-320, 0.0),
        (1e-320, math.inf, 0.0),
        (1000.0, 1000.0, 0.0),           # B = 9.8e-604 underflows
        (1e306, 1e306, 0.0),
        (2.5, 1e300, 0.0),
    ])
    def test_out_of_range_results(self, a, b, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beta_fn(a, b) == expected

    @pytest.mark.parametrize("a,b,expected", [(1e-300, 1.0, 1e300),
                                              (2.5e-308, 1.0, 4e307),
                                              (1.0, 1e306, 1e-306)])
    def test_extreme_finite_results(self, a, b, expected):
        # B(a, 1) = 1/a at the edges of the double range; at 1e306 the
        # route is exp(-704.6), whose rounding is about 700 eps
        assert beta_fn(a, b) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(1.0, -2.0), (math.nan, 1.0),
                                     (1.0, math.nan), (-math.inf, 1.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            beta_fn(a, b)

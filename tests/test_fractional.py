import cmath
import math
import re

import numpy as np
import pytest

from ncqm.errors import DomainError, ValidationError
from ncqm.fractional import (GL_MAX_STEPS, PowerSeriesFn,
                             caputo_exp, caputo_plane_wave,
                             caputo_series_derivative, eo_coefficients,
                             grunwald_letnikov, grunwald_letnikov_richardson,
                             liouville_exp, plane_wave_eigenvalue,
                             riemann_liouville)
from ncqm.params import Mechanism, ModelParams, PhysicalConstants
from ncqm.specfun import log_gamma

HALF_DERIV_X_AT_1 = 2.0 / math.sqrt(math.pi)  # Gamma(2)/Gamma(3/2)


def identity_series():
    # f(x) = x written on the alpha = 1/2 grid: x = x^(2 * 1/2)
    return PowerSeriesFn(alpha_step=0.5, coeffs=(0.0, 0.0, 1.0))


class TestCaputoSeries:
    def test_constant_annihilated(self):
        f = PowerSeriesFn(alpha_step=0.5, coeffs=(4.2,))
        assert caputo_series_derivative(f, 1.3) == 0.0

    def test_half_derivative_of_x(self):
        val = caputo_series_derivative(identity_series(), 1.0)
        assert val == pytest.approx(HALF_DERIV_X_AT_1, rel=1e-14)
        # against the independent numeric oracle
        gl = grunwald_letnikov_richardson(lambda t: t, 0.5, 1.0, 5e-4)
        assert val == pytest.approx(gl, abs=5e-7)

    def test_order_one_is_ordinary_derivative(self):
        # f(x) = 1 + 2x + 3x^2 on the alpha = 1 grid
        f = PowerSeriesFn(alpha_step=1.0, coeffs=(1.0, 2.0, 3.0))
        for x in (0.0, 0.7, 2.0):
            assert caputo_series_derivative(f, x) == pytest.approx(2 + 6 * x,
                                                                   rel=1e-13)

    def test_monomial_grid_vs_gl(self):
        # x^(k alpha) monomials against Grunwald-Letnikov
        for alpha in (0.25, 0.5, 0.75):
            coeffs = [0.0, 0.0, 0.0, 1.0]  # f = x^(3 alpha)
            f = PowerSeriesFn(alpha_step=alpha, coeffs=tuple(coeffs))
            for x in (0.5, 1.5, 3.0):
                mine = caputo_series_derivative(f, x)
                ref = grunwald_letnikov_richardson(
                    lambda t, a=alpha: t ** (3 * a), alpha, x, 2e-4)
                assert mine == pytest.approx(ref, rel=5e-4, abs=5e-5)

    def test_radius_enforced(self):
        f = PowerSeriesFn(alpha_step=1.0, coeffs=(0.0, 1.0), radius=2.0)
        with pytest.raises(DomainError):
            caputo_series_derivative(f, 2.5)


class TestCaputoExp:
    def test_order_one_is_exp(self):
        for x in (0.0, 1.0, 4.0):
            assert caputo_exp(1.0, x) == pytest.approx(math.exp(x), rel=1e-13)

    def test_degenerates_to_mittag_leffler_at_order_one(self):
        from ncqm.specfun import mittag_leffler
        for x in (0.5, 2.0, 7.0):
            assert caputo_exp(1.0, x) == pytest.approx(
                mittag_leffler(1.0, 1.0, x) * x ** 0, rel=1e-13)

    def test_zero_point_vanishes_below_order_one(self):
        assert caputo_exp(0.5, 0.0) == 0.0

    def test_against_defining_series(self):
        # sum_{n>=1} x^(n-a)/Gamma(1+n-a), summed independently
        for order in (0.25, 0.5, 0.9):
            for x in (0.3, 1.0, 4.0, 10.0):
                ref, n = 0.0, 1
                while True:
                    term = x ** (n - order) * math.exp(
                        -log_gamma(1.0 + n - order))
                    ref += term
                    if term < 1e-17 * ref or n > 400:
                        break
                    n += 1
                assert caputo_exp(order, x) == pytest.approx(ref, rel=1e-10)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            caputo_exp(1.5, 1.0)


class TestLiouville:
    def test_zero_base(self):
        assert liouville_exp(0.5, 0.0, 3.0) == 0.0

    def test_order_one(self):
        assert liouville_exp(1.0, 2.0, 0.5) == pytest.approx(
            2.0 * math.exp(1.0), rel=1e-14)

    def test_forced_arithmetic(self):
        assert liouville_exp(2.0, 3.0, 0.0) == 9.0

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            liouville_exp(0.5, -1.0, 0.0)

    def test_consistent_with_plane_wave_modulus(self):
        c = PhysicalConstants()
        for order in (0.3, 0.7, 1.0):
            k = 2.5
            ratio = liouville_exp(order, k, 0.0)
            eig = plane_wave_eigenvalue(order, k * c.hbar, c)
            assert abs(eig.value) == pytest.approx(ratio, rel=1e-13)


@pytest.mark.parametrize("call", [
    lambda: liouville_exp(0.5, 1.0, 1000.0),      # exp(1000) overflows
    lambda: liouville_exp(2.0, 1e200, 0.0),       # k^order overflows
    lambda: grunwald_letnikov(lambda t: t, 1e300, 1.0, 0.1),  # h^order = 0
    lambda: grunwald_letnikov(lambda t: t, 1e300, 2.0, 1.0),  # weights
], ids=["liouville_exp", "liouville_power", "gl_zero_scale", "gl_sum"])
def test_values_past_the_double_range_raise_domain_error(call):
    with pytest.raises(DomainError, match="double range"):
        call()


class TestRiemannLiouville:
    def test_constant_half_order(self):
        # D^(1/2) 1 = 1/sqrt(pi x)
        for x in (0.5, 2.0, 5.0):
            val = riemann_liouville(lambda t: 1.0, 0.5, x)
            assert val == pytest.approx(1.0 / math.sqrt(math.pi * x), abs=1e-6)

    def test_identity_half_order_vs_gl(self):
        for x in (1.0, 2.0):
            val = riemann_liouville(lambda t: t, 0.5, x)
            exact = 2.0 * math.sqrt(x / math.pi)
            gl = grunwald_letnikov_richardson(lambda t: t, 0.5, x, 5e-4)
            assert val == pytest.approx(exact, abs=1e-6)
            assert val == pytest.approx(gl, abs=1e-5)

    def test_linearity(self):
        f = lambda t: t
        g = lambda t: t * t
        both = riemann_liouville(lambda t: 2.0 * t + 3.0 * t * t, 0.6, 1.5)
        sep = 2.0 * riemann_liouville(f, 0.6, 1.5) \
            + 3.0 * riemann_liouville(g, 0.6, 1.5)
        assert both == pytest.approx(sep, rel=1e-9)

    def test_limiting_orders(self):
        # order -> 0+ recovers f; order -> 1- recovers f'
        assert riemann_liouville(lambda t: t, 1e-3, 2.0) == pytest.approx(
            2.0, abs=2e-2)
        assert riemann_liouville(lambda t: t, 1.0 - 1e-3, 2.0) == \
            pytest.approx(1.0, abs=2e-2)

    def test_second_window_order(self):
        # D^(3/2) x = x^(-1/2)/Gamma(1/2)
        val = riemann_liouville(lambda t: t, 1.5, 2.0)
        assert val == pytest.approx(2.0 ** -0.5 / math.sqrt(math.pi),
                                    abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            riemann_liouville(lambda t: t, 0.5, 0.0)
        with pytest.raises(DomainError):
            riemann_liouville(lambda t: t, 1.0, 1.0)


class TestGrunwaldLetnikov:
    def test_order_one_forward_difference(self):
        f = math.sin
        got = grunwald_letnikov(f, 1.0, 1.0, 1e-4)
        assert got == pytest.approx(math.cos(1.0), abs=1e-3)

    def test_half_derivative_converges_linearly(self):
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            val = grunwald_letnikov(lambda t: t, 0.5, 1.0, h)
            errs.append(abs(val - HALF_DERIV_X_AT_1))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)

    def test_richardson_kills_leading_error(self):
        rich = grunwald_letnikov_richardson(lambda t: t, 0.5, 1.0, 1e-3)
        assert abs(rich - HALF_DERIV_X_AT_1) < 1e-6

    def test_second_order_on_quadratic(self):
        assert grunwald_letnikov(lambda t: t * t, 2.0, 1.0, 1e-3) == \
            pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("x,h", [(1.0, 1e-300), (1e308, 1e-300),
                                     (1.0, 1.0 / (GL_MAX_STEPS + 1)),
                                     (math.nan, 1e-3)])
    def test_step_count_limit(self, x, h):
        # 1e300 steps never returned; an infinite x/h raised OverflowError
        calls = []
        with pytest.raises(DomainError, match="grid steps"):
            grunwald_letnikov(lambda t: calls.append(t) or t, 0.5, x, h)
        assert calls == []

    @pytest.mark.parametrize("fn", [grunwald_letnikov,
                                    grunwald_letnikov_richardson])
    def test_x_below_the_terminal(self, fn):
        # x = -1 once gave an empty grid and returned f(x)/h^alpha = -31.6
        calls = []
        with pytest.raises(DomainError, match=r"x=-1\.0 outside \[0, inf\)"):
            fn(lambda t: calls.append(t) or t, 0.5, -1.0, 1e-3)
        assert calls == []
        assert grunwald_letnikov(lambda t: t, 0.5, 0.0, 1e-3) == 0.0

    def test_step_count_limit_is_met(self):
        val = grunwald_letnikov(lambda t: t, 0.5, 1.0, 1.0 / GL_MAX_STEPS)
        assert val == pytest.approx(HALF_DERIV_X_AT_1, rel=1e-5)


class TestPlaneWave:
    def test_order_one_and_two(self):
        c = PhysicalConstants()
        assert plane_wave_eigenvalue(1.0, 3.0, c).value == complex(0.0, -3.0)
        a2 = plane_wave_eigenvalue(2.0, 3.0, c).value
        assert a2 == pytest.approx(complex(-9.0, 0.0), abs=1e-13)

    def test_modulus_law(self):
        c = PhysicalConstants(hbar=2.0)
        rng = np.random.default_rng(13)
        for _ in range(20):
            order = rng.uniform(0.1, 3.0)
            energy = rng.uniform(0.1, 9.0)
            eig = plane_wave_eigenvalue(order, energy, c)
            assert abs(eig.value) == pytest.approx((energy / 2.0) ** order,
                                                   rel=1e-13)

    def test_stacking_matches_doubled_order(self):
        # principal-branch composition, branch-safe for order <= 1/2
        c = PhysicalConstants()
        worst_safe = 0.0
        for order in (0.1, 0.25, 0.4, 0.5):
            a = plane_wave_eigenvalue(order, 2.0, c)
            doubled = plane_wave_eigenvalue(2.0 * order, 2.0, c)
            worst_safe = max(worst_safe, abs(a.stacked - doubled.value))
        assert worst_safe < 1e-13

    def test_stacking_discrepancy_reported_beyond_half(self):
        # outside the branch-safe range the discrepancy is measured, not
        # asserted away (the fixed principal base keeps it at roundoff)
        c = PhysicalConstants()
        gaps = [abs(plane_wave_eigenvalue(o, 2.0, c).stacked
                    - plane_wave_eigenvalue(2.0 * o, 2.0, c).value)
                for o in (0.6, 0.9, 1.3)]
        assert all(math.isfinite(g) for g in gaps)

    def test_energy_domain(self):
        with pytest.raises(DomainError):
            plane_wave_eigenvalue(1.0, 0.0, PhysicalConstants())

    @pytest.mark.parametrize("order,energy", [(1000.0, 10.0),
                                              (400.0, 1e300)])
    def test_modulus_past_the_double_range(self, order, energy):
        # (E/hbar)^order overflows; the error names both arguments
        with pytest.raises(DomainError, match=re.escape(
                f"order={order!r}, energy={energy!r}")):
            plane_wave_eigenvalue(order, energy, PhysicalConstants())

    def test_modulus_that_underflows_is_zero(self):
        eig = plane_wave_eigenvalue(1000.0, 0.1, PhysicalConstants())
        assert eig.value == 0.0


class TestCaputoMismatch:
    def test_mismatch_is_nonzero_below_order_one(self):
        c = PhysicalConstants()
        caputo = caputo_plane_wave(0.5, 1.0, 2.0, c)
        eig = plane_wave_eigenvalue(0.5, 1.0, c).value \
            * cmath.exp(-2.0j / c.hbar)
        assert abs(caputo - eig) > 0.05

    def test_agreement_at_order_one(self):
        c = PhysicalConstants()
        caputo = caputo_plane_wave(1.0, 1.5, 2.0, c)
        expected = complex(0.0, -1.5) * cmath.exp(-1.5j * 2.0)
        assert abs(caputo - expected) < 1e-10


class TestEoCoefficients:
    def make(self, mech, **kw):
        defaults = dict(eta0=1.0, theta0=0.5, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=2.0, mechanism=mech)
        defaults.update(kw)
        return ModelParams(**defaults)

    def test_zero_exponent_passthrough(self):
        p = self.make(Mechanism.EO_I, alpha_exp=0.0, beta_exp=0.0)
        eta_c, theta_c = eo_coefficients(p)
        assert eta_c == 1.0 + 0.0j and theta_c == 0.5 + 0.0j

    def test_case_one_first_power_imaginary(self):
        p = self.make(Mechanism.EO_I)
        eta_c, _ = eo_coefficients(p)
        assert eta_c == pytest.approx(complex(0.0, 0.5), abs=1e-15)

    def test_case_one_composes_to_real_coupling(self):
        # coefficient times a_1 equals the real energy-coupled value
        p = self.make(Mechanism.EO_I)
        c = p.constants
        eta_c, _ = eo_coefficients(p)
        for energy in (0.5, 2.0, 7.0):
            a1 = plane_wave_eigenvalue(1.0, energy, c).value
            combined = eta_c * a1
            assert combined.imag == pytest.approx(0.0, abs=1e-14)
            assert combined.real == pytest.approx(
                p.eta0 * energy / p.e_ref, rel=1e-13)

    def test_case_two_real_negative_base(self):
        p = self.make(Mechanism.EO_II, alpha_exp=1.0)
        eta_c, _ = eo_coefficients(p)
        assert eta_c == pytest.approx(complex(-0.25, 0.0), abs=1e-15)

    def test_mechanism_guard(self):
        p = self.make(Mechanism.EC)
        with pytest.raises(ValidationError):
            eo_coefficients(p)

    @pytest.mark.parametrize("mech,kw", [
        (Mechanism.EO_I, dict(alpha_exp=2.0, e_ref=1e-200)),   # overflow
        (Mechanism.EO_I, dict(alpha_exp=-2.0, e_ref=1e200)),   # 1/(0j)
        (Mechanism.EO_II, dict(beta_exp=-3.0, e_ref=1e200)),
        (Mechanism.EO_I, dict(eta0=1e300, e_ref=1e-10)),       # eta0 * 1e10
    ], ids=["power", "negative_power", "eo_ii", "product"])
    def test_past_the_double_range(self, mech, kw):
        p = self.make(mech, **kw)
        with pytest.raises(DomainError,
                           match=re.escape(f"e_ref={p.e_ref!r}")):
            eo_coefficients(p)

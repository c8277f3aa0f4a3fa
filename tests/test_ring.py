import math
import re

import pytest

from ncqm.errors import DomainError, ValidationError
from ncqm.params import Mechanism, ModelParams, PhysicalConstants
from ncqm.ring import (RingSpec, alpha_from_theta_eta, ground_level_index,
                       ground_persistent_current, nc_flux,
                       persistent_current, ring_eta_from_params, ring_levels)


def spec_at(phi_frac: float, radius=1.5, alpha=0.9, **kw) -> RingSpec:
    base = RingSpec(radius=radius, alpha_param=alpha, **kw)
    return RingSpec(radius=radius, alpha_param=alpha,
                    flux_ext=phi_frac * base.flux_quantum, **kw)


class TestRingSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RingSpec(radius=0.0)
        with pytest.raises(ValidationError):
            RingSpec(radius=1.0, alpha_param=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"radius": 1e200},        # radius^2 overflows: once OverflowError
        {"radius": 1e-200},       # radius^2 underflows to 0
        {"radius": 1.0, "alpha_param": 1e-200},  # alpha^2 -> 0: once
        {"radius": math.inf},                    # ZeroDivisionError
        {"radius": math.nan},
    ])
    def test_square_outside_float_range(self, kwargs):
        with pytest.raises(ValidationError, match=r"\^2 is"):
            RingSpec(**kwargs)

    @pytest.mark.parametrize("flux", [math.nan, math.inf, -math.inf])
    def test_non_finite_flux_refused(self, flux):
        # ground_level_index once raised a bare ValueError (NaN) or
        # OverflowError (inf) from round()
        with pytest.raises(ValidationError, match="flux_ext must be finite"):
            RingSpec(radius=1.0, flux_ext=flux)

    @pytest.mark.parametrize("charge", [0.0, 1e-320, -1e-320])
    def test_charge_without_a_flux_quantum_refused(self, charge):
        # 0 once raised a bare ZeroDivisionError from ring_levels, and
        # 1e-320 blamed eta ("ring effective field at eta=0.1 is inf")
        with pytest.raises(ValidationError, match=f"charge={charge!r}"):
            RingSpec(radius=1.0, constants=PhysicalConstants(charge=charge))

    def test_default_effective_mass_quadratic_convention(self):
        spec = RingSpec(radius=1.0, alpha_param=0.5)
        assert spec.m_star == pytest.approx(4.0, rel=1e-15)


class TestNcFlux:
    def test_zero_strength(self):
        fields = nc_flux(RingSpec(radius=1.0), 0.0)
        assert fields.phi_nc == 0.0 and fields.b_z == 0.0

    def test_flux_is_twice_area_times_field(self):
        spec = RingSpec(radius=2.0, alpha_param=0.8)
        fields = nc_flux(spec, 0.3)
        area_flux = math.pi * spec.radius ** 2 * fields.b_z
        assert fields.phi_nc == pytest.approx(2.0 * area_flux, rel=1e-14)

    def test_radius_quadratic(self):
        a = nc_flux(RingSpec(radius=1.0), 0.2).phi_nc
        b = nc_flux(RingSpec(radius=2.0), 0.2).phi_nc
        assert b == pytest.approx(4.0 * a, rel=1e-14)

    def test_flux_quantum(self):
        spec = RingSpec(radius=1.0,
                        constants=PhysicalConstants(hbar=2.0, charge=4.0))
        assert spec.flux_quantum == pytest.approx(math.pi, rel=1e-15)


class TestRingLevels:
    def test_plain_ring_limit(self):
        spec = RingSpec(radius=1.3)
        c = spec.constants
        for l in (-2, -1, 0, 1, 2):
            expected = c.hbar ** 2 * l ** 2 / (2.0 * spec.m_star
                                               * spec.radius ** 2)
            assert ring_levels(spec, 0.0, l) == pytest.approx(expected,
                                                              rel=1e-14)

    def test_minimum_at_matched_flux(self):
        eta = 0.25
        base = RingSpec(radius=1.5, alpha_param=0.9)
        fields = nc_flux(base, eta)
        spec = RingSpec(radius=1.5, alpha_param=0.9, flux_ext=fields.phi_nc)
        kin = base.constants.hbar ** 2 / (2.0 * spec.m_star
                                          * spec.radius ** 2)
        expected = -0.75 * kin * (fields.phi_nc / fields.flux_quantum) ** 2
        assert ring_levels(spec, eta, 0) == pytest.approx(expected, rel=1e-13)

    def test_gauge_periodicity(self):
        eta = 0.4
        for l in (-2, 0, 3):
            assert ring_levels(spec_at(0.3 + 1.0), eta, l - 1) == \
                pytest.approx(ring_levels(spec_at(0.3), eta, l), rel=1e-12)


class TestPersistentCurrent:
    def test_zero_at_matched_flux(self):
        eta = 0.25
        base = RingSpec(radius=1.5, alpha_param=0.9)
        matched = RingSpec(radius=1.5, alpha_param=0.9,
                           flux_ext=nc_flux(base, eta).phi_nc)
        assert persistent_current(matched, eta, 0) == 0.0

    def test_matches_finite_difference(self):
        # ring energies are exactly quadratic in the flux, so the central
        # difference agrees to roundoff at any step
        eta, l = 0.2, 1
        for frac in (-0.4, 0.1, 0.7):
            spec = spec_at(frac)
            analytic = persistent_current(spec, eta, l)
            for d_frac in (1e-2, 1e-3, 1e-4):
                d_phi = d_frac * spec.flux_quantum
                e_p = ring_levels(spec_at(frac + d_frac), eta, l)
                e_m = ring_levels(spec_at(frac - d_frac), eta, l)
                fd = -(e_p - e_m) / (2.0 * d_phi)
                assert fd == pytest.approx(analytic,
                                           rel=1e-9, abs=1e-10)

    def test_nonzero_current_without_external_flux(self):
        # the noncommutative flux alone drives a persistent current
        spec = RingSpec(radius=1.0, alpha_param=0.9, flux_ext=0.0)
        assert abs(persistent_current(spec, 0.3, 0)) > 0.0

    def test_ground_branch_periodicity(self):
        eta = 0.15
        i_a = ground_persistent_current(spec_at(0.2), eta)
        i_b = ground_persistent_current(spec_at(1.2), eta)
        assert i_b == pytest.approx(i_a, rel=1e-10, abs=1e-12)

    def test_ground_branch_odd_about_matched_flux(self):
        eta = 0.3
        base = RingSpec(radius=1.5, alpha_param=0.9)
        fields = nc_flux(base, eta)
        phi0 = fields.flux_quantum
        for delta_frac in (0.05, 0.2, 0.35, 0.45):
            plus = RingSpec(radius=1.5, alpha_param=0.9,
                            flux_ext=fields.phi_nc + delta_frac * phi0)
            minus = RingSpec(radius=1.5, alpha_param=0.9,
                             flux_ext=fields.phi_nc - delta_frac * phi0)
            assert ground_persistent_current(plus, eta) == pytest.approx(
                -ground_persistent_current(minus, eta), rel=1e-12)

    def test_ground_index_minimizes(self):
        eta = 0.22
        spec = spec_at(0.37)
        l_star = ground_level_index(spec, eta)
        e_star = ring_levels(spec, eta, l_star)
        for l in (l_star - 2, l_star - 1, l_star + 1, l_star + 2):
            assert ring_levels(spec, eta, l) >= e_star


class TestEnergyDependentMode:
    def test_eta_from_power_law(self):
        p = ModelParams(eta0=0.5, theta0=0.0, alpha_exp=2.0, beta_exp=2.0,
                        e_ref=2.0, mechanism=Mechanism.EC)
        assert ring_eta_from_params(p, 1.0) == pytest.approx(0.125, rel=1e-14)

    def test_composes_with_current(self):
        p = ModelParams(eta0=0.5, theta0=0.0, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=1.0, mechanism=Mechanism.EC)
        spec = RingSpec(radius=1.0, alpha_param=0.9)
        i_low = persistent_current(spec, ring_eta_from_params(p, 0.1), 0)
        i_high = persistent_current(spec, ring_eta_from_params(p, 1.0), 0)
        assert abs(i_high) > abs(i_low)


class TestOverflow:
    """A strength or flux past the float range raises DomainError instead
    of returning inf or NaN or raising OverflowError."""

    def test_flux_overflow(self):
        # phi_nc = 2 pi eta overflows: "ncqm ring --eta 1e308" once wrote
        # nan energies and inf currents
        spec = RingSpec(radius=1.0)
        for call in (nc_flux, ground_persistent_current):
            with pytest.raises(DomainError, match="effective flux"):
                call(spec, 1e308)
        with pytest.raises(DomainError, match="effective flux"):
            ring_levels(spec, 1e308, 0)

    def test_level_overflow(self):
        # the squared shift overflows: once an OverflowError from float **
        spec = RingSpec(radius=1.0)
        with pytest.raises(DomainError, match="level l=1"):
            ring_levels(spec, 1e200, 1)
        assert math.isfinite(persistent_current(spec, 1e200, 1))

    def test_current_overflow(self):
        spec = RingSpec(radius=1e-10, flux_ext=1e308)
        with pytest.raises(DomainError, match="current l=0"):
            persistent_current(spec, 0.0, 0)

    def test_underflowing_denominator(self):
        # e alpha^2 hbar = 1e-320 underflows to 0 although the flux quantum
        # 2 pi hbar/e = 6.3e290 is finite: once a bare ZeroDivisionError
        spec = RingSpec(radius=1, alpha_param=1e-10,
                        constants=PhysicalConstants(charge=1e-300,
                                                    hbar=1e-10))
        assert math.isfinite(spec.flux_quantum)
        for call in (nc_flux, ground_persistent_current):
            with pytest.raises(DomainError, match="e alpha\\^2 hbar "
                               "underflows to 0"):
                call(spec, 0.1)
        with pytest.raises(DomainError, match="underflows to 0"):
            ring_levels(spec, 0.1, 0)


class TestAlphaInversion:
    def test_both_roots_recovered(self):
        hbar = 1.0
        for alpha in (0.3, 0.6, 0.95):
            product = 2.0 * hbar ** 2 * alpha ** 2 * (1.0 - alpha ** 2)
            lo, hi = alpha_from_theta_eta(product, hbar)
            assert alpha == pytest.approx(lo, rel=1e-12) or \
                alpha == pytest.approx(hi, rel=1e-12)
            # both roots reproduce the product
            for root in (lo, hi):
                back = 2.0 * hbar ** 2 * root ** 2 * (1.0 - root ** 2)
                assert back == pytest.approx(product, rel=1e-10, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_from_theta_eta(-0.1)
        with pytest.raises(DomainError):
            alpha_from_theta_eta(0.6)  # exceeds hbar^2/2

    @pytest.mark.parametrize("hbar", [1e-200, 1e200, 0.0])
    def test_hbar_squared_outside_float_range(self, hbar):
        with pytest.raises(DomainError, match=re.escape(f"hbar={hbar!r}")):
            alpha_from_theta_eta(0.1, hbar)

    @pytest.mark.parametrize("theta_eta,hbar,named", [
        (math.nan, 1.0, "got nan"),
        (0.1, math.nan, "hbar=nan"),
        (0.1, math.inf, "hbar=inf"),
    ], ids=["theta_eta_nan", "hbar_nan", "hbar_inf"])
    def test_nan_and_infinite_hbar_raise(self, theta_eta, hbar, named):
        with pytest.raises(DomainError, match=named):
            alpha_from_theta_eta(theta_eta, hbar)

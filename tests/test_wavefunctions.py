import math
import sys
import warnings

import numpy as np
import pytest
from conftest import ec_params
from scipy import integrate

from ncqm.errors import (DomainError, NormalizabilityError, SingularityError,
                         UsageError, ValidationError)
from ncqm.params import Mechanism, PhysicalConstants, nc_strengths
from ncqm.spectra import QuantumNumbers, ec_solve_energy
from ncqm.specfun import gamma_fn
from ncqm.wavefunctions import (GridField, divergence, ec_radial_solution,
                                ground_state_free, ground_state_oscillator,
                                modified_norm, nonlocality_bound, omega_eff,
                                orthogonality_kernel,
                                probability_current, normalization_constant,
                                radial_bessel, radial_laguerre)

# order-8 central stencils for the collocation check
_D1 = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3]) / 840.0
_D2 = np.array([-9, 128, -1008, 8064, -14350,
                8064, -1008, 128, -9]) / 5040.0


def ode_residual_scaled(n, m_phi, xi, h=2e-3):
    c_big = 2.0 * (2 * n + m_phi + 1)
    vals = np.array([radial_laguerre(n, m_phi, xi + k * h)
                     for k in range(-4, 5)])
    d1 = float(_D1 @ vals) / h
    d2 = float(_D2 @ vals) / (h * h)
    r = radial_laguerre(n, m_phi, xi)
    resid = xi * xi * d2 + xi * d1 + (c_big * xi * xi - xi ** 4
                                      - m_phi ** 2) * r
    scale = max(1.0, abs(xi * xi * d2) + abs(xi * d1)
                + abs((c_big * xi * xi - xi ** 4 - m_phi ** 2) * r))
    return abs(resid) / scale


class TestRadialBessel:
    def test_origin(self):
        assert radial_bessel(0, 4.0, 0.0) == 1.0

    def test_small_argument_power_law(self):
        for m_phi in (1, 2, 4):
            c_big = 400.0
            xi = 1e-3
            lead = (math.sqrt(c_big) * xi / 2.0) ** m_phi / gamma_fn(m_phi + 1)
            assert radial_bessel(m_phi, c_big, xi) == pytest.approx(
                lead, rel=1e-4)

    def test_asymptote_against_series_route(self):
        # cosine asymptote vs the full evaluation at sqrt(C) xi = 30
        from ncqm.specfun import bessel_j, bessel_j_asymptotic
        x = 30.0
        assert bessel_j_asymptotic(0, x) == pytest.approx(bessel_j(0, x),
                                                          abs=1e-3)

    def test_window_warning(self):
        with pytest.warns(UserWarning):
            radial_bessel(0, 4.0, 4.0)

    @pytest.mark.parametrize("n,m_phi", [(1, 2), (0, 3)])
    def test_agrees_with_laguerre_in_window(self, n, m_phi):
        # matched C = 2(2n + m_phi + 1): the two branches agree to 1%
        # well inside the window xi^2 << C (sampled up to xi^2 = C/25)
        c_big = 2.0 * (2 * n + m_phi + 1)
        xi = np.linspace(0.02, math.sqrt(c_big / 25.0), 25)
        lag = radial_laguerre(n, m_phi, xi)
        bes = radial_bessel(m_phi, c_big, xi)
        # normalize both branches at the first sample before comparing
        lag = lag / lag[0]
        bes = bes / bes[0]
        assert np.max(np.abs(lag - bes) / np.max(np.abs(lag))) < 0.01


class TestRadialLaguerre:
    def test_gaussian_ground_state(self):
        xi = np.linspace(0.0, 3.0, 17)
        assert np.allclose(radial_laguerre(0, 0, xi), np.exp(-xi ** 2 / 2.0),
                           atol=1e-15)

    def test_first_excited_node_at_one(self):
        assert radial_laguerre(1, 0, 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("xi", [3.0, [1.0, 3.0, 5.0], 40.0])
    def test_non_finite_samples_raise(self, xi):
        # xi^1000 overflows to inf; past xi ~ 38.6 exp(-xi^2/2) is 0 too,
        # and 0 * inf once came back as NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                radial_laguerre(0, 1000, xi)

    @pytest.mark.parametrize("n,m_phi", [(0, 0), (1, 0), (2, 1), (3, 2),
                                         (4, 4)])
    def test_collocation_residual(self, n, m_phi):
        worst = max(ode_residual_scaled(n, m_phi, xi)
                    for xi in np.linspace(0.1, 6.0, 30))
        assert worst < 1e-8


class TestNormalization:
    def test_ground_state_amplitude(self):
        # quadrature oracle: int 2 e^{-xi^2} xi dxi = 1
        assert normalization_constant(0, 0, 1.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)

    def test_m2_amplitude(self):
        assert normalization_constant(0, 2, 1.0) == pytest.approx(1.0,
                                                                  rel=1e-14)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("m_phi", range(5))
    def test_unit_norm_by_quadrature(self, n, m_phi):
        lam = 1.7
        c = normalization_constant(n, m_phi, lam)

        def dens(r):
            return (c * radial_laguerre(n, m_phi, math.sqrt(lam) * r)) ** 2 * r

        val, err = integrate.quad(dens, 0.0, np.inf, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_large_index_stays_finite(self):
        assert math.isfinite(normalization_constant(70, 80, 1.0))

    def test_underflow_edge(self):
        # at 2 lambda = 1 the amplitude is exp(-ln(m_phi!)/2): a normal
        # double at m_phi = 300 and below the normal range at 301, where
        # it once came back subnormal (0.0 from m_phi = 314 on)
        c = normalization_constant(0, 300, 0.5)
        assert c >= sys.float_info.min
        assert math.log(c) == pytest.approx(-0.5 * math.lgamma(301.0),
                                            rel=1e-14)
        for m_phi in (301, 400, 1000):
            with pytest.raises(DomainError, match="positive normal double"):
                normalization_constant(0, m_phi, 0.5)

    def test_overflow_raises(self):
        # a negative m_phi shrinks (n + m_phi)! past what exp can return
        with pytest.raises(DomainError, match="positive normal double"):
            normalization_constant(10 ** 6, -10 ** 6, 1.0)


class TestEcRadialSolution:
    def test_quantized_c_big(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=1, m_phi=1)
        res = ec_solve_energy(qn, p, (1e-3, 1e3), tol=1e-13)
        sol = ec_radial_solution(qn, p, res.energy)
        assert sol.c_big == pytest.approx(2.0 * qn.radial_weight, abs=1e-10)

    def test_normalized_on_the_physical_grid(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=2, m_phi=1)
        res = ec_solve_energy(qn, p, (1e-3, 1e3), tol=1e-13)
        sol = ec_radial_solution(qn, p, res.energy)
        val, _ = integrate.quad(lambda r: sol(r) ** 2 * r, 0.0, np.inf,
                                limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_ode_residual_at_quantized_energy(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=1, m_phi=0)
        res = ec_solve_energy(qn, p, (1e-3, 1e3), tol=1e-13)
        sol = ec_radial_solution(qn, p, res.energy)
        # C from the solved energy closes the quantization, so the
        # Laguerre branch solves the ODE at that C
        worst = max(ode_residual_scaled(qn.n, qn.m_phi, xi)
                    for xi in np.linspace(0.1, 5.0, 20))
        assert worst < 1e-8
        assert sol.regime == "laguerre"

    @pytest.mark.parametrize("regime", ["bessel", "laguerre"])
    @pytest.mark.parametrize("theta0,lam", [(0.1, "nan"), (0.0, "inf")])
    def test_non_finite_lambda_or_c_raises_domain_error(self, theta0, lam,
                                                        regime):
        # at E = inf theta0 > 0 sends m* to 0 and K_h to inf (lambda is
        # nan); theta0 = 0 keeps m* = m (lambda is inf). C is nan in both
        p = ec_params(theta0=theta0, constants={"spring_k": 1.0})
        with pytest.raises(DomainError,
                           match=f"^lambda={lam} and C=nan at E=inf: "):
            ec_radial_solution(QuantumNumbers(n=1, m_phi=1), p, math.inf,
                               regime)

    @pytest.mark.parametrize("mechanism", [Mechanism.SQF, Mechanism.EO_I,
                                           Mechanism.EO_II])
    def test_non_ec_mechanism_raises(self, mechanism):
        p = ec_params(mechanism=mechanism, constants={"spring_k": 1.0})
        for regime in ("laguerre", "bessel"):
            with pytest.raises(UsageError, match="ec_radial_solution "
                               "requires mechanism=ec"):
                ec_radial_solution(QuantumNumbers(n=0, m_phi=0), p, 3.0,
                                   regime)


class TestGroundStates:
    def test_free_profile_peaks_at_origin(self):
        p = ec_params(theta0=0.0)
        r = np.linspace(0.0, 3.0, 7)
        vals = ground_state_free(r, 2.0, p)
        assert vals[0] == 1.0 and np.all(np.diff(vals) < 0)

    def test_free_nan_energy_rejected(self):
        # once a NaN array
        with pytest.raises(DomainError, match="got nan"):
            ground_state_free(np.linspace(0.0, 3.0, 7), math.nan,
                              ec_params(theta0=0.0))

    def test_free_commutative_degeneration(self):
        p = ec_params(theta0=0.0)
        vals = ground_state_free(np.linspace(0, 3, 7), 0.0, p)
        assert np.allclose(vals, 1.0)

    def test_free_matches_laguerre_under_lambda_identification(self):
        p = ec_params(eta0=0.8, theta0=0.0, alpha_exp=2.0, beta_exp=2.0)
        energy = 1.3
        from ncqm.params import effective_coefficients
        lam = math.sqrt(effective_coefficients(p, energy).k_e
                        * p.constants.mass) / p.constants.hbar
        r = np.linspace(0.0, 4.0, 33)
        direct = ground_state_free(r, energy, p)
        via_laguerre = radial_laguerre(0, 0, math.sqrt(lam) * r)
        assert np.max(np.abs(direct - via_laguerre)) < 1e-13

    def test_free_zero_energy_negative_alpha_is_singular(self):
        # nc_strengths raises for the same input; the flat profile hid it
        p = ec_params(alpha_exp=-1.0, e_ref=10.0)
        with pytest.raises(SingularityError):
            nc_strengths(p, 0.0)
        with pytest.raises(SingularityError):
            ground_state_free(np.linspace(0, 3, 7), 0.0, p)

    def test_free_negative_energy_rejected(self):
        with pytest.raises(DomainError):
            ground_state_free(np.linspace(0, 3, 7), -3.0, ec_params())

    def test_oscillator_matches_omega_eff_profile(self):
        p = ec_params(constants={"spring_k": 1.0})
        energy = 3.0
        w = omega_eff(energy, p)
        r = np.linspace(0.0, 3.0, 13)
        assert np.allclose(ground_state_oscillator(r, energy, p),
                           np.exp(-w * r ** 2 / 2.0), atol=1e-15)


class TestOmegaEff:
    def test_low_energy_limit(self):
        p = ec_params(constants={"spring_k": 1.0})
        assert omega_eff(1e-8, p) == pytest.approx(1.0, abs=1e-8)

    def test_monotone_when_theta_vanishes(self):
        p = ec_params(theta0=0.0, constants={"spring_k": 1.0})
        vals = [omega_eff(e, p) for e in np.linspace(0.1, 20.0, 25)]
        assert all(v >= 1.0 - 1e-15 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_guard(self):
        with pytest.raises(UsageError):
            omega_eff(1.0, ec_params())

    def test_negative_energy_rejected(self):
        # a fractional exponent would otherwise make the power complex
        p = ec_params(alpha_exp=0.75, constants={"spring_k": 1.0})
        with pytest.raises(DomainError):
            omega_eff(-1.0, p)

    @pytest.mark.parametrize("exponents", [{"alpha_exp": -1.0},
                                           {"beta_exp": -0.5}])
    def test_zero_energy_with_negative_exponent(self, exponents):
        # once a bare ZeroDivisionError from (E/E0)**exponent
        p = ec_params(constants={"spring_k": 1.0}, **exponents)
        with pytest.raises(SingularityError):
            omega_eff(0.0, p)

    @pytest.mark.parametrize("alpha,energy", [(2.0, 1e100), (3.0, 1e120)])
    def test_overflow_raises(self, alpha, energy):
        # eta(E) = 1e197 squares past the float range at alpha = 2; at
        # alpha = 3, eta(E) itself overflows; both were a bare OverflowError
        p = ec_params(alpha_exp=alpha, constants={"spring_k": 1.0})
        with pytest.raises(SingularityError):
            omega_eff(energy, p)

    def test_matches_the_displayed_form(self):
        # theta to the first power in the denominator, eta squared above
        p = ec_params(alpha_exp=1.5, beta_exp=0.5, constants={"spring_k": 2.0})
        x = 3.0 / p.e_ref
        num = 1.0 + (0.1 * x ** 1.5) ** 2 / (8.0 * 2.0)
        den = 1.0 + 2.0 * 0.1 * x ** 0.5 / 4.0
        assert omega_eff(3.0, p) == pytest.approx(
            math.sqrt(2.0 * num / den), rel=1e-14)


class TestNonlocality:
    def test_small_energy(self):
        p = ec_params()
        assert nonlocality_bound(1e-12, p) < 1e-12

    def test_reference_scale(self):
        p = ec_params(theta0=0.6)
        assert nonlocality_bound(10.0, p) == pytest.approx(0.3, rel=1e-14)

    def test_nan_energy_rejected(self):
        # once a nan bound
        with pytest.raises(DomainError, match="got nan"):
            nonlocality_bound(math.nan, ec_params())

    def test_homogeneity(self):
        p = ec_params(theta0=0.4, beta_exp=1.0)
        assert nonlocality_bound(4.0, p) == pytest.approx(
            2.0 * nonlocality_bound(2.0, p), rel=1e-14)


def gaussian_grid(half_width=7.0, spacing=0.02):
    ax = np.arange(-half_width, half_width + spacing / 2.0, spacing)
    x, y = np.meshgrid(ax, ax)
    return ax, x, y


class TestGridNorm:
    def test_plain_norm_when_potential_energy_independent(self):
        _, x, y = gaussian_grid()
        psi = np.exp(-(x ** 2 + y ** 2) / 2.0)
        field = GridField(values=psi, spacing=0.02)
        n_mod = modified_norm(field, np.zeros_like(psi))
        assert n_mod == pytest.approx(math.pi, rel=1e-10)

    def test_constant_derivative_halves(self):
        _, x, y = gaussian_grid()
        psi = np.exp(-(x ** 2 + y ** 2) / 2.0)
        field = GridField(values=psi, spacing=0.02)
        full = modified_norm(field, np.zeros_like(psi))
        half = modified_norm(field, np.full_like(psi, 0.5))
        assert half == pytest.approx(0.5 * full, rel=1e-13)

    def test_gaussian_closed_form(self):
        # V = E g with g a unit gaussian: N = pi - pi/2 * c
        _, x, y = gaussian_grid()
        psi = np.exp(-(x ** 2 + y ** 2) / 2.0)
        g = 0.3 * np.exp(-(x ** 2 + y ** 2))
        field = GridField(values=psi, spacing=0.02)
        val = modified_norm(field, g)
        assert val == pytest.approx(math.pi - 0.3 * math.pi / 2.0, abs=1e-6)

    def test_linear_in_density(self):
        _, x, y = gaussian_grid(5.0, 0.05)
        psi = np.exp(-(x ** 2 + y ** 2) / 2.0)
        g = 0.2 * np.exp(-(x ** 2 + y ** 2))
        a = modified_norm(GridField(values=psi, spacing=0.05), g)
        b = modified_norm(GridField(values=2.0 * psi, spacing=0.05), g)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_violation_raises(self):
        _, x, y = gaussian_grid(3.0, 0.1)
        psi = np.exp(-(x ** 2 + y ** 2) / 2.0)
        field = GridField(values=psi, spacing=0.1)
        with pytest.raises(NormalizabilityError):
            modified_norm(field, np.full_like(np.real(psi), 1.5))


class TestOrthogonalityKernel:
    def test_linear_potential(self):
        _, x, y = gaussian_grid(2.0, 0.5)
        g = x + 2.0 * y
        v1, v2 = 1.0 * g, 3.0 * g  # V = E g
        kern = orthogonality_kernel(v1, v2, 1.0, 3.0)
        assert np.allclose(kern, g, atol=1e-14)

    def test_energy_independent_potential(self):
        _, x, y = gaussian_grid(2.0, 0.5)
        v = x ** 2
        assert np.allclose(orthogonality_kernel(v, v, 1.0, 2.0), 0.0)

    def test_quadratic_energy_dependence(self):
        _, x, y = gaussian_grid(2.0, 0.5)
        g = np.cos(x) * np.cos(y)
        e1, e2 = 1.5, 2.5
        kern = orthogonality_kernel(e1 ** 2 * g, e2 ** 2 * g, e1, e2)
        assert np.allclose(kern, (e1 + e2) * g, atol=1e-12)

    def test_coincident_energies_rejected(self):
        with pytest.raises(DomainError):
            orthogonality_kernel(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1.0)


class TestProbabilityCurrent:
    def test_real_fields_carry_no_current(self):
        _, x, y = gaussian_grid(3.0, 0.05)
        psi = np.exp(-(x ** 2 + y ** 2) / 2.0)
        field = GridField(values=psi, spacing=0.05)
        jx, jy = probability_current(field, field, PhysicalConstants())
        assert np.max(np.abs(jx)) < 1e-14 and np.max(np.abs(jy)) < 1e-14

    def test_plane_wave_both_conventions(self):
        spacing = 0.02
        ax = np.arange(-3.0, 3.0 + spacing / 2, spacing)
        x, y = np.meshgrid(ax, ax)
        k_wave = 1.3
        pw = GridField(values=np.exp(1j * k_wave * x), spacing=spacing)
        c = PhysicalConstants()
        inner = (slice(4, -4), slice(4, -4))
        jx, jy = probability_current(pw, pw, c, convention="paper")
        # paper convention: J = -hbar^2 K/m |psi|^2, uniform
        expect = -c.hbar ** 2 * k_wave / c.mass
        assert np.std(jx[inner]) < 1e-12
        assert np.mean(jx[inner]) == pytest.approx(
            expect, abs=abs(expect) * k_wave ** 2 * spacing ** 2)
        assert np.max(np.abs(jy[inner])) < 1e-12
        jx2, _ = probability_current(pw, pw, c, convention="standard")
        assert np.mean(jx2[inner]) == pytest.approx(
            c.hbar * k_wave / c.mass, abs=k_wave ** 3 * spacing ** 2)

    def test_discrete_continuity_second_order(self):
        # stationary superposition of oscillator eigenstates at a nonzero
        # time phase: the exact current closes d rho/dt + div J = 0, and
        # the discrete residual must shrink as O(spacing^2)
        c = PhysicalConstants()
        e_a, e_b, t = 1.0, 2.0, 0.3  # ground / first excited 2D oscillator

        def residual(spacing):
            ax = np.arange(-6.0, 6.0 + spacing / 2, spacing)
            x, y = np.meshgrid(ax, ax)
            gauss = np.exp(-(x ** 2 + y ** 2) / 2.0) / math.sqrt(math.pi)
            psi_a = gauss * np.exp(-1j * e_a * t / c.hbar)
            psi_b = math.sqrt(2.0) * x * gauss * np.exp(-1j * e_b * t / c.hbar)
            fa = GridField(values=psi_a, spacing=spacing)
            fb = GridField(values=psi_b, spacing=spacing)
            jx, jy = probability_current(fa, fb, c, convention="standard")
            drho_dt = (-1j / c.hbar * (e_b - e_a)
                       * fa.values.conj() * fb.values).real
            div = divergence(jx, jy, spacing)
            inner = (slice(6, -6), slice(6, -6))
            return np.max(np.abs(drho_dt + div)[inner])

        r1, r2 = residual(0.08), residual(0.04)
        assert r1 / r2 == pytest.approx(4.0, rel=0.35)

    def test_grid_mismatch_rejected(self):
        a = GridField(values=np.zeros((4, 4)), spacing=0.1)
        b = GridField(values=np.zeros((5, 5)), spacing=0.1)
        with pytest.raises(ValidationError):
            probability_current(a, b, PhysicalConstants())


class TestGridField:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GridField(values=np.zeros(3), spacing=0.1)
        with pytest.raises(ValidationError):
            GridField(values=np.zeros((2, 2)), spacing=0.0)
        with pytest.raises(ValidationError):
            GridField(values=np.array([[np.inf, 0], [0, 0]]), spacing=0.1)

    def test_json_export_round_trip(self):
        field = GridField(values=np.array([[1 + 2j, 0], [0, 1 - 1j]]),
                          spacing=0.5)
        doc = field.to_dict()
        assert doc["shape"] == [2, 2]
        rebuilt = np.array(doc["re"]) + 1j * np.array(doc["im"])
        assert np.array_equal(rebuilt, field.values)

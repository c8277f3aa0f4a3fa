import logging
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from ncqm.errors import (BracketingError, DomainError, SingularityError,
                         UsageError, ValidationError)
from ncqm.params import (Mechanism, ModelParams, PhysicalConstants,
                         effective_coefficients)
from ncqm.spectra import (FractionalOscSpec, QuantumNumbers,
                          commutative_spectrum, ec_alpha1_constraint_residual,
                          ec_default_bracket, ec_free_energy_closed,
                          ec_oscillator_first_order, ec_quantization_residual,
                          ec_solve_energy, eo_alpha1_constraint_residual,
                          eo_alpha1_from_ec, eo_alpha1_radial_params,
                          fractional_oscillator_levels, scan_grid,
                          sqf_spectrum)


def ec_params(**kw):
    constants = PhysicalConstants(**kw.pop("constants", {}))
    defaults = dict(eta0=0.1, theta0=0.1, alpha_exp=1.0, beta_exp=1.0,
                    e_ref=10.0, mechanism=Mechanism.EC)
    defaults.update(kw)
    return ModelParams(constants=constants, **defaults)


class TestQuantumNumbers:
    def test_non_negative(self):
        with pytest.raises(ValidationError):
            QuantumNumbers(n=-1)
        with pytest.raises(ValidationError):
            QuantumNumbers(m_phi=-2)

    def test_non_finite_rejected(self):
        for name in ("n", "m_phi", "n_alpha", "n_beta"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValidationError):
                    QuantumNumbers(**{name: bad})

    def test_radial_weight(self):
        assert QuantumNumbers(n=2, m_phi=3).radial_weight == 8


class TestSqfFree:
    def params(self, **kw):
        defaults = dict(eta0=1.0, theta0=1.0, alpha_exp=2.0, beta_exp=2.0,
                        e_ref=1.0, mechanism=Mechanism.SQF)
        defaults.update(kw)
        return ModelParams(**defaults)

    def test_reference_value(self):
        # spring_k = 0, recomputed by composing the free-particle frequency
        # sqrt(k_e/m) with B_e: k_e = 1/8, sqrt(k_e/m) = 1/(2 sqrt(2)),
        # B_e = 1/2
        p = self.params()
        value = sqf_spectrum(p, 1.0, QuantumNumbers())
        assert value == pytest.approx(0.8535533905932737, rel=1e-12)

    def test_vanishes_at_zero_scale(self):
        assert sqf_spectrum(self.params(), 0.0, QuantumNumbers()) == 0.0

    def test_occupancy_symmetry(self):
        p = self.params()
        a = sqf_spectrum(p, 0.8, QuantumNumbers(n_alpha=1, n_beta=0))
        b = sqf_spectrum(p, 0.8, QuantumNumbers(n_alpha=0, n_beta=1))
        assert a == b

    def test_mechanism_guard(self):
        with pytest.raises(UsageError):
            sqf_spectrum(ec_params(), 1.0, QuantumNumbers())

    def test_level_past_float_range_raises(self):
        # k_e = eta^2/8m hbar^2 overflows to inf in a float division, which
        # Python does not raise on; the level was returned as inf
        p = self.params(eta0=1e150, constants=PhysicalConstants(hbar=1e-150))
        with pytest.raises(SingularityError, match="double range"):
            sqf_spectrum(p, 1.0, QuantumNumbers())


class TestSqfOscillator:
    def params(self, **kw):
        defaults = dict(eta0=1.0, theta0=1.0, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=1.0, mechanism=Mechanism.SQF,
                        constants=PhysicalConstants(spring_k=1.0))
        defaults.update(kw)
        return ModelParams(**defaults)

    def test_commutative_limit(self):
        p = self.params(alpha_exp=2.0, beta_exp=2.0)
        # n_alpha + n_beta = 2n + m_phi matches the radial labeling
        qn = QuantumNumbers(n_alpha=1, n_beta=1)
        assert sqf_spectrum(p, 0.0, qn) == \
            commutative_spectrum(QuantumNumbers(n=1, m_phi=0), 1.0,
                                 p.constants)

    def test_free_limit_degeneration(self):
        # the spring_k -> 0 limit of the oscillator level is the free one
        eps = 0.7
        posc = ModelParams(eta0=1.0, theta0=1.0, alpha_exp=2.0, beta_exp=2.0,
                           e_ref=1.0, mechanism=Mechanism.SQF,
                           constants=PhysicalConstants(spring_k=1e-30))
        pfree = ModelParams(eta0=1.0, theta0=1.0, alpha_exp=2.0, beta_exp=2.0,
                            e_ref=1.0, mechanism=Mechanism.SQF)
        qn = QuantumNumbers(n_alpha=1, n_beta=0)
        assert sqf_spectrum(posc, eps, qn) == pytest.approx(
            sqf_spectrum(pfree, eps, qn), rel=1e-12)

    def test_reference_value(self):
        # composed independently: 1/m* = 1.25, B_h = 0.5+0.5 = 1,
        # K_h = 1+0.125, Omega = sqrt(1.125*1.25) + 1
        p = self.params()
        val = sqf_spectrum(p, 1.0, QuantumNumbers())
        assert val == pytest.approx(2.185854122563142, rel=1e-13)


class TestEcResidualAndRoot:
    def test_commutative_residual_zero(self):
        p = ec_params(eta0=0.0, theta0=0.0, constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=1, m_phi=2)
        energy = commutative_spectrum(qn, 1.0, p.constants)
        assert ec_quantization_residual(energy, qn, p) == 0.0

    def test_residual_sign_change_across_root(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=0, m_phi=0)
        root = ec_solve_energy(qn, p, (1e-3, 1e3)).energy
        assert ec_quantization_residual(0.9 * root, qn, p) \
            * ec_quantization_residual(1.1 * root, qn, p) < 0

    def test_residual_at_zero_energy(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=1, m_phi=1)
        expected = p.constants.hbar / math.sqrt(p.constants.mass) \
            * qn.radial_weight
        assert ec_quantization_residual(0.0, qn, p) == expected > 0

    def test_commutative_exact(self):
        p = ec_params(eta0=0.0, theta0=0.0, constants={"spring_k": 1.0})
        res = ec_solve_energy(QuantumNumbers(n=1, m_phi=0), p, (1e-6, 1e6))
        assert res.energy == 3.0
        assert res.method == "closed_form"

    def test_root_is_stable_under_bracket_perturbation(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=1, m_phi=1)
        base = ec_solve_energy(qn, p, (1e-3, 1e3), tol=1e-13)
        for factor in (0.9, 1.1):
            shifted = ec_solve_energy(qn, p, (1e-3 * factor, 1e3 * factor),
                                      tol=1e-13)
            assert shifted.energy == pytest.approx(base.energy, rel=1e-10)
            assert abs(shifted.residual) <= 1e-13

    def test_dense_scan_confirms_root(self):
        # residual has no other sign change near the root (step 1e-4 scan)
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=0, m_phi=0)
        root = ec_solve_energy(qn, p, (1e-3, 1e3), tol=1e-13).energy
        grid = np.arange(max(root - 0.05, 1e-4), root + 0.05, 1e-4)
        vals = [ec_quantization_residual(e, qn, p) for e in grid]
        signs = np.sign(vals)
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert grid[flips[0]] - 1e-12 <= root <= grid[flips[0] + 1] + 1e-12

    def test_no_bracket_raises(self):
        p = ec_params(constants={"spring_k": 1.0})
        with pytest.raises(BracketingError):
            ec_solve_energy(QuantumNumbers(), p, (1e20, 1e22))

    def test_free_commutative_rejected(self):
        p = ec_params(eta0=0.0, theta0=0.0)
        with pytest.raises(DomainError):
            ec_solve_energy(QuantumNumbers(), p, (1e-6, 1e6))

    @pytest.mark.parametrize("bracket,tol", [
        ((0.0, 1e308), 1e-12),     # hi / clamped lo overflows
        ((1e-300, 1e300), 1e-12),
        ((1e-3, math.inf), 1e-12),
        ((1e-3, 1e3), -1.0),
        ((1e-3, 1e3), 0.0),
        ((1e-3, 1e3), math.nan),
        ((1e-3, 1e3), math.inf),
    ])
    def test_bracket_ratio_and_tol_checked_first(self, bracket, tol):
        # the two wide brackets once raised OverflowError from the grid
        # size, and tol -1 a "leaves |residual| 0.000e+00 > tol -1"
        p = ec_params(constants={"spring_k": 1.0})
        with pytest.raises(ValidationError):
            ec_solve_energy(QuantumNumbers(), p, bracket, tol=tol)


class TestArrayResidual:
    """The residual of an energy array raises what the scalar residual
    raises at the first failing point, and equals it where it succeeds."""

    @staticmethod
    def scalar_error(energies, qn, p):
        for e in energies:
            try:
                ec_quantization_residual(float(e), qn, p)
            except (DomainError, ValidationError) as exc:
                return type(exc)
        return None

    @pytest.mark.parametrize("params, energies, expected", [
        (ec_params(constants={"spring_k": 1.0}), [1.0, -0.5, 2.0],
         DomainError),
        (ec_params(alpha_exp=-1.0, constants={"spring_k": 1.0}), [1.0, 0.0],
         SingularityError),
        # free particle: eta(0) = 0 leaves K_h(0) = 0
        (ec_params(alpha_exp=2.0), [2.0, 0.0, 1.0], DomainError),
    ], ids=["negative_energy", "zero_energy_negative_exponent", "k_h_zero"])
    def test_same_error_as_scalar(self, params, energies, expected):
        qn = QuantumNumbers(n=1, m_phi=1)
        assert self.scalar_error(energies, qn, params) is expected
        with pytest.raises(expected) as info:
            ec_quantization_residual(np.array(energies), qn, params)
        assert type(info.value) is expected

    def test_lo_zero_bracket_raises_like_scalar(self):
        # lo = 0 is clamped to 1e-300: 60k grid points in one array call,
        # where eta underflows to 0 and leaves a free particle's K_h = 0
        p = ec_params(eta0=1.0, theta0=0.0, alpha_exp=2.0, beta_exp=2.0)
        qn = QuantumNumbers()
        with pytest.raises(DomainError):
            ec_quantization_residual(1e-300, qn, p)
        with pytest.raises(DomainError):
            ec_solve_energy(qn, p, (0.0, 10.0))

    def test_lo_zero_bracket_oscillator_solves(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=1, m_phi=1)
        clamped = ec_solve_energy(qn, p, (0.0, 1e3))
        assert clamped.energy == pytest.approx(
            ec_solve_energy(qn, p, (1e-3, 1e3)).energy, rel=1e-13)

    @pytest.mark.parametrize("exponents", [{"alpha_exp": -2.0},
                                           {"beta_exp": -1.0}],
                             ids=["alpha_strength", "beta_square"])
    def test_float_overflow_near_zero_is_singular(self, exponents):
        # at E = 1e-300 eta = eta0 (E/e_ref)^-2, or theta^2 with
        # theta = theta0 (E/e_ref)^-1, leaves the float range: a float
        # energy raises the typed error, while the scan of a lo = 0
        # bracket carries inf there, without a numpy warning, and still
        # finds the level
        p = ec_params(constants={"spring_k": 1.0}, **exponents)
        qn = QuantumNumbers(n=1, m_phi=1)
        with pytest.raises(SingularityError):
            ec_quantization_residual(1e-300, qn, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clamped = ec_solve_energy(qn, p, (0.0, 1e3))
        assert clamped.energy == pytest.approx(
            ec_solve_energy(qn, p, (1e-6, 1e3)).energy, rel=1e-13)

    def test_overflowing_points_open_no_bracket(self):
        # theta = 0.1 (E/10)^200 overflows past E ~ 350: the grid residual
        # is inf or NaN there, which neither warns nor counts as a sign
        # change, and the level below is found as before
        p = ec_params(beta_exp=200.0, constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=1, m_phi=1)
        bracket = ec_default_bracket(qn, p)
        grid = scan_grid(*bracket, 2400, np.arange(2401))
        with np.errstate(all="ignore"):
            values = ec_quantization_residual(grid, qn, p)
        assert not np.all(np.isfinite(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ec_solve_energy(qn, p, bracket)
        assert res.energy == pytest.approx(3.980493620523184, rel=1e-12)

    def test_all_points_overflow_says_so(self):
        # K = 1e308 makes k theta^2 overflow on the whole default bracket
        p = ec_params(constants={"spring_k": 1e308})
        qn = QuantumNumbers()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketingError,
                               match="leave the double range at 2401 of "
                                     "2401 grid points"):
                ec_solve_energy(qn, p, ec_default_bracket(qn, p))

    def test_scalar_stays_python_float(self):
        p = ec_params(constants={"spring_k": 1.0})
        assert type(ec_quantization_residual(1.5, QuantumNumbers(), p)) \
            is float

    def test_debug_record_per_solve(self, caplog):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=0, m_phi=0)
        with caplog.at_level(logging.DEBUG, logger="ncqm.spectra"):
            res = ec_solve_energy(qn, p, ec_default_bracket(qn, p))
        (record,) = caplog.records
        msg = record.getMessage()
        assert "2401 grid points" in msg
        assert f"{res.roots_found} sign changes" in msg
        assert "brentq calls" in msg


class TestEcFreeClosed:
    def test_sqrt2_coefficient_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m, hbar, eta0 = rng.uniform(0.2, 5.0, size=3)
            b0 = eta0 / (2.0 * m * hbar)
            k0 = eta0 ** 2 / (4.0 * m * hbar ** 2)
            assert b0 * math.sqrt(2.0 * m / k0) == pytest.approx(
                math.sqrt(2.0), rel=1e-13)

    def test_ground_state_reference(self):
        # alpha=2, eta0=2 (k0=1), E0=1: E = sqrt(2)
        p = ec_params(eta0=2.0, theta0=0.0, alpha_exp=2.0, beta_exp=2.0,
                      e_ref=1.0)
        qn = QuantumNumbers()
        e = ec_free_energy_closed(qn, p)
        assert e == pytest.approx(math.sqrt(2.0), rel=1e-14)
        # ground-state closed form (2m/hbar^2 k0)^(1/2(a-1)) E0^(a/(a-1))
        assert e == pytest.approx((2.0) ** 0.5 * 1.0 ** 2.0, rel=1e-14)

    def test_matches_root_finder(self):
        for alpha in (1.5, 2.0, 3.0):
            p = ec_params(eta0=1.0, theta0=0.0, alpha_exp=alpha,
                          beta_exp=alpha, e_ref=2.0)
            for (n, m_phi) in ((0, 0), (1, 1)):
                qn = QuantumNumbers(n=n, m_phi=m_phi)
                closed = ec_free_energy_closed(qn, p)
                res = ec_solve_energy(qn, p, (closed / 1e4, closed * 1e4),
                                      tol=1e-14)
                assert res.energy == pytest.approx(closed, rel=1e-9)

    def test_alpha_one_rejected(self):
        p = ec_params(theta0=0.0)
        with pytest.raises(DomainError):
            ec_free_energy_closed(QuantumNumbers(), p)

    def test_alpha1_constraint(self):
        p = ec_params(eta0=2.0, theta0=0.0, e_ref=1.0)
        qn = QuantumNumbers()
        # constraint: E0 = hbar sqrt(k0/2m) [2n + (1-sqrt2) m_phi + 1]
        resid = ec_alpha1_constraint_residual(qn, p)
        assert resid == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-13)


class TestEcFirstOrder:
    def test_commutative_reduction(self):
        p = ec_params(eta0=0.0, theta0=0.0, constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=0, m_phi=1)
        e_com = commutative_spectrum(qn, 1.0, p.constants)
        assert ec_oscillator_first_order(qn, p) == e_com / p.e_ref

    def test_quadratic_error_in_eta(self):
        # halving eta0 (theta0 = 0) quarters the gap to the exact root
        qn = QuantumNumbers(n=0, m_phi=1)
        gaps = []
        for eta0 in (0.05, 0.025):
            p = ec_params(eta0=eta0, theta0=0.0, constants={"spring_k": 1.0})
            root = ec_solve_energy(qn, p, (1e-4, 1e4), tol=1e-13).energy
            first = ec_oscillator_first_order(qn, p) * p.e_ref
            gaps.append(abs(root - first))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)

    def test_linear_deviation_in_theta_documented(self):
        # the displayed first-order form keeps a theta0-linear denominator
        # term, so the gap to the exact root halves (not quarters) with it
        qn = QuantumNumbers(n=0, m_phi=0)
        gaps = []
        for theta0 in (0.05, 0.025):
            p = ec_params(eta0=0.0, theta0=theta0,
                          constants={"spring_k": 1.0})
            root = ec_solve_energy(qn, p, (1e-4, 1e4), tol=1e-13).energy
            first = ec_oscillator_first_order(qn, p) * p.e_ref
            gaps.append(abs(root - first))
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)

    def test_mphi_zero_denominator_free_of_eta(self):
        qn = QuantumNumbers(n=2, m_phi=0)
        a = ec_oscillator_first_order(
            qn, ec_params(eta0=0.3, theta0=0.0, constants={"spring_k": 1.0}))
        b = ec_oscillator_first_order(
            qn, ec_params(eta0=0.9, theta0=0.0, constants={"spring_k": 1.0}))
        assert a == b

    def test_exponent_guard(self):
        p = ec_params(alpha_exp=2.0, constants={"spring_k": 1.0})
        with pytest.raises(UsageError):
            ec_oscillator_first_order(QuantumNumbers(), p)


class TestCommutative:
    def test_ground(self):
        c = PhysicalConstants(spring_k=4.0)
        assert commutative_spectrum(QuantumNumbers(), 2.0, c) == 2.0

    def test_degeneracy(self):
        c = PhysicalConstants(spring_k=1.0)
        e_a = commutative_spectrum(QuantumNumbers(n=1, m_phi=0), 1.0, c)
        e_b = commutative_spectrum(QuantumNumbers(n=0, m_phi=2), 1.0, c)
        assert e_a == e_b == 3.0


class TestFractionalOscillator:
    def test_linear_exponent_case(self):
        spec = FractionalOscSpec(alpha_p=2.0, beta_p=2.0, d_alpha=0.5,
                                 q=math.sqrt(0.5))
        c = PhysicalConstants()
        # exponent ab/(a+b) = 1: linear ladder in (n + 1/2)
        e0 = fractional_oscillator_levels(spec, 0, c)
        e1 = fractional_oscillator_levels(spec, 1, c)
        e2 = fractional_oscillator_levels(spec, 2, c)
        assert e1 - e0 == pytest.approx(e2 - e1, rel=1e-13)
        assert e0 == pytest.approx(0.5, rel=1e-13)

    def test_ratio_law_prefactor_independent(self):
        c = PhysicalConstants()
        rng = np.random.default_rng(23)
        for _ in range(15):
            a, b = rng.uniform(0.5, 3.0, size=2)
            spec = FractionalOscSpec(alpha_p=a, beta_p=b,
                                     d_alpha=rng.uniform(0.1, 2.0),
                                     q=rng.uniform(0.1, 2.0))
            n = rng.integers(0, 6)
            ratio = (fractional_oscillator_levels(spec, int(n) + 1, c)
                     / fractional_oscillator_levels(spec, int(n), c))
            expo = a * b / (a + b)
            assert ratio == pytest.approx(
                ((n + 1.5) / (n + 0.5)) ** expo, rel=1e-12)

    def test_prefactor_beta_vs_quadrature(self):
        val, _ = integrate.quad(lambda u: u ** -0.5 * (1 - u) ** 0.5, 0, 1)
        spec = FractionalOscSpec(alpha_p=2.0, beta_p=2.0, d_alpha=0.5,
                                 q=math.sqrt(0.5))
        c = PhysicalConstants()
        # reconstruct the bracket from the level and compare beta functions
        e0 = fractional_oscillator_levels(spec, 0, c)
        bracket = e0 / 0.5  # exponent is 1 here
        from ncqm.specfun import beta_fn
        expected = math.pi * 1.0 * 2.0 * spec.d_alpha ** 0.5 * spec.q \
            / (2.0 * val)
        assert bracket == pytest.approx(expected, rel=1e-8)
        assert beta_fn(0.5, 1.5) == pytest.approx(val, rel=1e-8)

    def test_monotone_in_n(self):
        spec = FractionalOscSpec(alpha_p=1.3, beta_p=0.8, d_alpha=1.0, q=1.0)
        c = PhysicalConstants()
        levels = [fractional_oscillator_levels(spec, n, c) for n in range(8)]
        assert all(x < y for x, y in zip(levels, levels[1:]))


class TestEoAlpha1:
    def test_forced_arithmetic(self):
        c = PhysicalConstants()
        _, sigma = eo_alpha1_radial_params(2.0, QuantumNumbers(), 0.0,
                                           4.0 * c.mass, c)
        assert sigma == 1.0

    def test_sigma_energy_independent(self):
        c = PhysicalConstants()
        qn = QuantumNumbers(m_phi=1)
        sigmas = {eo_alpha1_radial_params(e, qn, 0.2, 1.5, c)[1]
                  for e in (0.5, 1.0, 7.0)}
        assert len(sigmas) == 1

    def test_xi_scale_formula(self):
        c = PhysicalConstants(hbar=2.0)
        xi_scale, _ = eo_alpha1_radial_params(3.0, QuantumNumbers(), 0.0,
                                              1.0, c)
        assert xi_scale == pytest.approx((1.0 * 1.0 * 9.0) ** 0.25 / 2.0,
                                         rel=1e-14)

    def test_constraint_residual(self):
        assert eo_alpha1_constraint_residual(6.0, QuantumNumbers(n=1)) == 0.0

    def test_ec_equivalence_of_radial_coefficients(self):
        # with B_I = hbar B0/E0 and K_I = hbar^2 k0/2E0^2 the radial
        # equation coefficients match the energy-coupled alpha = 1 case
        p = ec_params(eta0=0.8, theta0=0.0, e_ref=3.0)
        c = p.constants
        b_i, k_i = eo_alpha1_from_ec(p)
        for energy in (0.5, 2.0, 5.0):
            coeff = effective_coefficients(p, energy)
            # r^2 coefficients of both equations
            ec_r2 = 2.0 * c.mass / c.hbar ** 2 * (
                energy + 1 * c.hbar * coeff.b_h)
            eo_r2 = 2.0 * c.mass / c.hbar ** 2 * energy * (1.0 + 1 * b_i)
            assert ec_r2 == pytest.approx(eo_r2, rel=1e-12)
            # r^4 coefficients
            ec_r4 = c.mass * coeff.k_h / c.hbar ** 2
            eo_r4 = c.mass * k_i * energy ** 2 / c.hbar ** 4
            assert ec_r4 == pytest.approx(eo_r4, rel=1e-12)

    def test_domain(self):
        c = PhysicalConstants()
        with pytest.raises(DomainError):
            eo_alpha1_radial_params(0.0, QuantumNumbers(), 0.0, 1.0, c)
        with pytest.raises(DomainError):
            eo_alpha1_radial_params(1.0, QuantumNumbers(), 0.0, 0.0, c)


class TestDefaultBracket:
    def test_contains_commutative_level(self):
        p = ec_params(constants={"spring_k": 1.0})
        qn = QuantumNumbers(n=2, m_phi=1)
        lo, hi = ec_default_bracket(qn, p)
        assert lo < 6.0 < hi

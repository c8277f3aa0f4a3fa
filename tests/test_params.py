import json
import math
import sys
import warnings

import numpy as np
import pytest
from test_contract import INTEGER_ROWS, readable

from ncqm.errors import DomainError, SingularityError, ValidationError
from ncqm.params import (Mechanism, ModelParams, PhysicalConstants,
                         effective_coefficients, effective_planck,
                         effective_planck_4d, k_factor, nc_strengths,
                         params_from_dict, params_from_json, params_to_json,
                         rescaled_strengths)
from ncqm.ring import RingSpec, ring_levels
from ncqm.spectra import (FractionalOscSpec, QuantumNumbers,
                          fractional_oscillator_levels, sqf_spectrum)


def make_params(**kw):
    constants = PhysicalConstants(**kw.pop("constants", {}))
    defaults = dict(eta0=1.0, theta0=1.0, alpha_exp=2.0, beta_exp=2.0,
                    e_ref=1.0, mechanism=Mechanism.EC)
    defaults.update(kw)
    return ModelParams(constants=constants, **defaults)


class TestStrengths:
    def test_zero_energy_positive_exponent(self):
        theta, eta = nc_strengths(make_params(), 0.0)
        assert theta == 0.0 and eta == 0.0

    def test_unit_ratio_returns_amplitudes(self):
        p = make_params(eta0=0.7, theta0=0.3, alpha_exp=5.0, beta_exp=0.1)
        assert nc_strengths(p, p.e_ref) == (0.3, 0.7)

    def test_half_ratio_squared(self):
        p = make_params(eta0=1.0, alpha_exp=2.0, e_ref=2.0)
        _, eta = nc_strengths(p, 1.0)
        assert eta == pytest.approx(0.25, rel=1e-15)

    def test_negative_energy_rejected(self):
        with pytest.raises(DomainError):
            nc_strengths(make_params(), -1.0)

    @pytest.mark.parametrize("energy", [math.nan, np.array([1.0, math.nan])],
                             ids=["scalar", "array"])
    def test_nan_energy_rejected(self, energy):
        # NaN once passed the energy < 0 check and came back as (nan, nan)
        with pytest.raises(DomainError, match="non-negative, got nan"):
            nc_strengths(make_params(), energy)

    def test_zero_energy_negative_exponent_rejected(self):
        p = make_params(alpha_exp=-1.0)
        with pytest.raises(SingularityError):
            nc_strengths(p, 0.0)

    def test_monotone_in_energy_for_positive_exponents(self):
        p = make_params(alpha_exp=1.3, beta_exp=0.7)
        energies = np.linspace(0.1, 5.0, 40)
        thetas, etas = zip(*(nc_strengths(p, e) for e in energies))
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        assert all(a < b for a, b in zip(etas, etas[1:]))


class TestPlanck:
    def test_commutative_limit(self):
        c = PhysicalConstants()
        assert effective_planck(0.0, 0.0, c) == 1.0

    def test_unit_zeta_doubles(self):
        c = PhysicalConstants(hbar=1.0)
        assert effective_planck(2.0, 2.0, c) == 2.0

    def test_direct_arithmetic(self):
        c = PhysicalConstants(hbar=1.0)
        assert effective_planck(0.2, 0.1, c) == pytest.approx(1.005, abs=1e-15)

    def test_4d_zero(self):
        z = np.zeros((4, 4))
        assert effective_planck_4d(z, z, PhysicalConstants()) == 1.0

    def test_4d_embedding_trace(self):
        # single plane embedded block-diagonally: Tr(theta @ eta) = -2 theta eta
        theta, eta = 0.3, 0.7
        th = np.zeros((4, 4))
        th[0, 1], th[1, 0] = theta, -theta
        et = np.zeros((4, 4))
        et[0, 1], et[1, 0] = eta, -eta
        trace = np.trace(th @ et)
        assert trace == pytest.approx(-2.0 * theta * eta, rel=1e-15)
        c = PhysicalConstants()
        val = effective_planck_4d(th, et, c)
        assert val == pytest.approx(c.hbar * (1.0 - 2.0 * theta * eta / 4.0),
                                    rel=1e-15)
        # the per-plane coefficient is recovered from -Tr/2
        assert c.hbar * (1.0 + (-trace / 2.0) / 4.0) == pytest.approx(
            effective_planck(theta, eta, c), rel=1e-15)

    def test_4d_random_antisymmetric_matches_trace_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.normal(size=(4, 4))
            th = m - m.T
            m2 = rng.normal(size=(4, 4))
            et = m2 - m2.T
            # independent elementwise contraction
            trace = sum(th[i, j] * et[j, i] for i in range(4) for j in range(4))
            expected = 1.0 + trace / 4.0
            assert effective_planck_4d(th, et, PhysicalConstants()) == \
                pytest.approx(expected, rel=1e-13)

    def test_4d_rejects_non_antisymmetric(self):
        bad = np.eye(4)
        with pytest.raises(ValidationError):
            effective_planck_4d(bad, np.zeros((4, 4)), PhysicalConstants())


class TestKFactor:
    def test_identity_at_zero(self):
        assert k_factor(0.0, 0.0, PhysicalConstants()) == 1.0

    def test_forced_arithmetic(self):
        assert k_factor(1.0, 2.0, PhysicalConstants()) == 2.0

    def test_pole(self):
        with pytest.raises(SingularityError):
            k_factor(2.0, 2.0, PhysicalConstants())

    def test_product_identity(self):
        rng = np.random.default_rng(3)
        c = PhysicalConstants()
        for _ in range(50):
            theta, eta = rng.uniform(0.0, 1.5, size=2)
            prod = k_factor(theta, eta, c) * (1.0 - theta * eta / 4.0)
            assert prod == pytest.approx(1.0, rel=1e-15)


class TestRescaling:
    def test_zero_strengths(self):
        assert rescaled_strengths(0.0, 0.0, PhysicalConstants()) == (0, 0, 1)

    def test_unit_zeta(self):
        th, et, xi = rescaled_strengths(2.0, 2.0, PhysicalConstants())
        assert (th, et) == (1.0, 1.0)
        assert xi == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_planck_restored(self):
        rng = np.random.default_rng(11)
        c = PhysicalConstants()
        for _ in range(30):
            theta, eta = rng.uniform(0.0, 2.0, size=2)
            _, _, xi = rescaled_strengths(theta, eta, c)
            restored = c.hbar * xi ** 2 * (1.0 + theta * eta / 4.0)
            assert restored == pytest.approx(c.hbar, rel=1e-15)


class TestEffectiveCoefficients:
    def test_free_particle_reduction(self):
        p = make_params(constants={"spring_k": 0.0})
        c = effective_coefficients(p, 0.7)
        assert c.m_star == p.constants.mass
        assert c.b_h == c.b_e
        assert c.k_h == c.k_e

    def test_commutative_limit_at_zero_energy(self):
        p = make_params(constants={"spring_k": 1.0})
        c = effective_coefficients(p, 0.0)
        assert c.b_h == 0.0
        assert c.k_h == 1.0
        assert c.m_star == 1.0

    def test_nan_energy_rejected(self):
        # once every field NaN
        with pytest.raises(DomainError, match="got nan"):
            effective_coefficients(make_params(), math.nan)

    # frozen values recomputed independently from the defining formulas:
    # eta = theta = 1 at E = e_ref, so b_e = 1/(2*1*1) = 0.5,
    # k_e = 1/8 = 0.125, 1/m* = 1 + 1*1/4 = 1.25, b_h = 0.5 + 0.5 = 1.0,
    # k_h = 1 + 0.125 = 1.125
    def test_reference_point(self):
        p = make_params(alpha_exp=1.0, beta_exp=1.0,
                        constants={"spring_k": 1.0})
        c = effective_coefficients(p, 1.0)
        assert c.b_e == pytest.approx(0.5, rel=1e-15)
        assert c.k_e == pytest.approx(0.125, rel=1e-15)
        assert 1.0 / c.m_star == pytest.approx(1.25, rel=1e-15)
        assert c.b_h == pytest.approx(1.0, rel=1e-15)
        assert c.k_h == pytest.approx(1.125, rel=1e-15)

    def test_stiffening_and_mass_bounds(self):
        p = make_params(constants={"spring_k": 2.0})
        for energy in np.linspace(0.0, 3.0, 20):
            c = effective_coefficients(p, energy)
            assert c.k_h >= p.constants.spring_k
            assert c.m_star <= p.constants.mass
            assert effective_planck(*nc_strengths(p, energy),
                                    p.constants) >= p.constants.hbar

    def test_mechanism_agnostic_in_the_ratio(self):
        ec = make_params(mechanism=Mechanism.EC, e_ref=2.0)
        sqf = make_params(mechanism=Mechanism.SQF, e_ref=8.0)
        a = effective_coefficients(ec, 1.0)   # ratio 0.5
        b = effective_coefficients(sqf, 4.0)  # ratio 0.5
        assert a.b_e == b.b_e and a.k_h == b.k_h and a.m_star == b.m_star


class TestJsonRoundTrip:
    def test_round_trip(self):
        p = make_params(eta0=0.4, theta0=0.2, alpha_exp=1.5, beta_exp=2.5,
                        e_ref=3.0, mechanism=Mechanism.SQF,
                        constants={"hbar": 2.0, "mass": 0.5, "charge": 1.5,
                                   "spring_k": 0.7})
        q = params_from_json(params_to_json(p))
        assert q == p

    def test_field_names(self):
        doc = json.loads(params_to_json(make_params()))
        assert set(doc) == {"eta0", "theta0", "alpha", "beta", "e_ref",
                            "mechanism", "hbar", "mass", "charge", "spring_k"}
        assert doc["mechanism"] == "ec"

    def test_mechanism_values(self):
        for name in ("sqf", "ec", "eo_i", "eo_ii"):
            p = params_from_json(json.dumps({"mechanism": name}))
            assert p.mechanism.value == name

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            params_from_json(json.dumps({"bogus": 1}))

    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            ModelParams(e_ref=0.0)
        with pytest.raises(ValidationError):
            ModelParams(eta0=-0.1)
        with pytest.raises(ValidationError):
            PhysicalConstants(mass=0.0)

    @pytest.mark.parametrize("e_ref", [1e-320, 5e-324,
                                       math.nextafter(sys.float_info.min, 0)])
    def test_subnormal_e_ref_rejected(self, e_ref):
        # 1/e_ref overflowed in ec_default_bracket, and the CLI then said
        # "bad bracket (inf, inf)"
        with pytest.raises(ValidationError, match="e_ref"):
            ModelParams(e_ref=e_ref)
        with pytest.raises(ValidationError, match="e_ref"):
            params_from_dict({"e_ref": e_ref})
        assert ModelParams(e_ref=sys.float_info.min).e_ref \
            == sys.float_info.min

    @pytest.mark.parametrize("hbar", [1e-200, 5e-324, 1e200])
    def test_hbar_squared_outside_float_range_rejected(self, hbar):
        # hbar ** 2 once overflowed (OverflowError) or underflowed to 0
        # (ZeroDivisionError) inside effective_coefficients
        with pytest.raises(ValidationError, match="squares to"):
            PhysicalConstants(hbar=hbar)
        assert PhysicalConstants(hbar=1e-150).hbar == 1e-150
        assert PhysicalConstants(hbar=1e150).hbar == 1e150

    def test_non_finite_json_rejected(self):
        # json parses the NaN/Infinity literals; they must stop at the
        # boundary instead of surfacing later as a bracketing failure
        with pytest.raises(ValidationError, match="eta0"):
            params_from_json('{"eta0": NaN, "e_ref": 10, "spring_k": 1}')
        for field in ("eta0", "theta0", "alpha", "beta", "e_ref", "hbar",
                      "mass", "charge", "spring_k"):
            for bad in ("NaN", "Infinity", "-Infinity"):
                with pytest.raises(ValidationError):
                    params_from_json(f'{{"{field}": {bad}}}')

    @pytest.mark.parametrize("text", ["[]", '"x"', "0.5", "null"])
    def test_non_object_document_rejected(self, text):
        with pytest.raises(ValidationError, match="JSON object"):
            params_from_json(text)

    @pytest.mark.parametrize("key", ["eta0", "alpha", "e_ref", "spring_k"])
    @pytest.mark.parametrize("bad", [None, [0.5], {"v": 0.5}, "0.5", True,
                                     False])
    def test_non_numeric_field_rejected(self, key, bad):
        with pytest.raises(ValidationError, match=f"{key} must be a number"):
            params_from_dict({key: bad})

    @pytest.mark.parametrize("bad", ["xyz", "EC", None, 1, ["ec"]])
    def test_unknown_mechanism_rejected(self, bad):
        with pytest.raises(ValidationError, match="Mechanism"):
            params_from_dict({"mechanism": bad})

    def test_integers_read_as_floats(self):
        p = params_from_json('{"eta0": 1, "e_ref": 10, "spring_k": 2}')
        assert p == make_params(eta0=1.0, theta0=0.0, alpha_exp=1.0,
                                beta_exp=1.0, e_ref=10.0,
                                constants={"spring_k": 2.0})
        assert type(p.eta0) is float and type(p.constants.spring_k) is float

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="e_ref"):
            params_from_dict({"e_ref": 10 ** 400})


# Each call takes its fields through kind; with np.float64 fields it must
# raise the typed error of its Python-float twin. Arithmetic on a numpy
# scalar warns and returns inf where a float's raises (once a leaked
# RuntimeWarning), so the dataclasses store their fields as floats.
NUMPY_SCALAR_FIELDS = [
    pytest.param(lambda kind: fractional_oscillator_levels(
        FractionalOscSpec(alpha_p=kind(1.0), beta_p=kind(1e-3), d_alpha=1.0,
                          q=kind(2.0)), 1, PhysicalConstants()),
        DomainError, id="fractional_oscillator"),
    pytest.param(lambda kind: nc_strengths(
        ModelParams(eta0=1.0, alpha_exp=kind(400.0)), 1e10),
        SingularityError, id="nc_strengths"),
    pytest.param(lambda kind: nc_strengths(
        ModelParams(eta0=1.0, alpha_exp=400.0), kind(1e10)),
        SingularityError, id="nc_strengths_energy"),
    pytest.param(lambda kind: sqf_spectrum(
        ModelParams(eta0=kind(1e200), mechanism=Mechanism.SQF), 1.0,
        QuantumNumbers()), SingularityError, id="sqf_spectrum"),
    pytest.param(lambda kind: ring_levels(RingSpec(radius=kind(1e150)), 1e10,
                                          0), DomainError, id="ring_levels"),
]


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("call,error", NUMPY_SCALAR_FIELDS)
def test_numpy_scalar_fields_raise_the_typed_error(call, error, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(kind)


def test_numpy_scalar_fields_are_stored_as_floats():
    f64 = np.float64
    p = ModelParams(eta0=f64(0.1), theta0=f64(0.2), alpha_exp=f64(1.5),
                    beta_exp=f64(0.5), e_ref=f64(3.0),
                    constants=PhysicalConstants(hbar=f64(1.0), mass=f64(2.0),
                                                charge=f64(1.0),
                                                spring_k=f64(1.0)))
    spec = FractionalOscSpec(alpha_p=f64(1.0), beta_p=f64(2.0),
                             d_alpha=f64(1.0), q=f64(1.0))
    ring = RingSpec(radius=f64(1.5), flux_ext=f64(0.2), alpha_param=f64(0.9))
    for obj, names in ((p, ("eta0", "theta0", "alpha_exp", "beta_exp",
                            "e_ref")),
                       (p.constants, ("hbar", "mass", "charge", "spring_k")),
                       (spec, ("alpha_p", "beta_p", "d_alpha", "q")),
                       (ring, ("radius", "flux_ext", "alpha_param"))):
        for name in names:
            assert type(getattr(obj, name)) is float, name


# The integer rows of test_contract.SCALAR_ARGUMENTS: (call, a valid
# value, its minimum, the typed error, the name the message gives). The
# rule is params._require_int.
@pytest.mark.parametrize("call,valid,minimum,error,name", INTEGER_ROWS)
@pytest.mark.parametrize("kind", [float, np.float64, np.int64])
def test_integral_values_act_as_the_int(call, valid, minimum, error, name,
                                        kind):
    assert readable(call(kind(valid))) == readable(call(valid))


@pytest.mark.parametrize("call,valid,minimum,error,name", INTEGER_ROWS)
@pytest.mark.parametrize("bad", ["fraction", "nan", "inf", "string",
                                 "past_2**53", "below_minimum"])
def test_non_integers_raise_the_typed_error_naming_it(call, valid, minimum,
                                                      error, name, bad):
    value = {"fraction": valid + 0.5, "nan": math.nan, "inf": math.inf,
             "string": str(valid), "past_2**53": 2 ** 53 + 1,
             "below_minimum": minimum - 1}[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            call(value)
    assert caught.type is error
    assert str(caught.value).startswith(f"{name} must be an integer")

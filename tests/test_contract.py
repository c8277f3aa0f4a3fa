"""The input contract of the public API: one row per guarded argument.

SCALAR_ARGUMENTS gives, for each argument that a public function or
dataclass checks, a call taking that argument, a valid value, its domain,
the typed error raised past the domain and the name the message starts
with. A domain is one of:

* an int: an integer of at least that minimum, read by params._require_int
  (its tests are test_params.py's test_integral_values_act_as_the_int and
  test_non_integers_raise_the_typed_error_naming_it, over these rows);
* a triple such as (0.0, INF, "(]"): a real interval from low to high,
  read by params._require_real, a square bracket of the pair closed;
* the Mechanism enum, whose values stand for its members;
* a class the value must be an instance of.

Every hostile value follows from the domain: NaN, a string, None, a
complex number, an infinity the interval leaves out, an open finite end
and the double just past each finite end, or for an enum or a class a
value of neither. Each must raise the row's error with a message that
starts "<name> must be". The error is a pair (error past the doubles or
not a real, error past a finite end) where one argument has two checks.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqm import errors
from ncqm.algebra import (alternative_maps, bogoliubov_frequency,
                          build_heisenberg_rep, commutator_residuals,
                          sw_forward)
from ncqm.errors import DomainError, GridError, ValidationError
from ncqm.fractional import (PowerSeriesFn, caputo_exp, caputo_plane_wave,
                             caputo_series_derivative, grunwald_letnikov,
                             liouville_exp, plane_wave_eigenvalue,
                             riemann_liouville)
from ncqm.oracle import (fock_matrix_eigensolve, radial_fd_eigensolve,
                         self_consistent_wrap)
from ncqm.params import (Mechanism, ModelParams, PhysicalConstants,
                         effective_coefficients, effective_planck, k_factor,
                         params_to_dict, rescaled_strengths)
from ncqm.ring import RingSpec, alpha_from_theta_eta, nc_flux
from ncqm.specfun import (beta_fn, bessel_j, bessel_j_asymptotic, bessel_y,
                          gamma_fn, laguerre, log_gamma, mittag_leffler,
                          recip_gamma)
from ncqm.spectra import (FractionalOscSpec, QuantumNumbers,
                          commutative_spectrum, ec_solve_energy,
                          eo_alpha1_constraint_residual,
                          eo_alpha1_radial_params,
                          fractional_oscillator_levels, sqf_spectrum)
from ncqm.wavefunctions import (GridField, normalization_constant,
                                orthogonality_kernel, radial_bessel)

C = PhysicalConstants()
QN = QuantumNumbers()
OSC = ModelParams(eta0=0.1, theta0=0.1, e_ref=10.0,
                  constants=PhysicalConstants(spring_k=1.0))
BRACKET = (1e-3, 1e3)
REP = build_heisenberg_rep(6, C)
RING = RingSpec(radius=1.0)
SPEC = FractionalOscSpec(alpha_p=2.0, beta_p=2.0, d_alpha=1.0, q=1.0)
HALF_X2 = PowerSeriesFn(alpha_step=0.5, coeffs=(0.0, 0.0, 1.0))
FOCK = (1.0, 0.1, 1.0, C)
INF = math.inf
FINITE = (-INF, INF, "()")
POSITIVE = (0.0, INF, "()")
NON_NEGATIVE = (0.0, INF, "[)")


def identity(t):
    return t


def row(name_id, call, valid, domain, error, name):
    return pytest.param(call, valid, domain, error, name, id=name_id)


def qn(field):
    return lambda v: QuantumNumbers(**{field: v})


def radial(**kw):
    args = dict(m_star=1.0, b_field=0.0, k_elastic=1.0, m_phi=0,
                grid=(9.0, 500), count=1, richardson=False)
    return radial_fd_eigensolve(**{**args, **kw})


SCALAR_ARGUMENTS = [
    # integer rows (params._require_int)
    row("qn_n", qn("n"), 2, 0, ValidationError, "n"),
    row("qn_m_phi", qn("m_phi"), 2, 0, ValidationError, "m_phi"),
    row("qn_n_alpha", qn("n_alpha"), 2, 0, ValidationError, "n_alpha"),
    row("qn_n_beta", qn("n_beta"), 2, 0, ValidationError, "n_beta"),
    row("bessel_j", lambda v: bessel_j(v, 1.5), 2, 0, DomainError,
        "bessel_j order"),
    row("bessel_y", lambda v: bessel_y(v, 1.5), 2, 0, DomainError,
        "bessel_y order"),
    row("bessel_j_asymptotic", lambda v: bessel_j_asymptotic(v, 10.0), 2, 0,
        DomainError, "bessel_j_asymptotic order"),
    row("laguerre", lambda v: laguerre(v, 0.5, 1.5), 2, 0, DomainError,
        "laguerre n"),
    row("fractional_oscillator_levels",
        lambda v: fractional_oscillator_levels(SPEC, v, C), 2, 0,
        DomainError, "n"),
    row("build_heisenberg_rep", lambda v: build_heisenberg_rep(v, C), 6, 4,
        ValidationError, "n_trunc"),
    row("fock_n_trunc", lambda v: fock_matrix_eigensolve(v, *FOCK, 2), 24,
        20, ValidationError, "n_trunc"),
    row("fock_count", lambda v: fock_matrix_eigensolve(24, *FOCK, v), 2, 1,
        ValidationError, "count"),
    row("radial_points",
        lambda v: radial_fd_eigensolve(1.0, 0.0, 1.0, 0, (9.0, v), 2), 600,
        500, GridError, "points"),
    row("radial_count",
        lambda v: radial_fd_eigensolve(1.0, 0.0, 1.0, 0, (9.0, 600), v), 2,
        1, ValidationError, "count"),
    # params dataclasses and strengths
    row("constants_hbar", lambda v: PhysicalConstants(hbar=v), 1.0, POSITIVE,
        ValidationError, "hbar"),
    row("constants_mass", lambda v: PhysicalConstants(mass=v), 2.0,
        POSITIVE, ValidationError, "mass"),
    row("constants_charge", lambda v: PhysicalConstants(charge=v), -1.0,
        FINITE, ValidationError, "charge"),
    row("constants_spring_k", lambda v: PhysicalConstants(spring_k=v), 1.0,
        NON_NEGATIVE, ValidationError, "spring_k"),
    row("model_eta0", lambda v: ModelParams(eta0=v), 0.5, NON_NEGATIVE,
        ValidationError, "eta0"),
    row("model_theta0", lambda v: ModelParams(theta0=v), 0.5, NON_NEGATIVE,
        ValidationError, "theta0"),
    row("model_alpha_exp", lambda v: ModelParams(alpha_exp=v), 2.0, FINITE,
        ValidationError, "alpha_exp"),
    row("model_beta_exp", lambda v: ModelParams(beta_exp=v), -1.0, FINITE,
        ValidationError, "beta_exp"),
    row("model_e_ref", lambda v: ModelParams(e_ref=v), 10.0,
        (2.2250738585072014e-308, INF, "[)"), ValidationError, "e_ref"),
    row("model_mechanism_ec", lambda v: ec_solve_energy(
        QN, dataclasses.replace(OSC, mechanism=v), BRACKET), Mechanism.EC,
        Mechanism, ValidationError, "mechanism"),
    row("model_mechanism_sqf", lambda v: sqf_spectrum(
        dataclasses.replace(OSC, mechanism=v), 1.0, QN), Mechanism.SQF,
        Mechanism, ValidationError, "mechanism"),
    row("model_mechanism_dict", lambda v: params_to_dict(
        dataclasses.replace(OSC, mechanism=v)), Mechanism.EO_I, Mechanism,
        ValidationError, "mechanism"),
    row("model_constants", lambda v: effective_coefficients(
        dataclasses.replace(OSC, constants=v), 1.0), OSC.constants,
        PhysicalConstants, ValidationError, "constants"),
    row("effective_planck", lambda v: effective_planck(v, 0.5, C), 0.25,
        FINITE, DomainError, "theta"),
    row("effective_planck_eta", lambda v: effective_planck(0.25, v, C), 0.5,
        FINITE, DomainError, "eta"),
    row("k_factor", lambda v: k_factor(v, 0.5, C), 1.0, FINITE, DomainError,
        "theta"),
    row("k_factor_eta", lambda v: k_factor(0.25, v, C), 0.5, FINITE,
        DomainError, "eta"),
    row("rescaled_strengths", lambda v: rescaled_strengths(v, 0.5, C), 2.0,
        FINITE, DomainError, "theta"),
    row("rescaled_strengths_eta", lambda v: rescaled_strengths(0.25, v, C),
        0.5, FINITE, DomainError, "eta"),
    # specfun
    row("gamma_fn", gamma_fn, 3.0, (-INF, INF, "[]"), DomainError,
        "gamma_fn x"),
    row("recip_gamma", recip_gamma, 3.0, (-INF, INF, "[]"), DomainError,
        "recip_gamma x"),
    row("log_gamma", log_gamma, 3.0, (0.0, INF, "(]"), DomainError,
        "log_gamma z"),
    row("beta_fn_a", lambda v: beta_fn(v, 1.5), 2.0, (0.0, INF, "(]"),
        DomainError, "beta_fn a"),
    row("beta_fn_b", lambda v: beta_fn(1.5, v), 3.0, (0.0, INF, "(]"),
        DomainError, "beta_fn b"),
    row("bessel_j_asymptotic_x", lambda v: bessel_j_asymptotic(2, v), 10.0,
        POSITIVE, DomainError, "bessel_j_asymptotic x"),
    row("laguerre_a", lambda v: laguerre(2, v, 1.5), 2.0, (-1.0, INF, "()"),
        DomainError, "laguerre a"),
    row("mittag_leffler_alpha", lambda v: mittag_leffler(v, 1.0, 0.5), 0.5,
        POSITIVE, DomainError, "mittag_leffler alpha"),
    row("mittag_leffler_beta", lambda v: mittag_leffler(0.5, v, 0.5), 1.0,
        FINITE, DomainError, "mittag_leffler beta"),
    # fractional
    row("power_series_step", lambda v: PowerSeriesFn(v, (1.0, 2.0))(0.25),
        0.5, POSITIVE, (ValidationError, DomainError), "alpha_step"),
    row("power_series_radius", lambda v: PowerSeriesFn(
        0.5, (1.0, 2.0), radius=v)(0.25), 1.0, (0.0, INF, "(]"), DomainError,
        "radius"),
    row("power_series_x", lambda v: PowerSeriesFn(0.5, (1.0, 2.0))(v), 4.0,
        NON_NEGATIVE, DomainError, "x"),
    row("caputo_series", lambda v: caputo_series_derivative(HALF_X2, v), 1.0,
        NON_NEGATIVE, DomainError, "x"),
    row("caputo_exp_order", lambda v: caputo_exp(v, 1.0), 1.0,
        (0.0, 1.0, "(]"), DomainError, "order"),
    row("caputo_exp_x", lambda v: caputo_exp(0.5, v), 1.0, (0.0, INF, "[]"),
        DomainError, "x"),
    row("liouville_exp", lambda v: liouville_exp(v, 2.0, 1.0), 1.0, POSITIVE,
        DomainError, "order"),
    row("liouville_exp_k", lambda v: liouville_exp(0.5, v, 1.0), 2.0,
        NON_NEGATIVE, DomainError, "k"),
    row("liouville_exp_x", lambda v: liouville_exp(0.5, 2.0, v), 1.0,
        FINITE, DomainError, "x"),
    row("riemann_liouville_x", lambda v: riemann_liouville(identity, 0.5, v),
        1.0, POSITIVE, DomainError, "x"),
    row("riemann_liouville_order",
        lambda v: riemann_liouville(identity, v, 1.0), 0.5, (0.0, 2.0, "()"),
        DomainError, "order"),
    row("grunwald_letnikov_order",
        lambda v: grunwald_letnikov(identity, v, 0.01, 1e-3), 0.5, POSITIVE,
        DomainError, "order"),
    row("grunwald_letnikov_x",
        lambda v: grunwald_letnikov(identity, 0.5, v, 0.25), 1.0,
        NON_NEGATIVE, DomainError, "x"),
    row("grunwald_letnikov_step",
        lambda v: grunwald_letnikov(identity, 0.5, 0.01, v), 1e-3, POSITIVE,
        DomainError, "step"),
    row("plane_wave_order", lambda v: plane_wave_eigenvalue(v, 1.0, C), 0.5,
        POSITIVE, DomainError, "order"),
    row("plane_wave_energy", lambda v: plane_wave_eigenvalue(0.5, v, C),
        1.0, POSITIVE, DomainError, "energy"),
    row("caputo_plane_wave_order",
        lambda v: caputo_plane_wave(v, 1.0, 1.0, C), 0.5, (0.0, 1.0, "(]"),
        DomainError, "order"),
    row("caputo_plane_wave_energy",
        lambda v: caputo_plane_wave(0.5, v, 1.0, C), 1.0, FINITE,
        DomainError, "energy"),
    row("caputo_plane_wave_t", lambda v: caputo_plane_wave(0.5, 1.0, v, C),
        1.0, NON_NEGATIVE, DomainError, "t"),
    # oracle
    row("radial_m_star", lambda v: radial(m_star=v), 1.0, POSITIVE,
        ValidationError, "m_star"),
    row("radial_b_field", lambda v: radial(b_field=v), 0.1, FINITE,
        ValidationError, "b_field"),
    row("radial_k_elastic", lambda v: radial(k_elastic=v), 1.0, POSITIVE,
        ValidationError, "k_elastic"),
    row("radial_hbar", lambda v: radial(hbar=v), 1.0, POSITIVE,
        ValidationError, "hbar"),
    row("radial_r_max", lambda v: radial(grid=(v, 500)), 9.0, POSITIVE,
        ValidationError, "r_max"),
    row("fock_m_star", lambda v: fock_matrix_eigensolve(24, v, 0.1, 1.0, C,
                                                        2),
        1.0, POSITIVE, ValidationError, "m_star"),
    row("fock_b_field", lambda v: fock_matrix_eigensolve(24, 1.0, v, 1.0, C,
                                                         2),
        0.1, FINITE, ValidationError, "b_field"),
    row("fock_k_elastic", lambda v: fock_matrix_eigensolve(24, 1.0, 0.1, v,
                                                           C, 2),
        1.0, POSITIVE, ValidationError, "k_elastic"),
    row("self_consistent_tol",
        lambda v: self_consistent_wrap("radial", OSC, QN, tol=v), 1e-8,
        POSITIVE, ValidationError, "tol"),
    # algebra
    row("build_ref_frequency", lambda v: build_heisenberg_rep(
        6, C, ref_frequency=v).x.data, 1.0, POSITIVE, ValidationError,
        "ref_frequency"),
    row("sw_forward_theta",
        lambda v: commutator_residuals(sw_forward(REP, v, 0.1)), 0.2, FINITE,
        ValidationError, "theta"),
    row("sw_forward_eta",
        lambda v: commutator_residuals(sw_forward(REP, 0.2, v)), 0.1, FINITE,
        ValidationError, "eta"),
    row("alternative_maps_theta", lambda v: commutator_residuals(
        alternative_maps(REP, v, 0.1, "asym_1")), 0.2, FINITE,
        ValidationError, "theta"),
    row("alternative_maps_eta", lambda v: commutator_residuals(
        alternative_maps(REP, 0.2, v, "asym_2")), 0.1, FINITE,
        ValidationError, "eta"),
    row("bogoliubov_frequency", lambda v: bogoliubov_frequency(v, 0.5), 1.0,
        NON_NEGATIVE, DomainError, "omega"),
    row("bogoliubov_b_field", lambda v: bogoliubov_frequency(1.0, v), 0.5,
        FINITE, DomainError, "b_field"),
    # spectra
    row("fractional_osc_spec", lambda v: FractionalOscSpec(v, 2.0, 1.0, 1.0),
        1.0, POSITIVE, ValidationError, "alpha_p"),
    row("fractional_osc_beta_p",
        lambda v: FractionalOscSpec(1.0, v, 1.0, 1.0), 2.0, POSITIVE,
        ValidationError, "beta_p"),
    row("fractional_osc_d_alpha",
        lambda v: FractionalOscSpec(1.0, 2.0, v, 1.0), 1.0, POSITIVE,
        ValidationError, "d_alpha"),
    row("fractional_osc_q", lambda v: FractionalOscSpec(1.0, 2.0, 1.0, v),
        1.0, POSITIVE, ValidationError, "q"),
    row("commutative_spectrum", lambda v: commutative_spectrum(QN, v, C),
        1.0, NON_NEGATIVE, DomainError, "omega"),
    row("ec_solve_tol", lambda v: ec_solve_energy(QN, OSC, BRACKET, tol=v),
        1e-12, POSITIVE, ValidationError, "tol"),
    row("eo_alpha1_radial_energy",
        lambda v: eo_alpha1_radial_params(v, QN, 0.1, 1.0, C), 1.0, POSITIVE,
        DomainError, "energy"),
    row("eo_alpha1_radial_b_i",
        lambda v: eo_alpha1_radial_params(1.0, QN, v, 1.0, C), 0.1, FINITE,
        DomainError, "b_i"),
    row("eo_alpha1_radial_k_i",
        lambda v: eo_alpha1_radial_params(1.0, QN, 0.1, v, C), 1.0, POSITIVE,
        DomainError, "k_i"),
    row("eo_alpha1_constraint_residual",
        lambda v: eo_alpha1_constraint_residual(v, QN), 2.0, FINITE,
        DomainError, "sigma"),
    # ring
    row("ring_radius", lambda v: RingSpec(radius=v), 1.0, POSITIVE,
        ValidationError, "radius"),
    row("ring_flux_ext", lambda v: RingSpec(1.0, flux_ext=v), 0.5, FINITE,
        ValidationError, "flux_ext"),
    row("ring_alpha_param", lambda v: RingSpec(1.0, alpha_param=v), 1.0,
        (0.0, 1.0, "(]"), ValidationError, "alpha_param"),
    row("ring_constants", lambda v: RingSpec(1.0, constants=v), C,
        PhysicalConstants, ValidationError, "constants"),
    row("nc_flux_eta", lambda v: nc_flux(RING, v), 0.1, FINITE, DomainError,
        "eta"),
    row("alpha_from_theta_eta", lambda v: alpha_from_theta_eta(v, 1.0),
        0.25, NON_NEGATIVE, DomainError, "theta_eta"),
    row("alpha_from_theta_eta_hbar", lambda v: alpha_from_theta_eta(0.25, v),
        1.0, FINITE, DomainError, "hbar"),
    # wavefunctions
    row("radial_bessel_c_big", lambda v: radial_bessel(0, v, 0.5), 10.0,
        POSITIVE, DomainError, "c_big"),
    row("normalization_lambda", lambda v: normalization_constant(1, 1, v),
        0.5, POSITIVE, DomainError, "lambda_scale"),
    row("grid_spacing", lambda v: GridField(np.ones((3, 3)), spacing=v), 0.1,
        POSITIVE, ValidationError, "spacing"),
    row("orthogonality_kernel", lambda v: orthogonality_kernel(
        np.zeros(3), np.ones(3), v, 2.0), 1.0, FINITE, DomainError, "e1"),
    row("orthogonality_kernel_e2", lambda v: orthogonality_kernel(
        np.zeros(3), np.ones(3), 1.0, v), 2.0, FINITE, DomainError, "e2"),
]

NCQM_ERRORS = tuple(cls for cls in vars(errors).values()
                    if isinstance(cls, type) and issubclass(cls, Exception))


def readable(out):
    """A result as a comparable repr: arrays by their full-precision list,
    a Fock representation by its size and the diagonals of x."""
    if hasattr(out, "n_trunc"):
        out = (out.n_trunc, out.x.offsets.tolist(), out.x.data.tolist())
    return repr(out.tolist() if isinstance(out, np.ndarray) else out)


def outside(valid, domain):
    """(kind, value) pairs outside a domain that is not an integer one."""
    if isinstance(domain, type):
        return [("unknown", "xyz"), ("none", None), ("number", 1.0)]
    low, high, ends = domain
    pairs = [("nan", math.nan), ("string", str(valid)), ("none", None),
             ("complex", complex(valid))]
    if ends[0] == "(" or low > -INF:
        pairs.append(("-inf", -INF))
    if low > -INF:
        pairs.append(("below", math.nextafter(low, -INF)))
        if ends[0] == "(":
            pairs.append(("low_end", low))
    if ends[1] == ")" or high < INF:
        pairs.append(("inf", INF))
    if high < INF:
        pairs.append(("above", math.nextafter(high, INF)))
        if ends[1] == ")":
            pairs.append(("high_end", high))
    return pairs


def alternatives(valid, domain):
    """Other values that must act as valid: np.float64 of a real and the
    int it equals, or an enum member's value."""
    if isinstance(domain, tuple):
        return [np.float64(valid)] + ([int(valid)] if valid.is_integer()
                                      else [])
    return [valid.value] if domain is Mechanism else []


def expected(error, kind):
    """The row's error for a hostile value of this kind."""
    if not isinstance(error, tuple):
        return error
    return error[kind in ("below", "low_end", "above", "high_end")]


INTEGER_ROWS = [r for r in SCALAR_ARGUMENTS if type(r.values[2]) is int]
OTHER_ROWS = [r for r in SCALAR_ARGUMENTS if type(r.values[2]) is not int]

OUTSIDE_CASES = [
    pytest.param(call, value, expected(error, kind), name,
                 id=f"{r.id}-{kind}")
    for r in OTHER_ROWS
    for call, valid, domain, error, name in [r.values]
    for kind, value in outside(valid, domain)]

ALTERNATIVE_CASES = [
    pytest.param(call, valid, other, id=f"{r.id}-{type(other).__name__}")
    for r in OTHER_ROWS
    for call, valid, domain, _, _ in [r.values]
    for other in alternatives(valid, domain)]


@pytest.mark.parametrize("call,value,error,name", OUTSIDE_CASES)
def test_values_outside_the_domain_raise_the_typed_error_naming_it(
        call, value, error, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            call(value)
    assert caught.type is error
    assert str(caught.value).startswith(f"{name} must be")


@pytest.mark.parametrize("call,valid,other", ALTERNATIVE_CASES)
def test_other_forms_of_a_valid_value_act_as_it(call, valid, other):
    assert readable(call(other)) == readable(call(valid))


# Rows whose call costs time or memory in proportion to the argument: the
# Bessel series multiplies order factors, scipy's Laguerre recurrence runs
# n steps and the radial grid holds points cells, with no cap below 2**53.
# The property skips their draws past this size.
LINEAR_COST = {"bessel_j", "laguerre", "radial_points"}
LINEAR_COST_MAX = 1e4

# Rows whose function returns +-inf past the double range by contract
# (see their specfun docstrings): the property asks them for no NaN only.
INFINITE_PAST_THE_DOUBLES = {"gamma_fn", "recip_gamma", "log_gamma",
                             "beta_fn_a", "beta_fn_b"}


def numbers_in(out):
    """The floats and complex numbers a result holds, through arrays,
    sequences, dicts and dataclasses."""
    if isinstance(out, (float, complex, np.number)):
        return [complex(out)]
    if isinstance(out, np.ndarray):
        return out.astype(complex).ravel().tolist() if out.size else []
    if isinstance(out, (list, tuple)):
        return [z for item in out for z in numbers_in(item)]
    if isinstance(out, dict):
        return numbers_in(list(out.values()))
    if dataclasses.is_dataclass(out):
        return numbers_in([getattr(out, f.name)
                           for f in dataclasses.fields(out)])
    return []


def check_any_value(row_id, call, value):
    """call(value) returns a finite result, NaN-free only where
    INFINITE_PAST_THE_DOUBLES allows +-inf, or raises an ncqm.errors type;
    it raises no builtin exception and emits no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call(value)
        except NCQM_ERRORS:
            out = None
        except Exception as exc:
            raise AssertionError(f"{row_id}({value!r}) raised "
                                 f"{type(exc).__name__}: {exc}") from exc
    runtime = [str(w.message) for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, f"{row_id}({value!r}) warned {runtime}"
    held = numbers_in(out)
    assert not any(cmath.isnan(z) for z in held), f"{row_id}: {out!r}"
    if row_id not in INFINITE_PAST_THE_DOUBLES:
        assert all(cmath.isfinite(z) for z in held), f"{row_id}: {out!r}"


# Each example applies its draw, and np.float64 of it, to every row.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(draw=st.floats())
def test_any_float_gives_a_finite_result_or_a_typed_error(draw):
    for r in SCALAR_ARGUMENTS:
        if r.id in LINEAR_COST and abs(draw) > LINEAR_COST_MAX:
            continue
        for value in (draw, np.float64(draw)):
            check_any_value(r.id, r.values[0], value)

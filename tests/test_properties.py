"""Property tests of the root kernel (geometric scan + Brent refinement,
with scipy's brentq as the reference for the Brent step), of the
self-consistent oracle (with scipy's secant as the reference for its
secant), and of parameter-wide invariants of the
algebra, the SQF spectrum and the ring.

Oscillator parameters are drawn from the ranges of the benchmark pool, in
which every default-table level is bound. Examples are derandomized so
that the suite checks the same draws on every run.
"""

import dataclasses
import math
import sys
import types
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.optimize import brentq, root_scalar  # noqa: E402

from ncqm.errors import (BracketingError, ConvergenceError,  # noqa: E402
                         DomainError)
from ncqm.algebra import (build_heisenberg_rep, sw_forward,  # noqa: E402
                          sw_inverse)
from ncqm.oracle import (_frozen_level, _secant,  # noqa: E402
                         radial_fd_eigensolve, self_consistent_wrap)
from ncqm.params import (EffectiveCoefficients, Mechanism,  # noqa: E402
                         ModelParams, PhysicalConstants,
                         effective_coefficients, k_factor, params_from_dict,
                         params_from_json, params_to_dict, params_to_json)
from ncqm.ring import (RingSpec, ground_level_index,  # noqa: E402
                       ground_persistent_current, nc_flux, persistent_current,
                       ring_levels)
from ncqm.spectra import (_RTOL_FLOOR, BRENT_MAX_ITER,  # noqa: E402
                          SCAN_PER_DECADE, QuantumNumbers, brent_root,
                          commutative_spectrum, ec_default_bracket,
                          ec_free_energy_closed, ec_quantization_residual,
                          ec_solve_energy, scan_grid, sign_change_brackets,
                          sqf_spectrum)
from ncqm.verify import ROOT_VS_ORACLE_TOL  # noqa: E402

TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             derandomize=True, database=None)

strength = st.floats(0.05, 0.2)
exponent = st.floats(0.75, 1.25)
level_index = st.integers(0, 3)


@st.composite
def ec_oscillators(draw):
    p = ModelParams(eta0=draw(strength), theta0=draw(strength),
                    alpha_exp=draw(exponent), beta_exp=draw(exponent),
                    e_ref=draw(st.floats(5.0, 20.0)), mechanism=Mechanism.EC,
                    constants=PhysicalConstants(
                        spring_k=draw(st.floats(0.5, 2.0))))
    return p, QuantumNumbers(n=draw(level_index), m_phi=draw(level_index))


@st.composite
def ec_free_particles(draw):
    p = ModelParams(eta0=draw(st.floats(0.05, 2.0)), theta0=0.1,
                    alpha_exp=draw(st.floats(1.5, 3.0)),
                    e_ref=draw(st.floats(0.5, 20.0)), mechanism=Mechanism.EC)
    return p, QuantumNumbers(n=draw(level_index), m_phi=draw(level_index))


def default_scan(bracket):
    """The grid size ec_solve_energy scans a bracket with, and its points,
    rebuilt independently."""
    lo, hi = bracket
    n_pts = max(2, int(math.log10(hi / lo) * SCAN_PER_DECADE))
    return n_pts, lo * ((hi / lo) ** (1.0 / n_pts)) ** np.arange(n_pts + 1)


@PROPERTY_SETTINGS
@given(ec_oscillators())
def test_root_is_the_first_sign_change_within_tol(case):
    p, qn = case
    bracket = ec_default_bracket(qn, p)
    res = ec_solve_energy(qn, p, bracket, tol=TOL)
    energy = res.energy

    def f(e):
        return ec_quantization_residual(e, qn, p)

    assert abs(res.residual) <= TOL
    assert abs(f(energy)) <= TOL
    assert f(energy * (1.0 - 1e-9)) * f(energy * (1.0 + 1e-9)) < 0
    below = np.array([f(e) for e in default_scan(bracket)[1] if e < energy])
    assert len(below) > 0
    assert np.all(below != 0.0)
    assert np.all(np.sign(below) == np.sign(below[0]))


@PROPERTY_SETTINGS
@given(eta0=st.floats(0.05, 2.0), alpha=st.floats(1.5, 3.0),
       e_ref=st.floats(0.5, 20.0), n=level_index, m_phi=level_index)
def test_free_closed_form_equals_root(eta0, alpha, e_ref, n, m_phi):
    # the level bracket 2n + (1 - sqrt 2) m_phi + 1 must stay positive
    assume(2 * n + (1.0 - math.sqrt(2.0)) * m_phi + 1.0 > 0)
    p = ModelParams(eta0=eta0, theta0=0.1, alpha_exp=alpha, e_ref=e_ref,
                    mechanism=Mechanism.EC)
    qn = QuantumNumbers(n=n, m_phi=m_phi)
    closed = ec_free_energy_closed(qn, p)
    root = ec_solve_energy(qn, p, (closed / 1e4, closed * 1e4), tol=TOL)
    assert root.energy == pytest.approx(closed, rel=1e-9)


def scalar_scan_brackets(values):
    """Index brackets of a point-by-point scan: a zero sample opens (i, i),
    a strict sign change between finite neighbours opens (i, i + 1)."""
    found = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            found.append((i, i))
        elif math.isfinite(a) and math.isfinite(b) and (a < 0 < b
                                                        or b < 0 < a):
            found.append((i, i + 1))
    return found


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0,
                                 math.nan, math.inf, -math.inf, 1e-200,
                                 -1e-200, 1e200, -1e200]), max_size=12))
def test_bracket_rule_matches_scalar_scan(values):
    assert sign_change_brackets(values) == scalar_scan_brackets(values)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(st.one_of(ec_oscillators(), ec_free_particles()))
def test_array_scan_matches_scalar_scan(case):
    p, qn = case
    lo, hi = ec_default_bracket(qn, p)
    n_pts, grid = default_scan((lo, hi))
    assert np.array_equal(scan_grid(lo, hi, n_pts, np.arange(n_pts + 1)),
                          grid)
    values = ec_quantization_residual(grid, qn, p)
    assert values.shape == grid.shape
    hbar = p.constants.hbar
    # every coefficient of the array call, and the omega_h computed from
    # them, is the scalar call's within a few ulp (numpy's and libm's pow
    # may round the strengths differently)
    coeffs = effective_coefficients(p, grid)
    points = [effective_coefficients(p, e) for e in grid.tolist()]
    names = [f.name for f in dataclasses.fields(EffectiveCoefficients)]
    for name in [*names, "omega_h"]:
        column = getattr(coeffs, name)
        assert column.shape == grid.shape, name
        np.testing.assert_allclose(
            column, [getattr(c, name) for c in points],
            rtol=8.0 * sys.float_info.epsilon, atol=0.0, err_msg=name)
    scalar = []
    for e, v, coeff in zip(grid.tolist(), values.tolist(), points):
        lhs = hbar / math.sqrt(coeff.m_star) * qn.radial_weight
        rhs = (e + qn.m_phi * hbar * coeff.b_h) / math.sqrt(coeff.k_h)
        s = ec_quantization_residual(e, qn, p)
        assert abs(v - s) <= 4.0 * sys.float_info.epsilon * (abs(lhs)
                                                              + abs(rhs))
        scalar.append(s)
    assert sign_change_brackets(values) == scalar_scan_brackets(scalar)


def brentq_info(f, bracket):
    """scipy's brentq at brent_root's tolerances and budget."""
    _, info = brentq(f, *bracket, xtol=sys.float_info.min, rtol=_RTOL_FLOOR,
                     maxiter=BRENT_MAX_ITER, full_output=True, disp=False)
    return info


def assert_brentq_steps(f, bracket):
    """brent_root ends where brentq ends, after as many iterations and
    calls, or raises ConvergenceError where brentq runs out of budget.
    Returns whether brentq converged."""
    info = brentq_info(f, bracket)
    if not info.converged:
        with pytest.raises(ConvergenceError):
            brent_root(f, bracket)
        return False
    res = brent_root(f, bracket)
    assert (res.root, res.iterations, res.function_calls) == \
        (info.root, info.iterations, info.function_calls)
    assert res.residual == f(res.root)
    return True


@PROPERTY_SETTINGS
@given(st.one_of(ec_oscillators(), ec_free_particles()))
def test_brent_root_takes_brentqs_steps_on_level_brackets(case):
    # every sign change the scan of ec_solve_energy sees: the level's
    # bracket and those of the spurious high-energy branch
    p, qn = case
    lo, hi = ec_default_bracket(qn, p)
    n_pts, grid = default_scan((lo, hi))
    brackets = sign_change_brackets(ec_quantization_residual(grid, qn, p))
    # a free level with 2n + (1 - sqrt 2) m_phi + 1 <= 0 is not bound
    assume(brackets)

    def f(e):
        return ec_quantization_residual(e, qn, p)

    for ij in brackets:
        chosen = tuple(scan_grid(lo, hi, n_pts, i) for i in ij)
        assert assert_brentq_steps(f, chosen)
    first = tuple(scan_grid(lo, hi, n_pts, i) for i in brackets[0])
    assert ec_solve_energy(qn, p, (lo, hi)).energy == \
        brentq_info(f, first).root


@PROPERTY_SETTINGS
@given(root=st.floats(-10.0, 10.0), left=st.floats(1e-6, 10.0),
       right=st.floats(1e-6, 10.0), power=st.floats(0.2, 5.0),
       tilt=st.sampled_from([0.0, 1e-3, 1.0]),
       scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]),
       sign=st.sampled_from([-1.0, 1.0]))
def test_brent_root_takes_brentqs_steps_on_monotone_functions(
        root, left, right, power, tilt, scale, sign):
    def f(x):
        d = x - root
        return sign * scale * (math.copysign(abs(d) ** power, d) + tilt * d)

    assert_brentq_steps(f, (root - left, root + right))


@pytest.mark.parametrize("bracket", [(1.0, 2.0), (0.0, 1.0)])
def test_brent_root_exact_zero_endpoint(bracket):
    def f(x):
        return x - 1.0

    res = brent_root(f, bracket)
    assert (res.root, res.iterations, res.function_calls, res.residual) == \
        (1.0, 0, 2, 0.0)
    # brentq returns before it sets its iteration count, so only the root
    # and the two endpoint calls are compared
    info = brentq_info(f, bracket)
    assert info.converged
    assert (info.root, info.function_calls) == (1.0, 2)


def test_brent_root_budget_runs_out_without_a_root():
    # a sign change with no root: the bracket halves towards 0 until the
    # budget is spent, where brentq reports no convergence
    calls = []

    def f(x):
        calls.append(x)
        return math.copysign(1.0, x)

    assert not brentq_info(f, (-1.0, 2.0)).converged
    calls.clear()
    with pytest.raises(ConvergenceError, match=f"{BRENT_MAX_ITER} iterations"):
        brent_root(f, (-1.0, 2.0))
    assert len(calls) == 2 + BRENT_MAX_ITER


def test_brent_root_refuses_same_sign_and_nan():
    with pytest.raises(BracketingError, match="same sign"):
        brent_root(lambda x: x * x + 1.0, (-1.0, 2.0))
    with pytest.raises(DomainError, match="NaN"):
        brent_root(lambda x: math.nan, (-1.0, 2.0))
    with pytest.raises(DomainError, match="NaN"):  # NaN inside the bracket
        brent_root(lambda x: x if abs(x) > 0.1 else math.nan, (-1.0, 2.0))


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(eta0=st.floats(0.3, 3.0),
       alpha=st.one_of(st.floats(0.5, 0.9), st.floats(1.5, 3.0)),
       e_ref=st.floats(0.5, 5.0), n=level_index, m_phi=level_index)
def test_radial_self_consistent_matches_free_closed_form(eta0, alpha, e_ref,
                                                         n, m_phi):
    # the level is a power of E, so the secant on ln E reaches it even
    # where the root lies decades from the scale it starts at
    assume(2 * n + (1.0 - math.sqrt(2.0)) * m_phi + 1.0 > 0)
    p = ModelParams(eta0=eta0, alpha_exp=alpha, beta_exp=alpha, e_ref=e_ref,
                    mechanism=Mechanism.EC)
    qn = QuantumNumbers(n=n, m_phi=m_phi)
    assert self_consistent_wrap("radial", p, qn, tol=1e-9) == pytest.approx(
        ec_free_energy_closed(qn, p), rel=ROOT_VS_ORACLE_TOL)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(case=ec_oscillators(), mass=st.floats(math.exp(-5.0), math.exp(5.0)),
       hbar=st.floats(math.exp(-3.0), math.exp(3.0)),
       energy=st.floats(0.1, 100.0), sign=st.sampled_from([1, -1]))
def test_rescaled_radial_level_matches_physical_solve(case, mass, hbar,
                                                      energy, sign):
    # the frozen level, a unit level times hbar omega_h, equals the
    # finite-volume solve at the physical coefficients on the grid
    # r_max = max(sqrt(2.2 ln 1e8 / lambda), 3 sqrt((2n + |m| + 2)/lambda))
    p, qn = case
    k = p.constants.spring_k
    p = dataclasses.replace(p, constants=PhysicalConstants(
        hbar=hbar, mass=mass, spring_k=k))
    # QuantumNumbers takes m_phi >= 0; the frozen level reads n and m_phi
    qn = types.SimpleNamespace(n=qn.n, m_phi=sign * qn.m_phi)
    coeff = effective_coefficients(p, energy)
    lam = math.sqrt(coeff.m_star * coeff.k_h) / hbar
    r_max = max(math.sqrt(2.2 * math.log(1e8) / lam),
                3.0 * math.sqrt((2 * qn.n + abs(qn.m_phi) + 2) / lam))
    physical = radial_fd_eigensolve(coeff.m_star, coeff.b_h, coeff.k_h,
                                    qn.m_phi, (r_max, 1200), qn.n + 1,
                                    hbar=hbar)[qn.n]
    assert abs(_frozen_level(p, qn, energy, "radial") - physical) <= \
        1e-9 * hbar * coeff.omega_h


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(ec_oscillators())
def test_radial_self_consistent_matches_root(case):
    # the secant solve of E = level(E) on frozen radial solves reaches the
    # root of the quantization condition (about 15 ms a level)
    p, qn = case
    root = ec_solve_energy(qn, p, ec_default_bracket(qn, p)).energy
    assert self_consistent_wrap("radial", p, qn) == pytest.approx(root,
                                                                  rel=1e-6)


def assert_secant_steps(f, x0, x1, tol):
    """_secant ends where scipy's secant ends (root_scalar at rtol 0 and
    its default budget of 50 steps), bit for bit, after as many steps and
    calls of f, with the same outcome, and emits no warning where scipy's
    stall warns. Returns the outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # "Tolerance of"
        info = root_scalar(f, x0=x0, x1=x1, method="secant", xtol=tol,
                           rtol=0.0)
    calls = []

    def counted(u):
        calls.append(u)
        return f(u)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root, steps, status = _secant(counted, x0, x1, tol)
    assert float(root).hex() == float(info.root).hex()
    assert (steps, len(calls), status == "converged") == \
        (info.iterations, info.function_calls, info.converged)
    return status


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(ec_oscillators(), st.sampled_from([1e-6, 1e-8, 1e-12]))
def test_secant_takes_scipys_steps_on_oscillator_levels(case, tol):
    # h(u) = u - ln level(e^u) from the start self_consistent_wrap takes:
    # ln scale and ln level(scale)
    p, qn = case
    c = p.constants
    scale = max(c.hbar * max(c.omega, 1.0 / p.e_ref) * qn.radial_weight,
                1e-6 * p.e_ref)

    def h(u):
        return u - math.log(_frozen_level(p, qn, math.exp(u), "radial"))

    x0 = math.log(scale)
    assert assert_secant_steps(h, x0, x0 - h(x0), tol) == "converged"


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(["linear", "exponential", "flat", "parabola"]),
       a=st.floats(0.1, 10.0), b=st.floats(-10.0, 10.0),
       x0=st.floats(-5.0, 5.0), dx=st.floats(1e-3, 5.0),
       sign=st.sampled_from([-1.0, 1.0]),
       tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_secant_takes_scipys_steps_on_closed_forms(kind, a, b, x0, dx, sign,
                                                  tol):
    # linear and exponential functions have a root, a flat one stalls at
    # the first step, and a parabola above zero has no root: on these
    # draws it runs out of budget
    def f(x):
        if kind == "linear":
            return sign * a * x + b
        if kind == "exponential":
            return math.exp(max(-50.0, min(a * x, 50.0))) - abs(b) - 0.1
        if kind == "flat":
            return b
        return (x - b) * (x - b) + a

    status = assert_secant_steps(f, x0, x0 + sign * dx, tol)
    if kind == "linear":
        assert status == "converged"
    if kind == "flat":
        assert status == "stalled"


def test_secant_stops_at_a_step_of_exactly_xtol():
    # the start swap makes 0.5 the last point; the first step on f(x) = x
    # lands on the root 0, exactly xtol = 0.5 from it, and stops there
    assert assert_secant_steps(lambda x: x, 0.5, 0.25, 0.5) == "converged"


@PROPERTY_SETTINGS
@given(theta=st.floats(0.0, 4.0), eta=st.floats(0.0, 4.0),
       hbar=st.floats(0.5, 2.0))
def test_k_factor_inverts_one_minus_zeta(theta, eta, hbar):
    c = PhysicalConstants(hbar=hbar)
    zeta = theta * eta / (4.0 * hbar ** 2)
    assume(zeta != 1.0)
    assert k_factor(theta, eta, c) * (1.0 - zeta) == pytest.approx(
        1.0, rel=4.0 * sys.float_info.epsilon)


FOCK = build_heisenberg_rep(8, PhysicalConstants())


@PROPERTY_SETTINGS
@given(theta=st.floats(0.0, 1.5), eta=st.floats(0.0, 1.5))
def test_exact_k_round_trip(theta, eta):
    back = sw_inverse(sw_forward(FOCK, theta, eta), exact_k=True)
    for key in ("x", "y", "px", "py"):
        ref = getattr(FOCK, key)
        err = (back[key] - ref).abs_max() / ref.abs_max()
        assert err <= 1e-12


@PROPERTY_SETTINGS
@given(eta0=st.floats(0.05, 2.0), theta0=st.floats(0.05, 2.0),
       alpha=st.floats(0.5, 3.0), beta=st.floats(0.5, 3.0),
       e_ref=st.floats(0.5, 20.0),
       spring_k=st.one_of(st.just(0.0), st.floats(0.5, 2.0)),
       n_alpha=level_index, n_beta=level_index)
def test_sqf_oscillator_tends_to_commutative(eta0, theta0, alpha, beta,
                                             e_ref, spring_k, n_alpha,
                                             n_beta):
    # every coefficient grows with the fluctuation scale eps, so the level
    # falls monotonically onto the commutative one as eps -> 0; for the
    # free particle (spring_k = 0) that is 0, approached as eps^alpha
    c = PhysicalConstants(spring_k=spring_k)
    p = ModelParams(eta0=eta0, theta0=theta0, alpha_exp=alpha,
                    beta_exp=beta, e_ref=e_ref, mechanism=Mechanism.SQF,
                    constants=c)
    qn = QuantumNumbers(n_alpha=n_alpha, n_beta=n_beta)
    e_com = commutative_spectrum(QuantumNumbers(m_phi=n_alpha + n_beta),
                                 c.omega, c)
    levels = [sqf_spectrum(p, eps * e_ref, qn)
              for eps in (1.0, 1e-2, 1e-4, 1e-8, 1e-16)]
    assert all(a >= b >= e_com for a, b in zip(levels, levels[1:]))
    if spring_k == 0.0:
        assert levels[-1] == pytest.approx(levels[0] * 1e-16 ** alpha,
                                           rel=1e-12)
    else:
        assert levels[-1] == pytest.approx(e_com, rel=1e-7)
    assert sqf_spectrum(p, 0.0, qn) == e_com


def ring_at(frac, radius, alpha):
    base = RingSpec(radius=radius, alpha_param=alpha)
    return RingSpec(radius=radius, alpha_param=alpha,
                    flux_ext=frac * base.flux_quantum)


@PROPERTY_SETTINGS
@given(frac=st.floats(-1.0, 1.0), eta=st.floats(0.0, 0.5),
       radius=st.floats(0.5, 2.0), alpha=st.floats(0.5, 1.0),
       l=st.integers(-3, 3))
def test_ring_periodic_in_flux_quantum(frac, eta, radius, alpha, l):
    # one flux quantum more relabels l -> l - 1 and changes nothing else
    here, there = ring_at(frac, radius, alpha), ring_at(frac + 1.0, radius,
                                                          alpha)
    fields = nc_flux(here, eta)
    shift = abs(frac) + 1.0 + abs(fields.phi_nc / fields.flux_quantum)
    kin = here.constants.hbar ** 2 / (here.m_star * radius ** 2)
    slack = 16.0 * sys.float_info.epsilon * shift
    assert ring_levels(there, eta, l - 1) == pytest.approx(
        ring_levels(here, eta, l), abs=kin * slack * (abs(l) + shift))
    assert persistent_current(there, eta, l - 1) == pytest.approx(
        persistent_current(here, eta, l), abs=kin / fields.flux_quantum
        * slack)
    # the ground branch switches at half-integer shifts; stay off them
    offset = (here.flux_ext - fields.phi_nc) / fields.flux_quantum
    assume(abs(abs(offset % 1.0) - 0.5) > 1e-9)
    assert ground_level_index(there, eta) == ground_level_index(here, eta) - 1
    assert ground_persistent_current(there, eta) == pytest.approx(
        ground_persistent_current(here, eta),
        abs=kin / fields.flux_quantum * slack)


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@PROPERTY_SETTINGS
@given(st.builds(ModelParams, eta0=non_negative, theta0=non_negative,
                 alpha_exp=finite, beta_exp=finite,
                 # e_ref must be a normal double, hbar^2 a positive one
                 e_ref=st.floats(sys.float_info.min, allow_infinity=False),
                 mechanism=st.sampled_from(Mechanism),
                 constants=st.builds(PhysicalConstants,
                                     hbar=st.floats(1e-161, 1e154),
                                     mass=positive, charge=finite,
                                     spring_k=non_negative)))
def test_config_document_round_trip(p):
    assert params_from_dict(params_to_dict(p)) == p
    assert params_from_json(params_to_json(p)) == p

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

The cross-check routes and their tolerances are those of ncqm.verify, run
here on wider samples. Every tolerance is fixed in code, not tuned.
"""

import math
import re

import numpy as np
import pytest
from scipy import integrate

from ncqm import verify
from ncqm.errors import DomainError
from ncqm.params import Mechanism, ModelParams, PhysicalConstants
from ncqm.fractional import grunwald_letnikov
from ncqm.ring import RingSpec
from ncqm.spectra import (FractionalOscSpec, QuantumNumbers,
                          commutative_spectrum, ec_oscillator_first_order,
                          ec_solve_energy, fractional_oscillator_levels,
                          sqf_spectrum)
from ncqm.specfun import laguerre, log_gamma
from ncqm.wavefunctions import normalization_constant, radial_laguerre


def report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# --- 1: algebra fidelity ---------------------------------------------------

def test_criterion_1_algebra_fidelity():
    tol = verify.COMMUTATOR_TOL
    n_trunc = 30
    rng = np.random.default_rng(2024)
    pairs = rng.uniform(1e-3, 1.0, size=(50, 2))
    # all six mapped commutators of every pair, by direct products
    worst = max(verify.sw_commutator_residuals(n_trunc, pairs))
    ok = worst <= tol
    report(1, "algebra fidelity", ok,
           f"50 pairs, n_trunc={n_trunc}: max interior residual "
           f"{worst:.3e} over six commutators (tol {tol:g})")


# --- 2: round trip ---------------------------------------------------------

def test_criterion_2_round_trip():
    trips = verify.sw_round_trip(24, ((0.1, 0.05), (0.02, 0.02), (0.5, 0.3)))
    worst_exact = max(err for err, _, _ in trips)
    ratios = [rel / zeta for _, rel, zeta in trips]
    lo, hi = verify.ROUND_TRIP_BAND
    ok = (worst_exact <= verify.ROUND_TRIP_TOL and lo <= min(ratios)
          and max(ratios) <= hi)
    report(2, "round trip", ok,
           f"exact-k absolute error {worst_exact:.3e}; k~1 error / zeta in "
           f"[{min(ratios):.3f}, {max(ratios):.3f}]")


# --- 3: EC spectrum consistency ---------------------------------------------

def test_criterion_3_ec_spectrum_consistency():
    # (a) root-found vs closed form on a 20+ point grid over alpha
    closed = verify.ec_closed_vs_root((1.5, 2.0, 3.0), (0.6, 1.3), (1.0, 2.5),
                                      ((0, 0), (1, 1)))
    # (b) seven oscillator levels, the lowest six among them, vs the oracle
    p = ModelParams(eta0=0.1, theta0=0.1, alpha_exp=1.0, beta_exp=1.0,
                    e_ref=10.0, mechanism=Mechanism.EC,
                    constants=PhysicalConstants(spring_k=1.0))
    worst_oracle = max(verify.ec_root_vs_oracle(
        p, ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (0, 3), (2, 0))))
    ok = (max(closed) <= verify.CLOSED_VS_ROOT_TOL
          and worst_oracle <= verify.ROOT_VS_ORACLE_TOL and len(closed) >= 20)
    report(3, "EC spectrum consistency", ok,
           f"closed form vs root on {len(closed)}-point grid: "
           f"{max(closed):.3e}; 7 oscillator levels vs self-consistent "
           f"oracle: {worst_oracle:.3e}")


# --- 4: commutative recovery -------------------------------------------------

def test_criterion_4_commutative_recovery():
    c = PhysicalConstants(spring_k=1.0)
    # EC root finder and SQF oscillator, zero strengths: exact equality
    exact_hits = [m == e for m, e in verify.commutative_recovery(
        c, ((0, 0), (1, 2), (3, 1)), 0.8, ((0, 0), (2, 0), (5, 0)))]
    # EC first order, zero strengths (value in units of e_ref)
    p_fo = ModelParams(eta0=0.0, theta0=0.0, e_ref=7.0,
                       mechanism=Mechanism.EC, constants=c)
    qn = QuantumNumbers(1, 1)
    exact_hits.append(
        ec_oscillator_first_order(qn, p_fo) * 7.0
        == commutative_spectrum(qn, c.omega, c))
    # SQF free, zero strengths
    p_free = ModelParams(eta0=0.0, theta0=0.0, mechanism=Mechanism.SQF)
    exact_hits.append(
        sqf_spectrum(p_free, 1.0, QuantumNumbers(n_alpha=2)) == 0.0)
    # small-ratio regime: E/E0 = 1e-6 with alpha = beta = 1
    qn = QuantumNumbers(0, 1)
    e_com = commutative_spectrum(qn, c.omega, c)
    p_small = ModelParams(eta0=0.5, theta0=0.5, alpha_exp=1.0, beta_exp=1.0,
                          e_ref=e_com * 1e6, mechanism=Mechanism.EC,
                          constants=c)
    root = ec_solve_energy(qn, p_small, (e_com * 1e-3, e_com * 1e3),
                           tol=1e-14).energy
    small_dev = abs(root - e_com) / e_com
    ratio = root / p_small.e_ref
    ok = all(exact_hits) and small_dev <= 1e-5 and ratio < 2e-6
    report(4, "commutative recovery", ok,
           f"{len(exact_hits)} exact-equality checks "
           f"{'all hold' if all(exact_hits) else 'FAILED'}; at E/E0 = "
           f"{ratio:.2e} the relative deviation is {small_dev:.3e} "
           "(tol 1e-5)")


# --- 5: wave-function verification -------------------------------------------

_D1 = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3]) / 840.0
_D2 = np.array([-9, 128, -1008, 8064, -14350, 8064, -1008, 128, -9]) / 5040.0


def test_criterion_5_wavefunctions():
    # collocation residual of the bound branch over n, m_phi <= 4
    worst_ode = 0.0
    h = 2e-3
    for n in range(5):
        for m_phi in range(5):
            c_big = 2.0 * (2 * n + m_phi + 1)
            for xi in np.linspace(0.1, 6.0, 25):
                vals = np.array([radial_laguerre(n, m_phi, xi + k * h)
                                 for k in range(-4, 5)])
                d1 = float(_D1 @ vals) / h
                d2 = float(_D2 @ vals) / (h * h)
                r_val = vals[4]
                resid = (xi * xi * d2 + xi * d1
                         + (c_big * xi * xi - xi ** 4 - m_phi ** 2) * r_val)
                scale = max(1.0, abs(xi * xi * d2) + abs(xi * d1)
                            + abs((c_big * xi * xi - xi ** 4
                                   - m_phi ** 2) * r_val))
                worst_ode = max(worst_ode, abs(resid) / scale)
    # normalized densities integrate to one
    worst_norm = 0.0
    lam = 1.3
    for n in range(5):
        for m_phi in range(5):
            amp = normalization_constant(n, m_phi, lam)
            val, _ = integrate.quad(
                lambda r, n=n, m=m_phi: (amp * radial_laguerre(
                    n, m, math.sqrt(lam) * r)) ** 2 * r,
                0.0, np.inf, limit=300)
            worst_norm = max(worst_norm, abs(val - 1.0))
    # orthonormalization identity (n+a)!/n! by quadrature
    worst_identity = 0.0
    for n in range(6):
        for a in (0, 1, 2):
            val, _ = integrate.quad(
                lambda x, n=n, a=a: math.exp(-x) * x ** a
                * laguerre(n, a, x) ** 2, 0.0, np.inf, limit=300)
            expected = math.exp(log_gamma(n + a + 1.0) - log_gamma(n + 1.0))
            worst_identity = max(worst_identity,
                                 abs(val - expected) / expected)
    ok = worst_ode <= 1e-8 and worst_norm <= 1e-8 and worst_identity <= 1e-8
    report(5, "wave functions", ok,
           f"ODE collocation residual {worst_ode:.3e} (tol 1e-8); "
           f"norm deviation {worst_norm:.3e} (tol 1e-8); Laguerre identity "
           f"deviation {worst_identity:.3e} (tol 1e-8)")


# --- 6: fractional operators --------------------------------------------------

def test_criterion_6_fractional_operators():
    # half-derivative of x, 2 sqrt(x/pi), by series and GL(Richardson)
    half = verify.half_derivative_of_x((0.25, 1.0, 2.0, 4.0), 1e-3)
    worst_series = max(abs(series - exact) for series, _, exact in half)
    gl_rich = max(abs(gl - exact) for _, gl, exact in half)
    # GL route without extrapolation: O(h) error decay
    exact = 2.0 / math.sqrt(math.pi)
    e1 = abs(grunwald_letnikov(lambda t: t, 0.5, 1.0, 2e-3) - exact)
    e2 = abs(grunwald_letnikov(lambda t: t, 0.5, 1.0, 1e-3) - exact)
    gl_linear = 1.6 <= e1 / e2 <= 2.4
    # caputo_exp against its defining series for x <= 10
    worst_caputo = max(verify.caputo_exp_deviations(
        (0.25, 0.5, 0.75), (0.5, 2.0, 5.0, 10.0)))
    # plane-wave eigenvalue at integer orders
    _, _, dev1, dev2 = verify.plane_wave_integer_orders(3.0)
    integers_ok = dev1 == 0.0 and dev2 < verify.PLANE_WAVE_TOL
    ok = (worst_series <= verify.HALF_DERIVATIVE_TOL and gl_linear
          and gl_rich <= verify.GL_RICHARDSON_TOL
          and worst_caputo <= verify.CAPUTO_EXP_TOL and integers_ok)
    report(6, "fractional operators", ok,
           f"series half-derivative error {worst_series:.3e}; GL error ratio "
           f"{e1 / e2:.2f} (O(h)), Richardson residual {gl_rich:.3e}; "
           f"caputo_exp vs series {worst_caputo:.3e}; integer orders exact: "
           f"{integers_ok}")


# --- 7: fractional-oscillator levels -----------------------------------------

def test_criterion_7_fractional_oscillator():
    c = PhysicalConstants()
    rng = np.random.default_rng(5)
    worst_ratio = 0.0
    for _ in range(20):
        a, b = rng.uniform(0.5, 3.0, size=2)
        spec = FractionalOscSpec(alpha_p=a, beta_p=b,
                                 d_alpha=rng.uniform(0.2, 2.0),
                                 q=rng.uniform(0.2, 2.0))
        expo = a * b / (a + b)
        for n in range(4):
            ratio = (fractional_oscillator_levels(spec, n + 1, c)
                     / fractional_oscillator_levels(spec, n, c))
            worst_ratio = max(worst_ratio, abs(
                ratio - ((n + 1.5) / (n + 0.5)) ** expo))
    # exponent law: alpha = beta = 2 gives a strictly linear ladder
    spec = FractionalOscSpec(alpha_p=2.0, beta_p=2.0, d_alpha=0.5,
                             q=math.sqrt(0.5))
    ladder = [fractional_oscillator_levels(spec, n, c) for n in range(6)]
    gaps = np.diff(ladder)
    linear = float(np.max(np.abs(gaps - gaps[0])))
    # prefactor beta function against independent quadrature
    _, _, beta_dev = verify.beta_vs_quadrature(0.5, 1.5)
    ok = (worst_ratio <= 1e-12 and linear <= 1e-12
          and beta_dev <= verify.BETA_QUADRATURE_TOL)
    report(7, "fractional oscillator", ok,
           f"ratio-law deviation {worst_ratio:.3e} (exact); ladder "
           f"linearity at unit exponent {linear:.3e}; prefactor beta vs "
           f"quadrature {beta_dev:.3e}")


def test_beta_route_on_the_half_integer_grid():
    # the Gauss-Legendre route against scipy's beta on every pair of its
    # envelope a, b in {1/2, 1, ..., 20}
    from scipy import special
    halves = [k / 2 for k in range(1, 2 * verify.BETA_GRID_MAX + 1)]
    worst = 0.0
    for a in halves:
        for b in halves:
            _, quad, _ = verify.beta_vs_quadrature(a, b)
            ref = special.beta(a, b)
            worst = max(worst, abs(quad - ref) / ref)
    assert worst <= verify.BETA_QUADRATURE_TOL, worst


@pytest.mark.parametrize("a,b", [
    (0.3, 2.2), (0.0, 1.5), (1.5, 0.0), (-0.5, 1.0), (1.0, -2.0),
    (math.nan, 1.5), (1.5, math.nan), (20.5, 1.0), (math.inf, 1.0)])
def test_beta_route_refuses_off_its_grid(a, b):
    # off the half-integer grid the integrand is not smooth and 40 nodes
    # are off by up to 7e-3, so the route refuses rather than answers
    with pytest.raises(DomainError,
                       match=re.escape(f"a={a!r}, b={b!r}")):
        verify.beta_vs_quadrature(a, b)


def test_beta_nodes_built_once_per_process():
    verify._beta_nodes.cache_clear()
    verify.run_verification()
    verify.run_verification()
    info = verify._beta_nodes.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# --- 8: ring model -------------------------------------------------------------

def test_criterion_8_ring():
    base = RingSpec(radius=1.5, alpha_param=0.9)
    phi0 = base.flux_quantum
    # the energy is exactly quadratic in the flux, so the central difference
    # sits at roundoff for every step (stronger than O(step^2)); periodicity
    # with level relabeling is exact up to the flux arithmetic's roundoff
    fd, period, at_match = verify.ring_current_route(
        base, 0.2, [f * phi0 for f in (-0.3, 0.15, 0.23, 0.6)],
        [d * phi0 for d in (1e-2, 1e-3, 1e-4)], (-2, 0, 1, 3))
    worst_fd = max(dev / abs(analytic) for analytic, dev in fd)
    worst_period = max(period)
    ok = (worst_fd <= verify.RING_FD_TOL
          and worst_period <= verify.RING_PERIOD_TOL and at_match == 0.0)
    report(8, "ring model", ok,
           f"FD-vs-analytic current relative error {worst_fd:.3e} "
           f"(roundoff-level at every step); periodicity relative gap "
           f"{worst_period:.3e}; current at matched flux {at_match!r}")


# --- 9: known-discrepancy surfacing -------------------------------------------

def test_criterion_9_discrepancy_surfacing():
    doc = verify.run_verification()
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    entry = statuses.get("bogoliubov_single_vs_two_frequency")
    listed = "bogoliubov_single_vs_two_frequency" in \
        doc["expected_divergences"]
    ok = entry == "expected_divergence" and listed and doc["all_passed"]
    report(9, "discrepancy surfacing", ok,
           "verify report lists the single-frequency vs two-branch ladder "
           f"disagreement as '{entry}' (neither silent pass nor failure); "
           f"suite all_passed={doc['all_passed']}")

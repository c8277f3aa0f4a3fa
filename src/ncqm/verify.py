"""Cross-check suite: every closed form against an independent route.

Each check re-derives a quantity two ways (closed form vs matrix algebra,
root-finder vs eigensolver, series vs quadrature, analytic vs finite
difference) and records a pass/fail against a fixed tolerance. Known
model-level disagreements are reported as expected-divergence entries:
they are part of the model's documented behavior, so they neither fail
the suite nor silently pass.

Each route below takes its samples and returns raw measurements; the
check_* functions bind the report's samples and the tolerance constants,
and the acceptance criteria run the routes on wider samples.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from dataclasses import replace

import numpy as np

from . import algebra, fractional, oracle, ring, spectra
from .errors import DomainError
from .params import (Mechanism, ModelParams, PhysicalConstants,
                     effective_coefficients, effective_planck)
from .specfun import beta_fn, log_gamma

PASS = "pass"
FAIL = "fail"
DIVERGENCE = "expected_divergence"

# Tolerances of the cross-checks.
COMMUTATOR_TOL = 1e-10       # interior residual of a mapped commutator
ROUND_TRIP_TOL = 1e-12       # exact-k round trip, absolute
ROUND_TRIP_BAND = (0.5, 2.0)  # k~1 relative error over theta*eta/4hbar^2
HBAR_EFF_TOL = 1e-12         # measured [x,px] vs effective_planck
CLOSED_VS_ROOT_TOL = 1e-9    # relative
ROOT_VS_ORACLE_TOL = 1e-6    # relative
HALF_DERIVATIVE_TOL = 1e-8   # power-series route, absolute
GL_RICHARDSON_TOL = 1e-6     # Richardson-extrapolated GL route, absolute
CAPUTO_EXP_TOL = 1e-10       # scaled by max(1, |series|)
PLANE_WAVE_TOL = 1e-14       # |a_2 + E^2| (a_1 = -iE is exact)
BETA_QUADRATURE_TOL = 1e-8   # relative
RING_FD_TOL = 1e-10          # finite-difference current
RING_PERIOD_TOL = 1e-14      # relative, flux-quantum periodicity

BETA_NODES = 40      # Gauss-Legendre nodes of beta_vs_quadrature
BETA_GRID_MAX = 20   # largest a, b it accepts

N_TRUNC = 30  # samples of check_sw_commutators
SW_PAIRS = ((0.1, 0.05), (0.7, 0.3), (1.0, 1.0))


def _check(name, ok, detail, **data):
    return {"name": name, "status": PASS if ok else FAIL,
            "detail": detail, "data": data}


def _within(name, worst, tol, what, key, **data):
    """The check that worst, recorded as data[key], is at most tol."""
    return _check(name, worst <= tol, f"{what} {worst:.3e} (tol {tol:g})",
                  **{key: worst}, tol=tol, **data)


def _divergence(name, detail, **data):
    return {"name": name, "status": DIVERGENCE, "detail": detail,
            "data": data}


def sw_commutator_residuals(n_trunc, pairs) -> list[float]:
    """Per (theta, eta): the largest interior residual of the six mapped
    commutators, formed by direct products of the operators' diagonals."""
    rep = algebra.build_heisenberg_rep(n_trunc, PhysicalConstants())
    return [max(e.max_residual for e in algebra.commutator_residuals(
        algebra.sw_forward(rep, theta, eta))) for theta, eta in pairs]


def sw_round_trip(n_trunc, pairs) -> list[tuple[float, float, float]]:
    """Per (theta, eta): the exact-k round-trip absolute error, the k~1
    relative error of x, and zeta = theta*eta/4hbar^2 that it tracks."""
    rep = algebra.build_heisenberg_rep(n_trunc, PhysicalConstants())
    out = []
    for theta, eta in pairs:
        mapped = algebra.sw_forward(rep, theta, eta)
        exact = algebra.sw_inverse(mapped, exact_k=True)
        err_exact = max((exact[k] - getattr(rep, k)).abs_max()
                        for k in ("x", "y", "px", "py"))
        approx = algebra.sw_inverse(mapped, exact_k=False)["x"]
        rel = (approx - rep.x).abs_max() / rep.x.abs_max()
        out.append((err_exact, rel, theta * eta / (4.0 * rep.hbar ** 2)))
    return out


def ec_closed_vs_root(alphas, eta0s, e_refs, levels) -> list[float]:
    """Relative gap of the EC free-particle root from its closed form, on
    the grid alphas x eta0s x e_refs x levels (beta = alpha, theta0 = 0)."""
    out = []
    for alpha, eta0, e_ref in itertools.product(alphas, eta0s, e_refs):
        p = ModelParams(eta0=eta0, theta0=0.0, alpha_exp=alpha,
                        beta_exp=alpha, e_ref=e_ref, mechanism=Mechanism.EC)
        for n, m_phi in levels:
            qn = spectra.QuantumNumbers(n=n, m_phi=m_phi)
            closed = spectra.ec_free_energy_closed(qn, p)
            res = spectra.ec_solve_energy(qn, p, (closed * 1e-5, closed * 1e5),
                                          tol=1e-14)
            out.append(abs(res.energy - closed) / closed)
    return out


def ec_root_vs_oracle(p, levels) -> list[float]:
    """Relative gap of the radial self-consistent oracle from the EC root."""
    out = []
    for n, m_phi in levels:
        qn = spectra.QuantumNumbers(n=n, m_phi=m_phi)
        root = spectra.ec_solve_energy(qn, p, (1e-4, 1e3), tol=1e-13)
        sc = oracle.self_consistent_wrap("radial", p, qn, tol=1e-9)
        out.append(abs(root.energy - sc) / root.energy)
    return out


def commutative_recovery(c, ec_levels, eps, sqf_levels):
    """(level, commutative level) pairs at zero strengths, equal exactly:
    EC roots per (n, m_phi), then SQF levels per (n_alpha, n_beta) at eps."""
    zero = dict(eta0=0.0, theta0=0.0, constants=c)
    ec = ModelParams(mechanism=Mechanism.EC, **zero)
    sqf = ModelParams(mechanism=Mechanism.SQF, **zero)
    out = []
    for n, m_phi in ec_levels:
        qn = spectra.QuantumNumbers(n=n, m_phi=m_phi)
        out.append((spectra.ec_solve_energy(qn, ec, (1e-6, 1e6)).energy,
                    spectra.commutative_spectrum(qn, c.omega, c)))
    for n_a, n_b in sqf_levels:
        occupation = spectra.QuantumNumbers(n_alpha=n_a, n_beta=n_b)
        radial = spectra.QuantumNumbers(n=0, m_phi=n_a + n_b)
        out.append((spectra.sqf_spectrum(sqf, eps, occupation),
                    spectra.commutative_spectrum(radial, c.omega, c)))
    return out


def half_derivative_of_x(xs, step) -> list[tuple[float, float, float]]:
    """Caputo half-derivative of f(t) = t at each x: (power series,
    Richardson-extrapolated Grunwald-Letnikov at step, exact 2 sqrt(x/pi))."""
    f = fractional.PowerSeriesFn(alpha_step=0.5, coeffs=(0.0, 0.0, 1.0))
    gl = fractional.grunwald_letnikov_richardson
    return [(fractional.caputo_series_derivative(f, x),
             gl(lambda t: t, 0.5, x, step), 2.0 * math.sqrt(x / math.pi))
            for x in xs]


def caputo_exp_deviations(orders, xs) -> list[float]:
    """caputo_exp against its defining series sum_{n>=1} x^(n-a) /
    Gamma(1+n-a), scaled by max(1, |series|), per order and x."""
    out = []
    for order in orders:
        for x in xs:
            ref = 0.0
            for n in range(1, 401):  # at most 400 terms
                term = x ** (n - order) * math.exp(-log_gamma(1 + n - order))
                ref += term
                if term < 1e-17 * ref:
                    break
            out.append(abs(fractional.caputo_exp(order, x) - ref)
                       / max(1.0, abs(ref)))
    return out


def plane_wave_integer_orders(energy):
    """(a_1, a_2, |a_1 + iE|, |a_2 + E^2|) of the plane wave at hbar = 1."""
    a1, a2 = (fractional.plane_wave_eigenvalue(
        order, energy, PhysicalConstants()).value for order in (1.0, 2.0))
    return a1, a2, abs(a1 - complex(0.0, -energy)), abs(a2 + energy ** 2)


@functools.cache
def _beta_nodes():
    """Gauss-Legendre nodes phi on [0, pi/2] and their weights on [-1, 1],
    read-only since every call shares them."""
    x, w = np.polynomial.legendre.leggauss(BETA_NODES)
    phi = math.pi / 4.0 * (x + 1.0)
    phi.flags.writeable = w.flags.writeable = False
    return phi, w


def _on_beta_grid(x):
    return 1.0 <= 2.0 * x <= 2.0 * BETA_GRID_MAX and (2.0 * x).is_integer()


def beta_vs_quadrature(a, b):
    """(beta_fn(a, b), its defining integral by quadrature, relative gap).

    With u = sin^2(phi) the integral is B(a, b) = 2 int_0^{pi/2}
    sin^(2a-1)(phi) cos^(2b-1)(phi) dphi, summed on BETA_NODES = 40
    Gauss-Legendre nodes. The integrand is smooth only where 2a - 1 and
    2b - 1 are non-negative integers: on a, b in {1/2, 1, ..., 20} the sum
    is within 1.06e-14 relative of scipy.special.beta, while off that grid
    it is 7e-3 off at (0.3, 2.2) and 7e-6 at (0.75, 0.75). Inputs off the
    grid raise DomainError.
    """
    if not (_on_beta_grid(a) and _on_beta_grid(b)):
        raise DomainError(
            f"beta_vs_quadrature requires a, b in {{1/2, 1, ..., "
            f"{BETA_GRID_MAX}}}, got a={a!r}, b={b!r}")
    phi, w = _beta_nodes()
    f = np.sin(phi) ** (2.0 * a - 1.0) * np.cos(phi) ** (2.0 * b - 1.0)
    quad = math.pi / 2.0 * float(np.dot(w, f))
    mine = beta_fn(a, b)
    return mine, quad, abs(mine - quad) / quad


def ring_current_route(spec, eta, fluxes, steps, levels):
    """(fd, period, at_match): (analytic current, |central difference -
    analytic|) per flux, level and step; the relative gap of E_{l-1}(flux +
    phi_0) from E_l(flux) per flux and level; the l = 0 current at phi_nc."""
    def level(flux, l):
        return ring.ring_levels(replace(spec, flux_ext=flux), eta, l)

    fd, period = [], []
    for flux in fluxes:
        for l in levels:
            analytic = ring.persistent_current(replace(spec, flux_ext=flux),
                                               eta, l)
            for step in steps:
                slope = -(level(flux + step, l) - level(flux - step, l)) \
                    / (2.0 * step)
                fd.append((analytic, abs(slope - analytic)))
            shifted = level(flux + spec.flux_quantum, l - 1)
            here = level(flux, l)
            period.append(0.0 if shifted == here else abs(shifted - here)
                          / max(abs(shifted), abs(here)))
    matched = replace(spec, flux_ext=ring.nc_flux(spec, eta).phi_nc)
    return fd, period, ring.persistent_current(matched, eta, 0)


def check_sw_commutators():
    worst = max(sw_commutator_residuals(N_TRUNC, SW_PAIRS))
    return _within("sw_map_commutators", worst, COMMUTATOR_TOL,
                   "max interior residual", "max_residual", n_trunc=N_TRUNC)


def check_sw_round_trip():
    (err_exact, rel, zeta), = sw_round_trip(24, [(0.1, 0.05)])
    ratio = rel / zeta
    lo, hi = ROUND_TRIP_BAND
    ok = err_exact <= ROUND_TRIP_TOL and lo <= ratio <= hi
    return _check("sw_round_trip", ok,
                  f"exact-k error {err_exact:.3e}; k~1 relative error "
                  f"{rel:.3e} = {ratio:.3f} x (theta*eta/4hbar^2)",
                  exact_error=err_exact, approx_rel_error=rel,
                  zeta=zeta, ratio=ratio)


def check_ec_free_closed_vs_root():
    worst = max(ec_closed_vs_root((1.5, 2.0, 3.0), (1.2,), (2.0,),
                                  ((0, 0), (1, 0), (0, 1))))
    return _within("ec_free_closed_vs_root", worst, CLOSED_VS_ROOT_TOL,
                   "max relative difference", "max_rel_diff")


def check_ec_root_vs_self_consistent():
    p = ModelParams(eta0=0.1, theta0=0.1, alpha_exp=1.0, beta_exp=1.0,
                    e_ref=10.0, mechanism=Mechanism.EC,
                    constants=PhysicalConstants(spring_k=1.0))
    worst = max(ec_root_vs_oracle(p, ((0, 0), (0, 1), (1, 0))))
    return _within("ec_root_vs_self_consistent", worst, ROOT_VS_ORACLE_TOL,
                   "max relative difference", "max_rel_diff")


def check_commutative_recovery():
    (ec, expected), (osc, expected_osc) = commutative_recovery(
        PhysicalConstants(spring_k=1.0), [(1, 2)], 1.0, [(2, 2)])
    return _check("commutative_recovery",
                  ec == expected and osc == expected_osc,
                  f"EC root {ec!r} and SQF value {osc!r} vs "
                  f"commutative {expected!r}",
                  ec=ec, sqf=osc, expected=expected)


def check_fractional_half_derivative():
    (series, gl, exact), = half_derivative_of_x([1.0], 1e-3)
    ok = (abs(series - exact) <= HALF_DERIVATIVE_TOL
          and abs(gl - exact) <= GL_RICHARDSON_TOL)
    return _check("fractional_half_derivative", ok,
                  f"series error {abs(series - exact):.3e}, GL(Richardson) "
                  f"error {abs(gl - exact):.3e}",
                  series=series, gl=gl, exact=exact)


def check_caputo_exp_series():
    worst = max(caputo_exp_deviations((0.25, 0.5, 0.75), (0.5, 2.0, 10.0)))
    return _within("caputo_exp_series", worst, CAPUTO_EXP_TOL,
                   "max scaled deviation from the defining series", "max_dev")


def check_plane_wave_orders():
    a1, a2, dev1, dev2 = plane_wave_integer_orders(3.0)
    return _check("plane_wave_orders", dev1 == 0.0 and dev2 < PLANE_WAVE_TOL,
                  f"a_1 = {a1}, a_2 = {a2}", a1_im=a1.imag, a2_re=a2.real)


def check_fractional_oscillator_prefactor():
    mine, quad, rel = beta_vs_quadrature(0.5, 1.5)
    return _check("fractional_oscillator_prefactor",
                  rel <= BETA_QUADRATURE_TOL,
                  f"beta_fn(1/2, 3/2) vs quadrature: rel diff {rel:.3e}",
                  beta_fn=mine, quadrature=quad, rel=rel)


def check_ring_current():
    spec = ring.RingSpec(radius=1.5, flux_ext=0.8, alpha_param=0.9)
    ((analytic, dev),), (gap,), at_min = ring_current_route(
        spec, 0.2, (0.8,), (1e-4 * spec.flux_quantum,), (1,))
    err = dev / max(1.0, abs(analytic))
    periodic = gap == 0.0
    ok = err <= RING_FD_TOL and periodic and at_min == 0.0
    return _check("ring_current", ok,
                  f"FD vs analytic scaled error {err:.3e}; periodicity "
                  f"{periodic}; current at phi=phi_nc is {at_min!r}",
                  fd_error=err, periodic=periodic, current_at_min=at_min)


def check_bogoliubov_vs_matrix_oracle():
    """The quadratic-form route yields a single ladder frequency omega + B;
    the exact matrix diagonalization yields the two-branch omega -/+ B
    ladder. Both are model statements; the disagreement is reported, not
    scored. Measured in a bounded oscillator configuration (B < omega);
    for the free particle B/omega = sqrt(2) identically, so the frozen-
    coefficient Hamiltonian is there unbounded below, which is noted."""
    p = ModelParams(eta0=0.4, theta0=0.0, alpha_exp=1.0, beta_exp=1.0,
                    e_ref=1.0, mechanism=Mechanism.SQF,
                    constants=PhysicalConstants(spring_k=1.0))
    coeff = effective_coefficients(p, 1.0)
    c = p.constants
    single = algebra.bogoliubov_frequency(coeff.omega_h, coeff.b_h)
    levels = oracle.fock_matrix_eigensolve(24, coeff.m_star, coeff.b_h,
                                           coeff.k_h, c, 3)
    gap_single = c.hbar * single
    gap_low = float(levels[1] - levels[0])
    gap_high = float(levels[2] - levels[0])
    return _divergence(
        "bogoliubov_single_vs_two_frequency",
        "single-frequency route predicts uniform level spacing "
        f"hbar(omega+B) = {gap_single:.6f}; the matrix oracle gives the "
        f"two-branch spacings hbar(omega-B) = {gap_low:.6f} and "
        f"hbar(omega+B) = {gap_high:.6f}. The lower branch is absent from "
        "the single-frequency ladder. For the free particle the branch "
        "frequency omega-B is negative (B/omega = sqrt(2)), i.e. the "
        "frozen-coefficient Hamiltonian is unbounded below there.",
        gap_single=gap_single, gap_low_branch=gap_low, gap_high_branch=gap_high,
        omega=coeff.omega_h, b_field=coeff.b_h,
        free_particle_omega_over_b=1.0 / math.sqrt(2.0))


def check_caputo_oscillatory_mismatch():
    """The Caputo derivative does not admit exp(-iEt/hbar) as an
    eigenfunction; the eigenvalue route uses the Liouville-type rule and
    the mismatch is quantified here."""
    c = PhysicalConstants()
    order, energy, t = 0.5, 1.0, 2.0
    caputo = fractional.caputo_plane_wave(order, energy, t, c)
    eigen = (fractional.plane_wave_eigenvalue(order, energy, c).value
             * cmath.exp(-1j * energy * t / c.hbar))
    gap = abs(caputo - eigen)
    return _divergence(
        "caputo_oscillatory_mismatch",
        f"|Caputo - eigenvalue route| = {gap:.6f} at order {order}, "
        "t = 2; nonzero by construction (terminal memory of the Caputo "
        "operator), documented",
        mismatch=gap, order=order, t=t)


def check_hbar_eff_identity():
    c = PhysicalConstants()
    rep = algebra.build_heisenberg_rep(20, c)
    theta, eta = 0.4, 0.9
    mapped = algebra.sw_forward(rep, theta, eta)
    entries = {e.commutator: e for e in algebra.commutator_residuals(mapped)}
    measured = entries["[x,px]"].measured.imag
    formula = effective_planck(theta, eta, c)
    ok = abs(measured - formula) <= HBAR_EFF_TOL
    return _check("hbar_eff_identity", ok,
                  f"measured {measured!r} vs formula {formula!r}",
                  measured=measured, formula=formula)


ALL_CHECKS = (
    check_sw_commutators,
    check_sw_round_trip,
    check_hbar_eff_identity,
    check_ec_free_closed_vs_root,
    check_ec_root_vs_self_consistent,
    check_commutative_recovery,
    check_fractional_half_derivative,
    check_caputo_exp_series,
    check_plane_wave_orders,
    check_fractional_oscillator_prefactor,
    check_ring_current,
    check_bogoliubov_vs_matrix_oracle,
    check_caputo_oscillatory_mismatch,
)


def run_verification() -> dict:
    """Run every cross-check; returns the JSON-able report."""
    checks = [fn() for fn in ALL_CHECKS]
    failed = [c["name"] for c in checks if c["status"] == FAIL]
    return {
        "checks": checks,
        "expected_divergences": [c["name"] for c in checks
                                 if c["status"] == DIVERGENCE],
        "failed": failed,
        "all_passed": not failed,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)

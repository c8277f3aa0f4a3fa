"""Energy levels of the free particle and harmonic oscillator in the
energy-dependent noncommutative models.

The confined radial problem quantizes through the transcendental condition

    (hbar/sqrt(m*)) (2n + m_phi + 1) = [E + m_phi hbar B_h(E)] / sqrt(K_h(E)),

whose left side carries the energy dependence through m*(E) and the right
side through B_h(E), K_h(E). Closed forms exist for the vacuum-fluctuation
(SQF) model, for the energy-coupled (EC) free particle with alpha != 1,
and to first order for the EC oscillator; everything else is root-found by
a deterministic geometric sign-change scan refined by Brent's method.
The scan evaluates the residual on the whole grid in one array call (2401
points on the default 12-decade bracket), so a level costs one array
evaluation plus a handful of scalar Brent steps, a fraction of a
millisecond. The grid (scan_grid), the bracket rule (sign_change_brackets)
and the refinement (brent_root, a port of scipy's brentq kernel that takes
the same steps) are the package's one root-finding kernel; the
self-consistent oracle shares none of it. The module needs numpy and the
standard library only; it loads no scipy.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (BracketingError, ConvergenceError, DomainError,
                     SingularityError, UsageError, ValidationError)
from .params import (EffectiveCoefficients, Mechanism, ModelParams,
                     PhysicalConstants, _any, _require, _require_finite,
                     _require_int, _sqrt, effective_coefficients)

log = logging.getLogger("ncqm.spectra")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial/angular indices (n, m_phi) and quasiparticle occupancies.

    Each is a non-negative integer, stored as a Python int: 1.0 and
    np.int64(1) are stored as 1, and any other value raises ValidationError.
    """

    n: int = 0
    m_phi: int = 0
    n_alpha: int = 0
    n_beta: int = 0

    def __post_init__(self):
        for name in ("n", "m_phi", "n_alpha", "n_beta"):
            object.__setattr__(self, name,
                               _require_int(name, getattr(self, name)))

    @property
    def radial_weight(self) -> int:
        return 2 * self.n + self.m_phi + 1


@dataclass(frozen=True)
class SpectrumResult:
    """A solved energy level and how it was obtained."""

    energy: float
    method: str  # "closed_form" | "root_find"
    residual: float
    roots_found: int = 1


@dataclass(frozen=True)
class FractionalOscSpec:
    """Parameters of the |p|^alpha + q^2 |x|^beta fractional oscillator."""

    alpha_p: float
    beta_p: float
    d_alpha: float
    q: float

    def __post_init__(self):
        _require_finite(self, ("alpha_p", "beta_p", "d_alpha", "q"))
        if self.alpha_p <= 0 or self.beta_p <= 0:
            raise ValidationError("alpha_p and beta_p must be positive")
        if self.d_alpha <= 0 or self.q <= 0:
            raise ValidationError("d_alpha and q must be positive")


def sqf_spectrum(p: ModelParams, eps: float, qn: QuantumNumbers) -> float:
    """Levels of the vacuum-fluctuation model, oscillator or free particle.

    E = hbar Omega (n_alpha + n_beta + 1) with
    Omega = sqrt(K_h/m*) + B_h evaluated at the fluctuation scale eps,
    K_h = k + eta^2/8m hbar^2 and B_h = eta/2m hbar + k theta/2 hbar.
    At k = 0 this is the free-particle frequency
    Omega = (eta0/2m hbar)(1 + 1/sqrt(2)) (eps/eps0)^alpha; as eps -> 0 it
    is the commutative oscillator. A level past the double range raises
    SingularityError.
    """
    _require(p, Mechanism.SQF, "sqf_spectrum")
    coeff = effective_coefficients(p, eps)
    omega_big = coeff.omega_h + coeff.b_h
    level = p.constants.hbar * omega_big * (qn.n_alpha + qn.n_beta + 1)
    if not math.isfinite(level):
        raise SingularityError(f"SQF level at eps={eps!r} is {level!r}: the "
                               "coefficients leave the double range")
    return level


def commutative_spectrum(qn: QuantumNumbers, omega: float,
                         c: PhysicalConstants) -> float:
    """Standard 2D oscillator levels hbar omega (2n + m_phi + 1)."""
    if not omega >= 0:  # NaN fails it too
        raise DomainError(f"omega must be non-negative, got {omega!r}")
    return c.hbar * omega * qn.radial_weight


def ec_quantization_residual(energy, qn: QuantumNumbers, p: ModelParams):
    """Signed residual of the quantization condition at the given energy.

    Zero residual marks an energy level; the sign flips across each root.
    energy is a float (a float comes back) or an ndarray, evaluated
    elementwise in one pass; K_h must then be positive everywhere.
    """
    _require(p, Mechanism.EC, "ec_quantization_residual")
    coeff = effective_coefficients(p, energy)
    if _any(coeff.k_h <= 0):
        raise DomainError("K_h(E) must be positive to evaluate the condition")
    hbar = p.constants.hbar
    lhs = hbar / _sqrt(coeff.m_star) * qn.radial_weight
    rhs = (energy + qn.m_phi * hbar * coeff.b_h) / _sqrt(coeff.k_h)
    return lhs - rhs


def _linear_level(coeff: EffectiveCoefficients, qn: QuantumNumbers,
                  hbar: float) -> float:
    """Exact root for frozen coefficients (condition linear in E)."""
    return (hbar * coeff.omega_h * qn.radial_weight
            - qn.m_phi * hbar * coeff.b_h)


# Points per decade of the geometric scan in ec_solve_energy.
SCAN_PER_DECADE = 200

# Smallest relative tolerance brentq accepts: the float floor.
_RTOL_FLOOR = 4.0 * sys.float_info.epsilon

# Iteration budget of brent_root (brentq's default maxiter).
BRENT_MAX_ITER = 100


def scan_grid(lo: float, hi: float, n_pts: int, i):
    """Point i of the geometric scan grid over [lo, hi]: lo * step**i with
    step = (hi/lo)**(1/n_pts), so i = 0..n_pts runs from lo to hi.

    An int i gives a float; an integer array gives the points at once.
    lo and hi must satisfy 0 < lo < hi < inf, and n_pts must be an integer
    of at least 1 (ValidationError).
    """
    if not 0.0 < lo < hi < math.inf:  # NaN fails it too
        raise ValidationError(f"scan_grid needs 0 < lo < hi < inf, got "
                              f"lo={lo!r}, hi={hi!r}")
    n_pts = _require_int("n_pts", n_pts, 1)
    return lo * ((hi / lo) ** (1.0 / n_pts)) ** i


def sign_change_brackets(values) -> list[tuple[int, int]]:
    """Index brackets of each sign change of values sampled along a grid.

    In grid order, a sample that is exactly zero gives the degenerate
    bracket (i, i), and adjacent finite samples of strictly opposite signs
    give (i, i + 1). A NaN or infinite sample opens no bracket and closes
    none, and neither does the last sample. Signs are compared, not
    multiplied, so no product overflows or underflows.
    """
    values = np.asarray(values, dtype=float)
    negative, nonzero = values < 0.0, values != 0.0  # NaN: False, True
    zero = ~nonzero[:-1]
    hits = ((negative[:-1] != negative[1:]) & nonzero[1:]
            | zero).nonzero()[0].tolist()
    return [(i, i) if zero[i] else (i, i + 1) for i in hits
            if zero[i] or math.isfinite(values[i])
            and math.isfinite(values[i + 1])]


@dataclass(frozen=True)
class BrentResult:
    """A root refined by brent_root and what it took: the counts are
    those scipy's brentq reports in RootResults for the same call, except
    that iterations is 0 where an endpoint is a root (brentq leaves it
    unset there). residual is f(root), the last value Brent's method
    computed. brent_root raises ConvergenceError rather than return an
    unconverged root."""

    root: float
    iterations: int
    function_calls: int
    residual: float


def brent_root(f, bracket: tuple[float, float]) -> BrentResult:
    """Refine a sign-change bracket of f by Brent's method to the float
    floor, 4 eps relative to the root, with no absolute floor: roots of any
    magnitude keep full relative accuracy.

    A line-for-line port of scipy's brentq kernel (Zeros/brentq.c) with
    xtol = the smallest normal double and rtol = _RTOL_FLOOR: it takes the
    same steps, so root, iterations and function_calls equal
    scipy.optimize.brentq's. An endpoint where f is exactly zero is
    returned after the two endpoint calls. Raises BracketingError when
    f(a) and f(b) have the same sign, DomainError when f is NaN, and
    ConvergenceError when BRENT_MAX_ITER iterations do not converge.
    """
    xtol, rtol = sys.float_info.min, _RTOL_FLOOR
    xpre, xcur = float(bracket[0]), float(bracket[1])
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre != fpre or fcur != fcur:
        raise DomainError(f"f is NaN at an endpoint of {bracket}")
    if fpre == 0.0:
        return BrentResult(root=xpre, iterations=0, function_calls=2,
                           residual=fpre)
    if fcur == 0.0:
        return BrentResult(root=xcur, iterations=0, function_calls=2,
                           residual=fcur)
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketingError(f"f has the same sign at both ends of {bracket}")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, BRENT_MAX_ITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return BrentResult(root=xcur, iterations=iterations,
                               function_calls=iterations + 1, residual=fcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or nan, which bisects
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise DomainError(f"f is NaN at {xcur!r}")
    raise ConvergenceError(f"Brent's method did not converge on {bracket} "
                           f"in {BRENT_MAX_ITER} iterations")


@np.errstate(all="ignore")
def _grid_residual(grid, qn: QuantumNumbers, p: ModelParams):
    """The residual on the scan grid with numpy's floating-point warnings
    off: where the coefficients overflow it is inf or NaN, and such points
    open no bracket (sign_change_brackets). As a decorator, errstate costs
    half of what a with block costs on every level."""
    return ec_quantization_residual(grid, qn, p)


def ec_solve_energy(qn: QuantumNumbers, p: ModelParams,
                    bracket: tuple[float, float],
                    tol: float = 1e-12) -> SpectrumResult:
    """Root-find the quantization condition on a bracket.

    The residual is evaluated on the whole geometric scan grid
    (SCAN_PER_DECADE points per decade) in one array call, and every sign
    change on it is located; the smallest root is refined by Brent's
    method to the float floor. tol is the acceptance bound on the refined
    residual: a root whose |residual| exceeds it raises ConvergenceError.
    Deterministic for fixed inputs. Where the coefficients leave the
    double range the grid residual is not finite; those points open no
    bracket and raise no numpy warning. The bracket needs 0 <= lo < hi,
    and hi above 1e-300 and a finite hi/lo once lo is clamped to 1e-300,
    and tol must be finite and positive (ValidationError).

    The smallest root is the physical level. A later sign change is the
    high-energy spurious branch that the energy-dependent coefficients
    produce (on most oscillator levels of a wide bracket); it is never
    returned, but the number of sign changes seen is reported as
    roots_found. Each solve logs one DEBUG record on the "ncqm.spectra"
    logger: grid points, sign changes, chosen bracket and brentq function
    calls.

    With eta0 = theta0 = 0 the coefficients are energy-independent, the
    condition is linear, and the exact commutative level is returned
    directly (method "closed_form").
    """
    _require(p, Mechanism.EC, "ec_solve_energy")
    lo, hi = bracket
    if not 0 <= lo < hi:
        raise ValidationError(f"bad bracket {bracket}")
    lo = max(lo, 1e-300)
    if not lo < hi:
        raise ValidationError(f"bracket {bracket} lies below 1e-300, where "
                              "the scan starts")
    if not math.isfinite(hi / lo):
        raise ValidationError(f"bracket {bracket} spans more decades than a "
                              "float ratio holds")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    hbar = p.constants.hbar
    if p.eta0 == 0.0 and p.theta0 == 0.0:
        if p.constants.spring_k == 0:
            raise DomainError("commutative free particle has a continuous "
                              "spectrum; no quantization condition to solve")
        coeff = effective_coefficients(p, 0.0)
        energy = _linear_level(coeff, qn, hbar)
        resid = ec_quantization_residual(energy, qn, p)
        return SpectrumResult(energy=energy, method="closed_form",
                              residual=resid)

    n_pts = max(2, int(math.log10(hi / lo) * SCAN_PER_DECADE))
    grid = scan_grid(lo, hi, n_pts, np.arange(n_pts + 1))
    values = _grid_residual(grid, qn, p)
    brackets = sign_change_brackets(values)
    if not brackets:
        lost = n_pts + 1 - int(np.count_nonzero(np.isfinite(values)))
        raise BracketingError(
            f"no sign change of the quantization residual in {bracket} for "
            f"{qn}" + (f"; the coefficients leave the double range at {lost} "
                       f"of {n_pts + 1} grid points" if lost else ""))
    # endpoints from the scalar grid formula, bit-identical to a scalar scan
    chosen = tuple(scan_grid(lo, hi, n_pts, i) for i in brackets[0])

    info = brent_root(lambda e: ec_quantization_residual(e, qn, p), chosen)
    energy, residual = info.root, info.residual
    log.debug("ec_solve_energy %s: %d grid points, %d sign changes, "
              "bracket %r, %d brentq calls", qn, n_pts + 1, len(brackets),
              chosen, info.function_calls)
    if abs(residual) > tol:
        raise ConvergenceError(f"refined root E={energy!r} for {qn} leaves "
                               f"|residual| {abs(residual):.3e} > tol {tol:g}")
    return SpectrumResult(energy=energy, method="root_find", residual=residual,
                          roots_found=len(brackets))


def ec_default_bracket(qn: QuantumNumbers,
                       p: ModelParams) -> tuple[float, float]:
    """A generous bracket, six decades either side of the commutative
    scale of the level."""
    c = p.constants
    scale = max(p.e_ref, c.hbar * max(c.omega, 1.0 / p.e_ref) * qn.radial_weight)
    return (scale / 1e6, scale * 1e6)


def _reference_coefficients(p: ModelParams) -> tuple[float, float]:
    """(B0, k0) = (eta0/2m hbar, eta0^2/4m hbar^2): b_e and 2 k_e of the
    effective coefficients at the reference energy, where eta = eta0."""
    coeff = effective_coefficients(p, p.e_ref)
    return coeff.b_e, 2.0 * coeff.k_e


def ec_free_energy_closed(qn: QuantumNumbers, p: ModelParams) -> float:
    """Closed-form free-particle levels of the energy-coupled model.

    E = (sqrt(2m/hbar^2 k0) E0)^(1/(alpha-1)) * E0 /
        [2n + (1 - B0 sqrt(2m/k0)) m_phi + 1]^(1/(alpha-1)),

    with B0 = eta0/2m hbar and k0 = eta0^2/4m hbar^2, so the coefficient
    B0 sqrt(2m/k0) equals sqrt(2) identically. Requires alpha != 1 (the
    alpha = 1 spectrum is continuous, see ec_alpha1_constraint_residual).
    A level that is not a positive finite double raises DomainError.
    """
    _require(p, Mechanism.EC, "ec_free_energy_closed", spring="zero")
    if p.alpha_exp == 1.0:
        raise DomainError("alpha = 1 has a continuous spectrum; use "
                          "ec_alpha1_constraint_residual")
    if p.eta0 == 0.0:
        raise DomainError("eta0 = 0 leaves the free particle unconfined")
    c = p.constants
    hbar, m = c.hbar, c.mass
    b0, k0 = _reference_coefficients(p)
    coupling = b0 * math.sqrt(2.0 * m / k0) if k0 > 0.0 else math.inf
    if not math.isfinite(coupling):
        raise DomainError(
            f"k0 = eta0^2/4m hbar^2 = {k0!r} underflows at eta0={p.eta0!r}, "
            "so B0 sqrt(2m/k0) (sqrt(2) identically) is not a finite double")
    denom = 2 * qn.n + (1.0 - coupling) * qn.m_phi + 1.0
    if denom <= 0:
        raise DomainError(f"level bracket 2n + (1-sqrt(2)) m_phi + 1 = {denom} "
                          "is non-positive; no bound level")
    expo = 1.0 / (p.alpha_exp - 1.0)
    try:
        energy = (math.sqrt(2.0 * m / (hbar ** 2 * k0)) * p.e_ref) ** expo \
            * p.e_ref / denom ** expo
    except (OverflowError, ZeroDivisionError):
        energy = math.nan
    if 0.0 < energy < math.inf:
        return energy
    raise DomainError(
        f"the free-particle level is not a positive finite double at "
        f"alpha={p.alpha_exp!r}, eta0={p.eta0!r}, e_ref={p.e_ref!r}, "
        f"n={qn.n}, m_phi={qn.m_phi}")


def ec_alpha1_constraint_residual(qn: QuantumNumbers, p: ModelParams) -> float:
    """Residual of the alpha = 1 free-particle consistency constraint.

    At alpha = 1 the energy cancels from the quantization condition and
    the spectrum is continuous; instead the reference scale must satisfy
    E0 = hbar sqrt(k0/2m) [2n + (1 - sqrt(2)) m_phi + 1]. Returns
    E0 - rhs (zero when the constraint holds).
    """
    _require(p, Mechanism.EC, "ec_alpha1_constraint_residual", spring="zero")
    c = p.constants
    _, k0 = _reference_coefficients(p)
    rhs = c.hbar * math.sqrt(k0 / (2.0 * c.mass)) \
        * (2 * qn.n + (1.0 - math.sqrt(2.0)) * qn.m_phi + 1.0)
    return p.e_ref - rhs


def ec_oscillator_first_order(qn: QuantumNumbers, p: ModelParams) -> float:
    """First-order oscillator level of the energy-coupled model at
    alpha = beta = 1, in units of the reference energy.

    Returns x = E/E0 with

        x ~ E_com / [E0 + (m_phi w^2/2)(eta0/k + m theta0)
                     - (m^2 w^2 theta0 / 8 hbar^2) E_com],

    E_com = hbar w (2n + m_phi + 1), w = sqrt(k/m). Multiply by e_ref for
    the physical energy. Valid for small strengths; the dropped terms are
    quadratic in eta0 (the theta0 dependence of the denominator is kept
    as displayed, first power).
    """
    _require(p, Mechanism.EC, "ec_oscillator_first_order", spring="positive")
    if p.alpha_exp != 1.0 or p.beta_exp != 1.0:
        raise UsageError("first-order form assumes alpha = beta = 1")
    c = p.constants
    hbar, m, k = c.hbar, c.mass, c.spring_k
    omega2 = k / m
    e_com = hbar * math.sqrt(omega2) * qn.radial_weight
    denom = (p.e_ref
             + qn.m_phi * omega2 / 2.0 * (p.eta0 / k + m * p.theta0)
             - m ** 2 * omega2 * p.theta0 / (8.0 * hbar ** 2) * e_com)
    if denom == 0.0:
        raise DomainError("degenerate parameters: first-order denominator "
                          "vanishes")
    return e_com / denom


def fractional_oscillator_levels(spec: FractionalOscSpec, n: int,
                                 c: PhysicalConstants) -> float:
    """Semiclassical levels of the |p|^a + q^2|x|^b fractional oscillator.

    E_n = [pi hbar b D^(1/a) q^(2/b) / 2 B(1/b, 1/a + 1)]^(ab/(a+b))
          * (n + 1/2)^(ab/(a+b)).

    n must be a non-negative integer, and a level that is not a positive
    finite double raises DomainError.
    """
    from .specfun import beta_fn  # needed by this form alone
    n = _require_int("n", n, 0, DomainError)
    a, b = spec.alpha_p, spec.beta_p
    expo = a * b / (a + b)
    try:
        numerator = (math.pi * c.hbar * b * spec.d_alpha ** (1.0 / a)
                     * spec.q ** (2.0 / b))
        beta = beta_fn(1.0 / b, 1.0 / a + 1.0)
        # a B that underflows puts the prefactor past the double range
        prefactor = numerator / (2.0 * beta) if beta else math.inf
        level = prefactor ** expo * (n + 0.5) ** expo
    except (OverflowError, ZeroDivisionError):
        level = math.nan
    if 0.0 < level < math.inf:
        return level
    raise DomainError(f"the fractional-oscillator level is not a positive "
                      f"finite double at {spec!r}, n={n}")


def eo_alpha1_radial_params(energy: float, qn: QuantumNumbers, b_i: float,
                            k_i: float, c: PhysicalConstants
                            ) -> tuple[float, float]:
    """Radial-equation parameters of the energy-operator model at order 1.

    Returns (xi_per_r, sigma): the dimensionless radial coordinate is
    xi = xi_per_r * r with xi_per_r = (m K_I E^2)^(1/4) / hbar, and
    sigma = 2 sqrt(m) (1 + m_phi B_I) / sqrt(K_I) plays the role of the
    quantization combination. sigma is energy-independent, so the bound
    condition sigma = 2 (2n + m_phi + 1) constrains the parameters rather
    than the energy; see eo_alpha1_constraint_residual. DomainError where
    m K_I E^2 or sigma leaves the double range.
    """
    if k_i <= 0:
        raise DomainError(f"K_I must be positive, got {k_i}")
    if energy <= 0:
        raise DomainError(f"energy must be positive, got {energy}")
    try:
        scale4 = c.mass * k_i * energy ** 2
    except OverflowError:
        scale4 = math.inf
    sigma = 2.0 * math.sqrt(c.mass) * (1.0 + qn.m_phi * b_i) / math.sqrt(k_i)
    if not (0.0 < scale4 < math.inf and math.isfinite(sigma)):
        raise DomainError(
            f"m K_I E^2 = {scale4!r} or sigma = {sigma!r} leaves the double "
            f"range at energy={energy!r}, K_I={k_i!r}, B_I={b_i!r}, "
            f"m_phi={qn.m_phi}")
    return scale4 ** 0.25 / c.hbar, sigma


def eo_alpha1_constraint_residual(sigma: float, qn: QuantumNumbers) -> float:
    """sigma - 2(2n + m_phi + 1): zero when the parameters admit the level."""
    return sigma - 2.0 * qn.radial_weight


def eo_alpha1_from_ec(p: ModelParams) -> tuple[float, float]:
    """(B_I, K_I) that make the alpha = 1 energy-operator radial equation
    coincide with the energy-coupled one: B_I = hbar B0/E0,
    K_I = hbar^2 k0 / 2 E0^2.
    """
    c = p.constants
    b0, k0 = _reference_coefficients(p)
    return (c.hbar * b0 / p.e_ref,
            c.hbar ** 2 * k0 / (2.0 * p.e_ref ** 2))

"""Fractional-calculus operators of the energy-operator representation.

Promoting the running energy to i*hbar d/dt (case I) or to the kinetic
Hamiltonian (case II) turns the power-law strengths into fractional
derivative operators. This module provides the operator ingredients:
the Caputo derivative of power series and of the exponential, the
Liouville exponential rule, the left-sided Riemann-Liouville
differintegral, a Grünwald-Letnikov evaluator used as an independent
numeric oracle, the plane-wave eigenvalue that separates the time
variable, and the complex coefficient pairs of the two operator cases.

Complex powers are taken on the principal branch (argument in (-pi, pi]),
which reproduces the plain first and second derivatives at order 1 and 2.

The module imports no scipy at load time, and only riemann_liouville
imports any on call (``scipy.integrate``): the gamma functions of
``specfun`` are ``math.gamma`` and ``math.lgamma``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, ValidationError
from .params import (Mechanism, ModelParams, PhysicalConstants,
                     _require_finite)
from .specfun import gamma_fn, log_gamma, mittag_leffler

# Most grid steps one Grünwald-Letnikov sum may take: about 0.4 s of
# Python loop at 10^6 (the tests and verify take at most ~2*10^4).
GL_MAX_STEPS = 10**6


@dataclass(frozen=True)
class PowerSeriesFn:
    """A function f(x) = sum_k coeffs[k] * x**(k*alpha_step), x >= 0."""

    alpha_step: float
    coeffs: tuple[float, ...]
    radius: float = math.inf

    def __post_init__(self):
        _require_finite(self, ("alpha_step",))
        if self.alpha_step <= 0:
            raise DomainError("alpha_step must be positive")
        if self.radius <= 0:
            raise DomainError("radius must be positive")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, x: float) -> float:
        if not 0 <= x < self.radius:  # NaN fails it too
            raise DomainError(f"x={x} outside [0, {self.radius})")
        return sum(c * x ** (k * self.alpha_step)
                   for k, c in enumerate(self.coeffs))


@dataclass(frozen=True)
class FractionalEigenvalue:
    """Eigenvalue a_alpha of D_t^alpha acting on exp(-i E t / hbar)."""

    order: float
    value: complex

    @property
    def stacked(self) -> complex:
        """Eigenvalue of the doubled order D_t^(2 alpha), i.e. a_alpha^2."""
        return self.value * self.value


def caputo_series_derivative(f: PowerSeriesFn, x: float) -> float:
    """Caputo derivative of order alpha_step of a matched power series.

    For f(x) = sum_k a_k x^(k a) the derivative of order a is
    sum_k a_{k+1} Gamma(1+(k+1)a)/Gamma(1+k a) x^(k a); the constant term
    is annihilated.
    """
    if not 0 <= x < f.radius:  # NaN fails it too
        raise DomainError(f"x={x} outside [0, {f.radius})")
    a = f.alpha_step
    acc = 0.0
    for k in range(len(f.coeffs) - 1):
        c = f.coeffs[k + 1]
        if c == 0.0:
            continue
        ratio = math.exp(log_gamma(1.0 + (k + 1) * a) - log_gamma(1.0 + k * a))
        acc += c * ratio * x ** (k * a)
    return acc


def caputo_exp(order: float, x: float) -> float:
    """Caputo derivative of exp at order in (0, 1]:  x^(1-a) E_{1,2-a}(x)."""
    if not 0.0 < order <= 1.0:
        raise DomainError(f"order must be in (0, 1], got {order}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 1.0 if order == 1.0 else 0.0
    return x ** (1.0 - order) * mittag_leffler(1.0, 2.0 - order, x)


def liouville_exp(order: float, k: float, x: float) -> float:
    """Liouville-rule fractional derivative of exp(k x): k^a exp(k x), k >= 0.

    A value past the double range raises DomainError.
    """
    if not order > 0:  # NaN fails it too
        raise DomainError(f"order must be positive, got {order}")
    if not k >= 0:
        raise DomainError(f"liouville_exp requires k >= 0, got {k}")
    if k == 0.0:
        return 0.0
    try:
        value = k ** order * math.exp(k * x)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise DomainError(f"k^order exp(k x) leaves the double range at "
                      f"order={order!r}, k={k!r}, x={x!r}")


def riemann_liouville(f, order: float, x: float) -> float:
    """Left-sided Riemann-Liouville differintegral of order nu at x > 0.

    Computes (1/Gamma(n-nu)) d^n/dx^n  Int_0^x f(t) (x-t)^(n-nu-1) dt with
    n-1 < nu < n. The kernel singularity is removed by the substitution
    u = s^(1/(n-nu)), after which the inner integral is evaluated by
    adaptive quadrature; the outer derivative uses 5-point central
    differences. Supported for n <= 2.
    """
    from scipy import integrate  # needed by this operator alone
    if not x > 0:  # NaN fails it too
        raise DomainError(f"x must be positive, got {x}")
    if not 0 < order < math.inf or order == math.floor(order):
        raise DomainError(f"order must be positive non-integer, got {order}")
    n = math.floor(order) + 1
    if n > 2:
        raise DomainError(f"orders above 2 not supported, got {order}")
    mu = n - order  # in (0, 1)

    def inner(y: float) -> float:
        if y <= 0:
            return 0.0
        top = y ** mu

        def integrand(s):
            return f(y - s ** (1.0 / mu))

        val, err = integrate.quad(integrand, 0.0, top, epsabs=1e-15,
                                  epsrel=1e-13, limit=500)
        if not math.isfinite(val):
            raise ConvergenceError("riemann_liouville inner quadrature failed")
        return val / mu

    h = 0.02 * max(1.0, abs(x))
    h = min(h, 0.45 * x / n)  # keep the stencil inside (0, inf)
    if n == 1:
        deriv = (inner(x - 2 * h) - 8 * inner(x - h)
                 + 8 * inner(x + h) - inner(x + 2 * h)) / (12 * h)
    else:
        deriv = (-inner(x - 2 * h) + 16 * inner(x - h) - 30 * inner(x)
                 + 16 * inner(x + h) - inner(x + 2 * h)) / (12 * h * h)
    return deriv / gamma_fn(mu)


def grunwald_letnikov(f, order: float, x: float, h: float) -> float:
    """Grünwald-Letnikov fractional derivative with terminal at 0.

    sum_j (-1)^j C(alpha, j) f(x - j h) / h^alpha over the grid reaching
    back to 0. Converges O(h) for smooth f; serves as the independent
    numeric oracle for the closed-form fractional operators. A step h
    that is not positive and finite, an x below the terminal, or a grid
    of more than GL_MAX_STEPS steps (x/h not finite included) raises
    DomainError, and so does a sum past the double range.
    """
    if order <= 0:
        raise DomainError(f"order must be positive, got {order}")
    if not 0.0 < h < math.inf:  # NaN fails it too
        raise DomainError(f"step must be positive and finite, got "
                          f"step={h!r}")
    if x < 0:
        raise DomainError(f"grunwald_letnikov: x={x!r} outside [0, inf), "
                          "below the terminal at 0")
    steps = x / h + 1e-12
    if not steps <= GL_MAX_STEPS:
        raise DomainError(f"x={x!r} with step {h!r} needs {x / h:.10g} grid "
                          f"steps, past the limit of {GL_MAX_STEPS}")
    n_steps = int(math.floor(steps))
    weight = 1.0
    acc = f(x)
    for j in range(1, n_steps + 1):
        weight *= (j - 1.0 - order) / j  # recurrence for (-1)^j C(alpha, j)
        acc += weight * f(x - j * h)
    try:
        value = acc / h ** order
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if math.isfinite(value):
        return value
    raise DomainError(f"grunwald_letnikov leaves the double range at "
                      f"order={order!r}, x={x!r}, step={h!r}")


def grunwald_letnikov_richardson(f, order: float, x: float, h: float) -> float:
    """First-order Richardson extrapolation of the GL evaluator."""
    coarse = grunwald_letnikov(f, order, x, h)
    fine = grunwald_letnikov(f, order, x, h / 2.0)
    return 2.0 * fine - coarse


def plane_wave_eigenvalue(order: float, energy: float,
                          c: PhysicalConstants) -> FractionalEigenvalue:
    """Eigenvalue of D_t^alpha on the stationary phase exp(-i E t / hbar).

    a_alpha = (-i E / hbar)^alpha on the principal branch, so
    |a_alpha| = (E/hbar)^alpha, a_1 = -iE/hbar and a_2 = -E^2/hbar^2.
    A modulus past the double range raises DomainError.
    """
    # written so that NaN fails each check
    if not order > 0:
        raise DomainError(f"order must be positive, got {order}")
    if not energy > 0:
        raise DomainError(f"energy must be positive, got {energy}")
    try:
        value = complex(0.0, -energy / c.hbar) ** order
    except OverflowError:
        raise DomainError(f"the plane-wave eigenvalue (E/hbar)^order leaves "
                          f"the double range at order={order!r}, "
                          f"energy={energy!r}") from None
    return FractionalEigenvalue(order=order, value=value)


def caputo_plane_wave(order: float, energy: float, t: float,
                      c: PhysicalConstants) -> complex:
    """Caputo derivative (terminal 0) of exp(-i E t / hbar) at time t.

    Equals (-iE/hbar) t^(1-a) E_{1,2-a}(-iE t/hbar). For order < 1 this is
    NOT proportional to the plane wave itself: the Caputo operator does not
    admit oscillatory exponentials as eigenfunctions, which is why the
    eigenvalue route uses the Liouville-type rule. The difference from
    a_alpha exp(-iEt/hbar) quantifies that mismatch. order must lie in
    (0, 1] and t be finite and non-negative (DomainError).
    """
    if not 0.0 < order <= 1.0:
        raise DomainError(f"order must be in (0, 1], got {order}")
    if not 0.0 <= t < math.inf:  # NaN fails it too
        raise DomainError(f"t must be finite and >= 0, got t={t!r}")
    lam = complex(0.0, -energy / c.hbar)
    if t == 0.0:
        return lam if order == 1.0 else 0.0 + 0.0j
    return lam * t ** (1.0 - order) * mittag_leffler(1.0, 2.0 - order,
                                                     lam * t)


def eo_coefficients(p: ModelParams) -> tuple[complex, complex]:
    """Complex strength coefficients of the energy-operator representation.

    Case I  (energy -> i hbar d/dt):    eta0 (i hbar/e_ref)^alpha,
                                        theta0 (i hbar/e_ref)^beta.
    Case II (energy -> -hbar^2/2m Lap): eta0 (-hbar^2/2m e_ref)^alpha,
                                        theta0 (-hbar^2/2m e_ref)^beta.

    The case follows p.mechanism (EO_I or EO_II). Principal branches
    throughout. The accompanying fractional operator (D_t or the
    Laplacian power) multiplies these; at alpha = 1 case I the product
    with the plane-wave eigenvalue is real and reduces to the
    energy-coupling value eta0 * E / e_ref. A coefficient past the double
    range raises DomainError.
    """
    c = p.constants
    if p.mechanism is Mechanism.EO_I:
        base = complex(0.0, c.hbar / p.e_ref)
    elif p.mechanism is Mechanism.EO_II:
        base = complex(-c.hbar ** 2 / (2.0 * c.mass * p.e_ref), 0.0)
    else:
        raise ValidationError(
            f"mechanism {p.mechanism.value} is not an energy-operator case")
    try:
        pair = p.eta0 * base ** p.alpha_exp, p.theta0 * base ** p.beta_exp
        if all(map(cmath.isfinite, pair)):
            return pair
    except (OverflowError, ZeroDivisionError):
        # ZeroDivisionError: a negative power of a tiny base, whose
        # positive power underflowed to 0 on the way
        pass
    raise DomainError(
        f"the {p.mechanism.value} coefficients leave the double range at "
        f"e_ref={p.e_ref!r}, alpha={p.alpha_exp!r}, beta={p.beta_exp!r}")

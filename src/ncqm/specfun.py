"""Special functions used by spectra, wave functions and the fractional
operators.

Gamma, log-gamma, reciprocal gamma, beta, Bessel J/Y and the generalized
Laguerre polynomials are validated wrappers over ``scipy.special``: each
checks its domain, raises the package's typed errors where scipy would
return inf or nan, and returns a Python float (or complex) for scalar
input. The Mittag-Leffler function, which scipy does not provide, is
summed here. Accuracy envelopes (checked against mpmath by the test
suite):

* gamma_fn      relative error <= 1e-12 for real z in (0, 170];
                <= 1e-13 for complex z with Re z in [-5, 20], |Im z| <= 10
* log_gamma     error <= max(1e-13 |ln Gamma(z)|, 1e-15) for z in (0, 1000]
* beta_fn       relative error <= 1e-12 for a, b in (0, 50]
* bessel_j      absolute error <= 1e-10 for 0 <= x <= 50, integer order <= 20
* bessel_y      error <= 1e-10 * max(1, |Y|) on the same envelope (x > 0)
* laguerre      error <= 1e-12 times the sum of the absolute terms of the
                explicit sum, for n <= 20, a in [0, 20], 0 <= x <= 50
* mittag_leffler  relative error <= 1e-10 where it returns, alpha in [0.5, 1],
                |z| <= 30; ConvergenceError when the 500-term budget runs
                out, the value overflows or the terms cancel (see README)

bessel_j, bessel_y and laguerre also take an array of x and return an
array. All functions are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError, SingularityError


# Budget of the Mittag-Leffler series: at most _ML_MAX_TERMS terms, ended
# by three terms in a row below max(_ML_ABS_TOL, _ML_REL_TOL * |sum|); a
# sum whose largest term exceeds _ML_MAX_CANCELLATION |sum| is refused.
_ML_MAX_TERMS = 500
_ML_ABS_TOL = 1e-16
_ML_REL_TOL = 1e-14
_ML_MAX_CANCELLATION = 1e3


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def _real(v):
    """A Python float for a 0-d result, the array otherwise.

    numpy scalars print as np.float64(...) under repr, which the CLI
    writes into its CSV output.
    """
    return float(v) if np.ndim(v) == 0 else v


def gamma_fn(z):
    """Gamma function for real or complex argument.

    Raises SingularityError at the poles (non-positive integers). Real
    input returns a float, complex input a complex.
    """
    if isinstance(z, complex):
        if z.imag == 0.0 and _is_nonpositive_int(z.real):
            raise SingularityError(f"gamma pole at z={z}")
        return complex(special.gamma(z))
    z = float(z)
    if _is_nonpositive_int(z):
        raise SingularityError(f"gamma pole at z={z}")
    return float(special.gamma(z))


def log_gamma(z: float) -> float:
    """ln Gamma(z) for real z > 0."""
    z = float(z)
    if z <= 0:
        raise DomainError(f"log_gamma requires z > 0, got {z}")
    return float(special.gammaln(z))


def recip_gamma(x: float) -> float:
    """1/Gamma(x) for real x, returning 0 at the poles."""
    return float(special.rgamma(x))


def beta_fn(a: float, b: float) -> float:
    """Euler beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), a, b > 0."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(special.beta(a, b))


def _check_bessel_args(order: int, x, fn: str) -> np.ndarray:
    if order != int(order) or order < 0:
        raise DomainError(f"{fn} requires integer order >= 0, got {order}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{fn} requires finite x, got {x}")
    return x


def bessel_j(order: int, x):
    """Bessel function of the first kind, integer order >= 0, x >= 0."""
    x = _check_bessel_args(order, x, "bessel_j")
    if np.any(x < 0):
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    return _real(special.jv(int(order), x))


def bessel_j_asymptotic(order: int, x: float) -> float:
    """Leading large-argument form sqrt(2/pi x) cos(x - m pi/2 - pi/4).

    This is the O(1/x)-accurate cosine asymptote; it is exposed separately
    from bessel_j so the full evaluation can be checked against it.
    """
    _check_bessel_args(order, x, "bessel_j_asymptotic")
    if x <= 0:
        raise DomainError("asymptotic form requires x > 0")
    chi = x - (0.5 * order + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * math.cos(chi)


def bessel_y(order: int, x):
    """Bessel function of the second kind, integer order >= 0, x > 0."""
    x = _check_bessel_args(order, x, "bessel_y")
    if np.any(x == 0):
        raise SingularityError("bessel_y is singular at x = 0")
    if np.any(x < 0):
        raise DomainError(f"bessel_y requires x > 0, got {x}")
    return _real(special.yv(int(order), x))


def laguerre(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^(a)(x)."""
    if n != int(n) or n < 0:
        raise DomainError(f"laguerre requires integer n >= 0, got {n}")
    if a <= -1:
        raise DomainError(f"laguerre requires a > -1, got {a}")
    return _real(special.eval_genlaguerre(int(n), a, x))


def mittag_leffler(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Summed as sum_n z^n / Gamma(n*alpha + beta); poles of Gamma contribute
    vanishing terms. At real z > 0 the terms past the overflow of z^n are
    exp(n ln z - ln Gamma), inf above e^709.78 (the largest double). Raises
    ConvergenceError if the tail is not below tolerance within the fixed
    500 terms, if the sum overflows, or if a term exceeds 1e3 |sum|
    (cancellation past 1e-10 relative).
    """
    if alpha <= 0:
        raise DomainError(f"mittag_leffler requires alpha > 0, got {alpha}")
    positive = not isinstance(z, complex) and z > 0
    acc, z_pow = (0j, 1 + 0j) if isinstance(z, complex) else (0.0, 1.0)
    largest = small_streak = 0
    for n in range(_ML_MAX_TERMS):
        arg = n * alpha + beta
        if positive and math.isinf(z_pow) and arg > 0:
            log_term = n * math.log(z) - log_gamma(arg)
            term = math.exp(log_term) if log_term < 709.78 else math.inf
        else:
            term = z_pow * recip_gamma(arg)
        acc += term
        if not math.isfinite(abs(acc)):
            raise ConvergenceError(f"mittag_leffler overflow at term {n}")
        largest = max(largest, abs(term))
        # the gamma argument must be past its minimum before small terms
        # can be trusted as a tail bound
        if arg > 2.0 and abs(term) <= max(_ML_ABS_TOL,
                                          _ML_REL_TOL * abs(acc)):
            small_streak += 1
            if small_streak >= 3:
                if largest > _ML_MAX_CANCELLATION * abs(acc):
                    raise ConvergenceError(
                        f"mittag_leffler cancellation: largest term "
                        f"{largest:.3g}, |sum| {abs(acc):.3g}")
                return acc
        else:
            small_streak = 0
        z_pow = z_pow * z
    raise ConvergenceError(
        f"mittag_leffler did not converge in {_ML_MAX_TERMS} terms "
        f"(alpha={alpha}, beta={beta}, |z|={abs(z):.3g})")

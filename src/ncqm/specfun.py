"""Special functions used by spectra, wave functions and the fractional
operators.

Every function checks its domain, raises the package's typed errors where
a bare evaluation would return inf or nan, and returns a Python float (or
complex, for mittag_leffler at complex z) for scalar input. The radial
states and the fractional operators need numpy and ``math`` alone, so
this module imports no scipy at load time:

* gamma_fn is ``math.gamma`` at real x, +-inf where Gamma leaves the
  double range (x past 171.62, |x| below 5.6e-309); recip_gamma is 1/Gamma
  from the same route, with 0 at the poles and past 171.62, x itself
  where |x| < 5.6e-309 (1/Gamma(x) = x to the last bit there) and +-inf
  where 1/Gamma leaves the double range (x below about -171.5);
* log_gamma is ``math.lgamma``;
* laguerre runs the three-term recurrence in n for n <= 20, and calls
  scipy's ``eval_genlaguerre`` (imported on call) beyond, where a Python
  loop of n steps per call would be too slow;
* bessel_j sums its ascending series for 0 <= x <= 12 (where the radial
  states sample it) and calls scipy's ``jv`` (imported on call) beyond;
  ``jv`` runs the general complex-order routine at every point, about ten
  times slower than the series on the radial-state grids;
* beta_fn is Gamma(a)/Gamma(a+b)*Gamma(b) from ``math.gamma``, the
  quotient taken first, and exp(lgamma(a) + lgamma(b) - lgamma(a+b))
  where one of the three Gammas overflows (a + b past 171.62, an
  argument below 5.6e-309), which loses digits as |lgamma| grows, so
  past a larger argument of 1000 the lgamma difference comes from
  Stirling's series;
* bessel_y is a validated wrapper over ``scipy.special``, imported on
  each call;
* mittag_leffler, which scipy does not provide, is summed here.

Accuracy envelopes (checked against mpmath by the test suite):

* gamma_fn      relative error <= 1e-12 for real x in (0, 170]
* recip_gamma   relative error <= 2e-15 for real x in (-171.1, 171.6) off
                the poles, where 1/Gamma is a finite double
* log_gamma     error <= max(1e-13 |ln Gamma(z)|, 1e-15) for z in (0, 1000]
* beta_fn       relative error <= 1e-12 for a, b in (0, 50], <= 1e-11 on
                (50, 1000] where B is a normal double, and <= 1e-12 for
                one argument in (0, 10] and the other in (1e3, 1e6]
* bessel_j      absolute error <= 1e-10 for 0 <= x <= 50, integer order <= 20
                (the series' cancellation error, about eps I_0(x), peaks
                near 6e-13 at x = 12)
* bessel_y      error <= 1e-10 * max(1, |Y|) on the same envelope (x > 0)
* laguerre      error <= 1e-12 times the sum of the absolute terms of the
                explicit sum, for n <= 20, a in [0, 20], 0 <= x <= 50
* mittag_leffler  relative error <= 1e-10 where it returns, alpha in [0.5, 1],
                |z| <= 30, and at real z > 0 wherever the value is a finite
                double and the series ends within 10^6 terms;
                ConvergenceError when the term budget runs out, the value
                overflows or the terms cancel (see README)

bessel_j, bessel_y and laguerre also take an array of x and return an
array; an array result equals the scalar results element by element, bit
for bit. All functions are pure and reentrant.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .params import _require_int, _require_real


# Budget of the Mittag-Leffler series: at most _ML_MAX_TERMS terms, the
# cap fractional.GL_MAX_STEPS puts on the other Python loop (about 1.3 s
# at 10^6), ended by three terms in a row below max(_ML_ABS_TOL,
# _ML_REL_TOL * |sum|); a sum whose largest term exceeds
# _ML_MAX_CANCELLATION |sum| is refused.
_ML_MAX_TERMS = 10**6
_LOG_MAX_DOUBLE = 709.78  # just below ln of the largest double
_ML_ABS_TOL = 1e-16
_ML_REL_TOL = 1e-14
_ML_MAX_CANCELLATION = 1e3

# Bessel J is summed by its ascending series for 0 <= x <= _J_SERIES_MAX_X;
# past it the alternating terms cancel (error about eps I_0(x)) and scipy's
# jv is used. The series in -x^2/4 keeps its terms up to the first one
# past the largest whose size at _J_SERIES_MAX_X is <= _J_SERIES_TAIL
# (relative to its first term, 1).
_J_SERIES_MAX_X = 12.0
_J_SERIES_TAIL = 1e-17

# Past this larger argument beta_fn takes ln Gamma(l + s) - ln Gamma(l)
# from Stirling's series (remainder below 1/(1260 l^5)) instead of lgamma,
# whose rounding, about eps l ln l, grows with l.
_BETA_STIRLING_MIN = 1e3

# Laguerre L_n^(a) runs its forward recurrence in n for n <= this, the
# documented envelope; past it scipy's eval_genlaguerre is used, since the
# recurrence is a Python loop of n array steps.
_LAGUERRE_RECURRENCE_MAX_N = 20


def _is_nonpositive_int(x: float) -> bool:
    """A pole of Gamma, or -inf, where the poles accumulate."""
    return x <= 0 and (x == -math.inf or x == math.floor(x))


def _real(v):
    """A Python float for a 0-d result, the array otherwise.

    numpy scalars print as np.float64(...) under repr, which the CLI
    writes into its CSV output.
    """
    return float(v) if np.ndim(v) == 0 else v


def _gamma(x: float) -> float:
    """Gamma of a real x off the poles: ``math.gamma``, and +-inf where
    that overflows (x past 171.62, |x| below 5.6e-309)."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def gamma_fn(x: float) -> float:
    """Gamma function of a real x, +-inf where it leaves the double range.

    Raises SingularityError at the poles (non-positive integers) and
    DomainError where x is not a real number (NaN included).
    """
    x = _require_real("gamma_fn x", x, ends="[]", error=DomainError)
    if _is_nonpositive_int(x):
        raise SingularityError(f"gamma pole at x={x}")
    return _gamma(x)


def log_gamma(z: float) -> float:
    """ln Gamma(z) for real z > 0; inf where it exceeds the double range.
    Any other z raises DomainError."""
    z = _require_real("log_gamma z", z, 0.0, ends="(]", error=DomainError)
    try:
        return math.lgamma(z)
    except OverflowError:  # z above about 2.5e305
        return math.inf


def recip_gamma(x: float) -> float:
    """1/Gamma(x) for real x, from the Gamma of gamma_fn.

    0 at the poles and past 171.62; x itself where |x| < 5.6e-309, where
    Gamma overflows and 1/Gamma(x) = x + 0.577 x^2 rounds to x; +-inf
    where 1/Gamma leaves the double range (x below about -171.5, where
    Gamma is subnormal or has underflowed to +-0). Raises DomainError
    where x is not a real number (NaN included), as gamma_fn does.
    """
    x = _require_real("recip_gamma x", x, ends="[]", error=DomainError)
    if _is_nonpositive_int(x):
        return 0.0
    g = _gamma(x)
    if math.isinf(g):
        return x if abs(x) < 1.0 else 0.0
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def beta_fn(a: float, b: float) -> float:
    """Euler beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), a, b > 0.

    Gamma(a)/Gamma(a+b)*Gamma(b) by ``math.gamma``, dividing before the
    second product. Where one of those Gammas overflows it is
    exp(lgamma(a) + lgamma(b) - lgamma(a+b)) while both arguments are at
    most _BETA_STIRLING_MIN; past that the larger one, l, carries
    ln Gamma(l + s) - ln Gamma(l) for the smaller s by Stirling's series,
    so s is not lost in l + s. Where B leaves the double range the result
    is inf (B is about 1/a + 1/b, past the largest double for an argument
    below about 5.6e-309) or 0.0 (B underflows); at an infinite argument
    it is 0.0, the limit at the other argument fixed. It is never nan. An
    argument that is not a positive real (NaN included) raises DomainError.
    """
    a = _require_real("beta_fn a", a, 0.0, ends="(]", error=DomainError)
    b = _require_real("beta_fn b", b, 0.0, ends="(]", error=DomainError)
    if math.isinf(a) or math.isinf(b):
        return 0.0
    try:
        return math.gamma(a) / math.gamma(a + b) * math.gamma(b)
    except OverflowError:
        pass
    s, l = min(a, b), max(a, b)
    if l <= _BETA_STIRLING_MIN:
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    elif s > _BETA_STIRLING_MIN:  # B <= B(1000, 1000) = 9.8e-604
        return 0.0
    else:
        u, v = 1.0 / (l + s), 1.0 / l
        log_beta = math.lgamma(s) - (
            (l - 0.5) * math.log1p(s / l) + s * math.log(l + s) - s
            + (u - v) / 12.0 - (u * u * u - v * v * v) / 360.0)
    return math.exp(log_beta) if log_beta < _LOG_MAX_DOUBLE else math.inf


def _check_bessel_args(order: int, x, fn: str) -> tuple[int, np.ndarray]:
    order = _require_int(f"{fn} order", order, 0, DomainError)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{fn} requires finite x, got {x}")
    return order, x


@functools.lru_cache(maxsize=128)
def _j_series_coefficients(order: int) -> tuple[float, ...]:
    """c_k = 1/(k! (m+1)_k) of J_m(x) = (x/2)^m/m! sum_k c_k (-x^2/4)^k.

    The count is fixed by the cutoff, never by the arguments of a call, so
    an array and each of its elements are summed by the same terms.
    """
    coeffs, term, k = [1.0], 1.0, 0
    quarter_x2 = 0.25 * _J_SERIES_MAX_X ** 2
    while True:
        k += 1
        denominator = k * (order + k)
        coeffs.append(coeffs[-1] / denominator)
        term *= quarter_x2 / denominator
        if denominator > quarter_x2 and term <= _J_SERIES_TAIL:
            return tuple(coeffs)


def _bessel_j_series(order: int, x: np.ndarray) -> np.ndarray:
    """J_m(x) for 0 <= x <= _J_SERIES_MAX_X: the series in -x^2/4 by
    Horner, times (x/2)^m/m! as the product of the m factors x/(2j)."""
    coeffs = _j_series_coefficients(order)
    t = -0.25 * x * x
    acc = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    half_x = 0.5 * x
    for j in range(1, order + 1):
        acc *= half_x / j
    return acc


def bessel_j(order: int, x):
    """Bessel function of the first kind, integer order >= 0, x >= 0.

    Summed by its ascending series for x <= 12, scipy's jv beyond.
    """
    order, x = _check_bessel_args(order, x, "bessel_j")
    if np.any(x < 0):
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    near = x <= _J_SERIES_MAX_X
    if np.all(near):
        return _real(_bessel_j_series(order, x))
    from scipy import special
    out = np.empty_like(x)
    out[~near] = special.jv(order, x[~near])
    out[near] = _bessel_j_series(order, x[near])
    return _real(out)


def bessel_j_asymptotic(order: int, x: float) -> float:
    """Leading large-argument form sqrt(2/pi x) cos(x - m pi/2 - pi/4).

    This is the O(1/x)-accurate cosine asymptote; it is exposed separately
    from bessel_j so the full evaluation can be checked against it. A
    value past the double range (x below about 1e-308) raises DomainError.
    """
    order = _require_int("bessel_j_asymptotic order", order, 0, DomainError)
    x = _require_real("bessel_j_asymptotic x", x, 0.0, error=DomainError)
    chi = x - (0.5 * order + 0.25) * math.pi
    value = math.sqrt(2.0 / (math.pi * x)) * math.cos(chi)
    if not math.isfinite(value):
        raise DomainError(f"bessel_j_asymptotic leaves the double range at "
                          f"x={x!r}")
    return value


def bessel_y(order: int, x):
    """Bessel function of the second kind, integer order >= 0, x > 0. A
    value past the double range (a large order at a small x) raises
    DomainError."""
    order, x = _check_bessel_args(order, x, "bessel_y")
    if np.any(x == 0):
        raise SingularityError("bessel_y is singular at x = 0")
    if np.any(x < 0):
        raise DomainError(f"bessel_y requires x > 0, got {x}")
    from scipy import special
    y = special.yv(order, x)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"bessel_y of order {order} leaves the double "
                          "range at some x")
    return _real(y)


def _laguerre_recurrence(n: int, a: float, x):
    """L_n^(a)(x) by the forward recurrence of laguerre (n <= 20)."""
    if n == 0:
        return np.ones_like(x)
    prev, cur = 1.0, 1.0 + a - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur


def laguerre(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^(a)(x), finite a > -1 and x.

    For n <= 20 by the forward recurrence L_0 = 1, L_1 = 1 + a - x,
    L_(k+1) = ((2k + 1 + a - x) L_k - (k + a) L_(k-1)) / (k + 1), whose
    error stays near eps relative to the value, also near its zeros;
    scipy's eval_genlaguerre beyond. A value past the double range raises
    DomainError.
    """
    n = _require_int("laguerre n", n, 0, DomainError)
    a = _require_real("laguerre a", a, -1.0, error=DomainError)
    x = np.asarray(x, dtype=float)
    # with a and |x| below 1e14 each recurrence step multiplies by less
    # than 3e14, so 20 of them stay inside the doubles (NaN fails too)
    if (n <= _LAGUERRE_RECURRENCE_MAX_N and a < 1e14
            and np.abs(x).max(initial=0.0) < 1e14):
        return _real(_laguerre_recurrence(n, a, x))
    if not np.all(np.isfinite(x)):
        raise DomainError(f"laguerre requires finite x, got {x}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if n > _LAGUERRE_RECURRENCE_MAX_N:
            from scipy import special
            cur = special.eval_genlaguerre(n, a, x)
        else:
            cur = _laguerre_recurrence(n, a, x)
    if not np.all(np.isfinite(cur)):
        raise DomainError(f"laguerre L_{n}^({a!r}) leaves the double range "
                          "at some x")
    return _real(cur)


def mittag_leffler(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Summed as sum_n z^n / Gamma(n*alpha + beta); poles of Gamma contribute
    vanishing terms. At real z > 0 the terms past the overflow of z^n are
    exp(n ln z - ln Gamma), inf above e^709.78 (the largest double). The
    budget is 10^6 terms; the tail test needs n*alpha + beta > 2, so where
    no term within the budget gets there the sum is refused at once.
    Raises ConvergenceError if the tail is not below tolerance within the
    budget, if the sum overflows, or if a term exceeds 1e3 |sum|
    (cancellation past 1e-10 relative). Raises DomainError, naming the
    input, unless alpha is positive and finite, beta finite and z a
    complex number or a real one (infinite included), NaN in neither
    part.
    """
    alpha = _require_real("mittag_leffler alpha", alpha, 0.0,
                          error=DomainError)
    beta = _require_real("mittag_leffler beta", beta, error=DomainError)
    if not isinstance(z, complex):
        z = _require_real("mittag_leffler z", z, ends="[]", error=DomainError)
    elif cmath.isnan(z):
        raise DomainError(f"mittag_leffler z must be a number, got {z!r}")
    if (_ML_MAX_TERMS - 1) * alpha + beta <= 2.0:
        raise ConvergenceError(
            f"mittag_leffler cannot converge in {_ML_MAX_TERMS} terms: "
            f"n*alpha + beta stays <= 2 (alpha={alpha}, beta={beta})")
    positive = not isinstance(z, complex) and z > 0
    acc, z_pow = (0j, 1 + 0j) if isinstance(z, complex) else (0.0, 1.0)
    largest = small_streak = 0
    for n in range(_ML_MAX_TERMS):
        arg = n * alpha + beta
        if positive and math.isinf(z_pow) and arg > 0:
            log_term = n * math.log(z) - log_gamma(arg)
            term = (math.exp(log_term) if log_term < _LOG_MAX_DOUBLE
                    else math.inf)
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

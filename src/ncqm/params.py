"""Model parameters and energy-dependent effective coefficients.

The deformed algebra is controlled by two strengths: theta (coordinate-
coordinate commutator) and eta (momentum-momentum commutator), both given
a power-law dependence on an energy scale,

    theta(E) = theta0 * (E / e_ref)**beta,
    eta(E)   = eta0   * (E / e_ref)**alpha.

Three mechanisms fix the meaning of the running energy: an independent
vacuum-fluctuation scale (SQF), the particle energy itself (EC), and a
quantum-operator representation of the energy (EO, cases I and II).
Everything downstream (spectra, wave functions, oracles) consumes the
effective coefficients computed here.

Default units are natural (hbar = m = 1); all constants can be overridden.
All functions are pure and thread-safe. The module loads no numpy: an
ndarray can only exist once numpy is loaded, so the array branches look
numpy up in sys.modules, and only effective_planck_4d imports it.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields

from .errors import DomainError, SingularityError, UsageError, ValidationError


class Mechanism(enum.Enum):
    """How the noncommutative strengths acquire their energy dependence."""

    SQF = "sqf"      # independent vacuum-fluctuation energy scale
    EC = "ec"        # coupling to the particle energy
    EO_I = "eo_i"    # energy -> i*hbar d/dt (fractional time derivative)
    EO_II = "eo_ii"  # energy -> kinetic Hamiltonian (fractional Laplacian)


def _end(x: float) -> str:
    """An interval end as a message prints it: 0 and inf short, any other
    double by its repr."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def _require_real(name, value, low=-math.inf, high=math.inf, ends="()",
                  error=ValidationError) -> float:
    """value as a Python float if it is a real number in the interval
    from low to high, whose ends is a pair of brackets, a square one
    closed: "()" by default, "[)" for [low, high). An infinite value
    passes only where its end is closed ("(]" with high = inf). An int or
    numpy scalar is read as the float it equals. NaN, a value outside, a
    string, None or a complex number raises error (ValidationError by
    default), naming the argument and its value."""
    x = value
    if type(x) is not float:
        try:
            x = float(x) if isinstance(x, numbers.Real) else math.nan
        except OverflowError:  # an int past the doubles
            x = math.nan
    # NaN fails every comparison
    if ((low < x if ends[0] == "(" else low <= x)
            and (x < high if ends[1] == ")" else x <= high)):
        return x
    raise error(f"{name} must be in {ends[0]}{_end(low)}, {_end(high)}"
                f"{ends[1]}, got {value!r}")


def _require_finite(obj, names: tuple[str, ...], low=-math.inf,
                    high=math.inf, ends="()", error=ValidationError):
    """Read each named field of obj through _require_real, on a finite
    interval, and store it as a Python float: arithmetic on a numpy scalar
    warns and returns inf where a float raises the error the checks
    expect."""
    for name in names:
        object.__setattr__(obj, name, _require_real(
            name, getattr(obj, name), low, high, ends, error))


def _require_int(name, value, minimum=0, error=ValidationError) -> int:
    """value as a Python int if it equals an integer in minimum..2**53
    (every minimum is >= 0, and a double holds each such integer exactly):
    2.0, np.float64(2.0) and np.int64(2) all give 2. NaN, infinities,
    fractions, strings and larger ints raise error (a ValueError type,
    ValidationError by default), naming the argument and its value."""
    try:
        integral = math.isfinite(value) and value == int(value)
    except (TypeError, OverflowError):  # a string; an int past the doubles
        integral = False
    if not (integral and minimum <= value <= 2 ** 53):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhysicalConstants:
    """Dimensional constants of the underlying commutative problem.

    spring_k is the oscillator elastic constant; zero selects the free
    particle. charge is only used by the mesoscopic-ring module. hbar
    and mass must be positive and charge and spring_k finite, spring_k
    non-negative; the coefficients divide by hbar^2, so hbar^2 must be a
    positive double too (ValidationError otherwise).
    """

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    spring_k: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("hbar", "mass"), 0.0)
        _require_finite(self, ("charge",))
        _require_finite(self, ("spring_k",), 0.0, ends="[)")
        if not 0.0 < self.hbar * self.hbar < math.inf:
            raise ValidationError(f"hbar={self.hbar!r} squares to "
                                  f"{self.hbar * self.hbar!r}, outside the "
                                  "positive double range")

    @property
    def omega(self) -> float:
        """Bare oscillator frequency sqrt(k/m)."""
        return math.sqrt(self.spring_k / self.mass)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of one energy-dependent noncommutative model.

    eta0 and theta0 must be finite and non-negative, the exponents finite
    and e_ref a finite normal double, mechanism a Mechanism or its value
    ("ec" is stored as Mechanism.EC) and constants a PhysicalConstants
    (ValidationError).
    """

    eta0: float = 0.0
    theta0: float = 0.0
    alpha_exp: float = 1.0
    beta_exp: float = 1.0
    e_ref: float = 1.0
    mechanism: Mechanism = Mechanism.EC
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self):
        _require_finite(self, ("eta0", "theta0"), 0.0, ends="[)")
        _require_finite(self, ("alpha_exp", "beta_exp"))
        # from the smallest normal double up, so 1/e_ref is finite
        _require_finite(self, ("e_ref",), sys.float_info.min, ends="[)")
        try:
            object.__setattr__(self, "mechanism", Mechanism(self.mechanism))
        except ValueError as exc:
            raise ValidationError(f"mechanism must be a Mechanism or its "
                                  f"value: {exc}") from None
        _require_constants(self)


def _require_constants(obj):
    """ValidationError unless obj.constants is a PhysicalConstants."""
    if not isinstance(obj.constants, PhysicalConstants):
        raise ValidationError(f"constants must be a PhysicalConstants, got "
                              f"{obj.constants!r}")


def _require(p: ModelParams, mechanism: Mechanism, fn: str,
             spring: str | None = None):
    """UsageError unless p has the one mechanism fn serves and, for spring
    "zero" ("positive"), is a free particle (an oscillator)."""
    if p.mechanism is not mechanism:
        raise UsageError(f"{fn} requires mechanism={mechanism.value}, "
                         f"got {p.mechanism.value}")
    if spring == "zero" and p.constants.spring_k != 0:
        raise UsageError(f"{fn} is the free-particle form (spring_k = 0)")
    if spring == "positive" and p.constants.spring_k <= 0:
        raise UsageError(f"{fn} needs an oscillator (spring_k > 0)")


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Derived coefficients of the effective Hamiltonian at one energy, or
    elementwise over an array of energies (every field then has its shape).

    b_e and k_e are the field/elastic terms injected by momentum
    noncommutativity alone; b_h, k_h and m_star include the oscillator
    potential's contribution through the coordinate strength. These five
    are stored; the generalized frequency omega_h = sqrt(k_h/m_star) is
    computed on access. The effective Planck constant, the rescaled
    algebra and the inverse-map factor k(E) are effective_planck,
    rescaled_strengths and k_factor of nc_strengths(p, E).
    """

    b_e: float
    k_e: float
    b_h: float
    k_h: float
    m_star: float

    @property
    def omega_h(self):
        """Generalized oscillator frequency sqrt(k_h/m_star)."""
        return _sqrt(self.k_h / self.m_star)


def nc_strengths(p: ModelParams, energy):
    """Evaluate (theta(E), eta(E)) for the power-law running.

    Parameters
    ----------
    p : ModelParams
    energy : float or ndarray
        Running energy (particle energy for EC, fluctuation scale for SQF).
        Must be non-negative; an array must be non-negative everywhere.
        NaN is refused like a negative energy (DomainError). A real
        scalar that is not a float (an int, a numpy scalar) is read as one.

    Returns
    -------
    (theta, eta) : tuple of float, or of ndarray shaped like energy
    """
    if type(energy) is not float and isinstance(energy, numbers.Real):
        energy = float(energy)  # a numpy scalar warns where a float raises
    # written so that NaN fails the check; an array comparison gives
    # numpy booleans, reduced by all()
    nonnegative = energy >= 0
    if not (nonnegative if type(nonnegative) is bool else nonnegative.all()):
        worst = energy if _numpy_of(energy) is None else energy.min()
        raise DomainError(f"energy must be non-negative, got {worst}")
    ratio = energy / p.e_ref
    return (_power(p.theta0, ratio, p.beta_exp, "beta"),
            _power(p.eta0, ratio, p.alpha_exp, "alpha"))


def _numpy_of(x):
    """numpy if x is a numpy array, else None. No array can exist before
    numpy is loaded, so this looks numpy up in sys.modules and never
    imports it."""
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


def _any(mask) -> bool:
    """A scalar condition, or whether it holds anywhere in an array."""
    if type(mask) is not bool and _numpy_of(mask) is not None:
        return mask.any()
    return mask


def _sqrt(x):
    """math.sqrt of a scalar (a Python float comes back), np.sqrt of an
    array; both are the correctly rounded square root."""
    if type(x) is not float and (np := _numpy_of(x)) is not None:
        return np.sqrt(x)
    return math.sqrt(x)


def _power(amplitude: float, ratio, exponent: float, name: str):
    if amplitude == 0.0:
        if type(ratio) is not float and (np := _numpy_of(ratio)) is not None:
            return np.zeros_like(ratio)
        return 0.0
    if exponent < 0 and _any(ratio == 0.0):
        raise SingularityError(f"E=0 with negative exponent {name}={exponent}")
    # 0**0 = 1 and 0**exponent = 0 for exponent > 0, as the limits require
    try:
        return amplitude * ratio ** exponent
    except OverflowError:  # float ** raises where an array carries inf
        raise SingularityError(f"{name}={exponent} strength overflows at "
                               f"E/e_ref={ratio!r}") from None


def _strengths(theta, eta) -> tuple[float, float]:
    """theta and eta read as finite reals (DomainError otherwise)."""
    return (_require_real("theta", theta, error=DomainError),
            _require_real("eta", eta, error=DomainError))


def effective_planck(theta: float, eta: float, c: PhysicalConstants) -> float:
    """Coordinate-momentum commutator coefficient hbar*(1 + theta*eta/4hbar^2).

    theta and eta must be finite, and a coefficient that is not finite
    raises DomainError.
    """
    theta, eta = _strengths(theta, eta)
    value = c.hbar * (1.0 + theta * eta / (4.0 * c.hbar ** 2))
    if not math.isfinite(value):
        raise DomainError(f"the effective Planck constant is {value!r} at "
                          f"theta={theta!r}, eta={eta!r}")
    return value


def effective_planck_4d(theta_matrix, eta_matrix,
                        c: PhysicalConstants) -> float:
    """Trace form of the effective Planck constant for 4x4 strengths.

    Both matrices must be finite (DomainError) and antisymmetric, to 1e-12
    relative to their largest entry (or absolute, below 1). Returns
    hbar * (1 + Tr[theta @ eta] / 4 hbar^2).

    For a single noncommutative plane embedded block-diagonally the trace
    contracts to Tr = -2*theta*eta, so the per-plane commutator coefficient
    of :func:`effective_planck` is recovered as -Tr/2.
    """
    import numpy as np
    th = np.asarray(theta_matrix, dtype=float)
    et = np.asarray(eta_matrix, dtype=float)
    for name, m in (("theta", th), ("eta", et)):
        if m.shape != (4, 4):
            raise ValidationError(f"{name} matrix must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError(f"{name} matrix has an entry that is not "
                              f"finite: {m[~np.isfinite(m)][0]}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m + m.T)) > 1e-12 * scale:
            raise ValidationError(f"{name} matrix is not antisymmetric")
    trace = float(np.trace(th @ et))
    return c.hbar * (1.0 + trace / (4.0 * c.hbar ** 2))


def k_factor(theta: float, eta: float, c: PhysicalConstants) -> float:
    """Exact inverse-map factor 1 / (1 - theta*eta/4hbar^2).

    The small-strength approximation k ~ 1 is a documented caller-side
    mode (see algebra.sw_inverse); this function always returns the exact
    value and raises on the pole theta*eta = 4 hbar^2, and where theta,
    eta or theta*eta/4hbar^2 is not finite (DomainError).
    """
    theta, eta = _strengths(theta, eta)
    zeta = theta * eta / (4.0 * c.hbar ** 2)
    if not math.isfinite(zeta):
        raise DomainError(f"theta*eta/4hbar^2 is {zeta!r} at theta={theta!r}, "
                          f"eta={eta!r}")
    if zeta == 1.0:
        raise SingularityError("k(E) pole: theta*eta = 4*hbar^2")
    return 1.0 / (1.0 - zeta)


def rescaled_strengths(theta: float, eta: float,
                       c: PhysicalConstants) -> tuple:
    """Rescaling that restores a constant Planck coefficient.

    Returns (theta', eta', xi) with xi = (1 + theta*eta/4hbar^2)^(-1/2)
    and theta' = xi^2 * theta, eta' = xi^2 * eta. By construction
    hbar * xi^2 * (1 + theta*eta/4hbar^2) = hbar. theta and eta must be
    finite and the denominator positive and finite (DomainError).
    """
    theta, eta = _strengths(theta, eta)
    denom = 1.0 + theta * eta / (4.0 * c.hbar ** 2)
    if not 0.0 < denom < math.inf:  # NaN fails it too
        raise DomainError(f"1 + theta*eta/4hbar^2 must be positive and "
                          f"finite, got {denom}")
    xi = denom ** -0.5
    return theta / denom, eta / denom, xi


def effective_coefficients(p: ModelParams, energy) -> EffectiveCoefficients:
    """All effective Hamiltonian coefficients at the given energy.

    The momentum strength feeds an angular-momentum term b_e = eta/2m*hbar
    and a confining term k_e = eta^2/8m*hbar^2; with an oscillator potential
    (spring_k > 0) the coordinate strength additionally renormalizes the
    mass, 1/m_star = 1/m + k theta^2/4hbar^2, shifts the field term to
    b_h = b_e + k theta/2hbar, and stiffens the elastic constant to
    k_h = k + k_e.

    energy is a float, giving float fields, or an ndarray, giving fields of
    its shape evaluated in one pass; the checks then apply everywhere.
    """
    theta, eta = nc_strengths(p, energy)
    c = p.constants
    hbar, m, k = c.hbar, c.mass, c.spring_k
    try:
        theta2, eta2 = theta ** 2, eta ** 2
    except OverflowError:  # float ** raises where an array carries inf
        raise SingularityError(f"the strengths theta={theta!r}, eta={eta!r} "
                               f"at E={energy!r} overflow when squared"
                               ) from None
    b_e = eta / (2.0 * m * hbar)
    k_e = eta2 / (8.0 * m * hbar ** 2)
    inv_m_star = 1.0 / m + k * theta2 / (4.0 * hbar ** 2)
    m_star = 1.0 / inv_m_star
    b_h = b_e + k * theta / (2.0 * hbar)
    k_h = k + k_e
    return EffectiveCoefficients(b_e=b_e, k_e=k_e, b_h=b_h, k_h=k_h,
                                 m_star=m_star)


# JSON document schema: a flat object whose keys are the fields of
# ModelParams (alpha_exp and beta_exp under the short names below) followed
# by those of PhysicalConstants; a key left out takes the field's default.
_ALIASES = {"alpha_exp": "alpha", "beta_exp": "beta"}
_MODEL_KEYS = {_ALIASES.get(f.name, f.name): f.name
               for f in fields(ModelParams) if f.name != "constants"}
_CONSTANT_KEYS = tuple(f.name for f in fields(PhysicalConstants))
PARAM_KEYS = (*_MODEL_KEYS, *_CONSTANT_KEYS)


def params_to_dict(p: ModelParams) -> dict:
    doc = {key: getattr(p, name) for key, name in _MODEL_KEYS.items()}
    doc.update((key, getattr(p.constants, key)) for key in _CONSTANT_KEYS)
    doc["mechanism"] = p.mechanism.value
    return doc


def _number(key: str, value) -> float:
    """A numeric document value as a float; ints are accepted, bools and
    strings are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{key} must be finite, got {value}") from None


def params_from_dict(doc: dict) -> ModelParams:
    if not isinstance(doc, dict):
        raise ValidationError(f"a config must be a JSON object, got "
                              f"{type(doc).__name__}")
    unknown = set(doc) - set(PARAM_KEYS)
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    model, constants = {}, {}
    for key, value in doc.items():
        if key in _MODEL_KEYS:  # ModelParams reads mechanism itself
            model[_MODEL_KEYS[key]] = (value if key == "mechanism"
                                       else _number(key, value))
        else:
            constants[key] = _number(key, value)
    return ModelParams(**model, constants=PhysicalConstants(**constants))


def params_to_json(p: ModelParams) -> str:
    return json.dumps(params_to_dict(p), indent=2, sort_keys=True)


def params_from_json(text: str) -> ModelParams:
    return params_from_dict(json.loads(text))

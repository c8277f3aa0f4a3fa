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

from .errors import DomainError, SingularityError, ValidationError


class Mechanism(enum.Enum):
    """How the noncommutative strengths acquire their energy dependence."""

    SQF = "sqf"      # independent vacuum-fluctuation energy scale
    EC = "ec"        # coupling to the particle energy
    EO_I = "eo_i"    # energy -> i*hbar d/dt (fractional time derivative)
    EO_II = "eo_ii"  # energy -> kinetic Hamiltonian (fractional Laplacian)


def _require_finite(obj, names: tuple[str, ...]):
    """Reject NaN and infinite fields before they reach any coefficient."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValidationError(f"{name} must be finite, got "
                                  f"{getattr(obj, name)}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Dimensional constants of the underlying commutative problem.

    spring_k is the oscillator elastic constant; zero selects the free
    particle. charge is only used by the mesoscopic-ring module. The
    coefficients divide by hbar^2, so hbar^2 must be a positive double
    (ValidationError otherwise).
    """

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    spring_k: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("hbar", "mass", "charge", "spring_k"))
        if self.hbar <= 0:
            raise ValidationError("hbar must be positive")
        if not 0.0 < self.hbar * self.hbar < math.inf:
            raise ValidationError(f"hbar={self.hbar!r} squares to "
                                  f"{self.hbar * self.hbar!r}, outside the "
                                  "positive double range")
        if self.mass <= 0:
            raise ValidationError("mass must be positive")
        if self.spring_k < 0:
            raise ValidationError("spring_k must be non-negative")

    @property
    def omega(self) -> float:
        """Bare oscillator frequency sqrt(k/m)."""
        return math.sqrt(self.spring_k / self.mass)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of one energy-dependent noncommutative model."""

    eta0: float = 0.0
    theta0: float = 0.0
    alpha_exp: float = 1.0
    beta_exp: float = 1.0
    e_ref: float = 1.0
    mechanism: Mechanism = Mechanism.EC
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self):
        _require_finite(self, ("eta0", "theta0", "alpha_exp", "beta_exp",
                               "e_ref"))
        if self.e_ref <= 0:
            raise ValidationError("e_ref must be positive")
        if self.e_ref < sys.float_info.min:  # 1/e_ref would overflow
            raise ValidationError(f"e_ref={self.e_ref!r} is below the "
                                  "smallest normal double "
                                  f"{sys.float_info.min!r}")
        if self.eta0 < 0 or self.theta0 < 0:
            raise ValidationError("eta0 and theta0 must be non-negative")


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

    Returns
    -------
    (theta, eta) : tuple of float, or of ndarray shaped like energy
    """
    if _any(energy < 0):
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


def effective_planck(theta: float, eta: float, c: PhysicalConstants) -> float:
    """Coordinate-momentum commutator coefficient hbar*(1 + theta*eta/4hbar^2)."""
    return c.hbar * (1.0 + theta * eta / (4.0 * c.hbar ** 2))


def effective_planck_4d(theta_matrix, eta_matrix,
                        c: PhysicalConstants) -> float:
    """Trace form of the effective Planck constant for 4x4 strengths.

    Both matrices must be antisymmetric, to 1e-12 relative to their largest
    entry (or absolute, below 1). Returns
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
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m + m.T)) > 1e-12 * scale:
            raise ValidationError(f"{name} matrix is not antisymmetric")
    trace = float(np.trace(th @ et))
    return c.hbar * (1.0 + trace / (4.0 * c.hbar ** 2))


def k_factor(theta: float, eta: float, c: PhysicalConstants) -> float:
    """Exact inverse-map factor 1 / (1 - theta*eta/4hbar^2).

    The small-strength approximation k ~ 1 is a documented caller-side
    mode (see algebra.sw_inverse); this function always returns the exact
    value and raises on the pole theta*eta = 4 hbar^2.
    """
    zeta = theta * eta / (4.0 * c.hbar ** 2)
    if zeta == 1.0:
        raise SingularityError("k(E) pole: theta*eta = 4*hbar^2")
    return 1.0 / (1.0 - zeta)


def rescaled_strengths(theta: float, eta: float,
                       c: PhysicalConstants) -> tuple:
    """Rescaling that restores a constant Planck coefficient.

    Returns (theta', eta', xi) with xi = (1 + theta*eta/4hbar^2)^(-1/2)
    and theta' = xi^2 * theta, eta' = xi^2 * eta. By construction
    hbar * xi^2 * (1 + theta*eta/4hbar^2) = hbar. The denominator must be
    positive.
    """
    denom = 1.0 + theta * eta / (4.0 * c.hbar ** 2)
    if denom <= 0:
        raise DomainError(f"1 + theta*eta/4hbar^2 must be positive, got "
                          f"{denom}")
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
        if key == "mechanism":
            try:
                model[key] = Mechanism(value)
            except ValueError as exc:
                raise ValidationError(str(exc)) from None
        elif key in _MODEL_KEYS:
            model[_MODEL_KEYS[key]] = _number(key, value)
        else:
            constants[key] = _number(key, value)
    return ModelParams(**model, constants=PhysicalConstants(**constants))


def params_to_json(p: ModelParams) -> str:
    return json.dumps(params_to_dict(p), indent=2, sort_keys=True)


def params_from_json(text: str) -> ModelParams:
    return params_from_dict(json.loads(text))

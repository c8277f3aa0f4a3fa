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
All functions are pure and thread-safe.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace

import numpy as np

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
    particle. charge is only used by the mesoscopic-ring module.
    """

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    spring_k: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("hbar", "mass", "charge", "spring_k"))
        if self.hbar <= 0:
            raise ValidationError("hbar must be positive")
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
        if self.eta0 < 0 or self.theta0 < 0:
            raise ValidationError("eta0 and theta0 must be non-negative")

    def with_constants(self, **kwargs) -> "ModelParams":
        return replace(self, constants=replace(self.constants, **kwargs))


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Derived coefficients of the effective Hamiltonian at one energy.

    b_e and k_e are the field/elastic terms injected by momentum
    noncommutativity alone; b_h, k_h and m_star include the oscillator
    potential's contribution through the coordinate strength. omega_h is
    the generalized frequency sqrt(k_h/m_star); omega_eps = sqrt(k_e/m)
    is the free-particle effective frequency.
    """

    energy: float
    theta: float
    eta: float
    b_e: float
    k_e: float
    b_h: float
    k_h: float
    m_star: float
    hbar_eff: float
    theta_eff: float
    eta_eff: float
    xi_scale: float
    k_of_e: float
    omega: float
    omega_h: float
    omega_eps: float


def nc_strengths(p: ModelParams, energy: float) -> tuple[float, float]:
    """Evaluate (theta(E), eta(E)) for the power-law running.

    Parameters
    ----------
    p : ModelParams
    energy : float
        Running energy (particle energy for EC, fluctuation scale for SQF).
        Must be non-negative.

    Returns
    -------
    (theta, eta) : tuple of float
    """
    if energy < 0:
        raise DomainError(f"energy must be non-negative, got {energy}")
    ratio = energy / p.e_ref
    return (_power(p.theta0, ratio, p.beta_exp, "beta"),
            _power(p.eta0, ratio, p.alpha_exp, "alpha"))


def _power(amplitude: float, ratio: float, exponent: float, name: str) -> float:
    if amplitude == 0.0:
        return 0.0
    if ratio == 0.0:
        if exponent < 0:
            raise SingularityError(f"E=0 with negative exponent {name}={exponent}")
        return amplitude if exponent == 0 else 0.0
    return amplitude * ratio ** exponent


def effective_planck(theta: float, eta: float, c: PhysicalConstants) -> float:
    """Coordinate-momentum commutator coefficient hbar*(1 + theta*eta/4hbar^2)."""
    return c.hbar * (1.0 + theta * eta / (4.0 * c.hbar ** 2))


def effective_planck_4d(theta_matrix, eta_matrix, c: PhysicalConstants,
                        atol: float = 1e-12) -> float:
    """Trace form of the effective Planck constant for 4x4 strengths.

    Both matrices must be antisymmetric. Returns
    hbar * (1 + Tr[theta @ eta] / 4 hbar^2).

    For a single noncommutative plane embedded block-diagonally the trace
    contracts to Tr = -2*theta*eta, so the per-plane commutator coefficient
    of :func:`effective_planck` is recovered as -Tr/2.
    """
    th = np.asarray(theta_matrix, dtype=float)
    et = np.asarray(eta_matrix, dtype=float)
    for name, m in (("theta", th), ("eta", et)):
        if m.shape != (4, 4):
            raise ValidationError(f"{name} matrix must be 4x4, got {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m + m.T)) > atol * scale:
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
                       c: PhysicalConstants) -> tuple[float, float, float]:
    """Rescaling that restores a constant Planck coefficient.

    Returns (theta_eff, eta_eff, xi) with xi = (1 + theta*eta/4hbar^2)^(-1/2)
    and theta_eff = xi^2 * theta, eta_eff = xi^2 * eta. By construction
    hbar * xi^2 * (1 + theta*eta/4hbar^2) = hbar.
    """
    denom = 1.0 + theta * eta / (4.0 * c.hbar ** 2)
    if denom <= 0:
        raise DomainError(f"1 + theta*eta/4hbar^2 must be positive, got {denom}")
    xi = denom ** -0.5
    return theta / denom, eta / denom, xi


def effective_coefficients(p: ModelParams, energy: float) -> EffectiveCoefficients:
    """All effective Hamiltonian coefficients at the given energy.

    The momentum strength feeds an angular-momentum term b_e = eta/2m*hbar
    and a confining term k_e = eta^2/8m*hbar^2; with an oscillator potential
    (spring_k > 0) the coordinate strength additionally renormalizes the
    mass, 1/m_star = 1/m + k theta^2/4hbar^2, shifts the field term to
    b_h = b_e + k theta/2hbar, and stiffens the elastic constant to
    k_h = k + k_e.
    """
    theta, eta = nc_strengths(p, energy)
    c = p.constants
    hbar, m, k = c.hbar, c.mass, c.spring_k
    b_e = eta / (2.0 * m * hbar)
    k_e = eta ** 2 / (8.0 * m * hbar ** 2)
    inv_m_star = 1.0 / m + k * theta ** 2 / (4.0 * hbar ** 2)
    m_star = 1.0 / inv_m_star
    b_h = b_e + k * theta / (2.0 * hbar)
    k_h = k + k_e
    theta_eff, eta_eff, xi = rescaled_strengths(theta, eta, c)
    # the inverse-map factor has a pole at theta*eta = 4 hbar^2; the other
    # coefficients stay finite there, so record inf rather than failing
    try:
        k_of_e = k_factor(theta, eta, c)
    except SingularityError:
        k_of_e = math.inf
    return EffectiveCoefficients(
        energy=energy,
        theta=theta,
        eta=eta,
        b_e=b_e,
        k_e=k_e,
        b_h=b_h,
        k_h=k_h,
        m_star=m_star,
        hbar_eff=effective_planck(theta, eta, c),
        theta_eff=theta_eff,
        eta_eff=eta_eff,
        xi_scale=xi,
        k_of_e=k_of_e,
        omega=math.sqrt(k / m),
        omega_h=math.sqrt(k_h / m_star),
        omega_eps=math.sqrt(k_e / m),
    )


# JSON document schema: flat object with the field names below.
_JSON_FIELDS = ("eta0", "theta0", "alpha", "beta", "e_ref", "mechanism",
                "hbar", "mass", "charge", "spring_k")


def params_to_dict(p: ModelParams) -> dict:
    return {
        "eta0": p.eta0,
        "theta0": p.theta0,
        "alpha": p.alpha_exp,
        "beta": p.beta_exp,
        "e_ref": p.e_ref,
        "mechanism": p.mechanism.value,
        "hbar": p.constants.hbar,
        "mass": p.constants.mass,
        "charge": p.constants.charge,
        "spring_k": p.constants.spring_k,
    }


def params_from_dict(doc: dict) -> ModelParams:
    unknown = set(doc) - set(_JSON_FIELDS)
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    try:
        mechanism = Mechanism(doc.get("mechanism", "ec"))
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    constants = PhysicalConstants(
        hbar=float(doc.get("hbar", 1.0)),
        mass=float(doc.get("mass", 1.0)),
        charge=float(doc.get("charge", 1.0)),
        spring_k=float(doc.get("spring_k", 0.0)),
    )
    return ModelParams(
        eta0=float(doc.get("eta0", 0.0)),
        theta0=float(doc.get("theta0", 0.0)),
        alpha_exp=float(doc.get("alpha", 1.0)),
        beta_exp=float(doc.get("beta", 1.0)),
        e_ref=float(doc.get("e_ref", 1.0)),
        mechanism=mechanism,
        constants=constants,
    )


def params_to_json(p: ModelParams) -> str:
    return json.dumps(params_to_dict(p), indent=2, sort_keys=True)


def params_from_json(text: str) -> ModelParams:
    return params_from_dict(json.loads(text))

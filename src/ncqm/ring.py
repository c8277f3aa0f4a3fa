"""Mesoscopic ring threaded by an external flux plus the
noncommutativity-induced effective flux.

Momentum noncommutativity acts on a ring electron like a uniform magnetic
field B_z = eta/(e alpha^2 hbar) with vector potential components
A = (eta/2 e alpha^2 hbar)(y, -x), producing an effective flux

    phi_nc = 2 pi R^2 eta / (e hbar alpha^2)

on top of the external flux phi (phi_0 = h/e is the flux quantum). The
resulting levels support a persistent current even at phi = 0, which is
the proposed experimental signature. SI-style constants (charge e, h =
2 pi hbar) enter only in this module; everything else stays in natural
units. A strength that drives a flux, level or current past the float
range raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .params import (ModelParams, PhysicalConstants, _require_constants,
                     _require_finite, _require_real, nc_strengths)


@dataclass(frozen=True)
class RingSpec:
    """Geometry and map parameters of the ring.

    alpha_param is the map scale with theta*eta = 2 hbar^2 alpha^2 (1 -
    alpha^2); the effective mass m_star is mass/alpha_param^2 (the
    quadratic kinetic rescale). radius must be positive and flux_ext
    finite, alpha_param in (0, 1], constants a PhysicalConstants, and the
    squares and the flux quantum finite nonzero doubles (ValidationError).
    """

    radius: float
    flux_ext: float = 0.0
    alpha_param: float = 1.0
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self):
        _require_finite(self, ("radius",), 0.0)
        _require_finite(self, ("alpha_param",), 0.0, 1.0, "(]")
        # ground_level_index rounds the flux shift to an integer l
        _require_finite(self, ("flux_ext",))
        _require_constants(self)
        # the flux and the effective mass divide by or multiply with the
        # squares, so a square that under- or overflows is refused here
        for name, value in (("radius", self.radius),
                            ("alpha_param", self.alpha_param)):
            if not 0.0 < value * value < math.inf:
                raise ValidationError(f"{name}^2 is {value * value!r}, outside "
                                      f"the float range ({name} = {value!r})")
        # every flux is counted in flux quanta 2 pi hbar / charge
        try:
            quantum = self.flux_quantum
        except ZeroDivisionError:
            quantum = math.inf
        if not 0.0 < abs(quantum) < math.inf:
            raise ValidationError(
                f"charge={self.constants.charge!r} gives the flux quantum "
                f"2 pi hbar/charge = {quantum!r}, not a finite nonzero double")

    @property
    def m_star(self) -> float:
        return self.constants.mass / self.alpha_param ** 2

    @property
    def flux_quantum(self) -> float:
        return 2.0 * math.pi * self.constants.hbar / self.constants.charge


@dataclass(frozen=True)
class RingFields:
    """Effective field and fluxes generated by the momentum strength."""

    b_z: float
    phi_nc: float
    flux_quantum: float


def _finite(what: str, value: float, eta: float) -> float:
    """value, or DomainError when a strength or flux has driven it past
    the float range (inf or NaN)."""
    if not math.isfinite(value):
        raise DomainError(f"ring {what} at eta={eta!r} is {value}, past the "
                          "float range")
    return value


def nc_flux(spec: RingSpec, eta: float) -> RingFields:
    """Effective field B_z = eta/(e alpha^2 hbar) and flux
    phi_nc = 2 pi R^2 eta/(e hbar alpha^2).

    Note phi_nc carries twice the geometric area-times-field product
    pi R^2 B_z. eta must be finite, and a denominator e alpha^2 hbar that
    underflows to 0 raises DomainError.
    """
    eta = _require_real("eta", eta, error=DomainError)
    c = spec.constants
    denominator = c.charge * spec.alpha_param ** 2 * c.hbar
    if denominator == 0.0:
        raise DomainError(
            f"the ring denominator e alpha^2 hbar underflows to 0 at "
            f"charge={c.charge!r}, alpha_param={spec.alpha_param!r}, "
            f"hbar={c.hbar!r}")
    b_z = eta / denominator
    phi_nc = 2.0 * math.pi * spec.radius ** 2 * eta / denominator
    return RingFields(b_z=_finite("effective field", b_z, eta),
                      phi_nc=_finite("effective flux", phi_nc, eta),
                      flux_quantum=spec.flux_quantum)


def ring_levels(spec: RingSpec, eta: float, l: int) -> float:
    """Energy of angular-momentum state l.

    E_l = (hbar^2/2 m* R^2) [l + (phi - phi_nc)/phi_0]^2
          - (3 hbar^2/8 m* R^2) (phi_nc/phi_0)^2.
    """
    fields = nc_flux(spec, eta)
    c = spec.constants
    kin = c.hbar ** 2 / (2.0 * spec.m_star * spec.radius ** 2)
    shift = (spec.flux_ext - fields.phi_nc) / fields.flux_quantum
    try:
        energy = kin * (l + shift) ** 2 \
            - 0.75 * kin * (fields.phi_nc / fields.flux_quantum) ** 2
    except OverflowError:  # float ** raises where * gives inf
        energy = math.inf
    return _finite(f"level l={l}", energy, eta)


def persistent_current(spec: RingSpec, eta: float, l: int) -> float:
    """Equilibrium current I_l = -dE_l/dphi (analytic derivative).

    I_l = -(hbar^2 / m* R^2 phi_0) [l + (phi - phi_nc)/phi_0].
    """
    fields = nc_flux(spec, eta)
    c = spec.constants
    shift = (spec.flux_ext - fields.phi_nc) / fields.flux_quantum
    return _finite(f"current l={l}",
                   -(c.hbar ** 2 / (spec.m_star * spec.radius ** 2
                                    * fields.flux_quantum)) * (l + shift),
                   eta)


def ground_level_index(spec: RingSpec, eta: float) -> int:
    """The l minimizing E_l at the given fluxes."""
    fields = nc_flux(spec, eta)
    shift = (spec.flux_ext - fields.phi_nc) / fields.flux_quantum
    return round(-shift)


def ground_persistent_current(spec: RingSpec, eta: float) -> float:
    """Persistent current of the minimum-over-l branch."""
    return persistent_current(spec, eta, ground_level_index(spec, eta))


def ring_eta_from_params(p: ModelParams, energy: float) -> float:
    """Energy-dependent momentum strength for the ring, composing the
    power-law running with the ring model."""
    _, eta = nc_strengths(p, energy)
    return eta


def alpha_from_theta_eta(theta_eta: float, hbar: float = 1.0
                         ) -> tuple[float, float]:
    """Invert theta*eta = 2 hbar^2 alpha^2 (1 - alpha^2) for alpha.

    The quartic has two branches; both roots alpha = sqrt(s_-), sqrt(s_+)
    are returned (ascending). Requires 0 <= theta*eta <= hbar^2/2, and
    hbar finite with hbar^2 a positive finite double (DomainError
    otherwise).
    """
    theta_eta = _require_real("theta_eta", theta_eta, 0.0, ends="[)",
                              error=DomainError)
    hbar = _require_real("hbar", hbar, error=DomainError)
    try:
        hbar_sq = hbar ** 2
    except OverflowError:
        hbar_sq = math.inf
    if not 0.0 < hbar_sq < math.inf:
        raise DomainError(f"hbar^2 is not a positive finite double at "
                          f"hbar={hbar!r}")
    disc = 1.0 - 2.0 * theta_eta / hbar_sq
    if not disc >= 0:
        raise DomainError(
            f"theta*eta = {theta_eta} exceeds hbar^2/2; no real alpha")
    s_minus = 0.5 * (1.0 - math.sqrt(disc))
    s_plus = 0.5 * (1.0 + math.sqrt(disc))
    return math.sqrt(s_minus), math.sqrt(s_plus)

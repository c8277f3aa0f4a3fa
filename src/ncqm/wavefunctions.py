"""Radial wave functions, normalization, modified norms and currents.

The stationary radial equation in the scaled coordinate xi (xi^2 =
lambda * r^2 with lambda = sqrt(m* K_h)/hbar) is

    xi^2 R'' + xi R' + (C xi^2 - xi^4 - m_phi^2) R = 0,
    C = 2 sqrt(m*) [E + m_phi hbar B_h] / (hbar sqrt(K_h)).

Keeping only C xi^2 (valid for xi^2 << C) gives the regular Bessel branch
J_m(sqrt(C) xi); the full equation is solved by the Laguerre branch
exp(-xi^2/2) xi^m L_n^(m)(xi^2) when C = 2(2n + m_phi + 1).

Grid utilities implement the energy-dependent modifications of the norm,
the orthogonality kernel and the probability current on uniform 2D grids
(second-order central differences, one-sided closure at the boundary).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NormalizabilityError, SingularityError,
                     ValidationError)
from .params import (Mechanism, ModelParams, _require, _require_finite,
                     effective_coefficients, nc_strengths)
from .specfun import bessel_j, laguerre, log_gamma

# Bessel-branch validity: keep xi^2 below this fraction of C.
BESSEL_WINDOW = 0.1


@dataclass(frozen=True)
class RadialSolution:
    """A radial eigenfunction with its scale and normalization."""

    regime: str  # "bessel" | "laguerre"
    n: int
    m_phi: int
    lambda_scale: float   # xi^2 per r^2
    c_norm: float         # amplitude normalizing integral R^2 r dr to 1
    c_big: float          # dimensionless C of the radial equation

    def xi(self, r):
        return np.sqrt(self.lambda_scale) * np.asarray(r, dtype=float)

    def __call__(self, r):
        xi = self.xi(r)
        if self.regime == "laguerre":
            return self.c_norm * radial_laguerre(self.n, self.m_phi, xi)
        return self.c_norm * radial_bessel(self.m_phi, self.c_big, xi)


def radial_bessel(m_phi: int, c_big: float, xi):
    """Small-xi branch J_m(sqrt(C) xi) of the radial equation.

    The singular second-kind branch is excluded by regularity at the
    origin. Outside the validity window xi^2 <= BESSEL_WINDOW * C a
    warning is emitted (evaluation still proceeds).
    """
    if c_big <= 0:
        raise DomainError(f"C must be positive, got {c_big}")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr ** 2 > BESSEL_WINDOW * c_big):
        warnings.warn(
            f"xi^2 exceeds the Bessel-branch window xi^2 <= "
            f"{BESSEL_WINDOW:g}*C",
            stacklevel=2)
    return bessel_j(m_phi, math.sqrt(c_big) * np.abs(xi_arr))


def radial_laguerre(n: int, m_phi: int, xi):
    """Bound-state branch exp(-xi^2/2) xi^m L_n^(m)(xi^2).

    Raises DomainError where a sample is not finite: at large m_phi,
    xi^m overflows and meets an exp(-xi^2/2) that underflows to 0.
    """
    xi_arr = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        lag = laguerre(n, m_phi, xi_arr * xi_arr)
        out = np.exp(-0.5 * xi_arr ** 2) * np.abs(xi_arr) ** m_phi * lag
    if not np.all(np.isfinite(out)):
        raise DomainError(f"the radial state (n={n}, m_phi={m_phi}) is not "
                          "finite in double precision at some xi")
    return out if out.shape else float(out)


def normalization_constant(n: int, m_phi: int, lambda_scale: float) -> float:
    """Amplitude c making int_0^inf [c R_n^(m)(r)]^2 r dr = 1.

    c = sqrt(2 lambda n! / (n + m_phi)!), evaluated in log space. The
    closed form fixes the squared amplitude 2 lambda n!/(n+m_phi)!;
    quadrature needs its square root. Raises DomainError when c is not a
    positive normal double: at lambda = 1/2 and n = 0 that is m_phi > 300,
    where c underflows.
    """
    if lambda_scale <= 0:
        raise DomainError(f"lambda_scale must be positive, got {lambda_scale}")
    log_c2 = (math.log(2.0 * lambda_scale)
              + log_gamma(n + 1.0) - log_gamma(n + m_phi + 1.0))
    try:
        amplitude = math.exp(0.5 * log_c2)
    except OverflowError:
        amplitude = math.inf
    if not sys.float_info.min <= amplitude < math.inf:
        raise DomainError(f"the amplitude of (n={n}, m_phi={m_phi}) at "
                          f"lambda={lambda_scale!r} is exp({0.5 * log_c2:.6g}),"
                          " not a positive normal double")
    return amplitude


def ec_radial_solution(qn, p: ModelParams, energy: float,
                       regime: str = "laguerre") -> RadialSolution:
    """Assemble the radial solution at the given energy.

    lambda and C are evaluated from the effective coefficients at the
    energy; at a quantized energy C equals 2(2n + m_phi + 1) up to solver
    tolerance. The bound (laguerre) branch carries the unit-norm
    amplitude; the bessel branch keeps amplitude 1 (its normalization
    lives on a finite window and stays caller-defined). The EC mechanism
    is the only one whose coefficients these are (UsageError otherwise).
    A lambda or C that is not finite raises DomainError.
    """
    _require(p, Mechanism.EC, "ec_radial_solution")
    if regime not in ("bessel", "laguerre"):
        raise ValidationError(f"regime must be bessel or laguerre, got {regime}")
    coeff = effective_coefficients(p, energy)
    if coeff.k_h <= 0:
        raise DomainError("K_h(E) must be positive for a confined solution")
    hbar = p.constants.hbar
    lam = math.sqrt(coeff.m_star * coeff.k_h) / hbar
    c_big = (2.0 * math.sqrt(coeff.m_star)
             * (energy + qn.m_phi * hbar * coeff.b_h)
             / (hbar * math.sqrt(coeff.k_h)))
    if not (math.isfinite(lam) and math.isfinite(c_big)):
        raise DomainError(f"lambda={lam!r} and C={c_big!r} at E={energy!r}: "
                          "the radial solution needs both finite")
    amplitude = (normalization_constant(qn.n, qn.m_phi, lam)
                 if regime == "laguerre" else 1.0)
    return RadialSolution(regime=regime, n=qn.n, m_phi=qn.m_phi,
                          lambda_scale=lam, c_norm=amplitude, c_big=c_big)


def ground_state_free(r, energy: float, p: ModelParams):
    """Unnormalized ground-state profile of the energy-coupled free particle.

    R ~ exp[-sqrt(m k0 / 8 hbar^2) (E/E0)^alpha r^2] with k0 = eta0^2 /
    (4 m hbar^2), i.e. exp[-|eta(E)| r^2 / (4 sqrt(2) hbar^2)], which is
    the n = m_phi = 0 Laguerre branch under the lambda-scale
    identification. eta(E) comes from nc_strengths, so E = 0 with a
    negative alpha raises SingularityError as it does there.
    """
    _require(p, Mechanism.EC, "ground_state_free", spring="zero")
    _, eta = nc_strengths(p, energy)
    coeff = abs(eta) / (math.sqrt(32.0) * p.constants.hbar ** 2)
    return np.exp(-coeff * np.asarray(r, dtype=float) ** 2)


def omega_eff(energy: float, p: ModelParams) -> float:
    """Energy-dependent oscillator frequency of the energy-coupled model.

    omega_eff = omega * sqrt[(1 + eta(E)^2/8 m^2 w^2 hbar^2) /
                             (1 + m^2 w^2 theta(E)/4 hbar^2)],

    theta to the first power as the paper displays it (this is not
    omega_h). Reduces to omega as E << E0 and is monotone increasing in E
    when theta0 = 0. SingularityError where nc_strengths raises or the
    frequency leaves the float range.
    """
    _require(p, Mechanism.EC, "omega_eff", spring="positive")
    theta, eta = nc_strengths(p, energy)
    c = p.constants
    hbar, m = c.hbar, c.mass
    w2 = c.spring_k / m
    try:
        eta2 = eta ** 2
    except OverflowError:
        eta2 = math.inf
    num = 1.0 + eta2 / (8.0 * m ** 2 * w2 * hbar ** 2)
    den = 1.0 + m ** 2 * w2 * theta / (4.0 * hbar ** 2)
    w_eff = math.sqrt(w2) * math.sqrt(num / den)
    if not math.isfinite(w_eff):
        raise SingularityError(f"omega_eff at E={energy!r} leaves the float "
                               f"range (theta={theta!r}, eta={eta!r})")
    return w_eff


def ground_state_oscillator(r, energy: float, p: ModelParams):
    """Unnormalized oscillator ground state exp[-m omega_eff(E) r^2 / 2 hbar]."""
    w_eff = omega_eff(energy, p)
    c = p.constants
    return np.exp(-c.mass * w_eff / (2.0 * c.hbar)
                  * np.asarray(r, dtype=float) ** 2)


def nonlocality_bound(energy: float, p: ModelParams) -> float:
    """Lower bound theta(E)/2 on the coordinate uncertainty product."""
    theta, _ = nc_strengths(p, energy)
    return 0.5 * theta


@dataclass(frozen=True)
class GridField:
    """Complex samples on a uniform 2D grid (row index = y, column = x)."""

    values: np.ndarray
    spacing: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValidationError("GridField values must be 2D")
        _require_finite(self, ("spacing",))
        if self.spacing <= 0:
            raise ValidationError("spacing must be positive")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("GridField samples must be finite")

    @property
    def cell_area(self) -> float:
        return self.spacing ** 2

    def to_dict(self) -> dict:
        return {
            "spacing": self.spacing,
            "shape": list(self.values.shape),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }


def _check_same_grid(a: GridField, b: GridField):
    if a.values.shape != b.values.shape or a.spacing != b.spacing:
        raise ValidationError("grid fields must share shape and spacing")


def modified_norm(field: GridField, dv_de) -> float:
    """Energy-dependent norm sum conj(Psi) (1 - dV/dE) Psi dA.

    dv_de holds the energy derivative of the potential sampled on the same
    grid. Normalizability requires 1 - dV/dE >= 0 everywhere; violations
    raise NormalizabilityError, and a sample that is not finite raises
    DomainError.
    """
    dv_de = np.asarray(dv_de, dtype=float)
    if dv_de.shape != field.values.shape:
        raise ValidationError("dV/dE samples must match the field grid")
    if not np.isfinite(dv_de).all():
        raise DomainError("dV/dE samples must be finite, got "
                          f"{dv_de[~np.isfinite(dv_de)][0]}")
    weight = 1.0 - dv_de
    if np.min(weight) < 0:
        raise NormalizabilityError(
            f"1 - dV/dE reaches {np.min(weight):.3g} < 0; state not "
            "normalizable under the energy-dependent norm")
    dens = (field.values.conj() * field.values).real
    return float(np.sum(dens * weight) * field.cell_area)


def orthogonality_kernel(v_at_e1, v_at_e2, e1: float, e2: float) -> np.ndarray:
    """Pointwise kernel [V(., E2) - V(., E1)] / (E2 - E1) entering the
    modified orthogonality relation.

    The coincidence limit e1 == e2 needs the dV/dE derivative instead and
    is delegated to the modified_norm path. The energies must be finite
    (DomainError).
    """
    if not (math.isfinite(e1) and math.isfinite(e2)):
        raise DomainError(f"energies must be finite, got e1={e1!r}, "
                          f"e2={e2!r}")
    if e1 == e2:
        raise DomainError("e1 == e2 requires the dV/dE limit; use "
                          "modified_norm with the sampled derivative")
    v1 = np.asarray(v_at_e1, dtype=float)
    v2 = np.asarray(v_at_e2, dtype=float)
    if v1.shape != v2.shape:
        raise ValidationError("potential grids must share a shape")
    return (v2 - v1) / (e2 - e1)


def probability_current(psi: GridField, phi: GridField, c,
                        convention: str = "paper"
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Two-state probability current on the grid.

    convention "paper" uses J = -(hbar^2/2im)[Psi* grad Phi - Phi grad Psi*]
    as displayed with the modified continuity equation (note the squared
    hbar); convention "standard" uses the textbook prefactor hbar/2im,
    which is the one that closes the discrete continuity equation. Both
    are kept because the displayed form is not resolved here.

    Returns (J_x, J_y); derivatives are second-order central differences
    with one-sided closure at the boundary.
    """
    _check_same_grid(psi, phi)
    if convention == "paper":
        pref = -c.hbar ** 2 / 2j
    elif convention == "standard":
        pref = c.hbar / 2j
    else:
        raise ValidationError(f"unknown convention {convention!r}")
    h = psi.spacing
    dphi_y, dphi_x = np.gradient(phi.values, h, edge_order=2)
    dpsi_y, dpsi_x = np.gradient(psi.values.conj(), h, edge_order=2)
    bar = psi.values.conj()
    jx = pref / c.mass * (bar * dphi_x - phi.values * dpsi_x)
    jy = pref / c.mass * (bar * dphi_y - phi.values * dpsi_y)
    return jx.real.copy(), jy.real.copy()


def divergence(jx: np.ndarray, jy: np.ndarray, spacing: float) -> np.ndarray:
    """Central-difference divergence of a grid vector field."""
    djx_dy, djx_dx = np.gradient(jx, spacing, edge_order=2)
    djy_dy, djy_dx = np.gradient(jy, spacing, edge_order=2)
    return djx_dx + djy_dy

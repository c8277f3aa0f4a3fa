"""Independent verification engines for the spectra.

Two oracles solve H = p^2/2m* - B L_z + K r^2/2 at frozen coefficients:

* a finite-volume discretization of the radial equation (cell-centered
  grid, symmetric tridiagonal eigenproblem, optional Richardson
  extrapolation in the grid spacing), and
* a dense truncated-Fock diagonalization of the full 2D Hamiltonian,
  which also labels levels by their angular momentum.

Energy-dependent coefficients are handled by an outer fixed point
(self_consistent_wrap), with a fallback to the spectra module's scan +
Brent root kernel, so the closed forms and the root-finder in the spectra
module can be cross-checked end to end.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, GridError, ValidationError
from .algebra import build_heisenberg_rep
from .params import ModelParams, PhysicalConstants, effective_coefficients
from .spectra import brent_root, sign_change_brackets

_DECAY_LOG = math.log(1e8)  # require exp(-xi_max^2/2) < 1e-8 at the boundary


def radial_fd_eigensolve(m_star: float, b_field: float, k_elastic: float,
                         m_phi: int, grid: tuple[float, int], count: int,
                         hbar: float = 1.0, richardson: bool = True
                         ) -> np.ndarray:
    """Lowest eigenvalues of the radial problem at frozen coefficients.

    Discretizes -(hbar^2/2m*)(R'' + R'/r - m_phi^2 R/r^2) + (K/2) r^2 R
    on a cell-centered grid with the conservative (finite-volume) stencil,
    then shifts by the angular term: E = eps - m_phi hbar B. m_phi may be
    negative (enters the potential squared, the shift signed).

    grid is (r_max, points); points >= 500 and r_max must satisfy the
    boundary-decay condition exp(-xi_max^2/2) < 1e-8. With richardson the
    solve is repeated at doubled resolution and extrapolated, giving
    O(h^4) eigenvalues.
    """
    r_max, points = grid
    if points < 500:
        raise GridError(f"points must be >= 500, got {points}")
    if m_star <= 0 or k_elastic <= 0:
        raise ValidationError("m_star and k_elastic must be positive")
    lam = math.sqrt(m_star * k_elastic) / hbar
    if lam * r_max ** 2 / 2.0 < _DECAY_LOG:
        raise GridError(
            f"r_max={r_max} too small: exp(-xi^2/2) at the boundary is "
            f"{math.exp(-lam * r_max ** 2 / 2.0):.2e} >= 1e-8")

    def solve(n_pts: int) -> np.ndarray:
        h = r_max / n_pts
        r = (np.arange(n_pts) + 0.5) * h
        r_plus = r + 0.5 * h
        r_minus = np.maximum(r - 0.5 * h, 0.0)  # zero flux through r = 0
        kin = hbar ** 2 / (2.0 * m_star)
        diag = (kin * (r_plus + r_minus) / (h ** 2 * r)
                + kin * m_phi ** 2 / r ** 2
                + 0.5 * k_elastic * r ** 2)
        off = -kin * r_plus[:-1] / (h ** 2 * np.sqrt(r[:-1] * r[1:]))
        vals = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, count - 1),
                                eigvals_only=True)
        return vals

    eps = solve(points)
    if richardson:
        eps = (4.0 * solve(2 * points) - eps) / 3.0
    return eps - m_phi * hbar * b_field


def fock_matrix_eigensolve(n_trunc: int, m_star: float, b_field: float,
                           k_elastic: float, c: PhysicalConstants, count: int,
                           with_labels: bool = False,
                           check_convergence: bool = False):
    """Lowest eigenvalues of the dense two-mode Fock Hamiltonian.

    The representation is built at the natural frequency sqrt(K/m*), in
    which the total-quanta blocks of H are exact; requested levels must
    stay inside the truncation-converged window. With with_labels the
    angular momentum expectation of each level is returned alongside
    (units of hbar, integers up to roundoff).
    """
    if n_trunc < 20:
        raise ValidationError(f"n_trunc must be >= 20, got {n_trunc}")
    max_levels = n_trunc * (n_trunc + 1) // 2
    if count > max_levels:
        raise ValidationError(f"count={count} outside the converged window "
                              f"({max_levels} levels at n_trunc={n_trunc})")
    if m_star <= 0 or k_elastic <= 0:
        raise ValidationError("m_star and k_elastic must be positive")

    def build(n):
        rep = build_heisenberg_rep(
            n, PhysicalConstants(hbar=c.hbar, mass=m_star),
            ref_frequency=math.sqrt(k_elastic / m_star))
        lz = rep.x @ rep.py - rep.y @ rep.px
        ham = ((rep.px @ rep.px + rep.py @ rep.py) / (2.0 * m_star)
               - b_field * lz
               + 0.5 * k_elastic * (rep.x @ rep.x + rep.y @ rep.y))
        return ham, lz

    ham, lz = build(n_trunc)
    if with_labels:
        vals, vecs = np.linalg.eigh(ham)
        order = np.argsort(vals)[:count]
        energies = vals[order]
        labels = np.array([
            round(float((vecs[:, i].conj() @ (lz @ vecs[:, i])).real / c.hbar))
            for i in order])
    else:
        energies = np.sort(np.linalg.eigvalsh(ham))[:count]
        labels = None
    if check_convergence:
        bigger, _ = build(n_trunc + 5)
        ref = np.sort(np.linalg.eigvalsh(bigger))[:count]
        shift = float(np.max(np.abs(ref - energies)))
        if shift > 1e-8:
            warnings.warn(f"truncation not converged: max level shift "
                          f"{shift:.2e} under n_trunc + 5", stacklevel=2)
    if with_labels:
        return energies, labels
    return energies


# Fixed-point stage of self_consistent_wrap: iteration budget and the
# damping applied after the first (undamped) step.
_FIXED_POINT_ITERS = 40
_DAMPING = 0.5
# Fallback scan of g(E) = E - level(E): grid points over the energy span
# scale/_SCAN_SPAN .. scale*_SCAN_SPAN around the commutative scale.
_SCAN_POINTS = 48
_SCAN_SPAN = 1e4
# Radial finite-volume grid of the frozen solves.
_FD_POINTS = 1200


def _frozen_level(p: ModelParams, qn, energy: float, solver: str) -> float:
    """Level (n, m_phi) of the Hamiltonian frozen at the given energy."""
    coeff = effective_coefficients(p, energy)
    c = p.constants
    if coeff.k_h <= 0:
        raise ValidationError("frozen K_h must be positive")
    if solver == "radial":
        lam = math.sqrt(coeff.m_star * coeff.k_h) / c.hbar
        r_max = math.sqrt(2.2 * _DECAY_LOG / lam)
        # widen until the target level's turning point is well inside
        scale = math.sqrt((2 * qn.n + abs(qn.m_phi) + 2) / lam)
        r_max = max(r_max, 3.0 * scale)
        levels = radial_fd_eigensolve(coeff.m_star, coeff.b_h, coeff.k_h,
                                      qn.m_phi, (r_max, _FD_POINTS), qn.n + 1,
                                      hbar=c.hbar, richardson=True)
        return float(levels[qn.n])
    if solver == "fock":
        energies, labels = fock_matrix_eigensolve(
            24, coeff.m_star, coeff.b_h, coeff.k_h, c,
            count=200, with_labels=True)
        matching = energies[labels == qn.m_phi]
        if len(matching) <= qn.n:
            raise ValidationError(f"level (n={qn.n}, m_phi={qn.m_phi}) not in "
                                  "the converged window")
        return float(np.sort(matching)[qn.n])
    raise ValidationError(f"unknown solver {solver!r}; use radial or fock")


def self_consistent_wrap(solver: str, p: ModelParams, qn,
                         tol: float = 1e-8) -> float:
    """Self-consistent energy E* with eigenvalue(E*) = E*.

    The coefficients are re-evaluated at each iterate; the first step is
    taken undamped (constant coefficients then converge immediately), the
    rest are damped. The fixed point is accepted once successive iterates
    agree to tol relative. Free-particle-like coefficient growth makes the
    physical fixed point repulsive, in which case the iteration drifts
    toward the trivial E = 0 point; that collapse is detected and the
    solve falls back to the spectra root kernel: the first sign change of
    g(E) = E - eigenvalue(E) on a geometric scan around the commutative
    scale, refined by Brent's method to tol relative (never below the
    float floor). Raises ConvergenceError with the iteration trace if both
    stages fail.
    """
    c = p.constants
    scale = c.hbar * max(c.omega, 1.0 / p.e_ref) * qn.radial_weight
    scale = max(scale, 1e-6 * p.e_ref)
    energy = scale
    trace = []
    for it in range(_FIXED_POINT_ITERS):
        level = _frozen_level(p, qn, energy, solver)
        trace.append((energy, level))
        if level < 1e-9 * scale or level > 1e9 * scale:
            break  # running away from a repulsive fixed point
        if abs(level - energy) <= tol * abs(level):
            return level
        energy = (level if it == 0
                  else (1.0 - _DAMPING) * energy + _DAMPING * level)
        if energy <= 0 or energy > 1e9 * scale:
            break

    def g(e):
        return e - _frozen_level(p, qn, e, solver)

    bracket = next(sign_change_brackets(g, scale / _SCAN_SPAN,
                                        scale * _SCAN_SPAN, _SCAN_POINTS),
                   None)
    if bracket is None:
        raise ConvergenceError(
            f"self-consistency failed for {qn}; fixed-point trace: "
            + "; ".join(f"E={a:.6g}->{b:.6g}" for a, b in trace[-6:]))
    return brent_root(g, bracket, tol)


def comparison_report(p: ModelParams, entries: list[dict]) -> str:
    """JSON report of oracle/closed-form level comparisons."""
    from .params import params_to_dict
    doc = {"params": params_to_dict(p), "levels": entries,
           "max_rel_diff": max((e["max_rel_diff"] for e in entries),
                               default=0.0)}
    return json.dumps(doc, indent=2)

"""Independent verification engines for the spectra.

Two oracles solve H = p^2/2m* - B L_z + K r^2/2 at frozen coefficients:

* a finite-volume discretization of the radial equation (cell-centered
  grid, symmetric tridiagonal eigenproblem, optional Richardson
  extrapolation in the grid spacing), and
* a truncated-Fock diagonalization of the full 2D Hamiltonian, which
  also labels levels by their angular momentum: H and L_z are built from
  the sparse Fock operators at the natural frequency, where H conserves
  the total quanta, and each complete shell is solved on its own in the
  eigenbasis of L_z, so the labels are integers by construction.

Energy-dependent coefficients are handled by self_consistent_wrap, a
secant solve of E = level(E) in E and, where that fails, in ln E. It
shares no code with the spectra module, so the closed forms and the
root-finder there can be cross-checked end to end.
"""

from __future__ import annotations

import logging
import math
import sys

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import root_scalar

from .errors import ConvergenceError, GridError, ValidationError
from .algebra import build_heisenberg_rep
from .params import ModelParams, PhysicalConstants, effective_coefficients

log = logging.getLogger("ncqm.oracle")

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


def _certified_count(n_trunc: int, omega: float, b_field: float) -> int:
    """Levels of the complete shells below every level of the excluded ones.

    Shell N carries hbar(omega(N+1) - B m), m = -N, -N+2, ..., N. Shells
    N >= n_trunc - 1 touch the truncation edge, and the lowest energy they
    reach is hbar(omega n_trunc - |B|(n_trunc - 1)) when |B| < omega; for
    |B| >= omega they are unbounded below and nothing is certified.
    """
    if abs(b_field) >= omega:
        return 0
    cut = omega * n_trunc - abs(b_field) * (n_trunc - 1)
    shell, j = np.divmod(np.arange((n_trunc - 1) ** 2), n_trunc - 1)
    energies = omega * (shell + 1) - b_field * (2 * j - shell)
    return int(np.count_nonzero(energies[j <= shell] < cut))


def _shell_blocks(op, n_trunc: int) -> np.ndarray:
    """Blocks of op on the complete total-quanta shells N <= n_trunc - 2.

    Entry [N, i, j] couples (n_x, n_y) = (i, N - i) and (j, N - j); rows
    past N + 1 are zero padding. Entries between shells are dropped.
    """
    coo = op.tocoo()
    coo.sum_duplicates()
    row_x, row_y = np.divmod(coo.row, n_trunc)
    col_x, col_y = np.divmod(coo.col, n_trunc)
    shell = row_x + row_y
    keep = (shell == col_x + col_y) & (shell <= n_trunc - 2)
    blocks = np.zeros((n_trunc - 1,) * 3, dtype=complex)
    blocks[shell[keep], row_x[keep], col_x[keep]] = coo.data[keep]
    return blocks


def fock_matrix_eigensolve(n_trunc: int, m_star: float, b_field: float,
                           k_elastic: float, c: PhysicalConstants, count: int,
                           with_labels: bool = False):
    """Lowest eigenvalues of the truncated two-mode Fock Hamiltonian.

    The representation is built at the natural frequency sqrt(K/m*), where
    H conserves the total quanta N = n_x + n_y. Each complete shell
    N <= n_trunc - 2 (no mode at the truncation edge, so H is exact on it)
    is solved on its own: L_z is diagonalized in the shell, with the
    distinct eigenvalues m hbar, m = -N, -N+2, ..., N, and H is read in
    that basis. Labels are therefore the integer L_z eigenvalues, in units
    of hbar. Only levels below the lowest energy an excluded shell can
    reach are certified; count beyond that window raises ValidationError.
    Levels equal to roundoff are ordered by shell.
    """
    if n_trunc < 20:
        raise ValidationError(f"n_trunc must be >= 20, got {n_trunc}")
    if m_star <= 0 or k_elastic <= 0:
        raise ValidationError("m_star and k_elastic must be positive")
    omega = math.sqrt(k_elastic / m_star)
    certified = _certified_count(n_trunc, omega, b_field)
    if count > certified:
        raise ValidationError(
            f"count={count} outside the certified window ({certified} levels "
            f"at n_trunc={n_trunc}, B/omega={b_field / omega:.6g})")

    rep = build_heisenberg_rep(
        n_trunc, PhysicalConstants(hbar=c.hbar, mass=m_star),
        ref_frequency=omega)
    lz = rep.x @ rep.py - rep.y @ rep.px
    ham = ((rep.px @ rep.px + rep.py @ rep.py) / (2.0 * m_star)
           - b_field * lz
           + 0.5 * k_elastic * (rep.x @ rep.x + rep.y @ rep.y))
    lz_blocks = _shell_blocks(lz, n_trunc)
    ham_blocks = _shell_blocks(ham, n_trunc)
    values, labels = [], []
    for n_q in range(n_trunc - 1):
        size = n_q + 1
        m_hbar, vecs = np.linalg.eigh(lz_blocks[n_q, :size, :size])
        h = ham_blocks[n_q, :size, :size]
        values.append(np.einsum("ij,ik,kj->j", vecs.conj(), h, vecs).real)
        labels.append(np.rint(m_hbar / c.hbar).astype(int))
    values = np.concatenate(values)
    shells = np.repeat(np.arange(n_trunc - 1), np.arange(1, n_trunc))
    order = np.lexsort((shells,
                        np.round(values / (c.hbar * omega), 9)))[:count]
    if not with_labels:
        return values[order]
    return values[order], np.concatenate(labels)[order]


# The secant on E stays in scale/_SPAN .. scale*_SPAN.
_SPAN = 1e4
# Radial finite-volume grid of the frozen solves.
_FD_POINTS = 1200
# Fock truncation of the frozen solves.
_FOCK_TRUNC = 24


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
        certified = _certified_count(
            _FOCK_TRUNC, math.sqrt(coeff.k_h / coeff.m_star), coeff.b_h)
        energies, labels = fock_matrix_eigensolve(
            _FOCK_TRUNC, coeff.m_star, coeff.b_h, coeff.k_h, c,
            count=certified, with_labels=True)
        matching = energies[labels == qn.m_phi]
        if len(matching) <= qn.n:
            raise ValidationError(f"level (n={qn.n}, m_phi={qn.m_phi}) not in "
                                  "the certified window")
        return float(np.sort(matching)[qn.n])
    raise ValidationError(f"unknown solver {solver!r}; use radial or fock")


class _Leave(Exception):
    """A secant iterate left the region where its function is defined."""


def _secant(h, x0: float, x1: float, xtol: float, rtol: float):
    """Secant root of h from x0, x1, or None if it does not converge or h
    raises _Leave at an iterate (the converged root is evaluated too)."""
    if x1 == x0:
        return x0
    try:
        sol = root_scalar(h, x0=x0, x1=x1, method="secant", xtol=xtol,
                          rtol=rtol)
        if sol.converged:
            h(sol.root)
            return sol.root
    except _Leave:
        pass
    return None


def self_consistent_wrap(solver: str, p: ModelParams, qn,
                         tol: float = 1e-8) -> float:
    """Self-consistent energy E* with eigenvalue(E*) = E*.

    E* is the root of g(E) = E - level(E), where level(E) solves the
    Hamiltonian with its coefficients frozen at E (solver "radial" or
    "fock"). The secant method (scipy root_scalar) starts from the
    commutative scale and its frozen level, every iterate inside
    scale/1e4 .. scale*1e4; constant coefficients converge in one step.
    If it fails (the repulsive free particle's first step is negative),
    the secant solves u - ln level(e^u) = 0 to tol from ln scale and
    ln level(scale) with no span, guarded only by a positive, finite
    level (level <= 0: no bound state); power-law strengths make a
    free-particle level linear in u = ln E. Frozen levels are memoized
    within the call. E is accepted when |E - level(E)| <= tol level(E);
    otherwise, or when both secants fail, ConvergenceError is raised with
    the trace of frozen solves. Each call logs one DEBUG record on
    "ncqm.oracle": stage (secant or log_secant), frozen solves, residual.
    """
    c = p.constants
    scale = c.hbar * max(c.omega, 1.0 / p.e_ref) * qn.radial_weight
    scale = max(scale, 1e-6 * p.e_ref)
    levels = {}

    def level(e):
        if e not in levels:
            levels[e] = _frozen_level(p, qn, e, solver)
        return levels[e]

    def g(e):
        if not scale / _SPAN <= e <= scale * _SPAN:
            raise _Leave
        return e - level(e)

    def failure(why):
        return ConvergenceError(
            f"self-consistency failed for {qn}: {why}; frozen solves: "
            + "; ".join(f"E={a:.6g}->{b:.6g}"
                        for a, b in list(levels.items())[-6:]))

    stage = "secant"
    energy = _secant(g, scale, scale - g(scale), sys.float_info.min, tol)
    if energy is None:
        stage = "log_secant"
        if not levels[scale] > 0.0:
            raise failure("level(scale) <= 0, no bound state")
        # the energies solved so far, by logarithm, so that h reuses them
        solved = {math.log(e): e for e in levels}

        def h(u):
            try:  # e^u or a strength overflows, K_h <= 0 or level <= 0
                lev = level(solved.get(u) or math.exp(u))
                if lev < math.inf:
                    return u - math.log(lev)
            except (ArithmeticError, ValueError):
                pass
            raise _Leave

        u = _secant(h, math.log(scale), math.log(levels[scale]), tol, 0.0)
        if u is None:
            raise failure("no secant root of E - level(E) in E or in ln E")
        energy = solved.get(u) or math.exp(u)
    residual = abs((energy - levels[energy]) / levels[energy])
    log.debug("self_consistent_wrap %s (n=%d, m_phi=%d): stage %s, %d frozen "
              "solves, relative residual %.3e", solver, qn.n, qn.m_phi, stage,
              len(levels), residual)
    if not residual <= tol:
        raise failure(f"relative residual {residual:.3e} above tol {tol:g}")
    return float(energy)

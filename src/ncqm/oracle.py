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
secant solve of E = level(E) with a fallback to the spectra module's scan
+ Brent root kernel, so the closed forms and the root-finder in the
spectra module can be cross-checked end to end.
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
from .spectra import brent_root, first_bracket

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


# Fallback scan of g(E) = E - level(E): grid points over the energy span
# scale/_SCAN_SPAN .. scale*_SCAN_SPAN around the commutative scale; the
# secant stage must stay inside the same span.
_SCAN_POINTS = 48
_SCAN_SPAN = 1e4
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


class _LeftSpan(Exception):
    """A secant iterate left the scan span (or was not positive)."""


def _secant_root(g, scale: float, span: tuple[float, float], tol: float):
    """Secant root of g started from (scale, scale - g(scale)), or None.

    None means the iteration did not converge to tol relative, or one of
    its iterates (the converged one included) left the span.
    """
    lo, hi = span

    def g_in_span(e):
        if not lo <= e <= hi:
            raise _LeftSpan
        return g(e)

    first = scale - g(scale)
    if first == scale:
        return scale
    try:
        sol = root_scalar(g_in_span, x0=scale, x1=first, method="secant",
                          xtol=sys.float_info.min, rtol=tol)
        if sol.converged:
            g_in_span(sol.root)
            return sol.root
    except _LeftSpan:
        pass
    return None


def self_consistent_wrap(solver: str, p: ModelParams, qn,
                         tol: float = 1e-8) -> float:
    """Self-consistent energy E* with eigenvalue(E*) = E*.

    E* is the root of g(E) = E - level(E), where level(E) solves the
    Hamiltonian with its coefficients frozen at E (solver "radial" or
    "fock"). The secant method (scipy root_scalar) starts from the
    commutative scale and its frozen level; constant coefficients converge
    in one step. When the secant does not converge, or an iterate is not
    positive or leaves the scan span around the scale (the repulsive free
    particle's first step is negative), the solve falls back to the
    spectra root kernel: the first sign change of g on a geometric scan of
    that span, refined by Brent's method to tol relative (never below the
    float floor). Frozen levels are memoized within the call, so the
    fallback repeats no solve. The energy is accepted when
    |E - level(E)| <= tol level(E); otherwise, or when the scan finds no
    sign change, ConvergenceError is raised with the trace of frozen
    solves. Each call logs one DEBUG record on "ncqm.oracle": the stage
    (secant or scan_fallback), the number of frozen solves and the final
    relative residual.
    """
    c = p.constants
    scale = c.hbar * max(c.omega, 1.0 / p.e_ref) * qn.radial_weight
    scale = max(scale, 1e-6 * p.e_ref)
    span = (scale / _SCAN_SPAN, scale * _SCAN_SPAN)
    levels = {}

    def g(e):
        if e not in levels:
            levels[e] = _frozen_level(p, qn, e, solver)
        return e - levels[e]

    def failure(why):
        return ConvergenceError(
            f"self-consistency failed for {qn}: {why}; frozen solves: "
            + "; ".join(f"E={a:.6g}->{b:.6g}"
                        for a, b in list(levels.items())[-6:]))

    stage = "secant"
    energy = _secant_root(g, scale, span, tol)
    if energy is None:
        stage = "scan_fallback"
        bracket = first_bracket(g, *span, _SCAN_POINTS)
        if bracket is None:
            raise failure("no sign change of E - level(E) on the scan")
        energy = brent_root(g, bracket, tol).root
    residual = abs(g(energy) / levels[energy])
    log.debug("self_consistent_wrap %s (n=%d, m_phi=%d): stage %s, %d frozen "
              "solves, relative residual %.3e", solver, qn.n, qn.m_phi, stage,
              len(levels), residual)
    if not residual <= tol:
        raise failure(f"relative residual {residual:.3e} above tol {tol:g}")
    return float(energy)

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
secant solve of E = level(E) in ln E. Frozen at E the Hamiltonian is an
oscillator of frequency omega_h(E), so the radial level there is
hbar(omega_h(E) eps - m_phi B_h(E)): the unit level eps is solved by the
finite-volume eigensolver once per (|m_phi|, n) per process and only
rescaled afterwards. The Fock level is solved at every frozen energy
where the frozen Hamiltonian is bounded below (|B_h| < omega_h). The
module shares no code with the spectra module, so the closed forms and
the root-finder there can be cross-checked end to end.
"""

from __future__ import annotations

import functools
import logging
import math
import time

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
    O(h^4) eigenvalues. m_star, k_elastic, hbar and r_max must be finite
    and positive, b_field finite and count in 1..points (ValidationError).
    """
    r_max, points = grid
    if points < 500:
        raise GridError(f"points must be >= 500, got {points}")
    if not all(0.0 < v < math.inf for v in (m_star, k_elastic, hbar, r_max)):
        raise ValidationError(
            "m_star, k_elastic, hbar and r_max must be finite and positive, "
            f"got {m_star}, {k_elastic}, {hbar}, {r_max}")
    if not math.isfinite(b_field):
        raise ValidationError(f"b_field must be finite, got {b_field}")
    if not 1 <= count <= points:
        raise ValidationError(f"count must be in 1..{points}, got {count}")
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
    Levels equal to roundoff are ordered by shell. m_star and k_elastic
    must be finite and positive (PhysicalConstants holds hbar to the
    same), b_field finite and count at least 1 (ValidationError).
    """
    if n_trunc < 20:
        raise ValidationError(f"n_trunc must be >= 20, got {n_trunc}")
    if not all(0.0 < v < math.inf for v in (m_star, k_elastic)):
        raise ValidationError(
            "m_star and k_elastic must be finite and positive, "
            f"got {m_star}, {k_elastic}")
    if not math.isfinite(b_field):
        raise ValidationError(f"b_field must be finite, got {b_field}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
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


# Radial finite-volume grid of the frozen solves.
_FD_POINTS = 1200
# Fock truncation of the frozen solves.
_FOCK_TRUNC = 24


@functools.lru_cache(maxsize=256)
def _unit_radial_levels(m_abs: int, n: int) -> float:
    """Radial level n at |m_phi| = m_abs in units of hbar omega, B = 0.

    In xi = r sqrt(lambda), lambda = sqrt(m* K)/hbar, every entry of the
    finite-volume matrix is hbar omega times its entry at m* = K = hbar = 1,
    so the level is solved there once per (m_abs, n) and rescaled by the
    caller. The grid reaches xi_max = max(sqrt(2.2 ln 1e8),
    3 sqrt(2n + m_abs + 2)): past the boundary-decay bound and three times
    the level's turning point. Logs one DEBUG record on "ncqm.oracle".
    """
    start = time.perf_counter()
    xi_max = max(math.sqrt(2.2 * _DECAY_LOG),
                 3.0 * math.sqrt(2 * n + m_abs + 2))
    level = float(radial_fd_eigensolve(1.0, 0.0, 1.0, m_abs,
                                       (xi_max, _FD_POINTS), n + 1)[n])
    log.debug("unit radial level (n=%d, |m_phi|=%d): xi_max %.6g, level "
              "%.15g, %.3g s", n, m_abs, xi_max, level,
              time.perf_counter() - start)
    return level


def _frozen_level(p: ModelParams, qn, energy: float, solver: str) -> float:
    """Level (n, m_phi) of the Hamiltonian frozen at the given energy.

    The radial level is hbar(omega_h eps - m_phi B_h), with eps the unit
    level of _unit_radial_levels; the Fock level is solved at the frozen
    coefficients and picked by its L_z label. A frozen Hamiltonian that is
    unbounded below (|B_h| >= omega_h) has no certified Fock level
    (ValidationError).
    """
    coeff = effective_coefficients(p, energy)
    c = p.constants
    if coeff.k_h <= 0:
        raise ValidationError("frozen K_h must be positive")
    if solver == "radial":
        unit = _unit_radial_levels(abs(qn.m_phi), qn.n)
        return c.hbar * (coeff.omega_h * unit - qn.m_phi * coeff.b_h)
    if solver == "fock":
        if abs(coeff.b_h) >= coeff.omega_h:
            raise ValidationError(
                f"the Hamiltonian frozen at E={energy:.6g} is unbounded "
                f"below: |B_h| = {abs(coeff.b_h):.6g} >= omega_h = "
                f"{coeff.omega_h:.6g}, so no Fock level is certified")
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


def self_consistent_wrap(solver: str, p: ModelParams, qn,
                         tol: float = 1e-8) -> float:
    """Self-consistent energy E* with eigenvalue(E*) = E*.

    level(E) solves the Hamiltonian with its coefficients frozen at E
    (solver "radial" or "fock"). The secant method (scipy root_scalar)
    solves h(u) = u - ln level(e^u) = 0 to xtol tol in u = ln E, starting
    from ln scale and ln level(scale) at the commutative scale: constant
    coefficients converge in one step, and power-law strengths make a
    free-particle level linear in u, so roots decades from the scale are
    reached. level(scale) <= 0 means no bound state. Frozen levels are
    memoized within the call. E is accepted when |E - level(E)| <=
    tol level(E); otherwise, or when the secant does not converge or a
    frozen solve fails (e^u overflows, K_h <= 0, a level that is not
    positive and finite), ConvergenceError is raised with the cause and
    the last frozen solves. solver and tol (finite, positive) are checked
    first (ValidationError). Each call logs one DEBUG record on
    "ncqm.oracle": frozen solves and relative residual.
    """
    if solver not in ("radial", "fock"):
        raise ValidationError(f"unknown solver {solver!r}; use radial or fock")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    c = p.constants
    scale = c.hbar * max(c.omega, 1.0 / p.e_ref) * qn.radial_weight
    scale = max(scale, 1e-6 * p.e_ref)
    levels = {}  # frozen level by u = ln E

    def failure(why):
        return ConvergenceError(
            f"self-consistency failed for {qn}: {why}; frozen solves: "
            + ("; ".join(f"E={math.exp(a):.6g}->{b:.6g}"
                         for a, b in list(levels.items())[-6:]) or "none"))

    def level(u):
        if u not in levels:
            try:
                levels[u] = _frozen_level(p, qn, math.exp(u), solver)
            except (ArithmeticError, ValueError) as exc:
                raise failure(f"frozen solve at E = e^{u:.6g} failed: {exc}"
                              ) from exc
        return levels[u]

    def h(u):
        lev = level(u)
        if not 0.0 < lev < math.inf:
            raise failure(f"frozen level {lev:.6g} at E = e^{u:.6g} is not "
                          "positive and finite")
        return u - math.log(lev)

    u = math.log(scale)
    if not level(u) > 0.0:
        raise failure("level(scale) <= 0, no bound state")
    if h(u) != 0.0:  # else the scale is the root
        sol = root_scalar(h, x0=u, x1=math.log(level(u)), method="secant",
                          xtol=tol, rtol=0.0)
        if not sol.converged:
            raise failure(f"the secant on ln E stopped: {sol.flag}")
        u = sol.root
    h(u)  # the level at the root is positive and finite too
    energy = math.exp(u)
    residual = abs(energy - levels[u]) / levels[u]
    log.debug("self_consistent_wrap %s (n=%d, m_phi=%d): %d frozen solves, "
              "relative residual %.3e", solver, qn.n, qn.m_phi, len(levels),
              residual)
    if not residual <= tol:
        raise failure(f"relative residual {residual:.3e} above tol {tol:g}")
    return energy

"""Independent verification engines for the spectra.

Two oracles solve H = p^2/2m* - B L_z + K r^2/2 at frozen coefficients:

* a finite-volume discretization of the radial equation (cell-centered
  grid, symmetric tridiagonal eigenproblem, optional Richardson
  extrapolation in the grid spacing), and
* a truncated-Fock diagonalization of the full 2D Hamiltonian, which
  also labels levels by their angular momentum: H and L_z are built from
  the Fock operators (constant-offset diagonals) at the natural
  frequency, where H conserves the total quanta, and each complete shell
  (whose blocks algebra reads off the diagonals) is solved on its own in
  the eigenbasis of L_z, so the labels are integers by construction.

Energy-dependent coefficients are handled by self_consistent_wrap, a
secant solve of E = level(E) in ln E. The secant (_secant) is a
step-for-step port of the one in scipy.optimize.newton, so it takes
scipy's steps without importing scipy.optimize; a flat secant (stall)
and SECANT_MAX_ITER steps without convergence end the solve as a
ConvergenceError that names the cause. Frozen at E the Hamiltonian is an
oscillator of frequency omega_h(E), so the radial level there is
hbar(omega_h(E) eps - m_phi B_h(E)): the unit level eps is solved by the
finite-volume eigensolver once per (|m_phi|, n) per process and only
rescaled afterwards. The Fock level is solved at every frozen energy
where the frozen Hamiltonian is bounded below (|B_h| < omega_h). The
module shares no code with the spectra module, so the closed forms and
the root-finder there can be cross-checked end to end.

The tridiagonal eigenvalues are this module's own
(_tridiagonal_eigenvalues; no scipy): a Sturm count, the number of
negative LDL^T pivots of T - x (Barth, Martin & Wilkinson, Numer. Math.
9, 1967), certifies that a bracket holds exactly eigenvalue k, and
safeguarded Newton steps on the same pivot sweep, d/dx ln|det(T - x)| =
sum_i d_i'/d_i, finish the root. The continuum oscillator levels are
only the starts, so they cannot change which eigenvalue is returned.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import time

import numpy as np

from .errors import ConvergenceError, GridError, ValidationError
from .algebra import _shell_blocks, build_heisenberg_rep
from .params import (ModelParams, PhysicalConstants, _require_int,
                     effective_coefficients)

log = logging.getLogger("ncqm.oracle")

_DECAY_LOG = math.log(1e8)  # require exp(-xi_max^2/2) < 1e-8 at the boundary

# A Newton step within this many ulps of ||T||_inf is at the roundoff
# floor of the pivots: the steps stop shrinking there (between 1e-12 and
# 1e-11 on the unit radial matrices, where 8 ulps of ||T||_inf is
# 1e-10 to 5e-9), so a fixed stop at 2 eps |x| could never be met.
_FLOOR_ULPS = 8.0
# Sweeps on a bracket that isolates the eigenvalue after which it is
# bisected instead of taking Newton steps.
_NEWTON_SWEEPS = 16


def _pivot_sweep(d, e2, x: float, pivmin: float) -> tuple[int, float]:
    """Sturm count and Newton step of det(T - x) from the LDL^T pivots.

    d is the diagonal of T and e2 its squared off-diagonal with a 0 in
    front. The pivots are d_i = d[i] - x - e2[i]/d_(i-1); the count of
    negative ones is the number of eigenvalues below x, and the Newton
    step is -1/sum_i d_i'/d_i, the sum being d/dx ln|det(T - x)|, with
    d_i' = -1 + e2[i] d_(i-1)'/d_(i-1)^2 (inf where the sum is 0). A
    pivot below pivmin in size is taken as -pivmin (and counted), as in
    LAPACK's dstebz.
    """
    count = 0
    q, ratio, total = 1.0, 0.0, 0.0  # ratio is d_i'/d_i
    for di, ei2 in zip(d, e2):
        r = ei2 / q
        q = di - x - r
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
        ratio = (r * ratio - 1.0) / q
        total += ratio
    return count, (-1.0 / total if total else math.inf)


def _eigenvalue(d, e2, k: int, x: float, floor: float,
                pivmin: float) -> float:
    """Eigenvalue k (from 0, ascending) of T, from the start x.

    The pivot sweep at x gives the Newton step and, by its count, the side
    of x on which eigenvalue k lies. Sturm counts at twice the step's
    length (at least floor) from x on that side, the length doubled each
    time, walk away from x until count(lo) <= k < count(hi) certifies the
    bracket [lo, hi]. One loop then refines it, and each sweep narrows it
    by its count. While the bracket holds other eigenvalues besides k it
    is bisected; once it holds eigenvalue k alone, Newton steps finish the
    root, with a bisection wherever a step would not land strictly inside
    the bracket and after _NEWTON_SWEEPS such sweeps. A step within floor
    is the last, and a bracket of width floor ends the search, so
    eigenvalues that agree to within floor end in a bracket of that width.
    """
    c, step = _pivot_sweep(d, e2, x, pivmin)
    w = max(2.0 * abs(step), floor) if math.isfinite(step) else floor
    up = c <= k  # eigenvalue k lies above x
    near, c_near = x, c
    while True:
        far = near + w if up else near - w
        c_far = _pivot_sweep(d, e2, far, pivmin)[0]
        if (c_far > k) == up:
            break
        near, c_near, w = far, c_far, 2.0 * w
    lo, c_lo, hi, c_hi = ((near, c_near, far, c_far) if up
                          else (far, c_far, near, c_near))
    sweeps = 0  # sweeps taken while the bracket isolates k
    while True:
        x_new = x + step
        isolated = c_lo == k and c_hi == k + 1
        if isolated and abs(step) <= floor and lo <= x_new <= hi:
            return x_new
        if not (isolated and sweeps < _NEWTON_SWEEPS and lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if hi - lo <= floor:
            return x_new
        x = x_new
        c, step = _pivot_sweep(d, e2, x, pivmin)
        sweeps += isolated
        if c <= k:
            lo, c_lo = x, c
        else:
            hi, c_hi = x, c


def _tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray,
                             starts) -> np.ndarray:
    """The len(starts) lowest eigenvalues of the symmetric tridiagonal
    matrix T with diagonal diag and off-diagonal off, ascending.

    Eigenvalue k is sought from starts[k] (clipped to the Gershgorin
    interval, so an infinite start is its end): a good start saves
    sweeps, and a poor one costs sweeps but never changes the index, which
    the Sturm count certifies (see _eigenvalue). The Newton steps end at
    floor, _FLOOR_ULPS ulps of ||T||_inf, the roundoff floor of the
    pivots; the last step is kept.
    """
    radius = np.abs(np.concatenate(([0.0], off))) \
        + np.abs(np.concatenate((off, [0.0])))
    low = float(np.min(diag - radius))
    high = float(np.max(diag + radius))
    norm = float(np.max(np.abs(diag) + radius))
    e2 = [0.0, *(off * off).tolist()]
    pivmin = sys.float_info.min * max(1.0, max(e2))
    floor = max(_FLOOR_ULPS * sys.float_info.epsilon * norm, pivmin)
    d = diag.tolist()
    starts = np.clip(np.asarray(starts, dtype=float), low, high)
    return np.array([_eigenvalue(d, e2, k, x, floor, pivmin)
                     for k, x in enumerate(starts.tolist())])


def _radial_matrix(m_star: float, k_elastic: float, m_phi: int,
                   r_max: float, points: int, hbar: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric finite-volume matrix of
    radial_fd_eigensolve at B = 0, on points cells of [0, r_max]. An entry
    that is not a finite double raises ValidationError."""
    h = r_max / points
    r = (np.arange(points) + 0.5) * h
    r_plus = r + 0.5 * h
    r_minus = np.maximum(r - 0.5 * h, 0.0)  # zero flux through r = 0
    kin = hbar ** 2 / (2.0 * m_star)
    diag = (kin * (r_plus + r_minus) / (h ** 2 * r)
            + kin * m_phi ** 2 / r ** 2
            + 0.5 * k_elastic * r ** 2)
    off = -kin * r_plus[:-1] / (h ** 2 * np.sqrt(r[:-1] * r[1:]))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValidationError(
            f"the finite-volume matrix at m_star={m_star!r}, "
            f"k_elastic={k_elastic!r}, hbar={hbar!r}, r_max={r_max!r} has "
            "an entry that is not a finite double")
    return diag, off


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
    and positive, b_field finite, count in 1..points and every matrix
    entry a finite double (ValidationError).

    The eigenvalues are _tridiagonal_eigenvalues's. Level k starts at the
    continuum oscillator level hbar omega (2k + |m_phi| + 1) on the coarse
    grid; the grid error is O(h^2), so the doubled grid starts three
    quarters of the way from the coarse eigenvalue to that level.
    """
    r_max, points = grid
    points = _require_int("points", points, 500, GridError)
    if not all(0.0 < v < math.inf for v in (m_star, k_elastic, hbar, r_max)):
        raise ValidationError(
            "m_star, k_elastic, hbar and r_max must be finite and positive, "
            f"got {m_star}, {k_elastic}, {hbar}, {r_max}")
    if not math.isfinite(b_field):
        raise ValidationError(f"b_field must be finite, got {b_field}")
    count = _require_int("count", count, 1)
    if count > points:
        raise ValidationError(f"count must be in 1..{points}, got {count}")
    lam = math.sqrt(m_star * k_elastic) / hbar
    if lam * r_max ** 2 / 2.0 < _DECAY_LOG:
        raise GridError(
            f"r_max={r_max} too small: exp(-xi^2/2) at the boundary is "
            f"{math.exp(-lam * r_max ** 2 / 2.0):.2e} >= 1e-8")

    def solve(n_pts: int, starts) -> np.ndarray:
        return _tridiagonal_eigenvalues(
            *_radial_matrix(m_star, k_elastic, m_phi, r_max, n_pts, hbar),
            starts)

    quantum = hbar * math.sqrt(k_elastic) / math.sqrt(m_star)
    continuum = quantum * (2.0 * np.arange(count) + abs(m_phi) + 1.0)
    eps = solve(points, continuum)
    if richardson:
        eps = (4.0 * solve(2 * points, eps + 0.75 * (continuum - eps))
               - eps) / 3.0
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


# Gap, in units of hbar omega, by which the lowest energy a shell can
# reach must clear the count-th level in hand for the solve to stop before
# it: far above the 1e-9 rounding of the sort key.
_SHELL_MARGIN = 1e-6


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
    Levels equal to roundoff are ordered by shell. The shells are solved
    in ascending N, and the solve stops before shell N once count levels
    are in hand and the lowest energy shell N or a later one can reach,
    hbar(omega(N+1) - |B| N), lies _SHELL_MARGIN hbar omega above the
    count-th of them: no later shell can change the result. m_star and
    k_elastic must be finite and positive (PhysicalConstants holds hbar to
    the same), with sqrt(K/m*) a positive finite double, b_field finite
    and count at least 1 (ValidationError).
    """
    n_trunc = _require_int("n_trunc", n_trunc, 20)
    if not all(0.0 < v < math.inf for v in (m_star, k_elastic)):
        raise ValidationError(
            "m_star and k_elastic must be finite and positive, "
            f"got {m_star}, {k_elastic}")
    if not math.isfinite(b_field):
        raise ValidationError(f"b_field must be finite, got {b_field}")
    count = _require_int("count", count, 1)
    omega = math.sqrt(k_elastic / m_star)
    if not 0.0 < omega < math.inf:
        raise ValidationError(
            f"the natural frequency sqrt(k_elastic/m_star) = {omega!r} is not "
            f"a positive finite double at m_star={m_star!r}, "
            f"k_elastic={k_elastic!r}")
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
        # shells 0..n_q - 1 hold n_q (n_q + 1)/2 levels; no level of shell
        # n_q or above lies below hbar(omega(n_q + 1) - |B| n_q), which
        # grows with n_q as |B| < omega
        if n_q * (n_q + 1) // 2 >= count:
            lowest = np.partition(np.concatenate(values), count - 1)[count - 1]
            if (c.hbar * (omega * (n_q + 1) - abs(b_field) * n_q)
                    > lowest + _SHELL_MARGIN * c.hbar * omega):
                break
        size = n_q + 1
        m_hbar, vecs = np.linalg.eigh(lz_blocks[n_q, :size, :size])
        h = ham_blocks[n_q, :size, :size]
        values.append(np.einsum("ij,ik,kj->j", vecs.conj(), h, vecs).real)
        labels.append(np.rint(m_hbar / c.hbar).astype(int))
    values = np.concatenate(values)
    solved = len(labels)
    shells = np.repeat(np.arange(solved), np.arange(1, solved + 1))
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
    coefficients and picked by its L_z label. solver is "radial" or
    "fock", as self_consistent_wrap has checked. A frozen Hamiltonian
    that is unbounded below (|B_h| >= omega_h) has no certified Fock
    level (ValidationError).
    """
    coeff = effective_coefficients(p, energy)
    c = p.constants
    if coeff.k_h <= 0:
        raise ValidationError("frozen K_h must be positive")
    if solver == "radial":
        unit = _unit_radial_levels(abs(qn.m_phi), qn.n)
        return c.hbar * (coeff.omega_h * unit - qn.m_phi * coeff.b_h)
    if abs(coeff.b_h) >= coeff.omega_h:
        raise ValidationError(
            f"the Hamiltonian frozen at E={energy:.6g} is unbounded "
            f"below: |B_h| = {abs(coeff.b_h):.6g} >= omega_h = "
            f"{coeff.omega_h:.6g}, so no Fock level is certified")
    certified = _certified_count(_FOCK_TRUNC, coeff.omega_h, coeff.b_h)
    energies, labels = fock_matrix_eigensolve(
        _FOCK_TRUNC, coeff.m_star, coeff.b_h, coeff.k_h, c,
        count=certified, with_labels=True)
    # ascending: levels of one label lie 2 hbar omega_h apart
    matching = energies[labels == qn.m_phi]
    if len(matching) <= qn.n:
        raise ValidationError(f"level (n={qn.n}, m_phi={qn.m_phi}) not in "
                              "the certified window")
    return float(matching[qn.n])


# Secant steps before self_consistent_wrap gives up (scipy newton's default).
SECANT_MAX_ITER = 50


def _secant(f, x0: float, x1: float, xtol: float):
    """Root of f by the secant method from x0 and x1.

    A step-for-step port of the secant branch of scipy.optimize.newton
    (scipy 1.17.1) at rtol = 0 and maxiter = SECANT_MAX_ITER: the same
    start swap, the same two update formulas and the same stop
    |p - p1| <= xtol, so it returns the root scipy's root_scalar(
    method="secant", xtol=xtol, rtol=0) returns after as many calls of f.
    Where scipy warns "Tolerance ... reached" (f(p1) == f(p0), the secant
    is flat) this returns quietly. Returns (root, steps, status), status
    "converged", "stalled" or "maxiter".
    """
    p0, p1 = x0, x1
    q0, q1 = f(p0), f(p1)
    if abs(q1) < abs(q0):
        p0, p1, q0, q1 = p1, p0, q1, q0
    for step in range(1, SECANT_MAX_ITER + 1):
        if q1 == q0:
            return (p1 + p0) / 2.0, step, "stalled"
        if abs(q1) > abs(q0):
            p = (-q0 / q1 * p1 + p0) / (1 - q0 / q1)
        else:
            p = (-q1 / q0 * p0 + p1) / (1 - q1 / q0)
        if abs(p - p1) <= xtol:
            return p, step, "converged"
        p0, q0 = p1, q1
        p1 = p
        q1 = f(p1)
    return p, SECANT_MAX_ITER, "maxiter"


def self_consistent_wrap(solver: str, p: ModelParams, qn,
                         tol: float = 1e-8) -> float:
    """Self-consistent energy E* with eigenvalue(E*) = E*.

    level(E) solves the Hamiltonian with its coefficients frozen at E
    (solver "radial" or "fock"). The secant method (_secant, a port of
    scipy's) solves h(u) = u - ln level(e^u) = 0 to xtol tol in u = ln E,
    starting from ln scale and ln level(scale) at the commutative scale:
    constant coefficients converge in one step, and power-law strengths
    make a free-particle level linear in u, so roots decades from the
    scale are reached. level(scale) <= 0 means no bound state. Frozen
    levels are memoized within the call. E is accepted when
    |E - level(E)| <= tol level(E); otherwise ConvergenceError is raised
    with the cause and the last frozen solves. The causes are a stalled
    secant (h equal at its last two points: a flat h, as for a level
    linear in E, has no root), SECANT_MAX_ITER steps without
    convergence, a failed frozen solve (e^u overflows, K_h <= 0, a level
    that is not positive and finite) and a residual above tol. solver and
    tol (finite, positive) are checked first (ValidationError). Each call
    past those checks logs one DEBUG record on "ncqm.oracle": frozen
    solves, secant steps and the relative residual, or the cause when it
    raises ConvergenceError.
    """
    if solver not in ("radial", "fock"):
        raise ValidationError(f"unknown solver {solver!r}; use radial or fock")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    c = p.constants
    scale = c.hbar * max(c.omega, 1.0 / p.e_ref) * qn.radial_weight
    scale = max(scale, 1e-6 * p.e_ref)
    levels = {}  # frozen level by u = ln E

    def failure(why, steps):
        log.debug("self_consistent_wrap %s (n=%d, m_phi=%d): %d frozen "
                  "solves, %d secant steps, failed: %s", solver, qn.n,
                  qn.m_phi, len(levels), steps, why)
        return ConvergenceError(
            f"self-consistency failed for {qn}: {why}; frozen solves: "
            + ("; ".join(f"E={math.exp(a):.6g}->{b:.6g}"
                         for a, b in list(levels.items())[-6:]) or "none"))

    # The secant solves at its two starts (the first is the scale), then
    # once per step, so the solve at the n-th frozen energy ends step n - 2.
    def level(u):
        if u not in levels:
            try:
                levels[u] = _frozen_level(p, qn, math.exp(u), solver)
            except (ArithmeticError, ValueError) as exc:
                raise failure(f"frozen solve at E = e^{u:.6g} failed: {exc}",
                              max(len(levels) - 1, 0)) from exc
        return levels[u]

    def h(u):
        lev = level(u)
        if not 0.0 < lev < math.inf:
            raise failure(f"frozen level {lev:.6g} at E = e^{u:.6g} is not "
                          "positive and finite", max(len(levels) - 2, 0))
        return u - math.log(lev)

    u = math.log(scale)
    if not level(u) > 0.0:
        raise failure("level(scale) <= 0, no bound state", 0)
    steps = 0
    if h(u) != 0.0:  # else the scale is the root
        u, steps, status = _secant(h, u, math.log(level(u)), tol)
        if status == "stalled":
            raise failure(f"the secant on ln E stalled at step {steps}: "
                          "h(u) = u - ln level(e^u) took the same value at "
                          "its last two points", steps)
        if status == "maxiter":
            raise failure(f"the secant on ln E did not converge in {steps} "
                          "steps", steps)
    h(u)  # the level at the root is positive and finite too
    energy = math.exp(u)
    residual = abs(energy - levels[u]) / levels[u]
    if not residual <= tol:
        raise failure(f"relative residual {residual:.3e} above tol {tol:g}",
                      steps)
    log.debug("self_consistent_wrap %s (n=%d, m_phi=%d): %d frozen solves, "
              "%d secant steps, relative residual %.3e", solver, qn.n,
              qn.m_phi, len(levels), steps, residual)
    return energy

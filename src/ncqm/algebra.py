"""Matrix verification layer for the deformed algebra.

A two-mode truncated Fock space carries the canonical operators
(x, y, p_x, p_y); the linear maps below then produce operators that must
satisfy

    [x^, y^] = i theta,   [p^_x, p^_y] = i eta,
    [x^_i, p^_j] = i hbar (1 + theta*eta/4hbar^2) delta_ij,

which the residual report checks entry by entry. Truncating the ladder
operators corrupts the two highest Fock levels of each mode, so all
residual norms are taken on the interior block (first n_trunc - 2 levels
per mode), where the identities hold to roundoff.

Every operator is a scipy.sparse CSR array assembled directly from its
index arrays: product-basis row i*n_trunc + j couples to (i +- 1, j) for
a first-mode operator and to (i, j +- 1) for a second-mode one, so each
row holds at most two entries. Every commutator is a sparse product, and
its residuals are read straight from the commutator's CSR arrays.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .params import PhysicalConstants, effective_planck, k_factor

log = logging.getLogger("ncqm.algebra")

_MAX_TRUNC = 120
# Largest entry a map may add to an operator: products of two such entries
# stay far inside the double range.
_MAX_SHIFT = 1e150


def _mode_operators(n: int, stride: int,
                    *values: tuple[np.ndarray, np.ndarray]
                    ) -> list[sparse.csr_array]:
    """Tridiagonal single-mode quadratures on the two-mode product basis.

    Row r = i*n + j sits at level k = i of the first mode (stride n) or
    k = j of the second (stride 1). For each (lower, upper) pair, row r
    couples to r - stride with lower[k - 1] (k >= 1) and to r + stride
    with upper[k] (k <= n - 2), in that column order. The operators share
    one pattern but not its arrays.
    """
    rows = np.arange(n * n, dtype=np.int32)
    level = rows // stride % n
    valid = np.stack([level >= 1, level <= n - 2], axis=1)
    cols = np.stack([rows - stride, rows + stride], axis=1)[valid]
    indptr = np.zeros(n * n + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    return [sparse.csr_array(
                (np.stack([np.append(0.0, lower)[level],
                           np.append(upper, 0.0)[level]], axis=1)[valid],
                 cols.copy(), indptr.copy()),
                shape=(n * n, n * n))
            for lower, upper in values]


@dataclass(frozen=True)
class FockRep:
    """Canonical operators on a two-mode truncated Fock space.

    Mode dimensions are n_trunc each (total n_trunc^2); interior_dim is
    the per-mode size of the truncation-safe sub-block. The operators
    are sparse CSR arrays.
    """

    n_trunc: int
    hbar: float
    mass: float
    x: sparse.csr_array
    y: sparse.csr_array
    px: sparse.csr_array
    py: sparse.csr_array

    @property
    def interior_dim(self) -> int:
        return self.n_trunc - 2

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of product-basis states below the truncation edge."""
        keep = np.zeros((self.n_trunc, self.n_trunc), dtype=bool)
        keep[: self.interior_dim, : self.interior_dim] = True
        return keep.reshape(-1)


@dataclass(frozen=True)
class MappedRep:
    """Operators after a linear noncommutativity-generating map."""

    rep: FockRep
    theta: float
    eta: float
    x: sparse.csr_array
    y: sparse.csr_array
    px: sparse.csr_array
    py: sparse.csr_array


def build_heisenberg_rep(n_trunc: int, c: PhysicalConstants,
                         ref_frequency: float = 1.0) -> FockRep:
    """Build x, y, p_x, p_y from ladder operators of a reference oscillator.

    x = sqrt(hbar/2m w)(a + a+), p_x = i sqrt(m w hbar/2)(a+ - a), and the
    same for (y, p_y) with the second mode. Commutators are exact on the
    interior block; n_trunc must be at least 4 (capped at 120). Logs one
    DEBUG record on "ncqm.algebra": n_trunc, the dimension, the stored
    entries per operator and the bytes of the four operators.
    """
    if n_trunc < 4:
        raise ValidationError(f"n_trunc must be >= 4, got {n_trunc}")
    if n_trunc > _MAX_TRUNC:
        raise ValidationError(f"n_trunc capped at {_MAX_TRUNC}, got {n_trunc}")
    if ref_frequency <= 0:
        raise ValidationError("ref_frequency must be positive")
    x_scale = math.sqrt(c.hbar / (2.0 * c.mass * ref_frequency))
    p_scale = math.sqrt(c.mass * ref_frequency * c.hbar / 2.0)
    root = np.sqrt(np.arange(1.0, n_trunc))
    # <k-1|q|k> = <k|q|k-1> = x_scale sqrt(k); <k-1|p|k> = -i p_scale sqrt(k)
    q = (x_scale * root).astype(complex)
    p = 1j * (p_scale * root)
    x, px = _mode_operators(n_trunc, n_trunc, (q, q), (p, p.conj()))
    y, py = _mode_operators(n_trunc, 1, (q, q), (p, p.conj()))
    rep = FockRep(n_trunc=n_trunc, hbar=c.hbar, mass=c.mass,
                  x=x, y=y, px=px, py=py)
    ops = (rep.x, rep.y, rep.px, rep.py)
    log.debug("build_heisenberg_rep: n_trunc %d, dimension %d, nnz per "
              "operator %s, %d operator bytes", n_trunc, n_trunc ** 2,
              [m.nnz for m in ops],
              sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                  for m in ops))
    return rep


def _check_shift(rep: FockRep, theta: float, eta: float, ct: float,
                 ce: float) -> None:
    """Refuse a map whose shifted entries, ct max|p| or ce max|x|, would
    overflow the commutator products (ValidationError)."""
    for shift in (abs(ct) * float(np.abs(rep.px.data).max()),
                  abs(ce) * float(np.abs(rep.x.data).max())):
        if not shift <= _MAX_SHIFT:
            raise ValidationError(
                f"theta={theta}, eta={eta} shift operator entries by "
                f"{shift:.3g}, past {_MAX_SHIFT:g}: the commutator products "
                "would overflow")


def sw_forward(rep: FockRep, theta: float, eta: float) -> MappedRep:
    """Symmetric linear map from canonical to noncommutative operators.

    x^ = x - (theta/2hbar) p_y,  y^ = y + (theta/2hbar) p_x,
    p^_x = p_x + (eta/2hbar) y,  p^_y = p_y - (eta/2hbar) x.

    The coordinate-momentum commutator picks up the factor
    1 + theta*eta/4hbar^2 (an effective Planck constant). Strengths that
    would shift an entry past 1e150 raise ValidationError.
    """
    ct = theta / (2.0 * rep.hbar)
    ce = eta / (2.0 * rep.hbar)
    _check_shift(rep, theta, eta, ct, ce)
    return MappedRep(
        rep=rep, theta=theta, eta=eta,
        x=rep.x - ct * rep.py,
        y=rep.y + ct * rep.px,
        px=rep.px + ce * rep.y,
        py=rep.py - ce * rep.x,
    )


def sw_inverse(mapped: MappedRep, exact_k: bool = True) -> dict:
    """Invert sw_forward, returning the canonical operator matrices.

    x = k [x^ + (theta/2hbar) p^_y], etc., with the map's own theta and
    eta. With exact_k the prefactor is k = 1/(1 - theta*eta/4hbar^2) and
    the round trip is an identity to roundoff; with exact_k=False the
    small-strength approximation k = 1 is used and the round trip picks
    up a relative error theta*eta/4hbar^2.
    """
    rep = mapped.rep
    theta, eta = mapped.theta, mapped.eta
    c = PhysicalConstants(hbar=rep.hbar, mass=rep.mass)
    k = k_factor(theta, eta, c) if exact_k else 1.0
    ct = theta / (2.0 * rep.hbar)
    ce = eta / (2.0 * rep.hbar)
    return {
        "x": k * (mapped.x + ct * mapped.py),
        "y": k * (mapped.y - ct * mapped.px),
        "px": k * (mapped.px - ce * mapped.y),
        "py": k * (mapped.py + ce * mapped.x),
    }


def alternative_maps(rep: FockRep, theta: float, eta: float,
                     variant: str) -> MappedRep:
    """One-sided linear maps that realize the same (theta, eta) commutators.

    Variant "asym_1" shifts only (x, p_y); "asym_2" shifts only (y, p_x).
    Both leave [x^_i, p^_j] = i hbar delta_ij exact (no effective-Planck
    shift), in contrast with sw_forward. Strengths that would shift an
    entry past 1e150 raise ValidationError.
    """
    ct = theta / rep.hbar
    ce = eta / rep.hbar
    _check_shift(rep, theta, eta, ct, ce)
    if variant == "asym_1":
        return MappedRep(rep=rep, theta=theta, eta=eta,
                         x=rep.x - ct * rep.py, y=rep.y,
                         px=rep.px, py=rep.py - ce * rep.x)
    if variant == "asym_2":
        return MappedRep(rep=rep, theta=theta, eta=eta,
                         x=rep.x, y=rep.y + ct * rep.px,
                         px=rep.px + ce * rep.y, py=rep.py)
    raise ValidationError(f"unknown variant {variant!r}; use asym_1 or asym_2")


def _commutator(a: sparse.csr_array,
                b: sparse.csr_array) -> sparse.csr_array:
    return a @ b - b @ a


@dataclass(frozen=True)
class ResidualEntry:
    commutator: str
    target: complex
    measured: complex
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "commutator": self.commutator,
            "target": {"re": self.target.real, "im": self.target.imag},
            "measured": {"re": self.measured.real, "im": self.measured.imag},
            "max_residual": self.max_residual,
        }


def commutator_residuals(mapped: MappedRep) -> list[ResidualEntry]:
    """Interior-block residuals of the mapped commutators.

    The targets are the map's theta and eta and the symmetric-map hbar_eff
    (so a one-sided map shows its missing Planck shift in [x,px]). The
    off-diagonal [x^, p^_y] and [y^, p^_x] vanish identically for a single
    noncommutative plane, so their target is 0. Residuals are max absolute
    entries of C - i*target*I restricted to the interior block, read from
    the CSR arrays of C (an unstored diagonal entry counts as 0); measured
    is the mean of the block's diagonal. A residual that is not finite
    raises ValidationError.
    """
    rep = mapped.rep
    c = PhysicalConstants(hbar=rep.hbar, mass=rep.mass)
    hbar_eff = effective_planck(mapped.theta, mapped.eta, c)
    inside = rep.interior_mask()
    keep = np.flatnonzero(inside)
    dim = keep.size
    checks = [
        ("[x,y]", mapped.theta, _commutator(mapped.x, mapped.y)),
        ("[px,py]", mapped.eta, _commutator(mapped.px, mapped.py)),
        ("[x,px]", hbar_eff, _commutator(mapped.x, mapped.px)),
        ("[y,py]", hbar_eff, _commutator(mapped.y, mapped.py)),
        ("[x,py]", 0.0, _commutator(mapped.x, mapped.py)),
        ("[y,px]", 0.0, _commutator(mapped.y, mapped.px)),
    ]
    out = []
    for name, coeff, comm in checks:
        rows = np.repeat(np.arange(comm.shape[0]), np.diff(comm.indptr))
        in_block = inside[rows] & inside[comm.indices]
        on_diag = in_block & (rows == comm.indices)
        diag = np.zeros(comm.shape[0], dtype=complex)
        diag[rows[on_diag]] = comm.data[on_diag]
        diag = diag[keep]
        off = np.abs(comm.data[in_block & ~on_diag]).max(initial=0.0)
        worst = float(np.maximum(off, np.abs(diag - 1j * coeff).max()))
        if not math.isfinite(worst):
            raise ValidationError(f"{name} residual is not finite at "
                                  f"theta={mapped.theta}, eta={mapped.eta}")
        out.append(ResidualEntry(
            commutator=name,
            target=complex(0.0, coeff),
            measured=complex(diag.sum() / dim),
            max_residual=worst,
        ))
    return out


def residual_report_json(entries: list[ResidualEntry]) -> str:
    return json.dumps([e.to_dict() for e in entries], indent=2)


def bogoliubov_frequency(omega: float, b_field: float) -> float:
    """Single quasiparticle frequency of the quadratic Hamiltonian.

    The pair-transformation diagonalization of the (omega, B) quadratic
    form yields Omega = omega + B; the exact-diagonalization oracle keeps
    an independent record of the two-branch (omega +/- B) structure, and
    the verification report compares the two.
    """
    if omega < 0:
        raise ValidationError("omega must be non-negative")
    return omega + b_field

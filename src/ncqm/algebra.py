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

Every operator is a DiagonalOperator: a few constant-offset diagonals of
the product basis. Product-basis row i*n_trunc + j couples to (i +- 1, j)
for a first-mode operator (offsets +-n_trunc) and to (i, j +- 1) for a
second-mode one (offsets +-1), so a mapped operator holds four diagonals
and a product of two of them nine. Every commutator is a product of
diagonals, and its residuals are read straight from them. _shell_blocks
reads the blocks that the Fock oracle diagonalizes, one per shell
n_x + n_y = N; no other module decodes the product basis.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .params import (PhysicalConstants, _require_int, _require_real,
                     effective_planck, k_factor)

log = logging.getLogger("ncqm.algebra")

_MAX_TRUNC = 120
# Largest entry a map may add to an operator: products of two such entries
# stay far inside the double range.
_MAX_SHIFT = 1e150


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Square complex operator stored as constant-offset diagonals.

    data[k][r] = M[r, r + offsets[k]]; offsets ascend, and the entries of
    a row of data whose column r + offsets[k] falls outside the matrix are
    zero. Supports +, -, multiplication and division by a scalar, @,
    abs_max() and toarray(). A product sums, for each output entry, the
    terms of ascending inner index, and a sum or difference takes a
    missing diagonal as zeros.
    """

    offsets: np.ndarray
    data: np.ndarray

    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    @property
    def shape(self) -> tuple[int, int]:
        return (self.data.shape[1],) * 2

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def _combine(self, other: DiagonalOperator, op) -> DiagonalOperator:
        mine, theirs = self.offsets.tolist(), other.offsets.tolist()
        if mine == theirs:
            return DiagonalOperator(self.offsets, op(self.data, other.data))
        offsets = sorted({*mine, *theirs})

        def aligned(m: DiagonalOperator, own: list[int]) -> np.ndarray:
            out = np.zeros((len(offsets), m.data.shape[1]), dtype=m.dtype)
            out[[offsets.index(o) for o in own]] = m.data
            return out

        return DiagonalOperator(np.array(offsets),
                                op(aligned(self, mine), aligned(other, theirs)))

    def __add__(self, other: DiagonalOperator) -> DiagonalOperator:
        return self._combine(other, np.add)

    def __sub__(self, other: DiagonalOperator) -> DiagonalOperator:
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> DiagonalOperator:
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return DiagonalOperator(self.offsets, self.data * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> DiagonalOperator:
        # by the reciprocal, as a CSR array divides, so the entries agree
        # with a CSR reference bit for bit
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self * (1 / scalar)

    def __matmul__(self, other: DiagonalOperator) -> DiagonalOperator:
        dim = self.shape[0]
        offsets, terms = _product_plan(tuple(self.offsets.tolist()),
                                       tuple(other.offsets.tolist()), dim)
        data = np.zeros((len(offsets), dim),
                        dtype=np.result_type(self.data, other.data))
        term = np.empty(dim, dtype=data.dtype)
        for left, right, row, rows, cols in terms:
            out = data[row, rows]
            np.add(out, np.multiply(self.data[left, rows],
                                    other.data[right, cols], out=term[rows]),
                   out=out)
        return DiagonalOperator(offsets, data)

    def abs_max(self) -> float:
        """Largest absolute entry."""
        return float(np.abs(self.data).max())

    def toarray(self) -> np.ndarray:
        """Dense matrix: dim^2 entries (3.3 GB at n_trunc 120)."""
        dim = self.shape[0]
        out = np.zeros(self.shape, dtype=self.dtype)
        for offset, values in zip(self.offsets.tolist(), self.data):
            rows = np.arange(max(0, -offset), min(dim, dim - offset))
            out[rows, rows + offset] = values[rows]
        return out


@functools.lru_cache(maxsize=32)
def _product_plan(mine: tuple, theirs: tuple, dim: int):
    """Offsets and terms of the product of two diagonal layouts.

    The offsets are the sorted sums a + b, as a read-only array. Each
    term (left row, right row, output row, rows, rows + a) adds
    left[rows] * right[rows + a] to the output diagonal a + b: entry r of
    diagonal a + b is M[r, r + a] N[r + a, r + a + b]. The terms run in
    ascending a, then b, so each output entry adds its terms in the order
    of the inner index r + a; pairs that overlap nowhere are left out.
    """
    offsets = sorted({a + b for a in mine for b in theirs})
    slot = {d: k for k, d in enumerate(offsets)}
    terms = []
    for i, a in enumerate(mine):
        for j, b in enumerate(theirs):
            lo, hi = max(0, -a, -a - b), min(dim, dim - a, dim - a - b)
            if lo < hi:
                terms.append((i, j, slot[a + b], slice(lo, hi),
                              slice(lo + a, hi + a)))
    offsets = np.array(offsets)
    offsets.flags.writeable = False
    return offsets, tuple(terms)


def _mode_operators(n: int, stride: int,
                    *values: tuple[np.ndarray, np.ndarray]
                    ) -> list[DiagonalOperator]:
    """Tridiagonal single-mode quadratures on the two-mode product basis.

    Row r = i*n + j sits at level k = i of the first mode (stride n) or
    k = j of the second (stride 1). For each (lower, upper) pair, row r
    couples to r - stride with lower[k - 1] (k >= 1) and to r + stride
    with upper[k] (k <= n - 2).
    """
    level = np.arange(n * n) // stride % n
    offsets = np.array([-stride, stride])
    return [DiagonalOperator(offsets,
                             np.stack([np.append(0.0, lower)[level],
                                       np.append(upper, 0.0)[level]]))
            for lower, upper in values]


def _shell_blocks(op, n_trunc: int) -> np.ndarray:
    """Blocks of op on the complete total-quanta shells N <= n_trunc - 2.

    Entry [N, i, j] couples (n_x, n_y) = (i, N - i) and (j, N - j); rows
    past N + 1 are zero padding. Moving t quanta from y to x keeps the
    shell and the column offset t (n_trunc - 1), so only those diagonals
    of op are read; their entries between shells are dropped.
    """
    row_x, row_y = np.divmod(np.arange(n_trunc * n_trunc), n_trunc)
    shell = row_x + row_y
    blocks = np.zeros((n_trunc - 1,) * 3, dtype=complex)
    for offset, values in zip(op.offsets.tolist(), op.data):
        t, rest = divmod(offset, n_trunc - 1)
        if rest:
            continue
        keep = (shell <= n_trunc - 2) & (row_x + t >= 0) & (row_y - t >= 0)
        blocks[shell[keep], row_x[keep], row_x[keep] + t] = values[keep]
    return blocks


@dataclass(frozen=True)
class FockRep:
    """Canonical operators on a two-mode truncated Fock space.

    Mode dimensions are n_trunc each (total n_trunc^2); interior_dim is
    the per-mode size of the truncation-safe sub-block.
    """

    n_trunc: int
    hbar: float
    mass: float
    x: DiagonalOperator
    y: DiagonalOperator
    px: DiagonalOperator
    py: DiagonalOperator

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
    x: DiagonalOperator
    y: DiagonalOperator
    px: DiagonalOperator
    py: DiagonalOperator


def build_heisenberg_rep(n_trunc: int, c: PhysicalConstants,
                         ref_frequency: float = 1.0) -> FockRep:
    """Build x, y, p_x, p_y from ladder operators of a reference oscillator.

    x = sqrt(hbar/2m w)(a + a+), p_x = i sqrt(m w hbar/2)(a+ - a), and the
    same for (y, p_y) with the second mode. Commutators are exact on the
    interior block; n_trunc must be at least 4 (capped at 120), and
    ref_frequency positive and finite, with both scales positive finite
    doubles (ValidationError). Logs one
    DEBUG record on "ncqm.algebra": n_trunc, the dimension, the nonzero
    entries per operator and the bytes of the four operators.
    """
    n_trunc = _require_int("n_trunc", n_trunc, 4)
    if n_trunc > _MAX_TRUNC:
        raise ValidationError(f"n_trunc capped at {_MAX_TRUNC}, got {n_trunc}")
    ref_frequency = _require_real("ref_frequency", ref_frequency, 0.0)
    x_scale = math.sqrt(c.hbar / (2.0 * c.mass * ref_frequency))
    p_scale = math.sqrt(c.mass * ref_frequency * c.hbar / 2.0)
    if not (0.0 < x_scale < math.inf and 0.0 < p_scale < math.inf):
        raise ValidationError(
            f"ref_frequency={ref_frequency!r} puts the length and momentum "
            f"scales at {x_scale!r}, {p_scale!r}, not positive finite doubles")
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
              [int(np.count_nonzero(m.data)) for m in ops],
              sum(m.data.nbytes + m.offsets.nbytes for m in ops))
    return rep


def _map_shifts(rep: FockRep, theta, eta, divisor: float) -> tuple:
    """(theta, eta, ct, ce): the strengths read as finite reals and the
    shift coefficients theta/divisor and eta/divisor of a map. A map whose
    shifted entries, ct max|p| or ce max|x|, would overflow the commutator
    products is refused too (ValidationError)."""
    theta, eta = _require_real("theta", theta), _require_real("eta", eta)
    ct, ce = theta / divisor, eta / divisor
    for shift in (abs(ct) * rep.px.abs_max(), abs(ce) * rep.x.abs_max()):
        if not shift <= _MAX_SHIFT:
            raise ValidationError(
                f"theta={theta}, eta={eta} shift operator entries by "
                f"{shift:.3g}, past {_MAX_SHIFT:g}: the commutator products "
                "would overflow")
    return theta, eta, ct, ce


def sw_forward(rep: FockRep, theta: float, eta: float) -> MappedRep:
    """Symmetric linear map from canonical to noncommutative operators.

    x^ = x - (theta/2hbar) p_y,  y^ = y + (theta/2hbar) p_x,
    p^_x = p_x + (eta/2hbar) y,  p^_y = p_y - (eta/2hbar) x.

    The coordinate-momentum commutator picks up the factor
    1 + theta*eta/4hbar^2 (an effective Planck constant). Strengths that
    are not finite, or would shift an entry past 1e150, raise
    ValidationError.
    """
    theta, eta, ct, ce = _map_shifts(rep, theta, eta, 2.0 * rep.hbar)
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
    shift), in contrast with sw_forward. Strengths that are not finite,
    or would shift an entry past 1e150, raise ValidationError.
    """
    theta, eta, ct, ce = _map_shifts(rep, theta, eta, rep.hbar)
    if variant == "asym_1":
        return MappedRep(rep=rep, theta=theta, eta=eta,
                         x=rep.x - ct * rep.py, y=rep.y,
                         px=rep.px, py=rep.py - ce * rep.x)
    if variant == "asym_2":
        return MappedRep(rep=rep, theta=theta, eta=eta,
                         x=rep.x, y=rep.y + ct * rep.px,
                         px=rep.px + ce * rep.y, py=rep.py)
    raise ValidationError(f"unknown variant {variant!r}; use asym_1 or asym_2")


def _commutator(a: DiagonalOperator,
                b: DiagonalOperator) -> DiagonalOperator:
    return a @ b - b @ a


@functools.lru_cache(maxsize=32)
def _interior_masks(offsets: tuple, n: int):
    """Where the interior-block entries of a diagonal layout sit.

    Entry (i, j) of diagonal offset = di*n + dj (|dj| < n/2) couples
    (i, j) to (i + di, j + dj); it is interior when both lie in the block
    of the first n - 2 levels per mode. Returns the row of diagonal 0 (None
    if there is none), the mask of its interior entries over the n^2
    rows, and the mask of the interior entries of the other diagonals
    over the whole data array (None if there are none), both read-only.
    """
    inner = n - 2
    centre, on_diag = None, None
    off_diag = np.zeros((len(offsets), n, n), dtype=bool)
    for k, offset in enumerate(offsets):
        di, dj = divmod(offset + n // 2, n)
        dj -= n // 2
        block = (slice(max(0, -di), max(0, min(inner, inner - di))),
                 slice(max(0, -dj), max(0, min(inner, inner - dj))))
        if offset == 0:
            centre, on_diag = k, np.zeros((n, n), dtype=bool)
            on_diag[block] = True
            on_diag = on_diag.reshape(-1)
            on_diag.flags.writeable = False
        else:
            off_diag[k][block] = True
    if not off_diag.any():
        return centre, on_diag, None
    off_diag = off_diag.reshape(len(offsets), -1)
    off_diag.flags.writeable = False
    return centre, on_diag, off_diag


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
    the diagonals of C (a missing diagonal counts as zeros); measured is
    the mean of the block's diagonal. A residual that is not finite raises
    ValidationError.
    """
    rep = mapped.rep
    c = PhysicalConstants(hbar=rep.hbar, mass=rep.mass)
    hbar_eff = effective_planck(mapped.theta, mapped.eta, c)
    m = mapped
    out = []
    # each commutator is read and dropped before the next is formed
    for name, coeff, a, b in (("[x,y]", m.theta, m.x, m.y),
                              ("[px,py]", m.eta, m.px, m.py),
                              ("[x,px]", hbar_eff, m.x, m.px),
                              ("[y,py]", hbar_eff, m.y, m.py),
                              ("[x,py]", 0.0, m.x, m.py),
                              ("[y,px]", 0.0, m.y, m.px)):
        comm = _commutator(a, b)
        centre, on_diag, off_diag = _interior_masks(
            tuple(comm.offsets.tolist()), rep.n_trunc)
        diag = (comm.data[centre][on_diag] if centre is not None
                else np.zeros(rep.interior_dim ** 2, dtype=complex))
        worst = np.abs(diag - 1j * coeff).max()
        if off_diag is not None:
            worst = np.maximum(worst, np.abs(comm.data[off_diag]).max())
        worst = float(worst)
        if not math.isfinite(worst):
            raise ValidationError(f"{name} residual is not finite at "
                                  f"theta={mapped.theta}, eta={mapped.eta}")
        out.append(ResidualEntry(
            commutator=name,
            target=complex(0.0, coeff),
            measured=complex(diag.sum() / diag.size),
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
    the verification report compares the two. omega must be finite and
    non-negative and b_field finite (DomainError).
    """
    return (_require_real("omega", omega, 0.0, ends="[)", error=DomainError)
            + _require_real("b_field", b_field, error=DomainError))

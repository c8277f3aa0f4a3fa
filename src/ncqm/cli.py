"""Command-line front end.

Subcommands: spectrum (CSV energy tables), wavefunction (radial samples),
commutators (matrix residual report), fractional (operator evaluations),
ring (flux sweep) and verify (full cross-check suite). Model parameters
come from a JSON config (--config or the NCQM_CONFIG environment
variable) with individual flags overriding config fields; outputs are
deterministic for identical inputs.

Every refusal, a parse error included, is one ``error:`` line on stderr,
an empty stdout and exit 2; ``main`` is the only writer of that line and
returns 2 rather than raising ``SystemExit``. Exit 1 means only that
``verify`` saw a tolerance breach. A negative value may follow its flag
in any float or range form: ``--eta -2e2``, ``--l -3..3``, ``--x -3,-1``.

At module level this imports only the standard library, ``errors`` and
``params``, none of which loads numpy. Each ``_cmd_*`` function runs its
checks on the command line and the parameters first and only then
imports the modules it computes with, so ``--help``, ``ring`` and every
refusal made before any computation load no numpy. The EC and SQF
``spectrum`` tables, ``wavefunction`` and ``commutators`` load numpy and
no scipy (Brent's method is in ``spectra``, the radial-state special
functions in ``specfun``, the operators as numpy diagonals in
``algebra``), and so do ``fractional`` (its gamma functions are
``math.gamma`` and ``math.lgamma``) and ``verify`` (its beta check sums
Gauss-Legendre nodes in numpy, ``beta_fn`` is ``math.gamma`` and the
radial oracle solves its tridiagonal eigenvalues itself). scipy is
imported on call only by ``bessel_j`` past x = 12, ``laguerre`` past
n = 20 (so ``wavefunction --n`` above 20 loads it), ``bessel_y`` and
``riemann_liouville``. No table has more than MAX_ROWS rows: a larger
one is refused before any level is solved or any row is built.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import replace

from .errors import ConvergenceError, UsageError, ValidationError
from .params import (PARAM_KEYS, Mechanism, ModelParams, PhysicalConstants,
                     _require, _require_int, params_from_dict)

# Largest wavefunction --n: the cost of L_n grows with n at every sample
# point, and 10^6 at the default 200 points takes about a second.
WAVEFUNCTION_MAX_N = 10 ** 6

# Most rows one table may have; a larger one is refused before any work.
MAX_ROWS = 10 ** 6


def _add_param_flags(parser):
    parser.add_argument("--config", help="JSON parameter file "
                        "(default: $NCQM_CONFIG when set)")
    parser.add_argument("--mechanism", choices=[m.value for m in Mechanism])
    for key in PARAM_KEYS:
        if key != "mechanism":
            parser.add_argument(f"--{key.replace('_', '-')}", type=real,
                                dest=key)


def _load_params(args) -> ModelParams:
    doc = {}
    path = args.config or os.environ.get("NCQM_CONFIG")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if isinstance(doc, dict):  # anything else fails in params_from_dict
        doc.update((key, getattr(args, key)) for key in PARAM_KEYS
                   if getattr(args, key) is not None)
    return params_from_dict(doc)


def real(text: str) -> float:
    """Type of the float flags and --x items: NaN and infinities fail
    (argparse reports "invalid real value", hence the plain name)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def positive_int(text: str) -> int:
    """Type of the count flags (--points, --phi-steps, --n-trunc): zero
    or a negative count fails instead of writing an empty table."""
    return _require_int("count", int(text), 1)


def real_list(text: str) -> list[float]:
    """Type of --x: comma-separated items, each a ``real``; the message
    of a failing item is kept."""
    try:
        return [real(t) for t in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None


def _parse_range(text: str) -> range:
    """Type of the range flags (spectrum --n, --mphi, --n-alpha, --n-beta
    and ring --l): ``lo..hi`` with hi >= lo, or one integer."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r}: use lo..hi or one integer") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(
            f"empty range {text!r}: lo..hi needs hi >= lo")
    return range(lo, hi + 1)


def _check_rows(*axes):
    """Refuse a table of more than MAX_ROWS rows. Each axis is a range or
    a count; a range is counted as stop - start, which cannot overflow."""
    rows = math.prod(a.stop - a.start if isinstance(a, range) else a
                     for a in axes)
    if rows > MAX_ROWS:
        raise ValidationError(f"the table would have {rows} rows, more "
                              f"than {MAX_ROWS}")


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _cmd_spectrum(args) -> int:
    p = _load_params(args)
    rows = []
    multi_root = 0
    if p.mechanism is Mechanism.EC:
        tol = args.tol
        _check_rows(args.n, args.mphi)
        from . import spectra
        for n in args.n:
            for m_phi in args.mphi:
                qn = spectra.QuantumNumbers(n=n, m_phi=m_phi)
                bracket = (tuple(args.bracket) if args.bracket
                           else spectra.ec_default_bracket(qn, p))
                res = spectra.ec_solve_energy(qn, p, bracket, tol=tol)
                multi_root += res.roots_found > 1
                rows.append([p.mechanism.value, n, m_phi, "", "",
                             res.energy, res.method, res.residual])
    elif p.mechanism is Mechanism.SQF:
        if args.eps is None:
            raise UsageError("--eps (fluctuation energy scale) is required "
                             "for the sqf mechanism")
        _check_rows(args.n_alpha, args.n_beta)
        from . import spectra
        for n_a in args.n_alpha:
            for n_b in args.n_beta:
                qn = spectra.QuantumNumbers(n_alpha=n_a, n_beta=n_b)
                energy = spectra.sqf_spectrum(p, args.eps, qn)
                rows.append([p.mechanism.value, "", "", n_a, n_b,
                             energy, "closed_form", 0.0])
    else:
        raise UsageError("the energy-operator mechanism has no quantized "
                         "spectrum table (its order-1 bound condition "
                         "constrains parameters, not the energy)")
    header = ["mechanism", "n", "m_phi", "n_alpha", "n_beta", "energy",
              "method", "residual"]
    _write_text(args.out, _csv_text(header, rows))
    if multi_root:
        print(f"note: {multi_root} of {len(rows)} levels saw a second sign "
              "change; the smallest root is reported", file=sys.stderr)
    return 0


def _cmd_wavefunction(args) -> int:
    if args.r_max <= 0:
        raise ValidationError(
            f"--r-max must be positive, got {args.r_max!r}")
    if args.n > WAVEFUNCTION_MAX_N:
        raise ValidationError(f"--n must be at most {WAVEFUNCTION_MAX_N}, "
                              f"got {args.n}")
    _check_rows(args.points)
    p = _load_params(args)
    _require(p, Mechanism.EC, "wavefunction")  # before any solve
    from . import spectra, wavefunctions
    qn = spectra.QuantumNumbers(n=args.n, m_phi=args.mphi)
    if args.energy is not None:
        energy = args.energy
    else:
        bracket = spectra.ec_default_bracket(qn, p)
        energy = spectra.ec_solve_energy(qn, p, bracket).energy
    sol = wavefunctions.ec_radial_solution(qn, p, energy)
    xi_max = math.sqrt(sol.lambda_scale) * args.r_max  # sol.xi(r_max)
    if not math.isfinite(xi_max * xi_max):
        raise ValidationError(f"--r-max {args.r_max!r} puts xi^2 = lambda "
                              "r^2 past the float range (lambda = "
                              f"{sol.lambda_scale!r})")
    r = [args.r_max * (i + 0.5) / args.points for i in range(args.points)]
    rows = [[r_i, xi, val, val * val] for r_i, xi, val
            in zip(r, sol.xi(r).tolist(), sol(r).tolist())]
    _write_text(args.out, _csv_text(["r", "xi", "R_value", "density"], rows))
    return 0


def _cmd_commutators(args) -> int:
    c = PhysicalConstants(hbar=args.hbar)
    from . import algebra
    rep = algebra.build_heisenberg_rep(args.n_trunc, c)
    mapped = algebra.sw_forward(rep, args.theta, args.eta)
    entries = algebra.commutator_residuals(mapped)
    _write_text(args.out, algebra.residual_report_json(entries) + "\n")
    return 0


def _cmd_fractional(args) -> int:
    from . import fractional
    from .specfun import mittag_leffler
    rows = []
    c = PhysicalConstants()
    for x in args.x:
        if args.op == "caputo_exp":
            rows.append([args.op, args.order, x,
                         fractional.caputo_exp(args.order, x), ""])
        elif args.op == "half_derivative_x":
            f = fractional.PowerSeriesFn(alpha_step=0.5, coeffs=(0.0, 0.0, 1.0))
            rows.append([args.op, 0.5, x,
                         fractional.caputo_series_derivative(f, x),
                         2.0 * math.sqrt(x / math.pi)])
        elif args.op == "gl_half_derivative_x":
            rows.append([args.op, 0.5, x,
                         fractional.grunwald_letnikov(lambda t: t, 0.5, x,
                                                      args.step),
                         2.0 * math.sqrt(x / math.pi)])
        elif args.op == "mittag_leffler":
            rows.append([args.op, args.order, x,
                         mittag_leffler(args.order, args.ml_beta, x), ""])
        else:  # plane_wave
            val = fractional.plane_wave_eigenvalue(args.order, x, c).value
            rows.append([args.op, args.order, x, val.real, val.imag])
    _write_text(args.out, _csv_text(
        ["operator", "order", "x", "value", "reference_or_imag"], rows))
    return 0


def _cmd_ring(args) -> int:
    _check_rows(args.phi_steps, args.l)
    from . import ring
    rows = []
    base = ring.RingSpec(radius=args.radius, alpha_param=args.alpha_param)
    for i in range(args.phi_steps):
        frac = args.phi_start + (args.phi_stop - args.phi_start) * i \
            / max(1, args.phi_steps - 1)
        spec = replace(base, flux_ext=frac * base.flux_quantum)
        for l in args.l:
            rows.append([frac, l,
                         ring.ring_levels(spec, args.eta, l),
                         ring.persistent_current(spec, args.eta, l)])
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_text(args.out, _csv_text(
        ["phi_over_phi0", "l", "energy", "current"], rows))
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    report = verify.run_verification()
    _write_text(args.out, verify.report_to_json(report) + "\n")
    for check in report["checks"]:
        print(f"{check['status']:>20}  {check['name']}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Parser of ncqm and, through ``add_subparsers``, of each subcommand.

    A parse error raises ``UsageError`` instead of printing the usage block
    and exiting, so ``main`` writes it as one ``error:`` line. A token that
    starts with ``-`` and then a digit or ``.`` is read as a value, so
    ``--eta -2e2``, ``--l -3..3`` and ``--x -3,-1`` parse (argparse reads
    only plain negative integers and decimals as values, and no option
    string here starts with ``-`` and a digit).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ncqm parser, built on first use and shared by every later call
    in the process; callers must not modify it."""
    parser = _Parser(
        prog="ncqm",
        description="Energy-dependent noncommutative quantum mechanics "
                    "toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="energy levels as CSV")
    _add_param_flags(sp)
    sp.add_argument("--n", type=_parse_range, default="0..3",
                    help="radial range, e.g. 0..4")
    sp.add_argument("--mphi", type=_parse_range, default="0..3",
                    help="angular range")
    sp.add_argument("--n-alpha", type=_parse_range, default="0..2",
                    dest="n_alpha")
    sp.add_argument("--n-beta", type=_parse_range, default="0..2",
                    dest="n_beta")
    sp.add_argument("--eps", type=real, help="fluctuation scale (sqf)")
    sp.add_argument("--bracket", type=real, nargs=2, metavar=("LO", "HI"))
    sp.add_argument("--tol", type=real, default=1e-12)
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=_cmd_spectrum)

    wv = sub.add_parser("wavefunction", help="radial wave-function samples")
    _add_param_flags(wv)
    wv.add_argument("--n", type=int, default=0)
    wv.add_argument("--mphi", type=int, default=0)
    wv.add_argument("--energy", type=real,
                    help="evaluate at this energy (default: solve)")
    wv.add_argument("--r-max", type=real, default=6.0, dest="r_max")
    wv.add_argument("--points", type=positive_int, default=200)
    wv.add_argument("--out", default="-")
    wv.set_defaults(fn=_cmd_wavefunction)

    cm = sub.add_parser("commutators", help="deformed-algebra residuals")
    cm.add_argument("--theta", type=real, required=True)
    cm.add_argument("--eta", type=real, required=True)
    cm.add_argument("--hbar", type=real, default=1.0)
    cm.add_argument("--n-trunc", type=positive_int, default=30,
                    dest="n_trunc")
    cm.add_argument("--out", default="-")
    cm.set_defaults(fn=_cmd_commutators)

    fr = sub.add_parser("fractional", help="fractional-operator tables")
    fr.add_argument("--op", required=True,
                    choices=["caputo_exp", "half_derivative_x",
                             "gl_half_derivative_x", "mittag_leffler",
                             "plane_wave"])
    fr.add_argument("--order", type=real, default=0.5)
    fr.add_argument("--ml-beta", type=real, default=1.0, dest="ml_beta")
    fr.add_argument("--step", type=real, default=1e-3)
    fr.add_argument("--x", type=real_list, default="1.0",
                    help="comma-separated points")
    fr.add_argument("--out", default="-")
    fr.set_defaults(fn=_cmd_fractional)

    rg = sub.add_parser("ring", help="mesoscopic-ring flux sweep")
    rg.add_argument("--radius", type=real, default=1.0)
    rg.add_argument("--alpha-param", type=real, default=1.0,
                    dest="alpha_param")
    rg.add_argument("--eta", type=real, default=0.1)
    rg.add_argument("--l", type=_parse_range, default="-2..2")
    rg.add_argument("--phi-start", type=real, default=-1.0, dest="phi_start")
    rg.add_argument("--phi-stop", type=real, default=1.0, dest="phi_stop")
    rg.add_argument("--phi-steps", type=positive_int, default=41,
                    dest="phi_steps")
    rg.add_argument("--out", default="-")
    rg.set_defaults(fn=_cmd_ring)

    vf = sub.add_parser("verify", help="run the full cross-check suite")
    vf.add_argument("--out", default="-")
    vf.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit status (see the module
    docstring); only ``--help`` leaves through ``SystemExit`` (status 0)."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: spectrum (CSV energy tables), wavefunction (radial samples),
commutators (matrix residual report), fractional (operator evaluations),
ring (flux sweep) and verify (full cross-check suite). Model parameters
come from a JSON config (--config or the NCQM_CONFIG environment
variable) with individual flags overriding config fields; outputs are
deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import algebra, fractional, ring, spectra, verify, wavefunctions
from .errors import ConvergenceError
from .params import (Mechanism, ModelParams, PhysicalConstants,
                     params_from_dict)

_PARAM_FLAGS = ("eta0", "theta0", "alpha", "beta", "e_ref", "mechanism",
                "hbar", "mass", "charge", "spring_k")


def _add_param_flags(parser):
    parser.add_argument("--config", help="JSON parameter file "
                        "(default: $NCQM_CONFIG when set)")
    parser.add_argument("--mechanism", choices=[m.value for m in Mechanism])
    for name in ("eta0", "theta0", "alpha", "beta", "e-ref", "hbar", "mass",
                 "charge", "spring-k"):
        parser.add_argument(f"--{name}", type=float, dest=name.replace("-", "_"))


def _load_params(args) -> ModelParams:
    doc = {}
    path = args.config or os.environ.get("NCQM_CONFIG")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    for name in _PARAM_FLAGS:
        val = getattr(args, name, None)
        if val is not None:
            doc[name] = val
    return params_from_dict(doc)


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


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
    if p.mechanism is Mechanism.EC:
        tol = args.tol
        for n in _parse_range(args.n):
            for m_phi in _parse_range(args.mphi):
                qn = spectra.QuantumNumbers(n=n, m_phi=m_phi)
                bracket = (tuple(args.bracket) if args.bracket
                           else spectra.ec_default_bracket(qn, p))
                res = spectra.ec_solve_energy(qn, p, bracket, tol=tol)
                rows.append([p.mechanism.value, n, m_phi, "", "",
                             res.energy, res.method, res.residual])
    elif p.mechanism is Mechanism.SQF:
        if args.eps is None:
            print("error: --eps (fluctuation energy scale) is required for "
                  "the sqf mechanism", file=sys.stderr)
            return 2
        osc = p.constants.spring_k > 0
        fn = spectra.sqf_oscillator_spectrum if osc else spectra.sqf_free_spectrum
        for n_a in _parse_range(args.n_alpha):
            for n_b in _parse_range(args.n_beta):
                qn = spectra.QuantumNumbers(n_alpha=n_a, n_beta=n_b)
                energy = fn(p, args.eps, qn)
                rows.append([p.mechanism.value, "", "", n_a, n_b,
                             energy, "closed_form", 0.0])
    else:
        print("error: the energy-operator mechanism has no quantized "
              "spectrum table (its order-1 bound condition constrains "
              "parameters, not the energy)", file=sys.stderr)
        return 2
    rows.sort(key=lambda r: (r[1] != "", r[1], r[2], r[3], r[4]))
    header = ["mechanism", "n", "m_phi", "n_alpha", "n_beta", "energy",
              "method", "residual"]
    _write_text(args.out, _csv_text(header, rows))
    return 0


def _cmd_wavefunction(args) -> int:
    p = _load_params(args)
    qn = spectra.QuantumNumbers(n=args.n, m_phi=args.mphi)
    if args.energy is not None:
        energy = args.energy
    else:
        bracket = spectra.ec_default_bracket(qn, p)
        energy = spectra.ec_solve_energy(qn, p, bracket).energy
    sol = wavefunctions.ec_radial_solution(qn, p, energy)
    rows = []
    for i in range(args.points):
        r = args.r_max * (i + 0.5) / args.points
        val = float(sol(r))
        rows.append([r, float(sol.xi(r)), val, val * val])
    _write_text(args.out, _csv_text(["r", "xi", "R_value", "density"], rows))
    return 0


def _cmd_commutators(args) -> int:
    c = PhysicalConstants(hbar=args.hbar)
    rep = algebra.build_heisenberg_rep(args.n_trunc, c)
    mapped = algebra.sw_forward(rep, args.theta, args.eta)
    entries = algebra.commutator_residuals(mapped)
    _write_text(args.out, algebra.residual_report_json(entries) + "\n")
    return 0


def _cmd_fractional(args) -> int:
    xs = [float(t) for t in args.x.split(",")]
    rows = []
    c = PhysicalConstants()
    for x in xs:
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
            from .specfun import mittag_leffler
            rows.append([args.op, args.order, x,
                         mittag_leffler(args.order, args.ml_beta, x), ""])
        else:  # plane_wave
            val = fractional.plane_wave_eigenvalue(args.order, x, c).value
            rows.append([args.op, args.order, x, val.real, val.imag])
    _write_text(args.out, _csv_text(
        ["operator", "order", "x", "value", "reference_or_imag"], rows))
    return 0


def _cmd_ring(args) -> int:
    rows = []
    constants = PhysicalConstants()
    flux_quantum = 2.0 * math.pi * constants.hbar / constants.charge
    for i in range(args.phi_steps):
        frac = args.phi_start + (args.phi_stop - args.phi_start) * i \
            / max(1, args.phi_steps - 1)
        spec = ring.RingSpec(radius=args.radius, alpha_param=args.alpha_param,
                             flux_ext=frac * flux_quantum, constants=constants)
        for l in _parse_range(args.l):
            rows.append([frac, l,
                         ring.ring_levels(spec, args.eta, l),
                         ring.persistent_current(spec, args.eta, l)])
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_text(args.out, _csv_text(
        ["phi_over_phi0", "l", "energy", "current"], rows))
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_verification()
    _write_text(args.out, verify.report_to_json(report) + "\n")
    for check in report["checks"]:
        print(f"{check['status']:>20}  {check['name']}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncqm",
        description="Energy-dependent noncommutative quantum mechanics "
                    "toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="energy levels as CSV")
    _add_param_flags(sp)
    sp.add_argument("--n", default="0..3", help="radial range, e.g. 0..4")
    sp.add_argument("--mphi", default="0..3", help="angular range")
    sp.add_argument("--n-alpha", default="0..2", dest="n_alpha")
    sp.add_argument("--n-beta", default="0..2", dest="n_beta")
    sp.add_argument("--eps", type=float, help="fluctuation scale (sqf)")
    sp.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=_cmd_spectrum)

    wv = sub.add_parser("wavefunction", help="radial wave-function samples")
    _add_param_flags(wv)
    wv.add_argument("--n", type=int, default=0)
    wv.add_argument("--mphi", type=int, default=0)
    wv.add_argument("--energy", type=float,
                    help="evaluate at this energy (default: solve)")
    wv.add_argument("--r-max", type=float, default=6.0, dest="r_max")
    wv.add_argument("--points", type=int, default=200)
    wv.add_argument("--out", default="-")
    wv.set_defaults(fn=_cmd_wavefunction)

    cm = sub.add_parser("commutators", help="deformed-algebra residuals")
    cm.add_argument("--theta", type=float, required=True)
    cm.add_argument("--eta", type=float, required=True)
    cm.add_argument("--hbar", type=float, default=1.0)
    cm.add_argument("--n-trunc", type=int, default=30, dest="n_trunc")
    cm.add_argument("--out", default="-")
    cm.set_defaults(fn=_cmd_commutators)

    fr = sub.add_parser("fractional", help="fractional-operator tables")
    fr.add_argument("--op", required=True,
                    choices=["caputo_exp", "half_derivative_x",
                             "gl_half_derivative_x", "mittag_leffler",
                             "plane_wave"])
    fr.add_argument("--order", type=float, default=0.5)
    fr.add_argument("--ml-beta", type=float, default=1.0, dest="ml_beta")
    fr.add_argument("--step", type=float, default=1e-3)
    fr.add_argument("--x", default="1.0", help="comma-separated points")
    fr.add_argument("--out", default="-")
    fr.set_defaults(fn=_cmd_fractional)

    rg = sub.add_parser("ring", help="mesoscopic-ring flux sweep")
    rg.add_argument("--radius", type=float, default=1.0)
    rg.add_argument("--alpha-param", type=float, default=1.0,
                    dest="alpha_param")
    rg.add_argument("--eta", type=float, default=0.1)
    rg.add_argument("--l", default="-2..2")
    rg.add_argument("--phi-start", type=float, default=-1.0, dest="phi_start")
    rg.add_argument("--phi-stop", type=float, default=1.0, dest="phi_stop")
    rg.add_argument("--phi-steps", type=int, default=41, dest="phi_steps")
    rg.add_argument("--out", default="-")
    rg.set_defaults(fn=_cmd_ring)

    vf = sub.add_parser("verify", help="run the full cross-check suite")
    vf.add_argument("--out", default="-")
    vf.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, ValueError,
            ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""ncqm benchmark runner.

    python3 bench/run.py --workload {spectrum,verify,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds src/ncqm. Each run starts its
workload in a fresh interpreter with the BLAS thread count pinned, checks
every output against the committed references in bench/refs, prints each
metric by name and unit, writes the full result (environment, sample
counts, failures) to bench/out/, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
of a traced run with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import tracing  # noqa: E402

BLAS_THREADS = 2     # fixed; lowered only where fewer CPUs are available
SETUP_SAMPLES = 5    # fresh interpreters timed per run for setup_s
DEADLINE_S = 170.0   # the whole run, children included

END_TO_END = {"setup_s": "s", "latency_ms": "ms", "peak_rss_mb": "MB"}
WORKLOADS = ("spectrum", "verify", "oracle")

VERIFY_CHECKS = (
    "check_sw_commutators", "check_sw_round_trip", "check_hbar_eff_identity",
    "check_ec_free_closed_vs_root", "check_ec_root_vs_self_consistent",
    "check_commutative_recovery", "check_fractional_half_derivative",
    "check_caputo_exp_series", "check_plane_wave_orders",
    "check_fractional_oscillator_prefactor", "check_ring_current",
    "check_bogoliubov_vs_matrix_oracle", "check_caputo_oscillatory_mismatch",
)
PER_LAYER = {  # name: unit; counts and times are per traced pass
    "spectra.ec_solve_energy.calls": "count",
    "spectra.ec_solve_energy.self_s": "s",
    "spectra.ec_quantization_residual.calls": "count",
    "spectra.residual_evals_per_level": "evals/level",
    "spectra.root_yield": "ratio",
    "spectra.failures": "count",
    "params.effective_coefficients.calls": "count",
    "params.effective_coefficients.self_s": "s",
    "specfun.laguerre.calls": "count",
    "specfun.bessel_j.calls": "count",
    "specfun.self_s": "s",
    "wavefunctions.ec_radial_solution.self_s": "s",
    "wavefunctions.RadialSolution.call.self_s": "s",
    "wavefunctions.samples_per_s": "1/s",
    "algebra.build_heisenberg_rep.calls": "count",
    "algebra.build_heisenberg_rep.self_s": "s",
    "algebra.sw_forward.self_s": "s",
    "algebra.commutator_residuals.calls": "count",
    "algebra.commutator_residuals.self_s": "s",
    "algebra.operator_bytes": "B",
    "algebra.commutator_flops": "flop_computed",
    "oracle.self_consistent_wrap.calls": "count",
    "oracle.self_consistent_wrap.self_s": "s",
    "oracle.fock_matrix_eigensolve.calls": "count",
    "oracle.fock_matrix_eigensolve.self_s": "s",
    "oracle.radial_fd_eigensolve.calls": "count",
    "oracle.radial_fd_eigensolve.self_s": "s",
    "oracle.frozen_solves_per_level": "solves/level",
    "oracle.failures": "count",
    **{f"verify.{c}.self_s": "s" for c in VERIFY_CHECKS},
    "fractional.self_s": "s",
    "ring.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr: dict, traced_passes: list, passes: list) -> dict:
    """Per-layer metrics from the traced run's aggregates."""
    n = len(traced_passes)
    calls, self_s, extra = tr["calls"], tr["self_s"], tr["extra"]
    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(base, 0) / n
        elif field == "self_s" and base in ("specfun", "fractional", "ring"):
            out[name] = tracing.layer_self_s(self_s, base) / n
        elif field == "self_s":
            out[name] = self_s.get(base, 0.0) / n
        elif field == "failures":
            out[name] = tr["failures"].get(base, 0) / n
    out["spectra.residual_evals_per_level"] = _ratio(
        calls.get("spectra.ec_quantization_residual", 0),
        calls.get("spectra.ec_solve_energy", 0))
    out["spectra.root_yield"] = _ratio(extra.get("spectra.levels_returned", 0),
                                       extra.get("spectra.roots_seen", 0))
    out["wavefunctions.samples_per_s"] = _ratio(
        extra.get("wavefunctions.samples", 0),
        tr["total_s"].get("wavefunctions.RadialSolution.call", 0.0))
    out["algebra.operator_bytes"] = extra.get("algebra.operator_bytes", 0)
    out["algebra.commutator_flops"] = \
        extra.get("algebra.commutator_flops", 0) / n
    out["oracle.frozen_solves_per_level"] = _ratio(
        extra.get("oracle.frozen_solves", 0),
        calls.get("oracle.self_consistent_wrap", 0))
    out["trace.overhead_frac"] = (stats.median(traced_passes)
                                  / stats.median(passes) - 1.0)
    out["trace.attributed_frac"] = sum(self_s.values()) / sum(traced_passes)
    return out


def end_to_end_metrics(workload: str, doc: dict, setup: list) -> dict:
    """Every end-to-end metric of the untraced run, with its sample count."""
    run, lat = doc["run"], doc["run"]["lat"]
    ms = {k: [1e3 * v for v in vals] for k, vals in lat.items()}
    # latency_ms: the tail over every request of the workload's mix. On a
    # CPU that switches between a fast and a slow state for seconds at a
    # time, medians follow the share of time spent fast, a p90 does not
    requests = [v for vals in ms.values() for v in vals]
    latency, q = stats.tail(requests)
    out = {
        "setup_s": (stats.median(setup), "s", len(setup)),
        "latency_ms": (latency, f"ms (p{q})", len(requests)),
        "wall_s": (stats.median(run["passes"]), "s", len(run["passes"])),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB", 1),
        "failed_frac": (len(run["failures"]) / run["attempted"], "ratio",
                        run["attempted"]),
    }
    if workload == "spectrum":
        out["level_ms"] = (stats.median(ms["level"]), "ms", len(ms["level"]))
        try:
            out["level_p90_ms"] = (stats.percentile(ms["level"], 90), "ms",
                                   len(ms["level"]))
        except ValueError as exc:  # too few levels for a p90: not reported
            print(f"note: {exc}", file=sys.stderr)
        out["state_ms"] = (stats.median(ms["state"]), "ms", len(ms["state"]))
        out["cli_spectrum_ms"] = (stats.median(ms["cli_spectrum"]), "ms",
                                  len(ms["cli_spectrum"]))
    elif workload == "oracle":
        out["sc_radial_ms"] = (stats.median(ms["sc_radial"]), "ms",
                               len(ms["sc_radial"]))
        out["sc_fock_s"] = (stats.median(lat["sc_fock"]), "s",
                            len(lat["sc_fock"]))
    return out


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and always a digest
    of the package sources (a plain checkout carries no commit)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncqm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _child(args, env, deadline, extra=()):
    cmd = [sys.executable, str(BENCH / "child.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "ncqm" / "__init__.py").is_file():
        print(f"error: no ncqm sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    # no bytecode cache: every import compiles the package sources, so
    # setup_s measures the same work in every run and every checkout
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        setup = []
        if not args.trace:
            setup = [_child(args, env, deadline, ["--setup-only"])["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
        doc = _child(args, env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(doc["setup_s"])

    run = doc["run"]
    failures = list(run["failures"])
    attempted = run["attempted"]
    e2e = end_to_end_metrics(args.workload, doc, setup)
    layers = None
    if args.trace:
        failures += doc["traced"]["failures"]
        attempted += doc["traced"]["attempted"]
        layers = per_layer_metrics(doc["trace"], doc["traced"]["passes"],
                                   run["passes"])

    env_doc = {**doc["env"], "blas_threads": threads, "nproc": nproc,
               "bytecode_cache": False,
               "seed": args.seed, "workload": args.workload,
               "seconds": args.seconds, "trace": args.trace,
               **source_identity()}
    result = {
        "env": env_doc, "inputs": doc["inputs"],
        "end_to_end": {k: {"value": v, "unit": u, "n": n}
                       for k, (v, u, n) in e2e.items()},
        "per_layer": layers and {k: {"value": v, "unit": PER_LAYER[k],
                                     "n": len(doc["traced"]["passes"])}
                                 for k, v in layers.items()},
        "setup_samples": setup, "pass_s": run["passes"],
        "attempted": attempted, "failures": failures[:50],
        "failed": len(failures), "spans_file": doc.get("spans_file"),
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / (f"result-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"env: {json.dumps(env_doc, sort_keys=True)}")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<16} {value:>14.6g} {unit:<6} (n={n})")
    for name, value in (layers or {}).items():
        print(f"  {name:<52} {value:>14.6g} {PER_LAYER[name]}")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    print(f"result: {out_file.relative_to(ROOT)}")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

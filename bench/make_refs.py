"""Generate the benchmark's reference pool and outputs.

Run once, from the checkout root, at the commit the references pin:

    python3 bench/make_refs.py

It draws the parameter pool from a fixed generator seed and writes
refs/pool.json, refs/spectrum.json, refs/oracle.json and refs/verify.json.
Re-running it at a later commit would re-pin the references to that
commit's outputs, which defeats their purpose; a change that needs new
references states why.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ncqm  # noqa: E402
import ncqm.cli  # noqa: E402
from ncqm import oracle, spectra, verify  # noqa: E402
from ncqm.params import params_from_dict  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

GENERATOR_SEED = "ncqm-bench-pool-v1"
POOL_POINTS = 32
FOCK_ENTRIES = 6
# Fock entries are m_phi = 2 levels whose fixed point takes this many
# frozen solves, so the work behind one Fock level does not depend on
# which entries a seed draws.
FOCK_SOLVES = (17,)
README_POINT = {"eta0": 0.1, "theta0": 0.1, "alpha": 1.0, "beta": 1.0,
                "e_ref": 10.0, "mechanism": "ec", "hbar": 1.0, "mass": 1.0,
                "charge": 1.0, "spring_k": 1.0}
# Ranges in which every default-table level is bound and found by the
# default bracket (checked below: generation stops on any failure).
RANGES = {"eta0": (0.05, 0.2), "theta0": (0.05, 0.2), "alpha": (0.75, 1.25),
          "beta": (0.75, 1.25), "e_ref": (5.0, 20.0), "spring_k": (0.5, 2.0)}


def _write(name, doc):
    with open(wl.REFS / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def _frozen_solves(solver, p, qn):
    tracer = tracing.Tracer()
    tracer.install(ncqm)
    try:
        energy = oracle.self_consistent_wrap(solver, p, qn)
    finally:
        tracer.uninstall()
    return energy, int(tracer.extra["oracle.frozen_solves"])


def main():
    rng = random.Random(GENERATOR_SEED)
    points = [README_POINT] + [
        dict(README_POINT, **{k: rng.uniform(*r) for k, r in RANGES.items()})
        for _ in range(POOL_POINTS - 1)]
    _write("pool.json", {"generator_seed": GENERATOR_SEED, "ranges": RANGES,
                         "levels": wl.LEVELS, "points": points})
    params = [params_from_dict(pt) for pt in points]
    qns = [spectra.QuantumNumbers(n=n, m_phi=m) for n, m in wl.LEVELS]

    energies, roots, states = [], [], []
    for p in params:
        row = [spectra.ec_solve_energy(q, p, spectra.ec_default_bracket(q, p),
                                       tol=wl.CLI_TOL) for q in qns]
        energies.append([r.energy for r in row])
        roots.append([r.roots_found for r in row])
        states.append([[wl.reduce_samples(v)
                        for v in wl.sample_state(p, q, r.energy)]
                       for q, r in zip(qns, row)])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ncqm.cli.main(wl.README_ARGV)
    if rc != 0:
        raise SystemExit(f"README spectrum exited {rc}")
    _write("spectrum.json", {
        "energies": energies, "roots_found": roots, "states": states,
        "cli": {"argv": wl.README_ARGV,
                "energies": wl.csv_energies(buf.getvalue()),
                "fingerprint": wl.csv_fingerprint(buf.getvalue())}})
    print(f"spectrum: {len(params)} points x {len(qns)} levels", flush=True)

    radial, worst = [], 0.0
    for p, row in zip(params, energies):
        sc = [oracle.self_consistent_wrap("radial", p, q) for q in qns]
        worst = max(worst, max(abs(a - b) / b for a, b in zip(sc, row)))
        radial.append(sc)
    print(f"oracle radial: max |sc - root| / root = {worst:.2e}", flush=True)

    fock, tried = [], set()
    while len(fock) < FOCK_ENTRIES:
        idx, n = rng.randrange(POOL_POINTS), rng.randrange(2)
        if (idx, n) in tried:
            continue
        tried.add((idx, n))
        qn = spectra.QuantumNumbers(n=n, m_phi=2)
        if _frozen_solves("radial", params[idx], qn)[1] not in FOCK_SOLVES:
            continue
        energy, solves = _frozen_solves("fock", params[idx], qn)
        if solves not in FOCK_SOLVES:
            continue
        rel = abs(energy - energies[idx][wl.LEVELS.index((n, 2))]) / energy
        fock.append({"point": idx, "n": n, "m_phi": 2, "energy": energy,
                     "frozen_solves": solves})
        print(f"fock entry {fock[-1]} (vs root {rel:.1e})", flush=True)
    _write("oracle.json", {"radial": radial, "fock": fock,
                           "fock_solves": list(FOCK_SOLVES)})

    report = verify.run_verification()
    _write("verify.json", {
        "all_passed": report["all_passed"],
        "statuses": {c["name"]: c["status"] for c in report["checks"]}})
    print(f"verify: all_passed={report['all_passed']}")


if __name__ == "__main__":
    main()

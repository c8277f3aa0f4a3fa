"""Workload inputs, passes and reference checks.

Every workload draws its inputs from a committed pool (refs/pool.json)
with a seeded stdlib generator, so any seed maps onto inputs whose
reference outputs were computed once, at the seed commit, by
make_refs.py. The library only ever receives the generated parameters.

A pass is one round of the workload's operations; a run repeats passes,
closed loop with one client, until its time is up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFS = BENCH / "refs"
OUT = BENCH / "out"

# The README example of `ncqm spectrum`.
README_ARGV = ["spectrum", "--mechanism", "ec", "--eta0", "0.1",
               "--theta0", "0.1", "--alpha", "1", "--beta", "1",
               "--e-ref", "10", "--spring-k", "1", "--n", "0..4",
               "--mphi", "0..3"]
CLI_TOL = 1e-12          # the CLI's default --tol
LEVELS = [(n, m) for n in range(4) for m in range(4)]

SPECTRUM_POINTS = 8      # 8 x 16 = 128 levels per pass
STATES_PER_POINT = 4
SAMPLES = 2048           # samples per regime per state
PROBE_STEP = 256         # every PROBE_STEP-th sample is kept as a probe
ORACLE_RADIAL_ROUNDS = 2  # radial levels per pass: 2 x pool size
ORACLE_FOCK_LEVELS = 3

ENERGY_RTOL = 1e-9       # closed form vs root-find pin
SAMPLE_TOL = 1e-8        # wave-function pin
SC_RTOL = 1e-6           # oracle pin


def load_json(name: str):
    with open(REFS / name, encoding="utf-8") as fh:
        return json.load(fh)


def make_inputs(workload: str, seed: int, n_points: int, n_fock: int) -> dict:
    """Indices into the reference pool for one run; pure and seeded."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum":
        # pool point 0 is the README configuration, always included
        points = [0] + rng.sample(range(1, n_points), SPECTRUM_POINTS - 1)
        states = [sorted(rng.sample(range(len(LEVELS)), STATES_PER_POINT))
                  for _ in points]
        return {"points": points, "states": states}
    if workload == "oracle":
        # every pool point once per round, every level on the same number
        # of points: the seed changes which point solves which level, not
        # the mix of levels, whose fixed-point work differs several-fold
        radial = []
        for _ in range(ORACLE_RADIAL_ROUNDS):
            levels = list(range(len(LEVELS))) * (n_points // len(LEVELS))
            rng.shuffle(levels)
            radial += [[idx, li] for idx, li in enumerate(levels)]
        return {"radial": radial,
                "fock": rng.sample(range(n_fock), ORACLE_FOCK_LEVELS)}
    if workload == "verify":
        return {}  # `ncqm verify` takes no inputs
    raise ValueError(f"unknown workload {workload!r}")


# -- sampling grids and reductions shared with make_refs.py ---------------

def state_grid(sol, regime: str):
    """Radii at which a radial state is sampled.

    Laguerre: xi in (0, sqrt(2 C_n) + 4], well into the Gaussian tail.
    Bessel: xi in (0, sqrt(0.1 C)], inside the branch's validity window.
    """
    import numpy as np
    from ncqm.wavefunctions import BESSEL_WINDOW
    weight = 2 * sol.n + sol.m_phi + 1
    xi_max = (math.sqrt(2.0 * weight) + 4.0 if regime == "laguerre"
              else math.sqrt(BESSEL_WINDOW * sol.c_big))
    xi = (np.arange(SAMPLES) + 0.5) / SAMPLES * xi_max
    return xi / math.sqrt(sol.lambda_scale)


def reduce_samples(values) -> list:
    """Probes plus the sums of |R| and R^2 over every sample."""
    import numpy as np
    vals = np.asarray(values, dtype=float)
    return ([float(v) for v in vals[::PROBE_STEP]]
            + [float(np.sum(np.abs(vals))), float(np.sum(vals * vals))])


def sample_state(p, qn, energy):
    """Build and sample one level's radial state in both regimes."""
    from ncqm import wavefunctions
    out = []
    for regime in ("laguerre", "bessel"):
        sol = wavefunctions.ec_radial_solution(qn, p, energy, regime)
        out.append(sol(state_grid(sol, regime)))
    return out


def csv_fingerprint(text: str) -> str:
    """SHA-256 of the spectrum CSV with energies rounded to 1e-9 relative.

    The residual column is left out: it is solver noise below --tol.
    """
    rows = [line.split(",") for line in text.strip().splitlines()]
    canon = [",".join(rows[0][:7])]
    for r in rows[1:]:
        canon.append(",".join(r[:5] + [f"{float(r[5]):.8e}", r[6]]))
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def csv_energies(text: str) -> list:
    return [float(line.split(",")[5])
            for line in text.strip().splitlines()[1:]]


def _close(value, ref, rtol) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _samples_match(got: list, ref: list) -> bool:
    probes, sums = len(got) - 2, got[-2:]
    return (all(abs(a - b) <= SAMPLE_TOL * max(1.0, abs(b))
                for a, b in zip(got[:probes], ref[:probes]))
            and all(_close(a, b, SAMPLE_TOL) for a, b in zip(sums, ref[-2:])))


# -- workloads ------------------------------------------------------------

def timed(lat, key, fn, *args):
    """Run one operation and append its latency; an exception is returned
    as the operation's output, for check() to count."""
    t = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the run goes on; the failure is counted
        out = exc
    lat[key].append(time.perf_counter() - t)
    return out


def _error(tag, out):
    return f"{tag}: {type(out).__name__}: {out}"


class Workload:
    """One workload: prepared inputs, a pass, and its reference check.

    run_pass appends per-operation latencies (seconds) to lat and returns
    the raw outputs; check compares them with the references outside the
    timed region and returns one short string per failed output.
    """

    def __init__(self):
        self.passes = 0

    def _op(self, tracer, label):
        if tracer is not None:
            tracer.op = f"{self.passes}:{label}"


def _solve_level(p, qn):
    from ncqm import spectra
    return spectra.ec_solve_energy(
        qn, p, spectra.ec_default_bracket(qn, p), tol=CLI_TOL).energy


def _readme_spectrum(argv):
    import ncqm.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ncqm.cli.main(argv)
    return rc, buf.getvalue()


class SpectrumWorkload(Workload):
    """EC levels, radial states and the README `ncqm spectrum` call."""

    def __init__(self, seed: int):
        super().__init__()
        from ncqm import spectra
        from ncqm.params import params_from_dict
        pool = load_json("pool.json")
        self.refs = load_json("spectrum.json")
        self.inputs = make_inputs("spectrum", seed, len(pool["points"]), 0)
        self.points = [(i, params_from_dict(pool["points"][i]))
                       for i in self.inputs["points"]]
        self.qns = [spectra.QuantumNumbers(n=n, m_phi=m) for n, m in LEVELS]

    def warmup(self):
        p = self.points[0][1]
        _solve_level(p, self.qns[0])
        sample_state(p, self.qns[0], self.refs["energies"][0][0])
        _readme_spectrum(README_ARGV[:-4] + ["--n", "0", "--mphi", "0"])

    def run_pass(self, lat, tracer=None):
        outputs = []
        for idx, p in self.points:
            for li, qn in enumerate(self.qns):
                self._op(tracer, f"level{idx}.{li}")
                out = timed(lat, "level", _solve_level, p, qn)
                outputs.append(("level", idx, li, out))
        for (idx, p), chosen in zip(self.points, self.inputs["states"]):
            for li in chosen:
                self._op(tracer, f"state{idx}.{li}")
                out = timed(lat, "state", sample_state, p, self.qns[li],
                            self.refs["energies"][idx][li])
                outputs.append(("state", idx, li, out))
        self._op(tracer, "cli")
        out = timed(lat, "cli_spectrum", _readme_spectrum, README_ARGV)
        outputs.append(("cli", 0, 0, out))
        self.passes += 1
        return outputs

    def check(self, outputs) -> list:
        bad = []
        for kind, idx, li, out in outputs:
            tag = f"{kind}[{idx},{li}]"
            if isinstance(out, Exception):
                bad.append(_error(tag, out))
            elif kind == "level":
                ref = self.refs["energies"][idx][li]
                if not _close(out, ref, ENERGY_RTOL):
                    bad.append(f"{tag}: energy {out!r} vs {ref!r}")
            elif kind == "state":
                ref = self.refs["states"][idx][li]
                differ = [regime for regime, vals, want in
                          zip(("laguerre", "bessel"), out, ref)
                          if not _samples_match(reduce_samples(vals), want)]
                if differ:
                    bad.append(f"{tag}: {'/'.join(differ)} samples differ")
            else:
                rc, text = out
                want = self.refs["cli"]["energies"]
                got = csv_energies(text) if rc == 0 else []
                if (len(got) != len(want)
                        or not all(_close(a, b, ENERGY_RTOL)
                                   for a, b in zip(got, want))
                        or csv_fingerprint(text)
                        != self.refs["cli"]["fingerprint"]):
                    bad.append(f"{tag}: README spectrum CSV differs (rc={rc})")
        return bad


class VerifyWorkload(Workload):
    """One in-process `ncqm verify --out REPORT` per pass."""

    def __init__(self, seed: int):
        super().__init__()
        self.refs = load_json("verify.json")
        self.inputs = make_inputs("verify", seed, 0, 0)
        OUT.mkdir(exist_ok=True)
        self.report = OUT / "verify_report.json"

    def warmup(self):
        from ncqm import algebra, oracle
        from ncqm.params import PhysicalConstants
        rep = algebra.build_heisenberg_rep(20, PhysicalConstants())
        algebra.commutator_residuals(algebra.sw_forward(rep, 0.1, 0.05))
        oracle.fock_matrix_eigensolve(20, 1.0, 0.1, 1.0,
                                      PhysicalConstants(), 3)

    def _verify(self):
        import ncqm.cli
        with contextlib.redirect_stderr(io.StringIO()):
            return ncqm.cli.main(["verify", "--out", str(self.report)])

    def run_pass(self, lat, tracer=None):
        self._op(tracer, "verify")
        out = timed(lat, "verify", self._verify)
        self.passes += 1
        return [out]

    def check(self, outputs) -> list:
        (rc,) = outputs
        if isinstance(rc, Exception):
            return [_error("verify", rc)]
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        if (rc != 0 or report["all_passed"] != self.refs["all_passed"]
                or statuses != self.refs["statuses"]):
            return [f"verify: exit {rc}, all_passed {report['all_passed']}, "
                    f"statuses {statuses}"]
        return []


class OracleWorkload(Workload):
    """Self-consistent EC levels per pass: the radial oracle on one seeded
    level of every pool point and the Fock oracle on one level."""

    def __init__(self, seed: int):
        super().__init__()
        from ncqm import spectra
        from ncqm.params import params_from_dict
        pool = load_json("pool.json")
        self.refs = load_json("oracle.json")
        self.inputs = make_inputs("oracle", seed, len(pool["points"]),
                                  len(self.refs["fock"]))
        self.params = [params_from_dict(pt) for pt in pool["points"]]
        self.qns = [spectra.QuantumNumbers(n=n, m_phi=m) for n, m in LEVELS]
        self.fock = [self.refs["fock"][i] for i in self.inputs["fock"]]

    def warmup(self):
        from ncqm import oracle
        from ncqm.params import PhysicalConstants
        idx, li = self.inputs["radial"][0]
        oracle.self_consistent_wrap("radial", self.params[idx], self.qns[li])
        oracle.fock_matrix_eigensolve(24, 1.0, 0.1, 1.0, PhysicalConstants(),
                                      200, with_labels=True)

    def run_pass(self, lat, tracer=None):
        from ncqm import oracle
        outputs = []
        for idx, li in self.inputs["radial"]:
            self._op(tracer, f"radial{idx}.{li}")
            out = timed(lat, "sc_radial", oracle.self_consistent_wrap,
                        "radial", self.params[idx], self.qns[li])
            outputs.append((f"radial[{idx},{li}]", out,
                            self.refs["radial"][idx][li]))
        entry = self.fock[self.passes % len(self.fock)]
        idx, li = entry["point"], LEVELS.index((entry["n"], entry["m_phi"]))
        self._op(tracer, f"fock{idx}.{li}")
        out = timed(lat, "sc_fock", oracle.self_consistent_wrap,
                    "fock", self.params[idx], self.qns[li])
        outputs.append((f"fock[{idx},{li}]", out, entry["energy"]))
        self.passes += 1
        return outputs

    def check(self, outputs) -> list:
        bad = []
        for tag, out, ref in outputs:
            if isinstance(out, Exception):
                bad.append(_error(tag, out))
            elif not _close(out, ref, SC_RTOL):
                bad.append(f"{tag}: {out!r} vs {ref!r}")
        return bad


def build(workload: str, seed: int) -> Workload:
    classes = {"spectrum": SpectrumWorkload, "verify": VerifyWorkload,
               "oracle": OracleWorkload}
    return classes[workload](seed)

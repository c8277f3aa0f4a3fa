"""One workload run in a fresh interpreter (started by run.py).

    python3 bench/child.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints one JSON object on its last stdout line. setup_s runs from the
start of `import ncqm.cli` until the workload's inputs are generated and
prepared; with --setup-only the process stops there.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def measure(workload, seconds, tracer=None):
    """Closed loop, one client: passes until `seconds` have elapsed."""
    lat = defaultdict(list)
    passes, failures, attempted = [], [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        outputs = workload.run_pass(lat, tracer)
        passes.append(time.perf_counter() - t)
        attempted += len(outputs)
        failures += workload.check(outputs)
    return {"passes": passes, "lat": dict(lat), "attempted": attempted,
            "failures": failures}


def versions() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), \
        argv[3] == "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    t0 = time.perf_counter()
    import ncqm.cli
    import workloads
    workload = workloads.build(name, seed)
    setup_s = time.perf_counter() - t0
    if not Path(ncqm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ncqm imported from {ncqm.__file__}, not {SRC}")
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return
    workload.warmup()
    doc = {"setup_s": setup_s, "inputs": workload.inputs, "env": versions()}
    if not trace:
        doc["run"] = measure(workload, seconds)
    else:
        import tracing
        doc["run"] = measure(workload, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(ncqm)
        try:
            doc["traced"] = measure(workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        doc["trace"] = {
            "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "failures": dict(tracer.failures), "extra": dict(tracer.extra)}
        workloads.OUT.mkdir(exist_ok=True)
        spans = workloads.OUT / f"spans-{name}-seed{seed}.json"
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "op"], "spans": tracer.spans}, fh)
        doc["spans_file"] = str(spans.relative_to(BENCH.parent))
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])

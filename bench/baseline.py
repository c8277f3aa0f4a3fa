"""Repeat the benchmark over seeds and summarize each metric.

    python3 bench/baseline.py --runs 10 [--workloads spectrum,verify,oracle]
        [--seconds 20] [--first-seed 1] [--label seed --out PATH]

Runs bench/run.py once per seed and workload, one after another, then
prints for every end-to-end metric its median, quartiles and quartile
spread ((Q3 - Q1) / median) next to the bound in BENCHMARK.json. With
--out it writes the summary as a trajectory entry (see README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result_file = (BENCH / "out" /
                   f"result-{workload}-seed{seed}-trace0.json")
    return last, json.loads(result_file.read_text(encoding="utf-8"))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    entry = {"label": args.label, "runs": args.runs,
             "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, named, env = {}, {}, None
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            last, result = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in last["metrics"].items()),
                  flush=True)
            failed += last["failed"]
            attempted += last["attempted"]
            for k, v in last["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            for k, v in result["end_to_end"].items():
                named.setdefault(k, []).append(v["value"])
            env = {k: v for k, v in result["env"].items()
                   if k not in ("seed", "workload")}
        summary = {}
        for k, vals in named.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                   "spread": stats.quartile_spread(vals) if med else 0.0,
                   "n": len(vals),
                   "unit": result["end_to_end"][k]["unit"]}
            if k in bounds:
                row["bound"] = bounds[k]
            summary[k] = row
            flag = ""
            if k in bounds and k != "setup_s":
                flag = ("ok" if row["spread"] < bounds[k] / 3
                        else "WIDE" if row["spread"] < bounds[k]
                        else "OVER")
            print(f"  {workload:<9} {k:<16} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f} {flag}", flush=True)
        entry["workloads"][workload] = {
            "env": env, "failed": failed, "attempted": attempted,
            "metrics": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()

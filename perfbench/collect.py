"""Repeated benchmark runs, summarised as medians, quartiles and spreads.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 11-20 --out new.json --against perfbench/baseline.json

Runs run.py with --trace 0 once per workload and seed, for run_seconds from
BENCHMARK.json, then once with --trace 1 on the first seed.  Prints, per
workload, every end-to-end metric with its unit, median, quartiles and
spread (interquartile distance over median) beside its bound; with
--against, also how far the median moved from that file's median.  Writes
the summary with its provenance: Python version, nproc, git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed calls")
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def git_revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    against = None
    if args.against:
        with open(args.against) as fh:
            against = json.load(fh)["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {
        "provenance": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
        },
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(spec, workload, seed, 0) for seed in seeds]
        rows = out["end_to_end"][workload] = {}
        print(f"{workload}  ({len(seeds)} runs)")
        for name, bound in bounds.items():
            unit = results[0]["metrics"][name]["unit"]
            row = rows[name] = {"unit": unit, **summary(
                [r["metrics"][name]["value"] for r in results])}
            line = (f"  {name:<14} {row['median']:>12.6g} {unit:<5} q1 {row['q1']:.6g} "
                    f"q3 {row['q3']:.6g}  spread {row['spread']:.3f} (bound {bound})")
            if against and workload in against:
                old = against[workload][name]["median"]
                line += f"  median moved {(row['median'] - old) / old:+.3f}"
            print(line, flush=True)
        traced = run(spec, workload, seeds[0], 1)
        out["per_layer"][workload] = {
            name: m["value"] for name, m in traced["metrics"].items()
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

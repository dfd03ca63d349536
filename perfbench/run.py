"""Cold-pass benchmark of the arfold verify suites.

    python3 perfbench/run.py --workload minpairs --seed 1 --seconds 30 --trace 0

A pass runs one workload's suite calls in a fresh interpreter
(passes.py), so it pays what one ``arfold verify`` invocation pays and no
cache carries over from one pass to the next.  Passes run one after
another, with no threads: at least MIN_PASSES, and more while the next is
expected to end within --seconds.  Every output is compared with pins.json.

The last line of stdout is one JSON object.  With --trace 0 its metrics are
the end-to-end ones (medians over the passes); with --trace 1 they are the
per-layer ones, from one more pass run under tracer.py.  End-to-end times
are scaled to reference speed (passes.scaled), because this host's speed
drifts by more than the bounds; the unscaled medians are printed above.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import passes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_FILE = os.path.join(HERE, "pins.json")

MIN_PASSES = 3
# Set-up-only children after each pass.  Set-up is short and drifts with the
# host's load, so its median needs more samples than the passes give, spread
# over the whole run.
SETUP_SAMPLES = 3
# Every child must end before a run reaches the 180-s limit.
DEADLINE_S = 170.0


def spawn(workload: str, seed: int, mode: str, timeout: float = DEADLINE_S) -> dict:
    """Run one pass in a child interpreter; return its record with setup_s."""
    path = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, os.path.join(HERE, "passes.py"), workload, str(seed), mode]
    t0 = passes.clock()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass {workload} {mode} exited with {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["ready"] - t0
    record["scaled_setup_s"] = passes.scaled(record["setup_s"], record["setup_refs"])
    return record


def failures(records: list[dict], pins: dict) -> tuple[int, int]:
    """(attempted, failed) suite calls; a call fails when it raised or its
    output differs from the pinned one."""
    attempted = failed = 0
    for rec in records:
        for name, want in pins.items():
            attempted += 1
            failed += rec["outputs"].get(name) != want
    return attempted, failed


def end_to_end(records: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(r["scaled_wall_s"] for r in records), "s"),
        "checks_per_s": (med(r["checked"] / r["scaled_wall_s"] for r in records), "1/s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in records), "MB"),
        "setup_s": (med(setups), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=passes.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "arfold", "__init__.py")):
        raise SystemExit(f"perfbench: no arfold sources under {ROOT}/src")
    with open(PINS_FILE) as fh:
        pins = json.load(fh)[args.workload]

    start = passes.clock()

    def remaining() -> float:
        return DEADLINE_S - (passes.clock() - start)

    # The first child writes the bytecode caches; it is not measured.
    spawn(args.workload, args.seed, "setup", remaining())
    records, setups = [], []
    t0 = passes.clock()
    while True:
        begun = passes.clock()
        records.append(spawn(args.workload, args.seed, "run", remaining()))
        setups += [spawn(args.workload, args.seed, "setup", remaining())["scaled_setup_s"]
                   for _ in range(SETUP_SAMPLES)]
        now = passes.clock()
        # Stop when a next pass as long as this one would end after --seconds.
        if len(records) >= MIN_PASSES and (now - t0) + (now - begun) > args.seconds:
            break
    setups += [r["scaled_setup_s"] for r in records]
    raw = {name: statistics.median(r[name] for r in records) for name in ("wall_s", "setup_s")}
    metrics = end_to_end(records, setups)
    if args.trace:
        traced = spawn(args.workload, args.seed, "trace", remaining())
        records.append(traced)
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = (
            traced["wall_s"] / raw["wall_s"],
            "ratio",
        )
    attempted, failed = failures(records, pins)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(records)}  "
          f"calls {attempted}  failed {failed}  failed_frac {failed / attempted}")
    print(f"  unscaled medians: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

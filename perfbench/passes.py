"""One benchmark pass: a fresh interpreter imports arfold, builds the inputs
of one workload and runs its suite calls with every cache cold.

    python3 perfbench/passes.py <workload> <seed> <mode>

``mode`` is ``setup`` (stop once set-up is done), ``run``, or ``trace``
(run under the per-layer tracer).  src/ must be on PYTHONPATH; run.py
spawns the passes.  Prints one JSON line: the monotonic time at which
set-up ended, the reference loop's times after set-up, the wall time of the
calls, raw and scaled to reference speed, their peak RSS, their outputs
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import signal
import sys
import time

import tracer

WORKLOADS = ("minpairs", "distpoly", "socle", "construct")

# Twisted points whose construction starts from a seeded member word.
SEEDED_POINTS = {"D7": ("D", 7), "E6": ("E", 6)}

# The host's speed drifts by tens of percent within seconds, and each core
# drifts on its own.  So a pass times a fixed reference loop on its own core,
# a few times after set-up and every PROBE_EVERY_S during the calls, and
# scales its times to a host on which that loop takes REFERENCE_S.
REFERENCE_STEPS = 25_000
REFERENCE_S = 0.012
PROBE_EVERY_S = 0.25
SETUP_REFS = 4


def clock() -> float:
    """CLOCK_MONOTONIC: one clock for every process, so set-up spans exec."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Time of a fixed pure-Python loop of tuple, dict and call work that never
    touches arfold: how fast this core runs Python right now."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(REFERENCE_STEPS):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + max(key)
    return time.perf_counter() - t0


def scaled(seconds: float, refs: list[float]) -> float:
    """``seconds`` at reference speed, given reference times taken over them."""
    return seconds * sum(REFERENCE_S / ref for ref in refs) / len(refs)


class SpeedProbe:
    """Times the reference loop from a SIGALRM handler every PROBE_EVERY_S,
    so the samples interleave with the calls on the same core.  ``spent`` is
    the handler's own time, which the caller takes out of its wall time."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def twisted_base_word(rs) -> tuple[int, ...]:
    """The twisted repetition of s_1 ... s_n (A, D) or s_1 s_2 s_6 s_3 (E_6)."""
    aut = rs.diagram_automorphism()
    if rs.type_tag == "A":
        n = (rs.rank + 1) // 2
        base, reps = tuple(range(1, n + 1)), 2 * n - 1
    elif rs.type_tag == "D":
        n = rs.rank - 1
        base, reps = tuple(range(1, n + 1)), n + 1
    else:
        base, reps = (1, 2, 6, 3), 9
    word = []
    for k in range(reps):
        word.extend(base if k % 2 == 0 else (aut.perm[i] for i in base))
    return tuple(word)


def seeded_member_word(rs, rng: random.Random) -> tuple[int, ...]:
    """A member word of the twisted base class, reached by random commutation
    moves and left with an adjacent commuting descent, so never canonical."""
    word = list(twisted_base_word(rs))

    def commute(k):
        return rs.cartan[word[k]][word[k + 1]] == 0

    for _ in range(4 * len(word)):
        k = rng.randrange(len(word) - 1)
        if commute(k):
            word[k], word[k + 1] = word[k + 1], word[k]
    if not any(commute(k) and word[k] > word[k + 1] for k in range(len(word) - 1)):
        k = next(k for k in range(len(word) - 1) if commute(k))
        word[k], word[k + 1] = word[k + 1], word[k]
    return tuple(word)


def inputs(workload: str, seed: int) -> dict:
    """Inputs drawn from the seed; only ``construct`` draws any."""
    if workload != "construct":
        return {}
    from arfold.rootsys import RootSystem

    rng = random.Random(seed)
    # Unmemoised root systems, so input generation leaves no warm cache.
    return {
        key: seeded_member_word(RootSystem(*spec), rng)
        for key, spec in SEEDED_POINTS.items()
    }


def point_summary(classes) -> dict:
    words = sorted(c.canonical_word for c in classes)
    digest = hashlib.sha256(repr(words).encode()).hexdigest()[:16]
    return {"classes": len(words), "digest": digest}


def calls(workload: str, inp: dict) -> list:
    """(name, thunk) for each suite call of a workload, in order.

    Library functions are looked up at call time, so the tracer sees them.
    """
    from arfold import affine, cli, rootsys, twistfold, words

    if workload == "minpairs":
        return [
            ("verify_dorey B4", lambda: affine.verify_dorey("B", 4).as_dict()),
            ("verify_dorey C4", lambda: affine.verify_dorey("C", 4).as_dict()),
        ]
    if workload == "distpoly":
        return [
            ("verify_den_dist C5", lambda: affine.verify_den_dist("C", 5).as_dict()),
            ("verify_class_invariance C5",
             lambda: affine.verify_class_invariance("C", 5).as_dict()),
            ("verify_f4_conjecture", lambda: affine.verify_f4_conjecture().as_dict()),
        ]
    if workload == "socle":
        return [
            ("verify_socle_dist A7", lambda: cli.verify_socle_dist("A", 7, jobs=1).as_dict()),
            ("verify_socle_dist D6", lambda: cli.verify_socle_dist("D", 6, jobs=1).as_dict()),
        ]
    if workload != "construct":
        raise ValueError(f"unknown workload {workload!r}")

    points = {}

    def twisted_point():
        points["A9"] = words.twisted_adapted_point("A", 9)
        return point_summary(points["A9"])

    def seeded_point(key):
        def call():
            rs = rootsys.root_system(*SEEDED_POINTS[key])
            points[key] = words.cluster_point(words.commutation_class(rs, inp[key]))
            return point_summary(points[key])
        return call

    def quivers(key, type_tag, rank):
        def call():
            fqs = twistfold.twisted_folded_quivers(type_tag, rank)
            return {"quivers": len(fqs), "keys_equal_point": set(fqs) == points.get(key)}
        return call

    return [
        ("twisted_adapted_point A9", twisted_point),
        ("cluster_point D7", seeded_point("D7")),
        ("cluster_point E6", seeded_point("E6")),
        ("twisted_folded_quivers A9", quivers("A9", "A", 9)),
        ("twisted_folded_quivers D7", quivers("D7", "D", 7)),
        ("twisted_folded_quivers E6", quivers("E6", "E", 6)),
        ("verify_counts", lambda: affine.verify_counts().as_dict()),
    ]


def checked(output: dict) -> int:
    """Checks a report made, or classes and quivers a construction built."""
    return sum(output.get(key, 0) for key in ("checked", "classes", "quivers"))


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    if workload not in WORKLOADS or mode not in ("setup", "run", "trace"):
        raise SystemExit(f"usage: passes.py {{{','.join(WORKLOADS)}}} SEED {{setup,run,trace}}")
    import arfold  # noqa: F401  (set-up: the import is part of what a user pays)
    import arfold.cli  # noqa: F401

    todo = calls(workload, inputs(workload, seed))
    record = {"ready": clock(), "setup_refs": [reference_s() for _ in range(SETUP_REFS)]}
    if mode == "setup":
        print(json.dumps(record))
        return 0
    trace = None
    if mode == "trace":
        # No probe here: its samples would count in the self times.
        trace = tracer.Tracer(tracer.load_layers()["functions"])
        trace.install()
    probe = SpeedProbe()
    outputs = {}
    with probe if trace is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        for name, call in todo:
            try:
                outputs[name] = call()
            except Exception as exc:  # a raising suite call is a failed call
                outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}
        record["wall_s"] = time.perf_counter() - t0 - probe.spent
    record["scaled_wall_s"] = scaled(record["wall_s"], record["setup_refs"] + probe.refs)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["checked"] = sum(checked(out) for out in outputs.values())
    record["outputs"] = outputs
    if trace is not None:
        layers = trace.metrics()
        layers["cache.entries"] = (tracer.cache_entries(), "count")
        record["layers"] = layers
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

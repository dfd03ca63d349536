"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

They spawn whole traced passes, so they take a few minutes.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import passes  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(run.PINS_FILE) as fh:
    PINS = json.load(fh)


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [run.spawn(w, 1, "trace") for _ in range(2)] for w in passes.WORKLOADS}


def test_traced_passes_repeat_every_count(traced_twice):
    # Exact repetition proves that no warm state leaks into a pass.
    for workload, (first, second) in traced_twice.items():
        counts = [
            {name: v for name, (v, unit) in rec["layers"].items() if unit != "s"}
            for rec in (first, second)
        ]
        assert counts[0] == counts[1], workload
        assert any(v for name, v in counts[0].items() if name.endswith(".calls")), workload


def test_traced_outputs_equal_pins(traced_twice):
    for workload, records in traced_twice.items():
        for rec in records:
            assert rec["outputs"] == PINS[workload], workload


def test_traced_pass_writes_every_per_layer_metric(traced_twice):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    layers = tracer.load_layers()
    listed = {f"{f}.{m}" for f in layers["functions"] for m in ("calls", "self_s")}
    assert per_layer == listed | set(layers["derived"])
    for workload, records in traced_twice.items():
        assert set(records[0]["layers"]) | {"trace.overhead_ratio"} == per_layer, workload


def test_tracer_leaves_no_unwrapped_binding():
    import arfold  # noqa: F401
    import arfold.cli  # noqa: F401

    names = tracer.load_layers()["functions"]
    trace = tracer.Tracer(names)
    trace.install()
    try:
        originals = {id(orig) for orig in trace.originals()}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "arfold"]
        assert len(modules) == 8
        for mod in modules:
            namespaces = [vars(mod)] + [
                vars(v) for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == mod.__name__
            ]
            for ns in namespaces:
                for attr, val in ns.items():
                    assert id(val) not in originals, f"{mod.__name__}.{attr}"
        for name in names:
            module, _, qual = name.partition(".")
            bound = sys.modules["arfold." + module]
            for part in qual.split("."):
                bound = vars(bound)[part]
            assert id(bound.__wrapped__) in originals, name
    finally:
        trace.uninstall()
    assert not any(
        hasattr(getattr(arfold.seqorder, f), "__wrapped__") for f in ("dist", "class_less")
    )


def test_seed_fixes_construct_words():
    from arfold import commutation_class, root_system

    same = [passes.inputs("construct", 7) for _ in range(2)]
    assert same[0] == same[1]
    other = passes.inputs("construct", 8)
    assert other != same[0]
    for inp in (same[0], other):
        assert set(inp) == set(passes.SEEDED_POINTS)
        for key, word in inp.items():
            cls = commutation_class(root_system(*passes.SEEDED_POINTS[key]), word)
            assert word != cls.canonical_word, key
    for workload in passes.WORKLOADS:
        if workload != "construct":
            assert passes.inputs(workload, 7) == {}


def test_two_seeds_give_pinned_outputs():
    for seed in (7, 8):
        assert run.spawn("construct", seed, "run")["outputs"] == PINS["construct"]


def test_scaling_cancels_host_speed():
    ref = passes.REFERENCE_S
    assert passes.scaled(2.0, [ref, ref]) == pytest.approx(2.0)
    # A host twice as slow takes twice as long for the same work.
    assert passes.scaled(4.0, [2 * ref, 2 * ref]) == pytest.approx(2.0)


def test_speed_probe_samples_during_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with passes.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * passes.PROBE_EVERY_S:
            pass
    assert len(probe.refs) >= 2
    assert 0 < probe.spent < time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "socle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

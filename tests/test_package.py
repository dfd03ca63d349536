import json
import os
import subprocess
import sys
import types
from pathlib import Path

import arfold
import arfold.cli

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.json"


def test_all_lists_every_public_import():
    public = {
        name for name, val in vars(arfold).items()
        if not name.startswith("_") and not isinstance(val, types.ModuleType)
    }
    assert set(arfold.__all__) == public
    assert len(arfold.__all__) == len(public)


def test_benchmark_tracer_contract():
    # perfbench/tracer.py wraps these names by module path and counts the
    # package's modules; perfbench/passes.py calls socle-dist with jobs=1.
    for name in json.loads(LAYERS.read_text())["functions"]:
        module, *path = name.split(".")
        obj = getattr(arfold, module)
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), name
    modules = sorted(p.name for p in Path(arfold.__file__).parent.glob("*.py"))
    assert len(modules) == 8, modules
    assert arfold.cli.verify_socle_dist("A", 3, jobs=1).ok


def test_readme_entry_points_run():
    # the README's first python block runs as printed in a fresh
    # interpreter, so it names no moved or missing function
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_import_needs_only_the_standard_library():
    # pyproject.toml declares dependencies = []: importing the package and
    # its CLI in a fresh interpreter loads no third-party module
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import arfold, arfold.cli\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - {'arfold'} - sys.stdlib_module_names)))\n"
    )
    src = str(Path(arfold.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_import_loads_no_dataclass_inspect_or_argparse_machinery(tmp_path):
    # importing the package and its CLI in a fresh interpreter loads none of
    # dataclasses, inspect or argparse; the CLI still runs a suite and
    # writes its --out JSON, and a quiver's arfold/1 JSON
    code = (
        "import json, sys\n"
        "import arfold, arfold.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))\n"
        "out, quiver = sys.argv[1:]\n"
        "assert arfold.cli.main(['verify', 'counts', '--out', out]) == 0\n"
        "assert arfold.cli.main(['quiver', '--type', 'A', '--rank', '3',\n"
        "                        '--class', '1,2,1,3,2,1', '--format', 'json',\n"
        "                        '--out', quiver]) == 0\n"
    )
    out, quiver = tmp_path / "counts.json", tmp_path / "quiver.json"
    src = str(Path(arfold.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, str(out), str(quiver)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "[PASS] counts (6 checks)"
    (report,) = json.loads(out.read_text())
    assert report["name"] == "counts" and report["ok"] and report["checked"] == 6
    doc = json.loads(quiver.read_text())
    assert doc["schema"] == "arfold/1" and doc["class"] == [1, 2, 1, 3, 2, 1]
    assert len(doc["vertices"]) == 6


def test_only_words_runs_the_projection_key_bfs():
    # one BFS over a cluster point, by the reflection functors r_i alone
    import inspect

    from arfold.words import reflect

    src = Path(arfold.__file__).parent
    callers = {
        p.name for p in src.glob("*.py")
        for name in ("moved_key(", "projection_key(", "edge_slots(")
        if name in p.read_text()
    }
    assert callers == {"words.py"}
    assert "side" not in inspect.signature(reflect).parameters


def test_distance_reads_take_no_hidden_point_walk():
    # a quiver's distance table comes from that quiver alone, and the CLI
    # reads the socle-dist walk through its public name
    import ast

    src = Path(arfold.__file__).parent
    assert "twisted_folded_quivers" not in (src / "seqorder.py").read_text()
    cli = (src / "cli.py").read_text()
    assert "seqorder._" not in cli
    for node in ast.walk(ast.parse(cli)):
        if isinstance(node, ast.ImportFrom) and node.module == "seqorder":
            assert not any(alias.name.startswith("_") for alias in node.names)


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, function) for every function of the package that calls
    ``name``, by plain name or as an attribute."""
    import ast

    callers = set()
    for p in Path(arfold.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(p.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers.update(
                    (p.stem, fn.name) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
                )
    return callers


def test_pairs_are_read_once_along_one_walk():
    # the suites read socles off the chain sweep, never through
    # `is_simple`; one transport carries a class's counts and records,
    # called by the walk's one reader, and the walk takes the point alone
    import inspect

    from arfold.seqorder import walk_point

    assert _callers("is_simple") == {("seqorder", "minimal_sequences")}
    assert _callers("_transport") == {("seqorder", "walk_point"), ("seqorder", "read")}
    # a pair reader, with its partition memo, lives for one walk or one
    # quiver's table, and the walks never call the one-shot `pair_below`
    assert _callers("_pair_reader") == {("seqorder", "walk_point"), ("seqorder", "_distance_table")}
    assert _callers("pair_below") == set()
    assert _callers("_pair_partitions") == {
        ("seqorder", "pair_below"), ("seqorder", "is_simple"), ("seqorder", "dist"),
        ("seqorder", "socle"),
    }
    # one partition search and one chain sweep
    assert _callers("_packed_partitions") == {
        ("seqorder", "_partitions"), ("seqorder", "_pair_partitions"),
        ("seqorder", "_pair_reader"), ("seqorder", "read"),
    }
    assert _callers("_chain_depths") == {("seqorder", "_read_below")}
    # one parents-first walker, one orbit-sharing walk for the distance
    # walk and the Dorey walk, and one minimality test of a summing pair
    assert _callers("parents_first") == {("seqorder", "walk_orbits")}
    assert _callers("walk_orbits") == {("seqorder", "walk_point"), ("affine", "_dorey_sweep")}
    assert _callers("class_images") == {("words", "mirror_classes"), ("seqorder", "walk_orbits")}
    assert _callers("is_minimal_pair") == {
        ("seqorder", "minimal_pairs_of_root"), ("affine", "_read_pairs"), ("affine", "_carry"),
    }
    assert list(inspect.signature(walk_point).parameters) == ["point"]
    # the suites read the one walk: the distance suites through one
    # exponent-row memo, socle-dist directly
    assert _callers("walk_point") == {("affine", "_exponent_rows"), ("cli", "verify_socle_dist")}
    assert _callers("exponent_rows") == {
        ("seqorder", "distance_polynomial"), ("affine", "_exponent_rows"),
    }
    assert _callers("_exponent_rows") == {("affine", "_classes_by_rows")}


def test_each_folding_and_twisted_point_is_stated_once():
    # a twisted point is the folded quivers' walk: only adapted_point calls
    # cluster_point; and every diagram automorphism is built in rootsys
    src = Path(arfold.__file__).parent
    assert _callers("cluster_point") == {("words", "adapted_point")}
    built = {p.name for p in src.glob("*.py") if "DiagramAutomorphism(" in p.read_text()}
    assert built == {"rootsys.py"}


def test_root_labels_come_from_few_root_sequence_reads():
    # a class reads a root sequence where its word enters, or once when it
    # is built directly; a reflected class and the folded seed read their
    # roots off a class's; quivers are labelled by reading their cells, and
    # gamma_q reads its rows alone
    callers = _callers("root_sequence")
    assert callers == {
        ("words", "commutation_class"), ("words", "roots"), ("arquiver", "read_root_labels"),
    }
    assert ("arquiver", "gamma_q") not in callers


def test_each_move_and_class_order_is_stored_once():
    # the move that made a class is its `parent` alone, and the masks are
    # lists indexed by root, so no reader takes an order from their keys
    import ast

    src = Path(arfold.__file__).parent
    texts = {p.stem: p.read_text() for p in src.glob("*.py")}
    assert not [m for m, text in texts.items() if "origin" in text or '"link"' in text]
    setattr_in, walk_attrs, below_reads = set(), set(), []
    for module, text in texts.items():
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and fn.name == "parents_first":
                    walk_attrs.add(node.attr)
                if not isinstance(node, ast.Call):
                    continue
                if ast.unparse(node.func) == "object.__setattr__":
                    setattr_in.add(fn.name)
                inner = node.args[0] if getattr(node.func, "id", None) == "list" else (
                    getattr(node.func, "value", None) if getattr(node.func, "attr", None)
                    in ("items", "keys") else None)
                if isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) == "below":
                    below_reads.append((module, fn.name, ast.unparse(node)))
    assert setattr_in == {"__init__"}
    assert "parent" in walk_attrs
    assert below_reads == []


def test_folded_quivers_store_coordinates_alone(monkeypatch):
    # one (residue, position) cell per root, the sinks read off them once
    # when the quiver is made, and no arrows: neither the walk nor a suite
    # builds them, and no module reads a folded quiver's coordinates
    # through a dict
    from functools import lru_cache

    from arfold import affine, arquiver, twistfold
    from arfold.twistfold import FoldedQuiver

    assert list(FoldedQuiver.__slots__) == [
        "rs", "cells", "source_class", "folding", "sinks",
    ]
    assert not hasattr(FoldedQuiver, "coord_of")
    assert _callers("coord_of") == {("affine", "v_untwisted_twisted")}  # of gamma_q
    calls = []
    real = arquiver.arrows_by_step
    for module in (arquiver, twistfold):
        monkeypatch.setattr(module, "arrows_by_step", lambda *a: calls.append(a) or real(*a))
    cold = lru_cache(maxsize=None)(twistfold.twisted_folded_quivers.__wrapped__)
    for module in (twistfold, affine):
        monkeypatch.setattr(module, "twisted_folded_quivers", cold)
    rows = lru_cache(maxsize=None)(affine._exponent_rows.__wrapped__)
    monkeypatch.setattr(affine, "_exponent_rows", rows)
    assert len(cold("A", 9)) == 256
    assert affine.verify_den_dist("C", 5).ok
    assert cold.cache_info().currsize == 2 and calls == []


def test_test_oracles_live_in_the_tests():
    # references the tests compare against, and their printed tables, are
    # test code: the package neither exports, defines nor calls them
    oracles = (
        "classify_cover", "coxeter_composition", "coxeter_element_of",
        "dorey_sweep_by_class", "e6_folded_quiver", "is_foldable",
        "twisted_coxeter_elements",
    )
    src = Path(arfold.__file__).parent
    modules = [getattr(arfold, p.stem) for p in src.glob("*.py") if p.stem != "__init__"]
    assert not set(oracles) & set(arfold.__all__)
    assert not [(m.__name__, name) for m in modules for name in oracles if hasattr(m, name)]
    assert not [name for name in oracles if _callers(name)]
    assert not (src / "data").exists()
    moved = ("interval", "comparable", "length")
    assert not [n for n in moved if hasattr(arfold.CommutationClass, n)]
    assert not hasattr(arfold.RootSystem, "is_positive")

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import arfold
import arfold.cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


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


def test_each_folding_and_twisted_point_is_stated_once():
    # a twisted point is the folded quivers' walk: only adapted_point calls
    # cluster_point; and every diagram automorphism is built in rootsys
    src = Path(arfold.__file__).parent
    assert _callers("cluster_point") == {("words", "adapted_point")}
    built = {p.name for p in src.glob("*.py") if "DiagramAutomorphism(" in p.read_text()}
    assert built == {"rootsys.py"}


def test_root_labels_come_from_few_root_sequence_reads():
    # the words read a root sequence once per class or word, quivers are
    # labelled by reading their cells, and gamma_q reads its rows alone
    callers = _callers("root_sequence")
    assert callers == {
        ("words", "_heap"), ("words", "commutation_class"),
        ("arquiver", "read_root_labels"), ("twistfold", "_seed"),
        ("seqorder", "position_vector"),
    }
    assert ("arquiver", "gamma_q") not in callers

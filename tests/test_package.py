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

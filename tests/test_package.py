import json
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

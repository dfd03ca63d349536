"""Per-layer tracing of arfold from outside the package.

`Tracer.install` replaces every binding of each listed function, in every
loaded ``arfold.*`` namespace, with a wrapper that counts calls and self
time: the wrapper's duration minus that of wrapped callees.  Every binding
is patched because modules such as ``affine`` and ``cli`` import names like
``distance_polynomial`` directly.  No source file of arfold is changed, and
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")

# Argument keys whose distinct share of calls is reported as distinct_ratio.
DISTINCT_KEYS = {
    "seqorder.dist": lambda cls, m: (cls, m),
    "seqorder.pair_below": lambda cls, a, b: (cls, min(a, b), max(a, b)),
    "seqorder.minimal_pairs_of_root": lambda cls, gamma: (cls, gamma),
}
# Functions whose results are summed by length: minimal pairs and classes.
RESULT_SIZES = ("seqorder.minimal_pairs_of_root", "words.cluster_point")


def load_layers() -> dict:
    with open(LAYERS_FILE) as fh:
        return json.load(fh)


def arfold_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "arfold" or name.startswith("arfold."))
    ]


def cache_entries() -> int:
    """Summed ``currsize`` of the lru_caches bound in arfold namespaces."""
    seen = {}
    for mod in arfold_modules():
        for val in vars(mod).values():
            while val is not None and not hasattr(val, "cache_info"):
                val = getattr(val, "__wrapped__", None)
            if val is not None:
                seen[id(val)] = val.cache_info().currsize
    return sum(seen.values())


class Tracer:
    """Call counts and self times of named functions, ``module.function``.

    A name ``module.Class.method`` patches the method on its class.
    """

    def __init__(self, names):
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.distinct = {name: set() for name in DISTINCT_KEYS if name in self.calls}
        self.results = {name: 0 for name in RESULT_SIZES if name in self.calls}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = arfold_modules()
        for name in self.calls:
            module, _, qual = name.partition(".")
            owner = sys.modules["arfold." + module]
            if "." in qual:
                cls_name, attr = qual.split(".")
                klass = getattr(owner, cls_name)
                orig = klass.__dict__[attr]
                self._patch(klass, attr, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, qual)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, orig, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def originals(self) -> list:
        return [orig for _, _, orig in self._patched]

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        key = DISTINCT_KEYS.get(name)
        seen = self.distinct.get(name)
        results = self.results if name in self.results else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if key is not None:
                seen.add(key(*args, **kwargs))
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if results is not None:
                results[name] += len(result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit); ratios are 0 with a 0 base."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name, seen in self.distinct.items():
            out[f"{name}.distinct_ratio"] = (_ratio(len(seen), self.calls[name]), "ratio")
        pairs = self.results.get("seqorder.minimal_pairs_of_root", 0)
        classes = self.results.get("words.cluster_point", 0)
        out["seqorder.minimal_pairs_of_root.pairs"] = (pairs, "count")
        out["seqorder.class_less.per_minimal_pair"] = (
            _ratio(self.calls.get("seqorder.class_less", 0), pairs), "ratio")
        out["words.cluster_point.classes"] = (classes, "count")
        out["words.cluster_point.classes_per_reflect"] = (
            _ratio(classes, self.calls.get("words.reflect", 0)), "ratio")
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0

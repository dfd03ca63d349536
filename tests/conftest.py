import inspect
import textwrap

import pytest


def _recompiled(fn, old: str, new: str):
    """``fn`` compiled anew in its module's namespace, with the one
    occurrence of ``old`` in its source replaced by ``new``; a method
    comes back as a plain function, an lru-cached one with a new cache."""
    fn = inspect.unwrap(fn)
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, old
    namespace = dict(fn.__globals__)
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


@pytest.fixture
def recompiled():
    """The mutant builder `_recompiled(fn, old, new)`."""
    return _recompiled

import types

import arfold


def test_all_lists_every_public_import():
    public = {
        name for name, val in vars(arfold).items()
        if not name.startswith("_") and not isinstance(val, types.ModuleType)
    }
    assert set(arfold.__all__) == public
    assert len(arfold.__all__) == len(public)

import importlib
import pkgutil

import pytest

import solsurf

MODULES = sorted(m.name for m in pkgutil.iter_modules(solsurf.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_public_names_resolve_and_star_import_succeeds(module):
    mod = importlib.import_module(f"solsurf.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
    namespace: dict = {}
    exec(f"from solsurf.{module} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)

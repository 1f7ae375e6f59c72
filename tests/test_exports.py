import ast
import importlib
import os
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



def _names_read(tree: ast.AST) -> set[str]:
    """Names the code loads, also inside string annotations such as ``-> "Grid2"``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= _names_read(ast.parse(note.value, mode="eval"))
    return read


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    path = os.path.join(os.path.dirname(solsurf.__file__), f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    # a name re-exported in __all__ counts as read
    exported = set(getattr(importlib.import_module(f"solsurf.{module}"), "__all__", ()))
    assert sorted(imported - _names_read(tree) - exported) == []

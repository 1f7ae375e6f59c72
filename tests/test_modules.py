"""Module-level contracts of the package source."""

import ast
import importlib
import pathlib

import pytest

import solsurf

SRC = pathlib.Path(solsurf.__file__).parent


def _defined_names(path: pathlib.Path) -> set[str]:
    """Names that the top level of the module at ``path`` defines or
    assigns; a name it imports is not among them."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_exported_name_is_defined_in_its_module(path):
    # a name is exported by the module that defines it, so each quantity
    # has one import path
    module = importlib.import_module("solsurf" if path.stem == "__init__" else f"solsurf.{path.stem}")
    exported = getattr(module, "__all__", [])
    assert sorted(set(exported) - _defined_names(path)) == []

"""Every name ``relemb`` exports resolves.

A deletion that leaves a stale ``__all__`` entry or package re-export
fails here, not at a user's ``import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import relemb


def test_every_exported_name_resolves():
    modules = sorted(m.name for m in pkgutil.iter_modules(relemb.__path__))
    assert len(modules) >= 9
    for module in modules:
        exec(f"from relemb.{module} import *", {})
    tree = ast.parse(Path(relemb.__file__).read_text(encoding="utf-8"))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom)
                 for alias in node.names]
    assert len(reexports) > 30
    for module, name in reexports:
        source = importlib.import_module(f"relemb.{module}")
        assert getattr(relemb, name) is getattr(source, name), name

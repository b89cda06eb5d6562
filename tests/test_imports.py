"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nagata"


def unread_imports(source: str) -> list:
    """The names an import statement of ``source`` binds that no expression
    reads (a name listed in a literal ``__all__`` counts as read), sorted."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unread_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path, math as m\n"
              "from .x import a, b as c, d\n"
              "__all__ = ['d']\n"
              "def f(x: c) -> None:\n"
              "    return m.pi\n")
    assert unread_imports(source) == ["a", "os"]

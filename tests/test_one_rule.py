"""Decisions the package makes in one place stay there.

* Line ends: ``source_model._split_lines`` is the one rule (``\\n``,
  ``\\r\\n``, ``\\r``); ``str.splitlines`` also breaks at form feed, U+2028
  and six other characters, so no module calls it.
* File extensions: ``source_model.profile_for_path`` is the one reader of a
  file's extension (``.suffix`` or ``splitext``), so every file ``nlo``
  reads gets its profile by one rule.
* Saving: ``cli._save`` is the one caller of ``sidecar_write``, so every
  command that writes FILE and its sidecar writes them in one order.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlo"
MODULES = sorted(PACKAGE.glob("*.py"))

EXTENSION_READERS = {("source_model.py", "profile_for_path")}
SIDECAR_WRITERS = {("cli.py", "_save")}


def named_nodes(tree: ast.AST, function: str | None = None):
    """(node, name of the innermost enclosing function or None) for every
    node of ``tree``."""
    for child in ast.iter_child_nodes(tree):
        yield child, function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from named_nodes(child, inner)


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_splitlines(path):
    calls = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
    ]
    assert calls == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_profile_for_path_reads_an_extension(path):
    readers = [
        f"{path.name}:{node.lineno}"
        for node, function in named_nodes(parse(path))
        if (isinstance(node, ast.Attribute) and node.attr in ("suffix", "splitext"))
        or (isinstance(node, ast.Name) and node.id == "splitext")
        if (path.name, function) not in EXTENSION_READERS
    ]
    assert readers == []


def test_profile_for_path_is_found():
    """The allowed reader exists, so the test above cannot pass vacuously."""
    found = {
        (path.name, function)
        for path in MODULES
        for node, function in named_nodes(parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "splitext"
    }
    assert found == EXTENSION_READERS


def sidecar_write_calls(path: Path):
    """(line, enclosing function) of each call of ``sidecar_write`` in ``path``."""
    for node, function in named_nodes(parse(path)):
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "sidecar_write")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "sidecar_write")
        ):
            yield node.lineno, function


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_save_writes_a_sidecar(path):
    writers = [
        f"{path.name}:{line}"
        for line, function in sidecar_write_calls(path)
        if (path.name, function) not in SIDECAR_WRITERS
    ]
    assert writers == []


def test_save_is_found():
    """The allowed writer exists, so the test above cannot pass vacuously."""
    found = {
        (path.name, function) for path in MODULES for _line, function in sidecar_write_calls(path)
    }
    assert found == SIDECAR_WRITERS

"""Every example script must at least parse and expose a main().

The examples are exercised manually/by the harness at full scale; this
cheap gate catches syntax errors and missing imports on every test
run without paying their runtime.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLE_FILES) >= 3, "the deliverable requires >= 3 examples"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    func_names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "main" in func_names, f"{path.name} lacks a main()"
    # and a __main__ guard so importing never runs the experiment
    has_guard = any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body
    )
    assert has_guard, f"{path.name} lacks an `if __name__ == '__main__'` guard"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_docstring_mentions_invocation(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    doc = ast.get_docstring(tree) or ""
    assert f"examples/{path.name}" in doc, f"{path.name} docstring lacks a usage line"


def _repro_imports(tree: ast.Module) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``repro`` import; *name* is ``None``
    for a plain ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.extend((node.module, alias.name) for alias in node.names)
    return [(m, n) for m, n in found if m.split(".")[0] == "repro" and n != "*"]


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Every ``repro`` import names a module and attribute that exist.

    The example itself is not run: its import statements are read from
    the syntax tree and resolved one by one.
    """
    missing: list[str] = []
    for module, name in _repro_imports(ast.parse(path.read_text(encoding="utf-8"))):
        try:
            imported = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(imported, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"

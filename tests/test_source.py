"""Static checks over the package's own source files."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gchs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unread_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_imports(tree) == []


def test_every_traced_function_exists():
    # the benchmark's tracer wraps these by name; a renamed one would
    # leave its layer unmeasured
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}" for mod, names in tracer.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert missing == []


#: modules that cost a command import time and that only some paths use,
#: so each is imported inside the function that needs it
LAZY = ("ctypes", "signal")


def _imported_on_import(node: ast.AST) -> list[str]:
    """The modules the statements under node import when their module is
    imported: every import outside a function body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return []
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module.split(".")[0]] if node.module and not node.level else []
    return [name for child in ast.iter_child_nodes(node)
            for name in _imported_on_import(child)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_lazy_module_at_top_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [name for name in _imported_on_import(tree) if name in LAZY] == []


def test_imports_inside_functions_are_not_top_level():
    tree = ast.parse("import os\ntry:\n    import signal\nexcept ImportError:\n    pass\n"
                     "def f():\n    import ctypes\n")
    assert _imported_on_import(tree) == ["os", "signal"]

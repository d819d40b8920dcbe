"""Static checks over the package's own source files."""

import ast
import importlib.util
import os
import subprocess
import sys
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


def _os_calls(tree: ast.Module, names: set[str]) -> list[str]:
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in names
                   and isinstance(node.value, ast.Name) and node.value.id == "os"})


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_runner_forks(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = _os_calls(tree, {"fork", "waitpid"})
    assert calls == (["fork", "waitpid"] if path.name == "runner.py" else [])


#: process pools that the fork runner stands in for
POOLS = ("concurrent", "multiprocessing")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_process_pool(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [alias.name for node in imported if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in imported
              if isinstance(node, ast.ImportFrom) and node.module and not node.level]
    assert [name for name in names if name.split(".")[0] in POOLS] == []


def test_the_cli_imports_no_process_pool():
    code = ("import sys, gchs.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *POOLS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

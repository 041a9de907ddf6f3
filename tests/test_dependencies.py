"""The package imports what pyproject.toml declares, and nothing heavier."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_entry_modules_do_not_load_scipy():
    code = ("import sys, linmatch.cli, linmatch.matcher, linmatch.training, linmatch.bench; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (SRC / "linmatch").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"linmatch", "__future__"}
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in declared} == {"numpy"}


def test_no_constructor_bypass():
    """Every object is built through its constructor, so its checks run: no module calls
    `object.__new__(...)` to skip them."""
    found = []
    for path in sorted((SRC / "linmatch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr == "__new__"
                    and isinstance(f.value, ast.Name) and f.value.id == "object"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_reads_another_modules_private_names():
    """Each decision has one owner: no module imports a sibling's underscore name, or reads
    one through the sibling's module alias (`from . import neighborhood as nb`, `nb._x`)."""
    found = []
    for path in sorted((SRC / "linmatch").glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.append(f"{path.name}: from .{node.module} import {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")):
                found.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert found == []


def test_every_top_level_name_is_read_in_the_package():
    """Code that only tests call is deleted: each function, class or constant defined at a
    module's top level is read somewhere in `src/linmatch`, by name or as an attribute."""
    defined, read = [], set()
    for path in sorted((SRC / "linmatch").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{module}: {name}" for module, name in defined
              if name not in read and name != "__version__"]
    assert unread == []

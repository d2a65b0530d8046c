"""Source hygiene: no Python file of the package, the tests, the demos or
the scripts imports a name it never uses, and every module-level definition
of the package is loaded by code that is not a test."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "ontomap"
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
for folder in ("tests", "demos", "scripts"):
    MODULES += sorted((ROOT / folder).glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports unused names: {unused}"


def loaded_names(tree):
    """Names read as variables, attributes or ``from`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name


def module_level_names(tree):
    """Functions, classes and constants defined at a module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id


def test_every_module_level_definition_is_loaded():
    # what only tests load is test code; __init__ only re-exports
    loaded = set()
    for folder in ("src", "demos", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path != PACKAGE / "__init__.py" and \
                    not path.name.startswith("test_"):
                loaded.update(loaded_names(ast.parse(path.read_text("utf-8"))))
    unused = sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in module_level_names(ast.parse(path.read_text("utf-8")))
        if name not in loaded and not name.startswith("__"))
    assert unused == [], f"defined but never loaded: {unused}"


def test_import_loads_no_compiler_machinery():
    # ``native`` (and the subprocess module it needs) loads at the first
    # sampler or clustering call, so every workload's setup time is free
    # of it
    code = ("import sys, ontomap; "
            "print(sorted({'ontomap.native', 'subprocess'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"

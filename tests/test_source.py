"""Checks on the package source itself."""

import ast
from pathlib import Path

import freegeo


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(Path(freegeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in freegeo: {found}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    # a private name is a module's own: `lp._x` or `from .lp import _x` in
    # another module ties the two together behind the public interface
    found = []
    for path in sorted(Path(freegeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()     # names bound to freegeo modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("freegeo")):
                for alias in node.names:
                    if _is_private(alias.name):
                        found.append(f"{path.name}:{node.lineno} imports "
                                     f"{alias.name}")
                    if node.module is None or node.module == "freegeo":
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name
                               for alias in node.names
                               if alias.name.startswith("freegeo."))
        found += [f"{path.name}:{node.lineno} reads "
                  f"{node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _is_private(node.attr)]
    assert not found, f"private names read across modules: {found}"

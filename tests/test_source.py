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


# the argument that names the check, per checking function of freegeo
_NAME_ARG = {"_check": 1, "_guard": 0, "_certify": 0, "_holds": 0}


def _check_names():
    """Every name passed to _check, _guard, _certify and _holds in freegeo,
    an f-string cut to its literal prefix."""
    names = set()
    for path in sorted(Path(freegeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _NAME_ARG):
                continue
            arg = node.args[_NAME_ARG[node.func.id]]
            if isinstance(arg, ast.JoinedStr):
                arg = arg.values[0]
            names.add(arg.value if isinstance(arg, ast.Constant)
                      else f"<no literal name at {path.name}:{node.lineno}>")
    return names


def test_every_check_name_is_tested():
    # a name is tested when it appears in a test file other than this one
    tests = Path(__file__).parent
    text = "\n".join(path.read_text() for path in sorted(tests.glob("*.py"))
                     if path.name != Path(__file__).name)
    missing = sorted(name for name in _check_names() if name not in text)
    assert not missing, f"check names in no test: {missing}"

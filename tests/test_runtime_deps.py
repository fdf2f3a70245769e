"""The runtime depends on numpy and the standard library only."""

import ast
import pathlib
import sys

import ssam

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ssam"}


def test_runtime_imports_only_numpy_and_the_standard_library():
    modules = sorted(pathlib.Path(ssam.__file__).resolve().parent.rglob("*.py"))
    assert any(p.name == "numerics.py" for p in modules)
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not foreign, foreign

"""The runtime depends on numpy and the standard library only, only the
CLI touches the allocator, and only the conv helper and the ablation pool
start threads."""

import ast
import pathlib
import sys

import ssam

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ssam"}
ROOT = pathlib.Path(ssam.__file__).resolve().parent


def _parsed_modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _imported(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []  # relative imports stay inside the package


def test_runtime_imports_only_numpy_and_the_standard_library():
    modules = list(_parsed_modules())
    assert any(p.name == "numerics.py" for p, _ in modules)
    foreign = []
    for path, tree in modules:
        for node in ast.walk(tree):
            names = _imported(node)
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not foreign, foreign


def test_only_the_cli_touches_the_allocator():
    # the CLI pins glibc's heap thresholds for its own process; library
    # code, which other programs import, must never reach the allocator
    offenders = []
    for path, tree in _parsed_modules():
        if path.relative_to(ROOT).as_posix() == "bench/cli.py":
            continue
        for node in ast.walk(tree):
            names = _imported(node)
            offenders += [f"{path.name}: import {n}" for n in names if n.split(".")[0] == "ctypes"]
            ident = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if ident == "mallopt" or (isinstance(node, ast.Constant) and node.value == "mallopt"):
                offenders.append(f"{path.name}:{node.lineno}: mallopt")
    assert not offenders, offenders


def test_only_the_conv_helper_and_the_ablation_pool_use_threads():
    # encoders.py shares large convs with one helper thread and
    # bench/reports.py runs the ablation pool; any other thread is new
    # shared state the CSV byte-identity guarantees were never checked for
    allowed = {"encoders.py", "bench/reports.py"}
    offenders = []
    for path, tree in _parsed_modules():
        rel = path.relative_to(ROOT).as_posix()
        if rel in allowed:
            continue
        for node in ast.walk(tree):
            names = _imported(node)
            offenders += [
                f"{rel}: import {n}"
                for n in names
                if n.split(".")[0] in ("threading", "_thread", "concurrent")
            ]
    assert not offenders, offenders

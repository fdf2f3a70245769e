"""The runtime depends on numpy and the standard library only, only the
CLI touches the allocator, only the ablation pool starts threads, through
ThreadPoolExecutor, no module reads the environment, and a package's
``__init__.py`` binds only its own submodules."""

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


# what starts a thread or coordinates threads by hand; the package's threads
# come only from ThreadPoolExecutor, whose locks are the standard library's
HAND_ROLLED = {
    "Thread", "Timer", "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "start_new_thread", "allocate_lock",
}


def test_only_the_ablation_pool_uses_threads():
    # bench/reports.py runs the ablation pool; any other thread is new
    # shared state the CSV byte-identity guarantees were never checked for
    allowed = {"bench/reports.py"}
    offenders = []
    for path, tree in _parsed_modules():
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            names = _imported(node)
            if rel not in allowed:
                offenders += [
                    f"{rel}: import {n}"
                    for n in names
                    if n.split(".")[0] in ("threading", "_thread", "concurrent")
                ]
            if isinstance(node, ast.ImportFrom) and node.module in ("threading", "_thread"):
                offenders += [
                    f"{rel}: from {node.module} import {a.name}"
                    for a in node.names
                    if a.name in HAND_ROLLED | {"*"}
                ]
            if (
                isinstance(node, ast.Attribute)
                and node.attr in HAND_ROLLED
                and isinstance(node.value, ast.Name)
                and node.value.id in ("threading", "_thread")
            ):
                offenders.append(f"{rel}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not offenders, offenders


# what reads the process environment: os.environ, os.getenv and their
# bytes forms, however they are imported
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # a setting that an environment variable can change is a setting the
    # tests and the report bytes were not checked under; the affinity mask
    # is the one outside input that sizes the program's threads
    offenders = []
    for path, tree in _parsed_modules():
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [
                    f"{rel}: from os import {a.name}"
                    for a in node.names
                    if a.name in ENV_READERS | {"*"}
                ]
            ident = getattr(node, "id", None) or getattr(node, "attr", None)
            if ident in ENV_READERS:
                offenders.append(f"{rel}:{node.lineno}: {ident}")
    assert not offenders, offenders


# the names a package __init__ may bind beyond its own submodules:
# perfbench/run.py reads these two through ssam.bench
INIT_EXTRAS = {"bench/__init__.py": {"SyntheticShiftSpec", "default_encoder"}}


def test_package_inits_bind_only_their_submodules():
    # each name has one import path, the module that defines it; a
    # re-export is a second path, and every rename or deletion must edit it
    checked, offenders = [], []
    for path, tree in _parsed_modules():
        if path.name != "__init__.py":
            continue
        rel = path.relative_to(ROOT).as_posix()
        checked.append(rel)
        submodules = {
            p.stem for p in path.parent.iterdir()
            if p.suffix == ".py" or (p / "__init__.py").is_file()
        } - {"__init__"}
        for node in tree.body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # the docstring
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                ok = submodules if node.module is None else INIT_EXTRAS.get(rel, set())
                offenders += [
                    f"{rel}:{node.lineno}: {a.asname or a.name}"
                    for a in node.names
                    if a.asname or a.name not in ok
                ]
            else:
                offenders.append(f"{rel}:{node.lineno}: {type(node).__name__}")
    assert {"__init__.py", "bench/__init__.py"} <= set(checked), checked
    assert not offenders, offenders

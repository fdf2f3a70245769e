"""The runtime depends on numpy and the standard library only, only the
CLI touches the allocator, only the ablation pool starts threads, through
ThreadPoolExecutor, no module reads the environment, a package's
``__init__.py`` binds only its own submodules, every FormatError names a
byte, a fresh ``import ssam.bench.cli`` loads none of the standard
modules that only some commands use (``concurrent.futures``, ``hashlib``,
``json``, ``csv``): each is imported inside the function that needs it,
and every name that ``perfbench/`` reads or rebinds resolves where it
looks it up."""

import ast
import importlib
import pathlib
import subprocess
import sys

import numpy as np

import ssam
import ssam.numerics as num
from ssam.adaptation import AdaptConfig, adapt_batch
from ssam.bench.synthetic import default_encoder
from ssam.encoders import embed_categories

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


def _literal_text(node) -> str:
    """The literal text of a string or f-string expression."""
    if isinstance(node, ast.JoinedStr):
        return "".join(_literal_text(part) for part in node.values)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def test_every_format_error_names_a_byte():
    # every malformed input file must fail with a byte offset: a
    # FormatError whose message has no "byte" in its text names none
    raised, offenders = [], []
    for path, tree in _parsed_modules():
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (getattr(func, "id", None) or getattr(func, "attr", None)) != "FormatError":
                continue
            raised.append(f"{rel}:{node.lineno}")
            if not node.args or "byte" not in _literal_text(node.args[0]):
                offenders.append(raised[-1])
    assert raised, "no FormatError raised under src/ssam"
    assert not offenders, offenders


# each is imported inside the functions that use it, so a command that
# does not need one never pays for its import
DEFERRED = ("concurrent.futures", "csv", "hashlib", "json")


def _deferred_loaded_after(tmp_path, stages) -> list:
    """Run ``stages`` in order in a fresh interpreter; after each, the
    deferred modules then in ``sys.modules``."""
    lines = [f"sys.path.insert(0, {str(ROOT.parent)!r})"]
    for stage in stages:
        lines += [stage, f"print('loaded:', *[m for m in {DEFERRED!r} if m in sys.modules])"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + "\n".join(lines)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("loaded:")]


def test_a_fresh_cli_loads_each_deferred_module_only_where_it_is_used(tmp_path):
    (tmp_path / "spec.json").write_text(
        '{"num_classes": 2, "images_per_class": 4, "image_shape": [3, 4, 4], "seed": 3}'
    )
    (tmp_path / "grid.json").write_text('{"alpha": [], "beta": []}')
    run = "assert cli.main({}) == 0"
    data = ["--data", "tiny.ssamds", "--steps", "1"]
    numpy_alone, *loaded = _deferred_loaded_after(tmp_path, [
        "import numpy",
        "import ssam.bench.cli as cli",
        # an encoder whose weights were not drawn: numpy.random, which
        # every command draws from, imports hashlib itself (via secrets)
        "from ssam.encoders import ToyConvEncoder\n"
        "enc = object.__new__(ToyConvEncoder)\n"
        "enc.w1 = enc.w2 = enc.w3 = numpy.zeros(3)\n"
        "enc.weights_checksum()",
        run.format(["gen-data", "--out", "default.ssamds"]),
        run.format(["gen-data", "--spec", "spec.json", "--out", "tiny.ssamds"]),
        run.format(["ablate", *data, "--grid", "grid.json", "--seeds", "1"]),
        run.format(["adapt", *data, "--report", "out"]),
    ])
    assert numpy_alone in ([], ["hashlib"])  # numpy 1.x imports numpy.random eagerly
    assert loaded == [
        numpy_alone,  # import ssam.bench.cli
        ["hashlib"],  # weights_checksum
        ["hashlib"],  # gen-data without --spec
        ["hashlib", "json"],  # read_json_object
        ["concurrent.futures", "hashlib", "json"],  # run_ablation's pool
        list(DEFERRED),  # _write_rows
    ]


# README's "Performance benchmark" list of the names of src/ssam that
# perfbench/ reads or rebinds by name: the module attributes, the class
# attributes it reads, the methods it wraps through ``vars(cls)`` (so
# each class must define its own), and the tape ops it times by name.
# A source change that drops one breaks only the benchmark's run.
PERFBENCH_ATTRIBUTES = {
    "ssam.numerics": (
        "custom_node", "Var", "value_and_gradient", "gradient", "_toposort",
        "finite_difference_gradient",
    ),
    "ssam.encoders": ("ToyConvEncoder", "ToyViTEncoder"),
    "ssam.adaptation": (
        "AdamOptimizer", "SgdOptimizer", "run_stream", "adapt_batch", "classify_batch",
        "evaluate",
    ),
    "ssam.association": ("association_map", "estimate_prototypes"),
    "ssam.objectives": ("total_objective", "loss_entropy", "loss_pir", "loss_ca", "reconstruct"),
    "ssam.bench.reports": ("run_experiment", "write_report", "run_ablation", "write_ablation"),
    "ssam.bench.synthetic": (
        "generate_dataset", "save_benchmark", "load_dataset", "load_companion_embeddings",
    ),
    "ssam.bench.gradcheck": ("gradcheck_command",),
    "ssam.bench.cli": ("main",),
    "ssam.bench": ("SyntheticShiftSpec", "default_encoder"),
}
PERFBENCH_CLASSES = {
    ("ssam.encoders", "ToyConvEncoder"): (("family", "weights_checksum"), ("__init__", "encode_batch")),
    ("ssam.encoders", "ToyViTEncoder"): (("family", "weights_checksum"), ("__init__", "encode_batch")),
    ("ssam.adaptation", "AdamOptimizer"): ((), ("step",)),
    ("ssam.adaptation", "SgdOptimizer"): ((), ("step",)),
}
PERFBENCH_OPS = {"conv3x3_same", "tile_tokens", "tanh", "row_softmax", "cosine_similarity_matrix"}


def test_every_name_perfbench_binds_resolves_where_it_looks():
    missing = []
    for module, names in PERFBENCH_ATTRIBUTES.items():
        found = vars(importlib.import_module(module))
        missing += [f"{module}.{n}" for n in names if n not in found]
    for (module, name), (read, wrapped) in PERFBENCH_CLASSES.items():
        cls = getattr(importlib.import_module(module), name)
        missing += [f"{name}.{n}" for n in read if not hasattr(cls, n)]
        missing += [f"vars({name})[{n!r}]" for n in wrapped if n not in vars(cls)]
    assert not missing, missing


def test_a_conv_step_and_a_vit_step_send_the_ops_perfbench_times(monkeypatch):
    # perfbench times each VJP under the op name its custom_node call
    # gives; an op it names that no step builds on the tape reads 0
    sent = set()
    custom_node = num.custom_node

    def recording(op, out, edges):
        edges = tuple(edges)
        if any(type(p) is num.Var for p, _ in edges):
            sent.add(op)
        return custom_node(op, out, edges)

    monkeypatch.setattr(num, "custom_node", recording)
    images = np.random.default_rng(3).normal(size=(4, 3, 8, 8))
    for family in ("conv", "vit"):
        enc = default_encoder(family, images.shape[1:])
        t = embed_categories(3, enc.dim)
        adapt_batch(enc, images, enc.new_adapter(), t, AdaptConfig(steps_per_batch=1))
    assert PERFBENCH_OPS <= sent, sorted(PERFBENCH_OPS - sent)

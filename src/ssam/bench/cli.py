"""Command line entry point.

Exit codes: 0 success, 1 configuration or file-format problem, 2 numeric
failure during adaptation (a non-finite value, or a degenerate input such
as a zero feature vector where a direction is needed), 3 gradient
verification failure. argparse's own complaints are routed through
ConfigError so bad flags also exit 1. ``main`` sets up its own process:
it pins glibc's heap thresholds and runs OpenBLAS on one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from ..adaptation import MODES, AdaptConfig
from ..errors import ConfigError, DegenerateInputError, FormatError, NumericError
from . import gradcheck as gc
from .reports import (
    DEFAULT_GRID,
    run_ablation,
    run_experiment,
    summarize_ablation,
    write_ablation,
    write_report,
)
from .synthetic import (
    DEFAULT_FAMILY,
    FAMILIES,
    SyntheticShiftSpec,
    default_encoder,
    generate_dataset,
    load_companion_embeddings,
    load_dataset,
    read_json_object,
    save_benchmark,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # numeric-failure code; surface usage problems as ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def _add_run_flags(p: _Parser, report_help: str) -> None:
    """The flags ``adapt`` and ``ablate`` share. Each recipe flag stores
    to the AdaptConfig field of its name and defaults to that field's
    default, so the command line cannot drift from the recipe."""
    p.add_argument("--data", required=True)
    p.add_argument("--report", help=report_help)
    p.add_argument("--encoder", choices=FAMILIES, default=DEFAULT_FAMILY)
    p.add_argument("--mode", choices=MODES, default=AdaptConfig.mode)
    p.add_argument("--lr", dest="learning_rate", type=float, default=AdaptConfig.learning_rate)
    p.add_argument("--batch", dest="batch_size", type=int, default=AdaptConfig.batch_size)
    p.add_argument("--steps", dest="steps_per_batch", type=int,
                   default=AdaptConfig.steps_per_batch, help="optimizer steps per batch")


def _config(args) -> AdaptConfig:
    fields = {f.name for f in dataclasses.fields(AdaptConfig)}
    return AdaptConfig(**{k: v for k, v in vars(args).items() if k in fields})


def _build_parser() -> _Parser:
    p = _Parser(prog="ssam", description="soft-association test-time adaptation bench")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-data", help="generate a synthetic shifted dataset")
    g.add_argument("--spec", help="JSON file of generator fields; defaults used if omitted")
    g.add_argument("--seed", type=int, default=None, help="override the spec seed")
    g.add_argument("--out", required=True, help="dataset path; .vit.emb/.conv.emb written next to it")
    g.set_defaults(func=_cmd_gen_data)

    a = sub.add_parser("adapt", help="adapt on a dataset and report accuracies")
    _add_run_flags(a, "directory for CSV outputs")
    a.add_argument("--alpha", type=float, default=AdaptConfig.alpha)
    a.add_argument("--beta", type=float, default=AdaptConfig.beta)
    a.add_argument("--insertion-layer", type=int, default=0)
    a.add_argument("--seed", type=int, default=AdaptConfig.seed)
    a.add_argument(
        "--per-image",
        action="store_true",
        help="also export per-image association rows behind the heatmaps",
    )
    a.set_defaults(func=_cmd_adapt)

    b = sub.add_parser("ablate", help="loss-mask rows plus an (alpha, beta) grid")
    _add_run_flags(b, "directory for ablation.csv")
    b.add_argument("--grid", help='JSON file {"alpha": [...], "beta": [...]}')
    b.add_argument("--seeds", type=int, default=3)
    b.set_defaults(func=_cmd_ablate)

    c = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_gradcheck)
    return p


def _cmd_gen_data(args) -> int:
    spec = SyntheticShiftSpec.from_json(args.spec) if args.spec else SyntheticShiftSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    bench = generate_dataset(spec)
    save_benchmark(bench, args.out)
    ds = bench.dataset
    print(f"wrote {args.out}: {ds.count} images, {ds.num_classes} classes, shape {ds.image_shape}")
    for family in sorted(bench.probe_accuracy):
        print(f"unshifted probe accuracy [{family}]: {bench.probe_accuracy[family]:.4f}")
    return 0


def _load_inputs(data, family: str, insertion_layer: int = 0):
    """The dataset, its companion embeddings for ``family`` and the
    family's encoder, once the embeddings are checked against both."""
    ds = load_dataset(data)
    emb = load_companion_embeddings(data, family)
    encoder = default_encoder(family, ds.image_shape, insertion_layer=insertion_layer)
    m, d = emb.shape
    if d != encoder.dim:
        raise ConfigError(f"embeddings have dim {d}, encoder produces {encoder.dim}")
    if m != ds.num_classes:
        raise ConfigError(f"embeddings have {m} categories, dataset has {ds.num_classes}")
    return ds, emb, encoder


def _cmd_adapt(args) -> int:
    cfg = _config(args)
    ds, emb, encoder = _load_inputs(args.data, args.encoder, args.insertion_layer)
    bundle = run_experiment(encoder, ds, emb, cfg)
    s = bundle.summary
    print(f"pre_accuracy={s['pre_accuracy']:.4f}")
    print(f"post_accuracy={s['post_accuracy']:.4f}")
    print(f"online_accuracy={s['online_accuracy']:.4f}")
    if args.report:
        for path in write_report(bundle, args.report, per_image=args.per_image):
            print(f"wrote {path}")
    return 0


def _load_grid(path):
    if path is None:
        return None, None
    raw = read_json_object(path, "grid", {"alpha": DEFAULT_GRID, "beta": DEFAULT_GRID})
    return raw.get("alpha"), raw.get("beta")


def _cmd_ablate(args) -> int:
    ds, emb, encoder = _load_inputs(args.data, args.encoder)
    ga, gb = _load_grid(args.grid)
    cfg = _config(args)
    rows = run_ablation(encoder, ds, emb, cfg, grid_alpha=ga, grid_beta=gb, seeds=args.seeds)
    for mask, mean_post in sorted(summarize_ablation(rows).items()):
        print(f"mean post_accuracy [{mask}]: {mean_post:.4f}")
    if args.report:
        print(f"wrote {write_ablation(rows, args.report)}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = gc.gradcheck_command(seed=args.seed)
    print(gc.format_report(report))
    return 0 if report.passed else 3


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at
    64 MiB, the ceilings its dynamic rule reaches by itself; setting them
    also turns that rule off.

    Left dynamic, the thresholds depend on which large blocks the process
    happened to free earlier. While no freed block has raised them, glibc
    trims the heap top after each adaptation step and faults it back in
    on the next one. Other C libraries are left alone.
    """
    name = "CS_GNU_LIBC_VERSION"
    try:
        libc = os.confstr(name) if name in os.confstr_names else None
    except OSError:  # a known name this system does not answer
        libc = None
    if not (libc or "").startswith("glibc"):
        return
    import ctypes  # here, so the CLI's import time does not pay for it

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _pin_blas_threads() -> None:
    """Run each OpenBLAS GEMM on one thread, whatever the environment
    asked for, so the pool in ``ablate`` uses the cores and the reports
    keep their bits. OpenBLAS's setter, under the name this build
    exports, is looked up in the library numpy loaded; a BLAS without one
    is left alone."""
    import ctypes

    mods = sys.modules  # numpy 2 keeps its core in numpy._core, numpy 1 in numpy.core
    core = mods.get("numpy._core._multiarray_umath") or mods["numpy.core._multiarray_umath"]
    lib = ctypes.CDLL(core.__file__, mode=os.RTLD_NOLOAD)
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, name):
            getattr(lib, name)(1)  # its one argument is a C int, ctypes' default for 1
            return


def main(argv=None) -> int:
    _pin_heap_thresholds()
    _pin_blas_threads()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, DegenerateInputError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

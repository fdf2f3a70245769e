"""Gradient fidelity verification for every loss component.

Analytic gradients come from the reverse-mode tape; the reference comes
from central finite differences of the same closure evaluated on plain
arrays (no tape involvement), so the two routes share no derivative
code. Each component is checked over seeded instances spread across
both encoder families and three adapter insertion points, all at one
size: batches of 8 images of 3x6x6 (9 tokens), 4 categories, dim 16.
Only the seed varies.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .. import numerics as num
from ..association import association_map, estimate_prototypes
from ..encoders import ToyConvEncoder, ToyViTEncoder, embed_categories
from ..errors import ConfigError
from ..objectives import loss_ca, loss_entropy, loss_pir, reconstruct, total_objective

TOLERANCE = 1e-4
COMPONENTS = ("ent", "pir", "ca", "total")
INSTANCES_PER_COMPONENT = 20

BATCH = 8
CATEGORIES = 4
DIM = 16
IMAGE_SHAPE = (3, 6, 6)  # 2x2 patches, so 9 tokens


@dataclass
class GradcheckRow:
    component: str
    family: str
    insertion_layer: object  # int for vit, None for conv
    max_rel_err: float
    passed: bool


@dataclass
class GradcheckReport:
    rows: list
    max_rel_err: float
    passed: bool
    seconds: float


def _rel_err(approx: np.ndarray, reference: np.ndarray) -> float:
    # Symmetric denominator: a spurious large analytic gradient against a
    # tiny finite-difference one (or vice versa) still scores ~1. The
    # 1e-6 floor only engages when both routes are essentially zero; a
    # central difference's cancellation noise (~1e-11) against an exact
    # zero must then not be divided by itself.
    denom = max(float(np.abs(reference).max()), float(np.abs(approx).max()), 1e-6)
    return float(np.abs(approx - reference).max()) / denom


def _component_closure(component, encoder, images, t):
    # the frozen prefix does not depend on the tokens, so neither route
    # differentiates through it; both evaluate only the suffix
    prefix = encoder.prefix(images)

    def f(tokens):
        v = encoder.suffix(prefix, tokens)
        a = association_map(v, t)
        if component == "ent":
            return loss_entropy(a)
        p = estimate_prototypes(a, v)
        if component == "ca":
            return loss_ca(p, t)
        if component == "pir":
            return loss_pir(reconstruct(a, p), v)
        return total_objective(v, t)[0]

    return f


def _encoder_cells():
    blocks = ToyViTEncoder.num_blocks
    cells = [
        ("vit", il, functools.partial(ToyViTEncoder, IMAGE_SHAPE, DIM, il))
        for il in (0, blocks // 2, blocks)
    ]
    cells.append(("conv", None, functools.partial(ToyConvEncoder, IMAGE_SHAPE, DIM)))
    return cells


def gradcheck_command(seed: int = 0) -> GradcheckReport:
    if seed < 0:  # numpy's generators take seeds >= 0
        raise ConfigError(f"seed must be >= 0, got {seed}")

    t0 = time.perf_counter()
    cells = _encoder_cells()
    t = embed_categories(CATEGORIES, DIM, seed=7)
    rows = []
    for ci, component in enumerate(COMPONENTS):
        rng = np.random.default_rng([seed, ci])
        worst = {}  # (family, insertion) -> max rel err
        for k in range(INSTANCES_PER_COMPONENT):
            family, il, build = cells[k % len(cells)]
            encoder = build(seed=k)
            images = rng.normal(size=(BATCH,) + IMAGE_SHAPE)
            tokens0 = rng.normal(0.0, 0.2, encoder.adapter_shape)
            f = _component_closure(component, encoder, images, t)
            _, analytic = num.value_and_gradient(f, tokens0)
            fd = num.finite_difference_gradient(f, tokens0)
            err = _rel_err(analytic, fd)
            key = (family, il)
            worst[key] = max(worst.get(key, 0.0), err)
        for (family, il), err in worst.items():
            rows.append(
                GradcheckRow(
                    component=component,
                    family=family,
                    insertion_layer=il,
                    max_rel_err=err,
                    passed=err <= TOLERANCE,
                )
            )
    max_err = max(r.max_rel_err for r in rows)
    return GradcheckReport(
        rows=rows,
        max_rel_err=max_err,
        passed=all(r.passed for r in rows),
        seconds=time.perf_counter() - t0,
    )


def format_report(report: GradcheckReport) -> str:
    lines = []
    for r in report.rows:
        il = "-" if r.insertion_layer is None else str(r.insertion_layer)
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.component:<6s} {r.family:<5s} insertion={il:<2s} "
            f"max_rel_err={r.max_rel_err:.3e} {status}"
        )
    verdict = "pass" if report.passed else "FAIL"
    lines.append(
        f"gradcheck {verdict}: max rel err {report.max_rel_err:.3e} "
        f"(tolerance {TOLERANCE:.0e}) in {report.seconds:.1f}s"
    )
    if not report.passed:
        bad = sorted({r.component for r in report.rows if not r.passed})
        lines.append(f"offending component(s): {', '.join(bad)}")
    return "\n".join(lines)

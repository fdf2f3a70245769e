"""Gradient fidelity verification for every loss component.

Analytic gradients come from the reverse-mode tape; the reference comes
from central finite differences of the same closure evaluated on plain
arrays (no tape involvement), so the two routes share no derivative
code. Each component is checked over seeded instances spread across
both encoder families and three adapter insertion points.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .. import numerics as num
from ..association import association_map, estimate_prototypes
from ..encoders import ToyConvEncoder, ToyViTEncoder, category_matrix, embed_categories
from ..errors import ConfigError
from ..objectives import loss_ca, loss_entropy, loss_pir, reconstruct, total_objective

TOLERANCE = 1e-4
COMPONENTS = ("ent", "pir", "ca", "total")
INSTANCES_PER_COMPONENT = 20

MAX_BATCH = 16
MAX_CATEGORIES = 8
MAX_DIM = 32
MAX_TOKENS = 16


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
    # 1e-6 floor only engages when both routes are essentially zero,
    # e.g. the D=1 degenerate dimension where cosine rows are locally
    # constant; central-difference cancellation noise (~1e-11) then must
    # not be divided by itself.
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


def _categories(m: int, d: int, rng) -> np.ndarray:
    if m <= d:
        return embed_categories(m, d, seed=7)
    # more categories than dimensions: orthonormality is impossible, so
    # fall back to normalized random rows (separation is irrelevant here)
    return category_matrix(rng.normal(size=(m, d)))


def _encoder_cells(d: int, n: int):
    g = int(round(np.sqrt(n)))
    if g * g != n:
        raise ConfigError(f"token count must be a perfect square, got {n}")
    side = ToyViTEncoder.patch_side * g
    shape = (3, side, side)
    blocks = ToyViTEncoder.num_blocks
    cells = [
        ("vit", il, functools.partial(ToyViTEncoder, shape, d, il))
        for il in (0, blocks // 2, blocks)
    ]
    cells.append(("conv", None, functools.partial(ToyConvEncoder, shape, d)))
    return shape, cells


def gradcheck_command(
    seed: int = 0,
    batch: int = 8,
    m: int = 4,
    d: int = 16,
    n: int = 9,
) -> GradcheckReport:
    for what, value, low, high in (("batch", batch, 1, MAX_BATCH), ("categories", m, 2, MAX_CATEGORIES),
                                   ("feature dim", d, 1, MAX_DIM), ("token count", n, 1, MAX_TOKENS)):
        if not low <= value <= high:
            raise ConfigError(f"{what} must be in [{low}, {high}], got {value}")

    t0 = time.perf_counter()
    image_shape, cells = _encoder_cells(d, n)
    rows = []
    for ci, component in enumerate(COMPONENTS):
        rng = np.random.default_rng([seed, ci])
        t = _categories(m, d, rng)
        worst = {}  # (family, insertion) -> max rel err
        for k in range(INSTANCES_PER_COMPONENT):
            family, il, build = cells[k % len(cells)]
            encoder = build(seed=k)
            images = rng.normal(size=(batch,) + image_shape)
            tokens0 = rng.normal(0.0, 0.2, encoder.adapter_shape)
            f = _component_closure(component, encoder, images, t)
            analytic = num.value_and_gradient(f, tokens0).gradient
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

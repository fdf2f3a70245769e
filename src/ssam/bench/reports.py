"""Experiment reports: adaptation runs, ablation grids, CSV emission.

Every CSV is byte-deterministic for a fixed invocation: floats are
written with repr (shortest round-trip form), rows come out in a fixed
order, and nothing time- or host-dependent goes into a file. Wall-clock
timings stay on the in-memory report objects only.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .. import numerics as num
from ..adaptation import AdaptConfig, run_stream
from ..association import association_map
from ..errors import ConfigError, SsamError

# the (alpha, beta) grid the ablation sweep defaults to
DEFAULT_GRID = (0.1, 0.2, 0.5, 1.0, 2.0)


def usable_cores() -> int:
    """The cores this process may run on (its affinity mask where the
    platform has one, else the CPU count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def class_average_heatmap(assoc: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """M x M matrix: row i holds the mean of the (N, M) association rows
    (row-softmax of cosine) of the class-i images. A sharp diagonal means
    features sit near their own category."""
    m = assoc.shape[1]
    out = np.zeros((m, m))
    for j in range(m):
        mask = labels == j
        if mask.any():
            out[j] = assoc[mask].mean(axis=0)
    return out


def pca_projection(features: np.ndarray) -> np.ndarray:
    """Project to the top-2 principal components, as (N, 2); a component
    the data lacks (N or D below 2) projects to 0. Sign convention: the
    first loading of each component with magnitude above 1e-12 is made
    positive, so the projection is deterministic across BLAS builds."""
    x = np.asarray(features, dtype=np.float64)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = np.zeros((2, x.shape[1]))
    comps[: len(vt[:2])] = vt[:2]
    for row in comps:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return centered @ comps.T


def class_dispersion(features: np.ndarray, labels: np.ndarray) -> float:
    """Mean pairwise distance between the centroids of the classes present,
    in ascending order (a set: numpy 2.4's first ``np.unique`` adds 1.2 MB RSS)."""
    cents = np.stack([features[labels == j].mean(axis=0) for j in sorted(set(labels.tolist()))])
    k = cents.shape[0]
    if k < 2:
        return 0.0
    dists = [
        float(np.linalg.norm(cents[i] - cents[j]))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    return float(np.mean(dists))


@dataclass
class ReportBundle:
    summary: dict
    loss_curve: list  # the run's LossBreakdown, one per optimizer step
    heatmap_pre: np.ndarray
    heatmap_post: np.ndarray
    projection_pre: np.ndarray
    projection_post: np.ndarray
    labels: np.ndarray
    association_pre: np.ndarray  # per-image rows behind the heatmaps
    association_post: np.ndarray


def run_experiment(encoder, dataset, emb, cfg: AdaptConfig) -> ReportBundle:
    import hashlib  # here: only `ssam adapt` checksums an adapter

    report = run_stream(encoder, dataset, emb, cfg)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    m = emb.shape[0]
    feats_pre, feats_post = report.features_pre, report.features_post
    assoc_pre = num.value_of(association_map(feats_pre, emb))
    assoc_post = num.value_of(association_map(feats_post, emb))

    summary = {
        "encoder_family": encoder.family,
        "num_images": int(labels.size),
        "num_categories": int(m),
        **dataclasses.asdict(cfg),
        "pre_accuracy": report.pre_accuracy,
        "post_accuracy": report.post_accuracy,
        "online_accuracy": report.online_accuracy,
        "dispersion_pre": class_dispersion(feats_pre, labels),
        "dispersion_post": class_dispersion(feats_post, labels),
        "adapter_checksum": hashlib.sha256(report.adapter.tobytes()).hexdigest(),
    }
    return ReportBundle(
        summary=summary,
        loss_curve=report.history,
        heatmap_pre=class_average_heatmap(assoc_pre, labels),
        heatmap_post=class_average_heatmap(assoc_post, labels),
        projection_pre=pca_projection(feats_pre),
        projection_post=pca_projection(feats_post),
        labels=labels,
        association_pre=assoc_pre,
        association_post=assoc_post,
    )


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(v):
    # repr keeps full float precision and is stable across runs
    return repr(float(v)) if isinstance(v, (float, np.floating)) else v


def _write_rows(path, header, rows):
    import csv  # here: only `ssam adapt` and `ssam ablate` write CSVs

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_report(bundle: ReportBundle, out_dir, per_image: bool = False) -> list:
    """Emit the full report as CSV files under out_dir; returns paths.

    ``per_image`` additionally writes the raw per-image association rows
    the class-averaged heatmaps were built from.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def dest(name):
        p = os.path.join(out_dir, name)
        paths.append(p)
        return p

    _write_rows(
        dest("summary.csv"),
        ["key", "value"],
        [(k, v) for k, v in bundle.summary.items()],
    )
    _write_rows(
        dest("loss_curve.csv"),
        ["step", "l_ent", "l_pir", "l_ca", "total"],
        [(i, b.l_ent, b.l_pir, b.l_ca, b.total) for i, b in enumerate(bundle.loss_curve)],
    )
    m = bundle.heatmap_pre.shape[0]
    head = ["class"] + [f"category_{j}" for j in range(m)]
    for name, grid in (("heatmap_pre.csv", bundle.heatmap_pre), ("heatmap_post.csv", bundle.heatmap_post)):
        _write_rows(dest(name), head, [(i, *grid[i]) for i in range(m)])
    for name, proj in (
        ("projection_pre.csv", bundle.projection_pre),
        ("projection_post.csv", bundle.projection_post),
    ):
        _write_rows(
            dest(name),
            ["index", "label", "pc1", "pc2"],
            [(i, int(bundle.labels[i]), proj[i, 0], proj[i, 1]) for i in range(len(proj))],
        )
    if per_image:
        cols = ["index", "label"] + [f"category_{j}" for j in range(m)]
        for name, assoc in (
            ("association_pre.csv", bundle.association_pre),
            ("association_post.csv", bundle.association_post),
        ):
            _write_rows(
                dest(name),
                cols,
                [(i, int(bundle.labels[i]), *assoc[i]) for i in range(len(assoc))],
            )
    return paths


# ---------------------------------------------------------------------------
# ablation


def ablation_cells(base_cfg: AdaptConfig, grid_alpha=None, grid_beta=None) -> list:
    """Loss-mask rows first (which components are live), then the full
    (alpha, beta) grid. Masked rows reuse the base weights."""
    cells = [
        ("ent-only", 0.0, 0.0),
        ("ent+pir", base_cfg.alpha, 0.0),
        ("ent+ca", 0.0, base_cfg.beta),
        ("full", base_cfg.alpha, base_cfg.beta),
    ]
    ga = DEFAULT_GRID if grid_alpha is None else tuple(grid_alpha)
    gb = DEFAULT_GRID if grid_beta is None else tuple(grid_beta)
    for a in ga:
        for b in gb:
            # AdaptConfig's own checks, before any stream starts
            dataclasses.replace(base_cfg, alpha=float(a), beta=float(b))
            cells.append(("grid", float(a), float(b)))
    return cells


def run_ablation(
    encoder,
    dataset,
    emb,
    base_cfg: AdaptConfig,
    grid_alpha=None,
    grid_beta=None,
    *,
    seeds: int,
) -> list:
    """One row per (cell, seed). Every cell runs every seed, and each
    distinct (alpha, beta, seed) runs once: rows that share it, such as
    ``full`` and the grid's base weights, copy one run whatever their mask
    label. The streams run on a pool of one worker per usable core (an
    affinity mask narrows it). Execution order never affects results:
    each task owns its config and the encoder is immutable. A stream that
    raises re-raises its error, of the same type, naming the first cell
    that needed it."""
    if seeds < 1:
        raise ConfigError(f"need at least 1 seed, got {seeds}")
    rows = [
        {"mask": mask, "alpha": a, "beta": b, "seed": base_cfg.seed + k}
        for mask, a, b in ablation_cells(base_cfg, grid_alpha, grid_beta)
        for k in range(seeds)
    ]
    streams = {}  # (alpha, beta, seed) -> the mask of the first row that runs it
    for r in rows:
        streams.setdefault((r["alpha"], r["beta"], r["seed"]), r["mask"])

    def run_one(key):
        a, b, seed = key
        cfg = dataclasses.replace(base_cfg, alpha=a, beta=b, seed=seed)
        try:
            rep = run_stream(encoder, dataset, emb, cfg)
        except SsamError as exc:
            cell = f"{streams[key]} alpha={a!r} beta={b!r} seed={seed}"
            raise type(exc)(f"ablation cell {cell}: {exc}") from exc
        return {
            "pre_accuracy": rep.pre_accuracy,
            "post_accuracy": rep.post_accuracy,
            "online_accuracy": rep.online_accuracy,
        }

    from concurrent.futures import ThreadPoolExecutor  # here: only `ssam ablate` runs a pool

    with ThreadPoolExecutor(max_workers=usable_cores()) as pool:
        runs = dict(zip(streams, pool.map(run_one, streams)))
    return [dict(r, **runs[r["alpha"], r["beta"], r["seed"]]) for r in rows]


def write_ablation(rows: list, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "ablation.csv")
    _write_rows(
        path,
        ["mask", "alpha", "beta", "seed", "pre_accuracy", "post_accuracy", "online_accuracy"],
        [
            (r["mask"], r["alpha"], r["beta"], r["seed"], r["pre_accuracy"], r["post_accuracy"], r["online_accuracy"])
            for r in rows
        ],
    )
    return path


def summarize_ablation(rows: list) -> dict:
    """Mean post-accuracy per mask label, for the trend check."""
    out: dict = {}
    for r in rows:
        out.setdefault(r["mask"], []).append(r["post_accuracy"])
    return {k: float(np.mean(v)) for k, v in out.items()}

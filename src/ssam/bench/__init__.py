"""Benchmark layer: synthetic shifted data, reports, CLI, gradcheck."""

from .gradcheck import GradcheckReport, GradcheckRow, gradcheck_command
from .reports import (
    ReportBundle,
    class_average_heatmap,
    class_dispersion,
    pca_projection,
    run_ablation,
    run_experiment,
    summarize_ablation,
    write_ablation,
    write_report,
)
from .synthetic import (
    DEFAULT_FAMILY,
    Dataset,
    GeneratedBenchmark,
    SyntheticShiftSpec,
    default_encoder,
    generate_dataset,
    load_companion_embeddings,
    load_dataset,
    save_benchmark,
    save_dataset,
)

__all__ = [
    "DEFAULT_FAMILY",
    "Dataset",
    "GeneratedBenchmark",
    "GradcheckReport",
    "GradcheckRow",
    "ReportBundle",
    "SyntheticShiftSpec",
    "class_average_heatmap",
    "class_dispersion",
    "default_encoder",
    "generate_dataset",
    "gradcheck_command",
    "load_companion_embeddings",
    "load_dataset",
    "pca_projection",
    "run_ablation",
    "run_experiment",
    "save_benchmark",
    "save_dataset",
    "summarize_ablation",
    "write_ablation",
    "write_report",
]

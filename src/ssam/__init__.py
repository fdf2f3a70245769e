"""Adapter-only test-time adaptation with soft category associations.

Frozen toy encoders (attention and convolutional families) expose a
small additive adapter; an unlabeled stream is adapted by minimizing
association entropy plus prototype-reconstruction and contrastive
alignment terms, all differentiated by the built-in reverse-mode tape.
"""

from . import adaptation, association, bench, encoders, errors, numerics, objectives
from .adaptation import AdaptConfig, AdaptReport, adapt_batch, evaluate, run_stream
from .association import association_map, estimate_prototypes
from .encoders import ToyConvEncoder, ToyViTEncoder, category_matrix, embed_categories
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    GenerationQualityError,
    NumericError,
    SsamError,
)
from .objectives import LossBreakdown, loss_ca, loss_entropy, loss_pir, reconstruct, total_objective

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdaptReport",
    "ConfigError",
    "DegenerateInputError",
    "DimensionError",
    "FormatError",
    "GenerationQualityError",
    "LossBreakdown",
    "NumericError",
    "SsamError",
    "ToyConvEncoder",
    "ToyViTEncoder",
    "__version__",
    "adapt_batch",
    "adaptation",
    "association",
    "association_map",
    "bench",
    "category_matrix",
    "embed_categories",
    "encoders",
    "errors",
    "estimate_prototypes",
    "evaluate",
    "loss_ca",
    "loss_entropy",
    "loss_pir",
    "numerics",
    "objectives",
    "reconstruct",
    "run_stream",
    "total_objective",
]

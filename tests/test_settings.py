"""The fields of the adaptation config and of the result records, and
the parameters of the main entry points, pinned by name: a setting or
field added to any of them has to be added here too, so it shows up as a
test change."""

import dataclasses
import inspect

from ssam import numerics as num
from ssam.adaptation import AdaptConfig, AdaptReport, adapt_batch
from ssam.bench.gradcheck import gradcheck_command
from ssam.bench.reports import ReportBundle, run_ablation
from ssam.bench.synthetic import default_encoder
from ssam.encoders import ToyConvEncoder, ToyViTEncoder, _FrozenEncoder
from ssam.objectives import LossBreakdown, loss_ca, total_objective


def test_settings_are_pinned():
    fields = {
        AdaptConfig: [
            "alpha",
            "beta",
            "learning_rate",
            "batch_size",
            "steps_per_batch",
            "seed",
        ],
        LossBreakdown: ["l_ent", "l_pir", "l_ca", "total"],
        AdaptReport: [
            "history",
            "pre_accuracy",
            "post_accuracy",
            "online_accuracy",
            "adapter",
            "features_pre",
            "features_post",
        ],
        ReportBundle: [
            "summary",
            "loss_curve",
            "heatmap_pre",
            "heatmap_post",
            "projection_pre",
            "projection_post",
            "labels",
            "association_pre",
            "association_post",
        ],
    }
    for cls, names in fields.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
    pinned = {
        total_objective: ["v", "t", "alpha", "beta"],
        loss_ca: ["p", "t"],
        num.finite_difference_gradient: ["objective", "params"],
        adapt_batch: ["encoder", "images", "adapter", "t", "cfg", "optimizer"],
        run_ablation: ["encoder", "dataset", "emb", "base_cfg", "grid_alpha", "grid_beta", "seeds"],
        default_encoder: ["family", "image_shape", "insertion_layer"],
        gradcheck_command: ["seed"],
        _FrozenEncoder.__init__: ["self", "image_shape", "dim"],
        ToyConvEncoder.__init__: ["self", "image_shape", "dim", "seed"],
        ToyViTEncoder.__init__: ["self", "image_shape", "dim", "insertion_layer", "seed"],
        num.sum_axis: ["a", "axis"],
        num.mean_axis: ["a", "axis"],
    }
    for fn, params in pinned.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


def test_adapt_batch_takes_the_callers_optimizer():
    # run_stream makes a stream's one Adam state; a default here would be
    # a second optimizer lifetime that no stream uses
    param = inspect.signature(adapt_batch).parameters["optimizer"]
    assert param.default is inspect.Parameter.empty

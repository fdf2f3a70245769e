"""The adaptation config's fields and the parameters of the main entry
points, pinned by name: a setting added to any of them has to be added
here too, so it shows up as a test change."""

import dataclasses
import inspect

from ssam import numerics as num
from ssam.adaptation import AdaptConfig
from ssam.bench.reports import run_ablation
from ssam.bench.synthetic import default_encoder
from ssam.objectives import loss_ca, total_objective


def test_settings_are_pinned():
    assert [f.name for f in dataclasses.fields(AdaptConfig)] == [
        "alpha",
        "beta",
        "learning_rate",
        "batch_size",
        "steps_per_batch",
        "mode",
        "optimizer",
        "seed",
    ]
    pinned = {
        total_objective: ["v", "t", "alpha", "beta"],
        loss_ca: ["protos", "t"],
        num.finite_difference_gradient: ["objective", "params"],
        run_ablation: ["encoder", "dataset", "emb", "base_cfg", "grid_alpha", "grid_beta", "seeds"],
        default_encoder: ["family", "image_shape", "insertion_layer"],
    }
    for fn, params in pinned.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__name__

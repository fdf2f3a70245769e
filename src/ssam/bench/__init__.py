"""Benchmark layer: synthetic shifted data, reports, CLI, gradcheck."""

from . import gradcheck, reports, synthetic

# perfbench/run.py reads these two through ``ssam.bench``
from .synthetic import SyntheticShiftSpec, default_encoder

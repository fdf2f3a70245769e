"""Self-tests of the benchmark harness (not collected by a bare ``pytest``).

    python3 -m pytest -q perfbench/selftest.py

They run ``adapt-conv`` once untraced and once traced (about half a
minute) and check the harness against ``BENCHMARK.json`` and itself.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return run.measure("adapt-conv", seed=0, seconds=1, trace=False)


@pytest.fixture(scope="module")
def traced():
    return run.measure("adapt-conv", seed=0, seconds=1, trace=True)


def _emitted(record):
    return {name: m["unit"] for name, m in record["metrics"].items()}


def test_outputs_pass_their_checks(untraced, traced):
    for record in (untraced, traced):
        assert record["correct"], record["failures"]
        assert record["attempted"] >= 1 and record["failed"] == 0


def test_every_emitted_metric_is_named_in_benchmark_json(untraced, traced):
    assert _emitted(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _emitted(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_end_to_end_metrics_are_positive(untraced):
    for name, m in untraced["metrics"].items():
        assert m["value"] > 0, name


def test_child_spans_lie_within_parents(traced):
    spans = traced["spans"]
    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    for sid, name, start, end, parent, _ in spans:
        assert start <= end, name
        if parent is not None:
            _, pname, pstart, pend, _, _ = by_id[parent]
            assert pstart <= start and end <= pend, (name, pname)
    own = instrument.self_times(spans)
    assert all(t >= 0.0 for t in own.values())
    assert all(traced["metrics"][f"{layer}.self_s"]["value"] >= 0.0 for layer in instrument.LAYERS)


def test_conv_backward_dominates_the_tape_backward(traced):
    m = traced["metrics"]
    assert m["numerics.vjp_calls.conv3x3_same"]["value"] == 300  # 2 convs x 150 steps
    assert m["numerics.vjp_s.conv3x3_same"]["value"] >= 0.5 * m["numerics.backward_s"]["value"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [0, "a.x", 0.0, 10.0, None, "r"],
        [1, "b.y", 1.0, 4.0, 0, "r"],
        [2, "b.y", 3.0, 6.0, 0, "r"],  # overlaps its sibling, as pool tasks do
        [3, "c.z", 8.0, 9.0, 0, "r"],
    ]
    assert instrument.self_times(spans) == {0: 4.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_reference_bursts_per_thread():
    import threading

    reference = instrument.Reference()
    assert reference.factor() == 1.0
    reference.maybe()
    reference.maybe()  # within EVERY_S of this thread's first burst
    assert len(reference.samples) == reference.KEEP
    worker = threading.Thread(target=reference.maybe)
    worker.start()
    worker.join()
    assert len(reference.samples) == 2 * reference.KEEP
    assert all(seconds > 0 for _, seconds in reference.samples)
    seconds, steps = reference.scale(0.0, 1.0, [(0.5, 0.1)])
    assert seconds > 0 and steps[0] > 0

"""The committed goldens are what ``tests/golden/regen.py`` writes, byte
for byte, so an output change that was not regenerated fails here."""

import importlib.util
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen", GOLDEN_DIR / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# regen_benchmark (benchmark_golden.json) runs ten full streams, about 10 s
@pytest.mark.parametrize(
    "writer, name",
    [
        ("regen_encoders", "encoders_golden.json"),
        ("regen_categories", "categories_golden.json"),
        ("regen_adaptation", "adaptation_golden.json"),
    ],
)
def test_regen_reproduces_committed_golden(tmp_path, monkeypatch, writer, name):
    regen = _regen_module()
    monkeypatch.setattr(regen, "HERE", tmp_path)
    getattr(regen, writer)()
    assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()

"""Shared test plumbing: the session runs under the CLI's process settings
(the heap pin and one-thread OpenBLAS), gradcheck runs at a small size and
its negative control gets a broken ``log`` backward, the file-format tests
share one damage generator and one golden loader, and the acceptance suite
registers one line per criterion here so the run always ends with an
explicit pass/fail list, whether or not stdout capture is on."""

import json
import pathlib

import numpy as np
import pytest

from ssam import numerics as num
from ssam.bench import gradcheck as gc
from ssam.bench.cli import _pin_blas_threads, _pin_heap_thresholds

ACCEPTANCE_LINES: list = []
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def load_golden(name):
    with open(GOLDEN_DIR / name) as fh:
        return json.load(fh)


def truncations_and_bit_flips(blob: bytes):
    """Every proper prefix of ``blob``, then ``blob`` with each single bit
    flipped, each with a label naming the damage."""
    for n in range(len(blob)):
        yield f"cut at byte {n}", blob[:n]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


def pytest_sessionstart(session):
    # the in-process streams of the acceptance suite otherwise run with
    # glibc's dynamic thresholds, which trim the heap top after each step
    # and fault it back in on the next, as a fresh `ssam` process does not;
    # and with OpenBLAS at whatever thread count the shell left, where a
    # fresh `ssam` process runs each GEMM on one thread
    _pin_heap_thresholds()
    _pin_blas_threads()


@pytest.fixture
def small_gradcheck(monkeypatch):
    """Gradcheck at 2 images of 3x4x4 (4 tokens), 2 categories and dim 4,
    a fraction of the full run's time."""
    monkeypatch.setattr(gc, "BATCH", 2)
    monkeypatch.setattr(gc, "CATEGORIES", 2)
    monkeypatch.setattr(gc, "DIM", 4)
    monkeypatch.setattr(gc, "IMAGE_SHAPE", (3, 4, 4))


@pytest.fixture
def broken_log_vjp(monkeypatch):
    """A real backward bug for gradcheck's negative control: ``num.log``
    with its forward intact and a VJP of g / (2x), half the derivative.
    Only the class-alignment loss takes a log, so only ``ca`` and
    ``total`` get a wrong analytic gradient."""

    def log(a):
        av = num.value_of(a)
        return num.custom_node("log", np.log(av), ((a, lambda g: g / (2 * av)),))

    monkeypatch.setattr(num, "log", log)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

"""Shared test plumbing: the session runs under the CLI's process settings
(the heap pin and one-thread OpenBLAS), gradcheck's negative control gets
a broken ``log`` backward, and the acceptance suite registers one line per
criterion here so the run always ends with an explicit pass/fail list,
whether or not stdout capture is on."""

import numpy as np
import pytest

from ssam import numerics as num
from ssam.bench.cli import _pin_blas_threads, _pin_heap_thresholds

ACCEPTANCE_LINES: list = []


def pytest_sessionstart(session):
    # the in-process streams of the acceptance suite otherwise run with
    # glibc's dynamic thresholds, which trim the heap top after each step
    # and fault it back in on the next, as a fresh `ssam` process does not;
    # and with OpenBLAS at whatever thread count the shell left, where a
    # fresh `ssam` process runs each GEMM on one thread
    _pin_heap_thresholds()
    _pin_blas_threads()


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

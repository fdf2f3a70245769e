"""Shared test plumbing: the session runs under the CLI's heap pin, and
the acceptance suite registers one line per criterion here so the run
always ends with an explicit pass/fail list, whether or not stdout
capture is on."""

from ssam.bench.cli import _pin_heap_thresholds

ACCEPTANCE_LINES: list = []


def pytest_sessionstart(session):
    # the in-process streams of the acceptance suite otherwise run with
    # glibc's dynamic thresholds, which trim the heap top after each step
    # and fault it back in on the next, as a fresh `ssam` process does not
    _pin_heap_thresholds()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

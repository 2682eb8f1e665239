"""A watchdog on every test: one that runs past ``WATCHDOG_S`` seconds prints
the stack of every thread and ends the run with exit status 1, so that a
search that never returns fails at once instead of at the CI job's time
limit.  On a shared 2-vCPU Xeon host the slowest test,
``test_group_search_reference.py::test_abelian_names_by_invariant_match_search``,
takes about 9 s, under a sixth of ``WATCHDOG_S``, and the next slowest about
3 s."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

WATCHDOG_S = 60

# a copy of the session's stderr: while a test runs, output capture redirects descriptor 2
_STDERR = pytest.StashKey[int]()


def pytest_configure(config: pytest.Config) -> None:
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(config.stash[_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item: pytest.Item):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=item.config.stash[_STDERR])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()

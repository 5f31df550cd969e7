"""One hypothesis profile for the whole suite: derandomised, so a run is
repeatable, and with no deadline, since timings on a shared machine vary.
And the `cpus` fixture, which runs a test on one CPU and on two."""

import os

import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=50, derandomize=True, deadline=None)
settings.load_profile("suite")


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The number of CPUs os.sched_getaffinity reports for the test: on one,
    CSV text is read and written in this process; on two, a forked worker
    formats the second half of the blocks written and parses the second part
    of a file read, whatever machine the suite runs on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param

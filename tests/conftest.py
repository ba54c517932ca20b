import os
from unittest import mock

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "fast",
    max_examples=50,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("fast")


@pytest.fixture()
def two_cpus(monkeypatch):
    """Affinity of two CPUs, so that the package forks workers on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture()
def fork_spy(monkeypatch):
    """os.fork, wrapped to count the children the package forks."""
    spy = mock.Mock(wraps=os.fork)
    monkeypatch.setattr(os, "fork", spy)
    return spy

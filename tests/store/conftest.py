"""Fixtures shared by the store tests."""

import subprocess
import sys

import pytest


@pytest.fixture
def dead_pid():
    """The pid of a child process this test started and reaped."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid

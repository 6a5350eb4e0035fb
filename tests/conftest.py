"""Suite-wide guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fail any test that leaves a child process running or unreaped, such
    as an evaluator it forked and never closed."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = f"unreaped child {pid}" if pid else "a running child process"
    pytest.fail(f"the test left {left}")

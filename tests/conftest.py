"""Checks that span the whole test session."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def no_process_left_running():
    """Fail the run if any test leaves a child process, running or
    unreaped, as the benchmark refuses a run that does.  Asks the OS, so
    that it sees workers forked by any means."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left: waitpid gave {left}")

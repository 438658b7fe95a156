"""Checks that span the whole test session."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True, scope="session")
def no_process_left_running():
    """Fail the run if any test leaves a child process running, as the
    benchmark refuses a run that does."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"processes left running: {left}"

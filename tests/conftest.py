import os
import threading

import pytest


@pytest.fixture(autouse=True)
def leaves_no_thread_or_child_process():
    """Each test ends with the threads it began with and no child process left, running or unreaped:
    `reconstruct` reaps its helper process, and the package starts no thread of its own."""
    threads = threading.active_count()
    yield
    assert threading.active_count() == threads, "the test left a thread running"
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("the test left a child process running" if pid == 0 else f"the test left child {pid} unreaped")

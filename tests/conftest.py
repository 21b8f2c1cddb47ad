import os

import pytest


@pytest.fixture
def no_child_left():
    """A check that this process has no child process, running or unreaped.

    multiprocessing.active_children() sees only the processes that
    multiprocessing started; os.waitpid sees every child.
    """
    def check() -> bool:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    return check

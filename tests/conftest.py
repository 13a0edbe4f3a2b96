"""Helpers of the fork tests in test_cli.py."""
import os

import pytest


def cpus(n):
    """A stand-in for os.sched_getaffinity: a process allowed on n CPUs."""
    return lambda pid: set(range(n))


def count_forks(mp):
    """Patch os.fork to count into the returned list."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    mp.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

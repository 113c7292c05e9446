"""Tests for the package's thread pool."""

import os
import threading
import time

import pytest

from stablesheet import _parallel


def test_worker_count_is_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert _parallel.worker_count() == len(os.sched_getaffinity(0))
    else:
        assert _parallel.worker_count() == (os.cpu_count() or 1)


def test_results_come_back_in_input_order(monkeypatch):
    monkeypatch.setattr(_parallel, "worker_count", lambda: 4)

    def late_first(i):
        time.sleep(0.002 * (8 - i))
        return i

    assert _parallel.ordered_map(late_first, range(8)) == list(range(8))


def test_an_error_in_a_task_reaches_the_caller_and_no_thread_is_left(monkeypatch):
    monkeypatch.setattr(_parallel, "worker_count", lambda: 3)
    threads = threading.active_count()

    def fail_on_five(i):
        if i == 5:
            raise ValueError("item 5")
        return i

    with pytest.raises(ValueError, match="item 5"):
        _parallel.ordered_map(fail_on_five, range(9))
    assert threading.active_count() == threads

"""Tests for the chunked Monte-Carlo runner's worker pool."""

import threading
import time

import pytest

from lossless._util import CHUNK_TRIALS, run_chunked


def _thread_names(rng, count):
    return threading.current_thread().name


def test_pool_threads_are_reused_across_calls():
    first = set(run_chunked(8 * CHUNK_TRIALS, _thread_names, 0, threads=2))
    second = set(run_chunked(8 * CHUNK_TRIALS, _thread_names, 1, threads=2))
    assert first | second <= {t.name for t in threading.enumerate()}
    assert len(first | second) <= 2


def test_nested_call_in_a_worker_runs_serially():
    def outer(rng, count):
        return sum(run_chunked(3 * CHUNK_TRIALS, lambda r, n: n, 0, threads=2))

    assert run_chunked(4 * CHUNK_TRIALS, outer, 0, threads=2) == [3 * CHUNK_TRIALS] * 4


def test_failed_chunk_leaves_no_chunk_running():
    finished = []

    def worker(rng, count):
        if not finished:
            finished.append(None)
            raise FloatingPointError("chunk 0 blew up")
        time.sleep(0.01)
        finished.append(count)
        return count

    with pytest.raises(FloatingPointError):
        run_chunked(6 * CHUNK_TRIALS, worker, 0, threads=2)
    settled = len(finished)
    time.sleep(0.05)
    assert len(finished) == settled

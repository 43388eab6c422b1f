"""Tests for the chunked Monte-Carlo runner."""

import pytest

from lossless._util import CHUNK_TRIALS, derive_rng, run_chunked


def test_chunks_run_in_order_on_their_own_substreams():
    draws = run_chunked(2 * CHUNK_TRIALS + 5, lambda rng, n: (n, rng.random()), 3)
    assert [n for n, _ in draws] == [CHUNK_TRIALS, CHUNK_TRIALS, 5]
    assert [x for _, x in draws] == [derive_rng(3, i).random() for i in range(3)]


def test_nested_call_in_a_worker_runs_serially():
    def outer(rng, count):
        return sum(run_chunked(3 * CHUNK_TRIALS, lambda r, n: n, 0))

    assert run_chunked(4 * CHUNK_TRIALS, outer, 0) == [3 * CHUNK_TRIALS] * 4


def test_failed_chunk_leaves_no_chunk_running():
    finished = []

    def worker(rng, count):
        if not finished:
            finished.append(None)
            raise FloatingPointError("chunk 0 blew up")
        finished.append(count)
        return count

    with pytest.raises(FloatingPointError):
        run_chunked(6 * CHUNK_TRIALS, worker, 0)
    assert finished == [None]

"""Internal helpers: seeded RNG streams, chunked Monte-Carlo, grid utilities.

Nothing in here is part of the public API.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

#: Trials per Monte-Carlo chunk.  Fixed so that results never depend on the
#: worker count: chunk i always consumes the substream derived from
#: (seed, *tags, i), and reductions run in chunk order.
CHUNK_TRIALS = 1024

#: Elements per temporary in the harmonic direct sum, the kernel transform
#: of `check_dissipative` and the lifted-block operators of
#: `statespace._lti_run` (which also serve impulse responses), which bounds
#: their working memory (4 MB of float64).
CHUNK_ELEMENTS = 500_000


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Counter-based generator for the substream keyed by (seed, *indices).

    Philox under a SeedSequence gives independent streams for distinct keys,
    which is what makes per-trial/per-chunk parallelism reproducible.
    """
    key = (int(seed),) + tuple(int(i) for i in indices)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def chunk_sizes(total: int, chunk: int = CHUNK_TRIALS) -> list[int]:
    """Split `total` trials into fixed-size chunks (last one ragged)."""
    if total < 0:
        raise ValueError(f"trial count must be nonnegative, got {total}")
    full, rem = divmod(total, chunk)
    return [chunk] * full + ([rem] if rem else [])


def run_chunked(
    total: int,
    worker: Callable[[np.random.Generator, int], object],
    seed: int,
    *tags: int,
    threads: int = 1,
) -> list:
    """Run `worker(rng, count)` over fixed-size trial chunks, in order.

    Each chunk gets the substream (seed, *tags, chunk_index); the returned
    list is in chunk order regardless of `threads`, so any reduction over it
    is bitwise reproducible for every thread count.
    """
    sizes = chunk_sizes(total)
    if threads <= 1 or len(sizes) <= 1 or getattr(_in_pool, "value", False):
        return [worker(derive_rng(seed, *tags, i), n) for i, n in enumerate(sizes)]
    pool = _pool(threads)
    futures = [pool.submit(worker, derive_rng(seed, *tags, i), n) for i, n in enumerate(sizes)]
    try:
        return [f.result() for f in futures]
    finally:  # after a failed chunk, no other chunk runs on past the call
        for f in futures:
            f.cancel()
        wait(futures)


#: Set in the threads of `_pool`, where a nested `run_chunked` runs serially
#: (waiting on the pool from inside it could deadlock).
_in_pool = threading.local()


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide worker pool of `run_chunked` for `threads` workers.

    It lives as long as the process.  A pool per call would start new
    threads every call, and a thread that Python has joined may not have
    released its malloc arena yet, so the next call's threads could open
    more arenas, each holding about one chunk's working set: resident
    memory would grow by a random amount from run to run.
    """
    return ThreadPoolExecutor(
        max_workers=threads,
        thread_name_prefix="lossless-chunk",
        initializer=setattr,
        initargs=(_in_pool, "value", True),
    )


def as_float_array(x, name: str, *, ndim: int | None = None) -> np.ndarray:
    """Coerce to a float64 ndarray and validate finiteness (and rank)."""
    a = np.asarray(x, dtype=float)
    if ndim is not None and a.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def positive(value, name: str, *, or_zero: bool = False) -> float:
    """`value` as a float; raises ValueError unless finite and > 0 (>= 0 with `or_zero`)."""
    v = float(value)
    if not (np.isfinite(v) and (v >= 0 if or_zero else v > 0)):
        raise ValueError(f"{name} must be {'nonnegative' if or_zero else 'positive'}, got {v}")
    return v


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only view-safe copy (types are shared across threads)."""
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def require_square(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def midpoint_samples(values: np.ndarray) -> np.ndarray:
    """Cubic estimates of u(t_k + dt/2) from uniform samples u(t_k).

    Interior midpoints use the 4-point stencil (-1, 9, 9, -1)/16; the first
    and last intervals use the one-sided cubic through the nearest 4 samples.
    Falls back to linear averaging when fewer than 4 samples exist.  Keeps
    RK4 driven by sampled inputs at full order for smooth signals.
    """
    v = np.asarray(values, dtype=float)
    m = v.shape[0]
    if m < 2:
        raise ValueError("need at least two samples to form midpoints")
    if m < 4:
        return 0.5 * (v[:-1] + v[1:])
    mid = np.empty((m - 1,) + v.shape[1:], dtype=float)
    mid[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    # Lagrange weights at t = 0.5 and t = m-1.5 on the 4 boundary nodes.
    w = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
    mid[0] = np.tensordot(w, v[:4], axes=(0, 0))
    mid[-1] = np.tensordot(w[::-1], v[-4:], axes=(0, 0))
    return mid

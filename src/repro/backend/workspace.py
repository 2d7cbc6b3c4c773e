"""Reusable scratch buffers so steady-state hot loops allocate nothing.

A :class:`Workspace` hands out preallocated ``out=``-style buffers keyed by
``(key, shape, dtype)``.  The first request for a key allocates; every later
request with the same shape and dtype returns the *same* array, so a batched
kernel that processes identically-shaped batches reuses its intermediates
instead of hitting the allocator every call.

Contract (the "workspace-reuse" contract):

* A buffer returned by :meth:`Workspace.scratch` is only valid until the next
  ``scratch`` call with the same key — callers must never hold a scratch
  buffer across kernel invocations or return it to user code.
* Buffer contents are undefined on entry (no zeroing); kernels must fully
  overwrite what they read.
* Buffers are **thread-local**: two threads asking for the same key get
  independent arrays, so thread-parallel sweeps cannot corrupt each other.

Shape changes are handled by reallocation (the old buffer for that key is
dropped), so irregular tail batches are correct, merely not allocation-free.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Per-thread pool of named, shape-keyed scratch arrays."""

    def __init__(self) -> None:
        self._local = threading.local()

    # Scratch buffers are per-process transients: pickling (e.g. a
    # backend-pinned demapper shipped to a worker process) sends an empty
    # workspace and the receiver re-warms its own buffers.
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self._local = threading.local()

    def _bufs(self) -> dict:
        bufs = getattr(self._local, "bufs", None)
        if bufs is None:
            bufs = {}
            self._local.bufs = bufs
            self._local.hits = 0
            self._local.misses = 0
        return bufs

    def scratch(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Return a reusable uninitialised buffer of ``shape``/``dtype``.

        The same ``key`` with the same shape and dtype returns the same array
        on every call from the same thread.
        """
        bufs = self._bufs()
        shape = tuple(map(int, shape))
        dtype = np.dtype(dtype)
        entry = bufs.get(key)
        if entry is not None and entry.shape == shape and entry.dtype == dtype:
            self._local.hits += 1
            return entry
        buf = np.empty(shape, dtype=dtype)
        bufs[key] = buf
        self._local.misses += 1
        return buf

    def clear(self) -> None:
        """Drop all buffers held by the calling thread."""
        self._local.bufs = {}
        self._local.hits = 0
        self._local.misses = 0

    @property
    def stats(self) -> tuple[int, int]:
        """``(hits, misses)`` for the calling thread — for tests/diagnostics."""
        self._bufs()
        return (self._local.hits, self._local.misses)

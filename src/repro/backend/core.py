"""Backend registry and selection.

Three tiers, selectable via the ``REPRO_BACKEND`` environment variable or
the API below:

======== ===================================================================
name     meaning
======== ===================================================================
numpy    float64 NumPy reference (default; bit-identical hard decisions to
         the historical implementation)
numpy32  float32 fast path (~2× throughput, documented LLR tolerance)
numba    Numba-JIT fused kernels; **silently** falls back to ``numpy`` when
         Numba is not installed
======== ===================================================================

``get_backend()`` resolves lazily: the env var is read on first use, and
:func:`set_backend`/:func:`use_backend` override it for the process /
a scope.  Backend instances are cached per tier so their workspaces (and
Numba's compiled kernels) are shared across all call sites.

Every tier serves the same kernel surface: the demapping kernels
(``maxlog_llrs``/``logmap_llrs`` and their multi-sigma forms,
``hard_indices``), the decoding kernel (``viterbi_decode`` — the
row-batched soft Viterbi ACS every decode path dispatches), and the dense-algebra
helpers (``linear``/``gemm``/``gemm_i64``).
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.backend.numba_backend import NUMBA_AVAILABLE, NumbaBackend
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "available_backends",
    "backend_from_name",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable consulted on first :func:`get_backend` call.
ENV_VAR = "REPRO_BACKEND"

_ALIASES = {
    "numpy": "numpy",
    "reference": "numpy",
    "float64": "numpy",
    "numpy32": "numpy32",
    "float32": "numpy32",
    "numba": "numba",
    "jit": "numba",
}

_instances: dict[str, NumpyBackend] = {}
_current: NumpyBackend | None = None
#: Scoped (``use_backend``) overrides live in a context variable, so nested
#: or thread-concurrent scopes (e.g. inside ``sweep_snr`` runner threads)
#: cannot corrupt each other or the process-wide selection.
_scoped: contextvars.ContextVar[NumpyBackend | None] = contextvars.ContextVar(
    "repro_backend_scoped", default=None
)


def available_backends() -> tuple[str, ...]:
    """Canonical tier names usable with :func:`set_backend` / ``REPRO_BACKEND``."""
    return ("numpy", "numpy32", "numba")


def backend_from_name(name: str) -> NumpyBackend:
    """Resolve a tier name (or alias) to a cached backend instance.

    ``"numba"`` without Numba installed resolves to the NumPy reference —
    the documented silent fallback — so deployment scripts can request the
    JIT tier unconditionally.
    """
    canonical = _ALIASES.get(str(name).strip().lower())
    if canonical is None:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(available_backends())}"
        )
    if canonical == "numba" and not NUMBA_AVAILABLE:
        canonical = "numpy"
    inst = _instances.get(canonical)
    if inst is None:
        if canonical == "numpy":
            inst = NumpyBackend(np.float64)
        elif canonical == "numpy32":
            inst = NumpyBackend(np.float32)
        else:
            inst = NumbaBackend()
        _instances[canonical] = inst
    return inst


def get_backend() -> NumpyBackend:
    """The current backend: innermost ``use_backend`` scope if active,
    otherwise the process-wide selection (env-resolved on first call)."""
    scoped = _scoped.get()
    if scoped is not None:
        return scoped
    global _current
    if _current is None:
        _current = backend_from_name(os.environ.get(ENV_VAR, "numpy"))
    return _current


def set_backend(backend: NumpyBackend | str | None) -> NumpyBackend:
    """Select the process-wide backend by name or instance.

    ``None`` resets to lazy env-var resolution.  Returns the backend that is
    now current (after reset: the freshly resolved one).
    """
    global _current
    if backend is None:
        _current = None
        return get_backend()
    _current = backend_from_name(backend) if isinstance(backend, str) else backend
    return _current


@contextmanager
def use_backend(backend: NumpyBackend | str) -> Iterator[NumpyBackend]:
    """Scoped backend override (restores the previous selection on exit).

    Context-local: concurrent scopes in different threads (or tasks) see
    only their own override and cannot clobber the process-wide selection.
    """
    chosen = backend_from_name(backend) if isinstance(backend, str) else backend
    token = _scoped.set(chosen)
    try:
        yield chosen
    finally:
        _scoped.reset(token)

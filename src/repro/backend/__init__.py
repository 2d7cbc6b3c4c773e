"""Pluggable compute backends for the demapping / Monte-Carlo hot paths.

See :mod:`repro.backend.core` for the tier table and selection rules
(``REPRO_BACKEND`` env var, :func:`set_backend`, :func:`use_backend`) and
:mod:`repro.backend.workspace` for the workspace-reuse contract that lets
steady-state batches run allocation-free.
"""

from repro.backend.bitsets import PaddedBitSets
from repro.backend.dispatch import DemapRequest, group_requests
from repro.backend.core import (
    ENV_VAR,
    available_backends,
    backend_from_name,
    get_backend,
    set_backend,
    use_backend,
)
from repro.backend.numba_backend import NUMBA_AVAILABLE, NumbaBackend
from repro.backend.numpy_backend import FLOAT32_LLR_RTOL, NumpyBackend
from repro.backend.workspace import Workspace

__all__ = [
    "ENV_VAR",
    "FLOAT32_LLR_RTOL",
    "NUMBA_AVAILABLE",
    "DemapRequest",
    "NumbaBackend",
    "NumpyBackend",
    "PaddedBitSets",
    "Workspace",
    "available_backends",
    "backend_from_name",
    "get_backend",
    "group_requests",
    "set_backend",
    "use_backend",
]

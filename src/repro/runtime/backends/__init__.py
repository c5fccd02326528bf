"""Pluggable execution backends for compiled execution plans.

Each backend lowers a plan step from its
:class:`~repro.runtime.executor.StepCall` — the kernel's family plus the
operand roles, resolved once at plan-compile time — keyed by family.

``reference``
    Today's numpy/scipy kernel substrate — structured products executed
    as dense matmuls, solves through the family solvers.  Bit-identical
    to the pre-backend runtime.
``blas``
    Direct ``scipy.linalg.blas`` / ``scipy.linalg.lapack`` calls with the
    transpose/side/triangularity algebra pre-resolved into routine flags;
    per-kernel reference fallback for calls BLAS cannot express.
``c``
    Packs each frozen plan into a step record replayed by one prebuilt
    native interpreter (BLAS and LAPACK reached through capsule-harvested
    function pointers), compiled once and cached on disk; falls back to
    ``blas`` per plan when no toolchain is present or a step is outside
    the packer's family table.  The default wherever no backend is
    named (:data:`DEFAULT_BACKEND`).
"""

from __future__ import annotations

from typing import Union

from repro.errors import ExecutionError
from repro.runtime.backends.base import FALLBACK_ROUTINE, Backend, LoweredKernel
from repro.runtime.backends.blas import (
    BLAS_LOWERED_KERNELS,
    BlasBackend,
    blas_available,
)
from repro.runtime.backends.cemit import CEmitBackend, cemit_available
from repro.runtime.backends.reference import REFERENCE_ROUTINE, ReferenceBackend

#: Names accepted wherever a backend is selected (CompileOptions,
#: Dispatcher, ``compile_plan``, ``repro run --backend``).
BACKEND_NAMES = ("reference", "blas", "c")

#: The backend used wherever none is named: native plans, which fall back
#: to ``blas`` per plan (counted) when they cannot be built.
DEFAULT_BACKEND = "c"

_BACKENDS = {
    "reference": ReferenceBackend(),
    "blas": BlasBackend(),
    "c": CEmitBackend(),
}


def get_backend(backend: Union[str, Backend]) -> Backend:
    """Resolve a concrete plan-level backend from a name or instance."""
    if isinstance(backend, Backend):
        return backend
    try:
        return _BACKENDS[backend]
    except (KeyError, TypeError):
        raise ExecutionError(
            f"unknown execution backend {backend!r}; choose one of "
            f"{BACKEND_NAMES}"
        ) from None


__all__ = [
    "BACKEND_NAMES",
    "BLAS_LOWERED_KERNELS",
    "Backend",
    "BlasBackend",
    "CEmitBackend",
    "DEFAULT_BACKEND",
    "FALLBACK_ROUTINE",
    "LoweredKernel",
    "REFERENCE_ROUTINE",
    "ReferenceBackend",
    "blas_available",
    "cemit_available",
    "get_backend",
]

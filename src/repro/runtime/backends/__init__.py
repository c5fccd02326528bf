"""Pluggable execution backends for compiled execution plans.

``reference``
    Today's numpy/scipy kernel substrate — structured products executed
    as dense matmuls, solves through the family solvers.  Bit-identical
    to the pre-backend runtime.
``blas``
    Direct ``scipy.linalg.blas`` / ``scipy.linalg.lapack`` calls with the
    transpose/side/triangularity algebra pre-resolved into routine flags;
    per-kernel reference fallback for configurations BLAS cannot express.
``c``
    Packs each frozen plan into a step record replayed by one prebuilt
    native interpreter (BLAS and LAPACK reached through capsule-harvested
    function pointers), compiled once and cached on disk; falls back to
    ``blas`` per plan when no toolchain is present or a step is outside
    the packer's table.
``auto``
    Not a plan-level backend but a dispatcher strategy: compile a plan
    per concrete backend, micro-benchmark each once per ``(variant,
    sizes)`` memo entry, serve the measured winner.
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

#: Names accepted wherever a backend strategy is selected (CompileOptions,
#: Dispatcher, ``repro run --backend``).
BACKEND_NAMES = ("reference", "blas", "c", "auto")

#: Names that denote a concrete plan-level backend; ``auto`` resolves to
#: one of these per memo entry.
PLAN_BACKEND_NAMES = ("reference", "blas", "c")

_BACKENDS = {
    "reference": ReferenceBackend(),
    "blas": BlasBackend(),
    "c": CEmitBackend(),
}


def get_backend(backend: Union[str, Backend]) -> Backend:
    """Resolve a concrete plan-level backend from a name or instance.

    ``auto`` is deliberately rejected here: it is a dispatcher strategy,
    not something a single plan can be compiled against.
    """
    if isinstance(backend, Backend):
        return backend
    try:
        return _BACKENDS[backend]
    except (KeyError, TypeError):
        raise ExecutionError(
            f"unknown execution backend {backend!r}; plan-level backends are "
            f"{PLAN_BACKEND_NAMES} (the dispatcher additionally accepts 'auto')"
        ) from None


__all__ = [
    "BACKEND_NAMES",
    "BLAS_LOWERED_KERNELS",
    "Backend",
    "BlasBackend",
    "CEmitBackend",
    "FALLBACK_ROUTINE",
    "LoweredKernel",
    "PLAN_BACKEND_NAMES",
    "REFERENCE_ROUTINE",
    "ReferenceBackend",
    "blas_available",
    "cemit_available",
    "get_backend",
]

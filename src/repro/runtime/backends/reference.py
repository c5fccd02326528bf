"""The reference execution backend: the numpy/scipy kernel substrate.

A thin adapter over :func:`repro.kernels.reference.specialize_kernel`,
which lowers each step's :class:`~repro.runtime.executor.StepCall` by its
family: products as full dense matmuls over the stored arrays, solves
through the family solver of
:data:`~repro.kernels.reference.SOLVER_BY_FAMILY`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernels import reference
from repro.runtime.backends.base import Backend, LoweredKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import StepCall

#: Routine label of every reference-lowered kernel.
REFERENCE_ROUTINE = "reference"


class ReferenceBackend(Backend):
    """Lower every kernel to its specialized reference implementation."""

    name = "reference"

    def specialize(self, call: "StepCall") -> LoweredKernel:
        return LoweredKernel(reference.specialize_kernel(call), REFERENCE_ROUTINE)

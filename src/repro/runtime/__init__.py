"""repro.runtime — the run-time half of the generated code (paper Fig. 1).

The paper's product has two halves: compile-time variant generation
(:mod:`repro.compiler`) and the run-time dispatch function that, per
observed instance, picks and runs the cheapest variant.  This package is
that second half, structured for the per-request hot path:

* :mod:`repro.runtime.executor` — the per-step call record
  (:class:`StepCall`), size inference, the fix-up table, the one-shot
  :func:`execute_variant`, and the concrete-operand helpers;
* :mod:`repro.runtime.plan` — :class:`ExecutionPlan`, one ``(variant,
  sizes)`` pair compiled into a replayable loop of pre-resolved kernel
  calls over flat buffer slots (no dict lookups, no re-validation); its
  :meth:`~ExecutionPlan.replay` is the one loop every execution runs;
* :mod:`repro.runtime.dispatcher` — :class:`Dispatcher`, the generated
  dispatch function with a bounded memo keyed on the operand shapes:
  repeated instances skip size inference and the cost sweep and replay
  their compiled plan, making the steady-state per-call path one dict
  probe plus the kernel work itself;
* :mod:`repro.runtime.backends` — pluggable execution backends
  (``reference``, ``blas``, and the native-interpreter ``c`` backend) that
  lower each step's :class:`StepCall` to a direct callable at
  plan-compile time; ``c`` is the default (:data:`DEFAULT_BACKEND`).
"""

from repro.runtime.backends import (
    BACKEND_NAMES,
    BLAS_LOWERED_KERNELS,
    Backend,
    BlasBackend,
    CEmitBackend,
    DEFAULT_BACKEND,
    FALLBACK_ROUTINE,
    LoweredKernel,
    REFERENCE_ROUTINE,
    ReferenceBackend,
    blas_available,
    cemit_available,
    get_backend,
)
from repro.runtime.codegen_cache import (
    CodegenCache,
    configure_codegen_cache,
    get_codegen_cache,
)
from repro.runtime.executor import (
    SizeInferencer,
    StepCall,
    execute_variant,
    expected_stored_shapes,
    infer_sizes,
    naive_evaluate,
    random_instance_arrays,
    random_matrix,
)
from repro.runtime.plan import ExecutionPlan, compile_plan
from repro.runtime.dispatcher import (
    DEFAULT_MEMO_CAPACITY,
    CostEstimator,
    DispatchOutcome,
    Dispatcher,
    flop_estimator,
)

__all__ = [
    "BACKEND_NAMES",
    "BLAS_LOWERED_KERNELS",
    "Backend",
    "BlasBackend",
    "CEmitBackend",
    "CodegenCache",
    "DEFAULT_BACKEND",
    "DEFAULT_MEMO_CAPACITY",
    "CostEstimator",
    "DispatchOutcome",
    "Dispatcher",
    "ExecutionPlan",
    "FALLBACK_ROUTINE",
    "LoweredKernel",
    "REFERENCE_ROUTINE",
    "ReferenceBackend",
    "blas_available",
    "cemit_available",
    "configure_codegen_cache",
    "get_backend",
    "get_codegen_cache",
    "SizeInferencer",
    "StepCall",
    "compile_plan",
    "execute_variant",
    "expected_stored_shapes",
    "flop_estimator",
    "infer_sizes",
    "naive_evaluate",
    "random_instance_arrays",
    "random_matrix",
]

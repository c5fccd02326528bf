"""Compiled execution plans: the run-time half's only kernel-call path.

Everything about running a variant that depends only on the variant —
not on the sizes, not on the arrays — is resolved **once** by
:func:`compile_plan`: every step's call is resolved once into a
:class:`~repro.runtime.executor.StepCall` (kernel family and operand
roles), the backend lowers that record to a direct callable, buffer
references flatten into integer slots of one flat list (inputs first, one
slot per step after), and the fix-up kernels are pre-bound.  Like the
paper's generated code (Fig. 1), a plan is compiled for *symbolic* sizes:
the step callables read their dimensions off the arrays, and a native
plan binds them from the operands' shapes on every call.  The resulting
:class:`ExecutionPlan` replays through one loop,
:meth:`ExecutionPlan.replay`, over pre-resolved ``(impl, left_slot,
right_slot, out_slot)`` tuples — no dict lookups, no dataclass
construction, no re-validation.  The one-shot
:func:`~repro.runtime.executor.execute_variant` is a plan compiled and
executed once.

Plans are immutable and reusable: the memoizing
:class:`~repro.runtime.dispatcher.Dispatcher` compiles at most one per
variant and backend and replays it for every instance that variant wins.

A caller that wants the result in its own buffer passes ``out=``.  A
natively-lowered fix-up-free plan (the ``c`` backend) writes straight
into a conforming ``out`` (float64, C-contiguous, writeable, exactly the
result shape, sharing no memory with an operand); every other replay —
the ``reference`` and ``blas`` step loops, fix-ups, a non-conforming
buffer — computes a fresh result and copies it in.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.backends import Backend, get_backend
from repro.runtime.executor import SizeInferencer, StepCall, resolve_fixup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.variant import Variant

#: One pre-resolved kernel call: specialized implementation (the step's
#: :class:`StepCall` already baked in), operand slots, output slot.
PlanOp = tuple[Callable, int, int, int]


def _resolve_fixups(variant: Variant) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """Pre-bind the final fix-up kernels to direct array callables."""
    state = variant.final_state
    return tuple(
        resolve_fixup(fix.kernel.name, state) for fix in variant.fixups
    )


class ExecutionPlan:
    """One variant compiled down to a replayable loop, for any sizes.

    Construction (via :func:`compile_plan`) resolves every step;
    :meth:`execute` infers and checks the sizes before every replay, and
    :meth:`replay` trusts them (the dispatcher validated them on a miss).

    Plans hold no array state, so one plan may be replayed concurrently
    from many threads.
    """

    __slots__ = (
        "variant",
        "chain",
        "calls",
        "backend",
        "step_routines",
        "_ops",
        "_fixups",
        "_infer",
        "_native",
    )

    def __init__(
        self,
        variant: Variant,
        backend: Union[str, Backend] = "reference",
    ):
        chain = variant.chain
        self.variant = variant
        self.chain = chain
        self._infer = SizeInferencer(chain)

        # Buffer slots: inputs occupy 0..n-1, step i's result lands in
        # slot n + i.  A ("matrix", j) ref resolves to j, ("step", j) to
        # n + j.
        def slot(ref) -> int:
            kind, index = ref
            if kind == "matrix":
                return index
            if kind == "step":
                return chain.n + index
            raise ExecutionError(f"unknown buffer reference {ref!r}")

        resolved = get_backend(backend)
        self.backend: str = resolved.name
        ops: list[PlanOp] = []
        calls: list[StepCall] = []
        routines: list[str] = []
        for step in variant.steps:
            # Roles, transposes and triangularity resolve here, once; the
            # backend bakes the record into the callable.
            call = StepCall.of(step)
            calls.append(call)
            impl, routine = resolved.specialize(call)
            routines.append(routine)
            ops.append(
                (
                    impl,
                    slot(step.left_ref),
                    slot(step.right_ref),
                    chain.n + step.index,
                )
            )
        self.calls: tuple[StepCall, ...] = tuple(calls)
        self.step_routines: tuple[str, ...] = tuple(routines)
        self._ops: tuple[PlanOp, ...] = tuple(ops)
        self._fixups = _resolve_fixups(variant)
        # Whole-plan lowering (the ``c`` backend): one fused native call
        # replacing the step loop on the untimed replay path.  A backend
        # that declines (no toolchain, unsupported step, ...) returns
        # None, and the plan reports the backend it actually runs on.
        self._native = resolved.lower_plan(self)
        if self._native is None and resolved.fallback_name:
            self.backend = resolved.fallback_name

    @property
    def fused(self) -> Optional[Callable]:
        """The fused native call when it alone produces the result (a
        natively lowered plan without fix-ups), else ``None``."""
        return None if self._fixups else self._native

    def execute(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Infer and check the instance sizes (raising as
        :class:`SizeInferencer` does), then replay on the matrices."""
        values = [np.asarray(a, dtype=np.float64) for a in arrays]
        self._infer.infer(values)
        return self.replay(values)

    def replay(
        self,
        values: list[np.ndarray],
        out: Optional[np.ndarray] = None,
        *,
        record: Optional[Callable[[float], None]] = None,
    ) -> np.ndarray:
        """The trusted inner loop: run the pre-resolved kernel sequence.

        ``values`` must be a fresh list of float64 arrays whose stored
        shapes form a valid instance of the chain (the dispatcher's memo
        is keyed on validated shapes); the list is extended in place with
        the intermediate buffers, so the caller must hand over ownership.

        ``out`` receives the final result, which is then returned.  A
        natively-lowered plan without fix-ups writes straight into a
        conforming ``out`` (see the module docstring); otherwise the
        computed result is copied in.

        ``record`` receives one elapsed-seconds value per step, in step
        order — typically a plain ``list.append``, so timing adds two
        clock reads and one C-level append per kernel call; the caller
        feeds its histograms *after* the replay.  A natively-lowered plan
        (the ``c`` backend) runs its fused call only when ``record`` is
        ``None``: per-step timing needs steps, and every native plan also
        carries the blas per-step lowering this loop runs instead.
        """
        result = None
        if self._native is not None and record is None:
            # The fused native call manages its own intermediates.  With
            # fix-ups its output is an intermediate too, not the result
            # ``out`` asks for.
            native_out = None if self._fixups else out
            result = self._native(values, native_out)
            if result is None:
                # Declined: an operand is not a C-contiguous float64
                # matrix.  Its C-ordered copy is the one copy such callers
                # pay, where the blas lowering pays np.asfortranarray.
                result = self._native(
                    [np.ascontiguousarray(v) for v in values], native_out
                )
        if result is None:
            values.extend([None] * len(self._ops))
            for impl, left, right, slot in self._ops:
                if record is not None:
                    start = time.perf_counter()
                result = impl(values[left], values[right])
                if record is not None:
                    record(time.perf_counter() - start)
                values[slot] = result
            if result is None:  # single-matrix chain: fix-ups do all the work
                result = values[0]
                if not self._fixups and out is None:
                    # Never alias the caller's operand: without a fix-up
                    # to produce a fresh array, hand back a private copy.
                    result = result.copy()
        for fixup in self._fixups:
            result = fixup(result)
        if out is not None and result is not out:
            np.copyto(out, result)
            result = out
        return result

    __call__ = execute

    def describe(self) -> str:
        lines = [
            f"execution plan for {self.variant.name or '<anonymous>'} "
            f"[backend={self.backend}]"
        ]
        if self._native is not None:
            lines.append(
                "  native: fused step-interpreter call (replay path)"
            )
        for step, (_, left, right, out), routine in zip(
            self.variant.steps, self._ops, self.step_routines
        ):
            lines.append(
                f"  slot[{out}] := {step.kernel.name}"
                f"(slot[{left}], slot[{right}], side={step.side})"
                f" -> {routine}"
            )
        for fixup in self._fixups:
            lines.append(f"  finalize: {getattr(fixup, '__name__', 'fixup')}")
        return "\n".join(lines)


def compile_plan(
    variant: Variant,
    sizes: Sequence[int],
    backend: Union[str, Backend] = "reference",
) -> ExecutionPlan:
    """Validate ``sizes`` and compile the variant's :class:`ExecutionPlan`."""
    variant.chain.validate_sizes(sizes)
    return ExecutionPlan(variant, backend=backend)

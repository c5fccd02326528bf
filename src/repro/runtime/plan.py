"""Compiled execution plans: the run-time half's only kernel-call path.

Everything about running a variant that depends only on ``(variant,
sizes)`` — not on the arrays — is resolved **once** by
:func:`compile_plan`: every step's call is resolved once into a
:class:`~repro.runtime.executor.StepCall` (kernel family and operand
roles), the backend lowers that record to a direct callable, buffer references flatten into integer slots
of one flat list (inputs first, one slot per step after), the fix-up
kernels are pre-bound, and the stored shapes the instance expects are
recorded.  The resulting :class:`ExecutionPlan` replays through one loop,
:meth:`ExecutionPlan.replay`, over pre-resolved ``(impl, impl_out,
left_slot, right_slot, out_slot)`` tuples — no dict lookups, no dataclass
construction, no re-validation.  The one-shot
:func:`~repro.runtime.executor.execute_variant` is a plan compiled and
replayed once.

Plans are immutable and reusable: the memoizing
:class:`~repro.runtime.dispatcher.Dispatcher` compiles one per observed
size vector and replays it for every later instance with the same sizes.

Warm replays can additionally run **allocation-free**: a
:class:`PlanArena` pre-allocates the plan's intermediate step buffers
(shapes recorded on the first replay), and backends that implement
:meth:`~repro.runtime.backends.Backend.specialize_out` write each step
straight into its arena slot instead of ``np.empty``-ing a fresh array
per kernel call.  The *final* result is deliberately never arena-backed —
it escapes to the caller, and an arena-owned result would be overwritten
by the next replay — so a caller chasing zero allocations passes its own
``out=`` buffer.  Arenas hold mutable array state and are therefore
*not* shareable across concurrent replays; the dispatcher pools them
with per-replay checkout.
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.backends import Backend, get_backend
from repro.runtime.executor import (
    StepCall,
    expected_stored_shapes,
    resolve_fixup,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.variant import Variant

#: One pre-resolved kernel call: specialized implementation (the step's
#: :class:`StepCall` already baked in), its optional out-parameter form
#: (``impl_out(left, right, out) -> out``, ``None`` where the backend
#: cannot write in place for this kernel/config), operand slots, output
#: slot.
PlanOp = tuple[Callable, Optional[Callable], int, int, int]


class PlanArena:
    """Pre-allocated intermediate buffers for one plan's warm replays.

    One buffer per step that (a) is not the final step — the result
    escapes to the caller and must never be arena-owned — and (b) has an
    out-parameter kernel implementation to write into it; every other
    slot stays ``None`` and its step allocates normally.  An arena is
    mutable shared state: it must back at most one replay at a time (the
    dispatcher enforces this by pooling arenas with per-replay checkout).
    """

    __slots__ = ("buffers", "nbytes")

    def __init__(self, plan: "ExecutionPlan"):
        shapes = plan._step_shapes
        if shapes is None:
            raise ExecutionError(
                "plan has no recorded buffer shapes yet; replay it once "
                "before building an arena"
            )
        last = len(shapes) - 1
        self.buffers: list[Optional[np.ndarray]] = [
            np.empty(shape, dtype=np.float64)
            if index != last and plan._ops[index][1] is not None
            else None
            for index, shape in enumerate(shapes)
        ]
        self.nbytes = sum(b.nbytes for b in self.buffers if b is not None)


def _resolve_fixups(variant: Variant) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """Pre-bind the final fix-up kernels to direct array callables."""
    state = variant.final_state
    return tuple(
        resolve_fixup(fix.kernel.name, state) for fix in variant.fixups
    )


class ExecutionPlan:
    """One variant, one instance size, compiled down to a replayable loop.

    Construction (via :func:`compile_plan`) validates the size vector and
    resolves every step; :meth:`execute` then trusts its inputs by default
    — the caller (the dispatcher) has already inferred the sizes from the
    arrays, which guarantees the stored shapes match :attr:`expected_shapes`.
    Pass ``check_shapes=True`` to re-assert that explicitly (the first-run
    or untrusted-caller path).

    Plans hold no array state, so one plan may be replayed concurrently
    from many threads.
    """

    __slots__ = (
        "variant",
        "chain",
        "sizes",
        "expected_shapes",
        "calls",
        "backend",
        "step_routines",
        "_ops",
        "_fixups",
        "_num_inputs",
        "_native",
        "_step_shapes",
        "_result_shape",
    )

    def __init__(
        self,
        variant: Variant,
        sizes: Sequence[int],
        backend: Union[str, Backend] = "reference",
    ):
        chain = variant.chain
        q = chain.validate_sizes(sizes)
        self.variant = variant
        self.chain = chain
        self.sizes: tuple[int, ...] = q
        self.expected_shapes: tuple[tuple[int, int], ...] = tuple(
            expected_stored_shapes(chain, q)
        )
        self._num_inputs = chain.n

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
                    resolved.specialize_out(call),
                    slot(step.left_ref),
                    slot(step.right_ref),
                    chain.n + step.index,
                )
            )
        self.calls: tuple[StepCall, ...] = tuple(calls)
        self.step_routines: tuple[str, ...] = tuple(routines)
        self._ops: tuple[PlanOp, ...] = tuple(ops)
        self._fixups = _resolve_fixups(variant)
        # Step-output shapes, recorded from the first completed replay
        # (record_buffer_shapes); None until then, which keeps new_arena
        # answering None — "warm" is exactly "replayed at least once".
        self._step_shapes: Optional[tuple[tuple[int, ...], ...]] = None
        self._result_shape: Optional[tuple[int, ...]] = None
        # Whole-plan lowering (the ``c`` backend): one fused native call
        # replacing the step loop on the untimed replay path.  A backend
        # that declines (no toolchain, unsupported step, ...) returns
        # None, and the plan reports the backend it actually runs on.
        self._native = resolved.lower_plan(self)
        if self._native is None and resolved.fallback_name:
            self.backend = resolved.fallback_name

    def validate(self, arrays: Sequence[np.ndarray]) -> None:
        """Assert the stored arrays match this plan's instance shapes."""
        if len(arrays) != self._num_inputs:
            raise ExecutionError(
                f"expected {self._num_inputs} arrays for chain {self.chain}, "
                f"got {len(arrays)}"
            )
        for i, (array, shape) in enumerate(zip(arrays, self.expected_shapes)):
            if array.shape != shape:
                raise ExecutionError(
                    f"operand {i}: expected stored shape {shape}, "
                    f"got {array.shape}"
                )

    def execute(
        self, arrays: Sequence[np.ndarray], check_shapes: bool = False
    ) -> np.ndarray:
        """Replay the compiled kernel sequence on concrete matrices."""
        values = [np.asarray(a, dtype=np.float64) for a in arrays]
        if check_shapes:
            self.validate(values)
        elif len(values) != self._num_inputs:
            raise ExecutionError(
                f"expected {self._num_inputs} arrays for chain {self.chain}, "
                f"got {len(values)}"
            )
        return self.replay(values)

    def replay(
        self,
        values: list[np.ndarray],
        arena: Optional[PlanArena] = None,
        out: Optional[np.ndarray] = None,
        *,
        record: Optional[Callable[[float], None]] = None,
    ) -> np.ndarray:
        """The trusted inner loop: run the pre-resolved kernel sequence.

        ``values`` must be a fresh list of float64 arrays matching
        :attr:`expected_shapes` in stored order (the dispatcher guarantees
        this via size inference); the list is extended in place with the
        intermediate buffers, so the caller must hand over ownership.

        ``arena`` (built by :meth:`new_arena`) supplies pre-allocated
        intermediate buffers — steps with an out-parameter implementation
        write into their slot instead of allocating; the arena must not
        back another replay concurrently.  ``out`` receives the final
        result: on a fixup-free plan the last step writes straight into
        it (``out`` must not alias any operand and must match the result
        shape), otherwise the computed result is copied in.

        ``record`` receives one elapsed-seconds value per step, in step
        order — typically a plain ``list.append``, so timing adds two
        clock reads and one C-level append per kernel call; the caller
        feeds its histograms *after* the replay.  A natively-lowered plan
        (the ``c`` backend) runs its fused call only when ``record`` is
        ``None``: per-step timing needs steps, and every native plan also
        carries the blas per-step lowering this loop runs instead.
        """
        if self._native is not None and record is None:
            # The fused native call manages its own intermediates (arenas
            # never exist for it: new_arena answers None).
            result = self._native(values)
        else:
            ops = self._ops
            if arena is None and out is None:
                targets = repeat(None)
            else:
                # Per-step out-parameter buffers (None: the step allocates).
                # Arena slots exist only where the step has an impl_out.
                targets = (
                    list(arena.buffers) if arena is not None else [None] * len(ops)
                )
                if out is not None and not self._fixups and ops[-1:] and (
                    ops[-1][1] is not None
                ):
                    targets[-1] = out  # the last step writes the result
            values.extend([None] * len(ops))
            result = None
            for (impl, impl_out, left, right, slot), target in zip(ops, targets):
                if record is not None:
                    start = time.perf_counter()
                if target is None:
                    result = impl(values[left], values[right])
                else:
                    result = impl_out(values[left], values[right], target)
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

    # -- warm-replay buffer reuse --------------------------------------------

    @property
    def result_shape(self) -> Optional[tuple[int, ...]]:
        """The final result's shape (after fix-ups), known once the plan
        has replayed at least once — what a caller pre-allocates ``out``
        with."""
        return self._result_shape

    def record_buffer_shapes(
        self, values: Sequence[Optional[np.ndarray]], result: np.ndarray
    ) -> None:
        """Record step-output shapes from a completed replay.

        ``values`` is the list :meth:`replay` extended in place (inputs
        followed by one step output per op) and ``result`` the value it
        returned.  Idempotent, and benign under a race — concurrent
        replays of the same plan record identical shapes.
        """
        if self._step_shapes is not None or self._native is not None:
            return
        outputs = values[self._num_inputs :]
        if len(outputs) != len(self._ops) or any(v is None for v in outputs):
            return
        self._result_shape = tuple(result.shape)
        self._step_shapes = tuple(tuple(v.shape) for v in outputs)

    def new_arena(self) -> Optional[PlanArena]:
        """A fresh intermediate-buffer arena, or ``None`` when one cannot
        help: shapes not yet recorded (no replay yet), a natively-lowered
        plan, or no step with both an arena slot and an out-parameter
        kernel."""
        if self._step_shapes is None or self._native is not None:
            return None
        arena = PlanArena(self)
        if not any(b is not None for b in arena.buffers):
            return None
        return arena

    __call__ = execute

    def describe(self) -> str:
        lines = [
            f"execution plan for {self.variant.name or '<anonymous>'} "
            f"at q={list(self.sizes)} [backend={self.backend}]"
        ]
        if self._native is not None:
            lines.append(
                "  native: fused step-interpreter call (replay path)"
            )
        for step, (_, _, left, right, out), routine in zip(
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
    """Compile ``(variant, sizes)`` into a replayable :class:`ExecutionPlan`."""
    return ExecutionPlan(variant, sizes, backend=backend)

"""The execution-backend strategy interface.

A :class:`Backend` decides *how* a frozen kernel call executes: given a
step's :class:`~repro.runtime.executor.StepCall` — the one record of its
kernel family and operand roles, resolved once at plan-compile time — it
returns a :class:`LoweredKernel`: a direct ``(left, right) -> result``
callable plus the name of the routine the call lowered to.
:class:`~repro.runtime.plan.ExecutionPlan` first offers its backend the
whole plan (:meth:`Backend.lower_plan`); only when that declines does it
ask once per step and replay the returned callables.  The backend never
sees per-call state, so one lowered kernel may serve concurrent replays.

Three backends ship: ``reference`` (the numpy/scipy reference
implementations, structured operands executed densely), ``blas``
(:mod:`repro.runtime.backends.blas`, direct ``scipy.linalg.blas`` /
``lapack`` calls with the structure flags pre-resolved), and ``c``
(:mod:`repro.runtime.backends.cemit`, whole plans packed into step
records for one native interpreter).  All three key their lowerings by
the record's family; each keeps its own physical layout algebra.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import StepCall
    from repro.runtime.plan import ExecutionPlan

#: Routine label of a kernel the backend could not lower and delegated to
#: the reference implementation instead.
FALLBACK_ROUTINE = "reference fallback"


class LoweredKernel(NamedTuple):
    """One resolved kernel call, lowered."""

    #: Direct ``(stored_left, stored_right) -> result`` callable.
    impl: Callable[[np.ndarray, np.ndarray], np.ndarray]
    #: Human-readable routine the call lowered to (``"dgemm"``,
    #: ``"dtrmm"``, ..., ``"reference"``, or :data:`FALLBACK_ROUTINE`).
    routine: str


class Backend(ABC):
    """Strategy that lowers frozen kernel calls to executable routines."""

    #: The registry name (``"reference"``, ``"blas"``, or ``"c"``).
    name: str = ""

    #: Backend name a plan should *report* when :meth:`lower_plan`
    #: declines — ``None`` for backends whose per-step lowering is the
    #: whole story.
    fallback_name: Optional[str] = None

    @abstractmethod
    def specialize(self, call: "StepCall") -> LoweredKernel:
        """Lower one resolved kernel call.

        Must never raise for a family the reference substrate implements:
        calls the backend cannot express are returned as a
        reference-implementation :class:`LoweredKernel` labelled
        :data:`FALLBACK_ROUTINE`, keeping plan compilation total.
        """

    def lower_plan(
        self, plan: "ExecutionPlan"
    ) -> Optional[Callable[..., np.ndarray]]:
        """Optionally lower a *whole* plan to one fused callable.

        Called once at plan-compile time, before any per-step lowering:
        :meth:`specialize` runs only when this declines.  Plans are per
        variant: the callable binds the sizes per call.  A returned
        ``(values, out, record) -> result`` callable, with a ``routines``
        tuple naming each step's routine, is the plan's only
        :meth:`~repro.runtime.plan.ExecutionPlan.replay` path (fix-ups
        still run in Python afterwards).  It may write the result into
        ``out`` (``None`` when the caller supplied none) or return a fresh
        array, which replay copies into ``out``; ``record`` (or ``None``)
        receives one duration per step.  A call that returns ``None`` is
        retried once on C-ordered operand copies.  Returning ``None`` here
        — the default — lowers the plan step by step, and the plan reports
        :attr:`fallback_name` as its backend when set.  Implementations
        must degrade by returning ``None``, never by raising.
        """
        return None

    def prepare(self) -> None:
        """Start, in the background, any one-time work the first lowered
        plan will need; called when a dispatcher binds this backend.
        Must return at once and never raise.  The default does nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

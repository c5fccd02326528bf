"""The run-time dispatch function (paper Fig. 1), as a memoizing runtime.

At run time, the application calls the dispatch function with concrete
matrices.  The dispatcher evaluates the cost function of every generated
variant on the observed sizes and passes control to the cheapest one.

The cost function is pluggable: by default it is the FLOP cost; the
execution-time experiment plugs in performance-model estimates instead
(Section VII-B).

What makes this a *runtime* rather than a per-call recomputation:

* the flattened cost-term stack of the variant pool is built once and
  keyed on the **identity** of the pool (so in-place replacement of the
  list, even at the same length, rebuilds it);
* every dispatch decision is memoized in a bounded map from the operand
  **shapes** to ``(sizes, variant, cost)``, evicted by CLOCK (second
  chance: a hit sets the entry's reference bit, eviction under the lock
  spares a referenced entry once) — a service answering repeated
  instances of the same sizes pays one cost sweep, then amortized O(1)
  per call.  Plans are per variant, as in the paper's generated code:
  each variant is lowered once per backend, on its first win, to an
  :class:`~repro.runtime.plan.ExecutionPlan` that binds the sizes at call
  time, so plan memory is bounded by the pool, not by the sizes seen;
* a warm :meth:`Dispatcher.run` on the ``c`` backend is one native call.
  The memo is the interpreter's table: an entry whose variant's plan is
  one fused native call carries its packed ``record``.  The interpreter's
  ``run`` (``step_interp.c``) receives the memo itself, builds the shape
  key from the operands' buffers, binds the entry's record's sizes from
  them, replays it, sets the entry's reference bit and logs the call in
  C.  It declines — and the Python path below runs — for anything else:
  another backend, an entry without a record (fix-ups, a blas fallback,
  a decision not replayed since it changed), tracing on, an operand that
  is not a C-contiguous float64 matrix, an unseen shape, a
  non-conforming ``out``, a pool mutated in place, a full log;
* the Python path is one dict probe on the shape tuple, one replay of the
  variant's compiled :class:`~repro.runtime.plan.ExecutionPlan` (kernel
  implementations, per-step call records, and buffer slots pre-resolved)
  and one append to the execution log.  Shapes are validated by size
  inference on the miss that stores an entry; the stored-shape map is
  one-to-one on valid size vectors, so a hit on the same shapes needs
  neither inference nor any re-check.  Size-keyed callers
  (:meth:`~Dispatcher.select`, :meth:`~Dispatcher.plan_for`) derive the
  same key from validated sizes.  A record is set under the lock, only
  while its entry still names the plan's variant, and a re-selection or
  backend swap clears it: what the memo no longer holds, or holds
  changed, is never served natively;
* both paths log one ``(end stamp, elapsed, tag)`` float64 record per
  execution, the tag saying whether the call was a memo hit and whether
  its plan ran on the backend or on its fallback.  Hit count,
  per-backend executions, the latest replay time and the
  ``runtime.execute_seconds`` histogram are folded from it under the
  lock in batches, and before every read
  (:meth:`~Dispatcher.memo_stats`, :func:`runtime_snapshot`, the registry
  snapshot), so the counts are exact whenever they are read.

The memo is invalidated by reassigning :attr:`Dispatcher.variants`,
mutating the variant list in place, or swapping
:attr:`Dispatcher.cost_estimator`.  Memo bookkeeping is guarded by a
lock, so one dispatcher may serve many threads (plans themselves are
stateless and replay concurrently; a hit reads the memo without it).

Dispatch can additionally be *feedback-directed*: with ``reselect_ratio``
set, every memoized decision tracks its measured replay time (an EMA),
and at exponentially-backed-off checkpoints the dispatcher refreshes the
calibrated model (:class:`~repro.perfmodel.feedback.CalibratedEstimator`)
and re-sweeps the pool under it.  The entry's variant is swapped in place
when the calibrated winner differs and the measurement disagrees with
the prediction — or the calibrated winner undercuts the current variant
— by at least the ratio.  A selection the analytic FLOP model got wrong
on this machine thereby corrects itself from live traffic, while the hot
path stays amortized O(1) (one integer compare per call between
checkpoints; sweeps are logarithmic in an entry's executions).
"""

from __future__ import annotations

import struct
import threading
import time
import weakref
from array import array
from collections import OrderedDict
from operator import is_not
from typing import (
    TYPE_CHECKING,
    Callable,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.errors import DispatchError
from repro.ir.chain import Chain
from repro.obs import Histogram, get_registry
from repro.obs import trace as obs_trace
from repro.runtime.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    Backend,
    get_backend,
)
from repro.runtime.backends.cemit import NativePlan
from repro.runtime.executor import SizeInferencer, call_operands
from repro.runtime.plan import ExecutionPlan, compile_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.variant import Variant

#: Maps (variant, sizes) to an estimated cost; lower is better.
CostEstimator = Callable[["Variant", Sequence[int]], float]

#: Default bound on memoized size vectors per dispatcher.
DEFAULT_MEMO_CAPACITY = 512

#: Retired strategy names still read as input, and the backend each
#: now means (``auto`` artifacts predate ``c`` becoming the default).
_LEGACY_BACKENDS = {"auto": "c"}

#: Executions of a memo entry before its first measured-vs-predicted
#: disagreement check (subsequent checks back off exponentially).
DEFAULT_RESELECT_MIN_EXECUTIONS = 8

#: EMA weight of the freshest measured replay time in an entry's estimate.
MEASURED_EMA_WEIGHT = 0.3

#: The operand dtype, as an instance: ``np.asarray`` resolves a dtype
#: object faster than the scalar type it stands for.
_FLOAT64 = np.dtype(np.float64)

#: Logged executions that trigger a fold into the counters and histogram
#: (reads fold whatever is pending first, so this only bounds the log).
#: The interpreter declines warm calls at the same bound.
EXECUTION_LOG_BATCH = 256

#: One execution-log record, ``(end stamp, elapsed seconds, tag)``: the
#: tag is :data:`_HIT` for a memo hit, plus :data:`_FALLBACK` when the
#: plan ran on the backend's ``fallback_name``.
_RECORD = struct.Struct("3d")
_HIT, _FALLBACK = 1, 2
_LOG_BYTES = EXECUTION_LOG_BATCH * _RECORD.size


def flop_estimator(variant: Variant, sizes: Sequence[int]) -> float:
    """The default cost estimator: analytic FLOP count."""
    return variant.flop_cost(sizes)


#: Live dispatchers, aggregated by the process-wide ``runtime`` collector.
_DISPATCHERS: "weakref.WeakSet[Dispatcher]" = weakref.WeakSet()
_DISPATCHERS_LOCK = threading.Lock()


def runtime_snapshot() -> dict[str, object]:
    """Aggregate memo/execution state across every live dispatcher.

    Mounted on the global registry as the ``runtime`` collector scope, so
    one ``stats`` call sees hit rates and per-backend execution counts for
    the whole process without enumerating dispatchers by hand.
    """
    with _DISPATCHERS_LOCK:
        dispatchers = list(_DISPATCHERS)
    agg: dict[str, object] = {
        "dispatchers": len(dispatchers),
        "memo_entries": 0,
        "memo_hits": 0,
        "memo_misses": 0,
        "memo_evictions": 0,
        "reselect_checks": 0,
        "reselections": 0,
        "executions": {},
        "last_execute_seconds": None,
    }
    executions: dict[str, int] = agg["executions"]  # type: ignore[assignment]
    latest = -1.0
    for dispatcher in dispatchers:
        stats = dispatcher.memo_stats()
        agg["memo_entries"] += stats["entries"]
        agg["memo_hits"] += stats["hits"]
        agg["memo_misses"] += stats["misses"]
        agg["memo_evictions"] += stats["evictions"]
        agg["reselect_checks"] += stats["reselect_checks"]
        agg["reselections"] += stats["reselections"]
        for name, count in stats["executions"].items():
            executions[name] = executions.get(name, 0) + count
        stamp = dispatcher.last_execute_at
        if stamp is not None and stamp > latest:
            latest = stamp
            agg["last_execute_seconds"] = stats["last_execute_seconds"]
    return agg


get_registry().register_collector("runtime", runtime_snapshot)


def _execute_histogram(hists: dict[str, Histogram], backend: str) -> Histogram:
    histogram = hists.get(backend)
    if histogram is None:
        histogram = hists[backend] = get_registry().histogram(
            "runtime.execute_seconds", backend=backend
        )
    return histogram


def _drain_log(log: bytearray, hists: dict[str, Histogram], labels: list[str]):
    """Pop every logged execution (:data:`_RECORD`) and feed its elapsed
    time to the ``runtime.execute_seconds`` histogram of the backend it
    ran on — ``labels`` names the dispatcher's backend, then its
    fallback — one batch per backend.  Returns the hits among them, the
    executions per label, and the latest ``(end stamp, elapsed)`` or None.

    Also the finalizer of a dispatcher's log, so executions it had not
    folded yet still reach the histograms.
    """
    records = array("d", log)
    del log[: records.itemsize * len(records)]
    if not records:
        return 0, (0, 0), None
    table = np.frombuffer(records).reshape(-1, 3)
    tags = table[:, 2].astype(np.intp)
    fallback = tags >= _FALLBACK
    counts = []
    for label, elapsed in zip(labels, (table[~fallback, 1], table[fallback, 1])):
        if elapsed.size:
            _execute_histogram(hists, label).observe_many(elapsed.tolist())
        counts.append(elapsed.size)
    end, elapsed = table[table[:, 0].argmax()].tolist()[:2]
    return int((tags & _HIT).sum()), counts, (end, elapsed)


class DispatchOutcome(NamedTuple):
    """Everything one dispatched execution produced (see :meth:`Dispatcher.run`)."""

    sizes: tuple[int, ...]
    variant: Variant
    cost: float
    result: np.ndarray


class _MemoEntry:
    """One memoized dispatch decision.

    Holds the winning variant *object* (not an index into the mutable
    pool), so a stale entry can never index out of a reassigned list,
    and the validated size vector its shape key was derived from.  The
    variant's plan lives in the dispatcher, shared by every entry it wins;
    ``record`` is that plan's packed native record when the interpreter
    may serve the entry (see the module docstring), else None.
    """

    __slots__ = (
        "sizes",
        "referenced",
        "variant",
        "cost",
        "record",
        "kernel_hists",
        "executions",
        "measured_ema",
        "next_check",
    )

    def __init__(self, variant: "Variant", cost: float, sizes: tuple[int, ...]):
        self.sizes = sizes
        #: CLOCK reference bit: set by every hit, cleared by an eviction
        #: sweep that spares the entry once.
        self.referenced = False
        self.reset(variant, cost)

    def reset(self, variant: "Variant", cost: float) -> None:
        """Bind the entry to a decision and drop everything derived from
        the previous one or measured on its plan: the native record,
        traced-replay observers and feedback bookkeeping."""
        self.variant = variant
        self.cost = cost
        self.record: Optional[bytes] = None
        #: Traced-replay observers, built lazily on the first traced
        #: execution: one ``(observe_seconds, observe_rate, step_flops)``
        #: triple per plan step.
        self.kernel_hists: Optional[
            tuple[tuple[Callable[[float], None], Callable[[float], None], float], ...]
        ] = None
        #: Feedback bookkeeping (re-selection): replays of this entry,
        #: EMA of measured replay seconds, next disagreement checkpoint.
        self.executions = 0
        self.measured_ema: Optional[float] = None
        self.next_check = 0


class Dispatcher:
    """Multi-versioned evaluator for one chain shape.

    This object plays the role of the generated dispatch function: it owns
    the ``k`` generated variants (with their cost functions) and, per call,
    selects and executes the best variant for the observed matrix sizes.
    Repeated instances of the same sizes bypass the cost sweep entirely
    through the shape-keyed memo (see the module docstring).

    ``memo_capacity`` bounds the memo (CLOCK eviction); ``0`` disables
    memoization, restoring a full cost sweep per call.

    ``backend`` is a registered backend name (``reference``/``blas``/
    ``c``, by default ``c``, which falls back to ``blas`` per plan when it
    cannot build native code) or a concrete
    :class:`~repro.runtime.backends.Backend` instance (synthetic machines
    in benchmarks, custom lowerings).  The retired strategy name ``auto``
    is read as ``c``.  Binding a backend, here or through the
    :attr:`backend` setter, calls its
    :meth:`~repro.runtime.backends.Backend.prepare`: for ``c``, the
    interpreter starts building in the background if the codegen
    directory lacks it, and the first plan joins that build.

    ``reselect_ratio`` enables feedback-directed re-selection (module
    docstring): a memo entry whose measured replay time disagrees with
    the calibrated prediction by at least this factor (e.g. ``2.0``) —
    or which the calibrated sweep undercuts by it — is re-selected under
    ``calibration`` — by default the process-wide
    :func:`~repro.perfmodel.feedback.get_default_estimator`, or the
    dispatcher's own cost estimator when that is already calibrated.
    Checks start after ``reselect_min_executions`` replays of an entry
    and back off exponentially.
    """

    def __init__(
        self,
        chain: Chain,
        variants: Sequence[Variant],
        cost_estimator: CostEstimator = flop_estimator,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        backend: Union[str, Backend] = DEFAULT_BACKEND,
        calibration: Optional[CostEstimator] = None,
        reselect_ratio: Optional[float] = None,
        reselect_min_executions: int = DEFAULT_RESELECT_MIN_EXECUTIONS,
    ):
        if not variants:
            raise DispatchError("a dispatcher needs at least one variant")
        for variant in variants:
            if variant.chain is not chain and variant.chain != chain:
                raise DispatchError(
                    f"variant {variant.name!r} was built for a different chain"
                )
        if memo_capacity < 0:
            raise DispatchError("memo_capacity must be >= 0")
        if reselect_ratio is not None and reselect_ratio <= 1.0:
            raise DispatchError("reselect_ratio must be > 1.0")
        if reselect_min_executions < 1:
            raise DispatchError("reselect_min_executions must be >= 1")
        self.chain = chain
        self.memo_capacity = memo_capacity
        self._infer = SizeInferencer(chain)
        # memo_hits, backend_executions and last_execute_* trail the
        # execution log until its next fold; memo_stats() folds first.
        self.memo_hits = 0  #: dispatch decisions answered from the memo
        self.memo_misses = 0  #: dispatch decisions that paid a cost sweep
        self.memo_evictions = 0  #: memo entries dropped by the capacity bound
        #: executed instances per concrete plan backend (a ``c`` plan that
        #: fell back counts as ``blas``; see :meth:`memo_stats`)
        self.backend_executions: dict[str, int] = {}
        #: wall-clock seconds of the most recent run()/execute_many replay
        self.last_execute_seconds: Optional[float] = None
        #: ``time.perf_counter`` stamp of that replay's end (lets
        #: aggregators order "most recent" across dispatchers); None until
        #: the first one
        self.last_execute_at: Optional[float] = None
        #: operand-shape tuple -> decision (see the module docstring)
        self._memo: OrderedDict[tuple[tuple[int, int], ...], _MemoEntry] = OrderedDict()
        self._memo_lock = threading.Lock()
        #: ``id(variant)`` -> its plan on the current backend (module doc).
        self._lowered: dict[int, ExecutionPlan] = {}
        #: The interpreter's entry that serves the memo's native records,
        #: set with the first of them on the current backend.
        self._native_run: Optional[Callable] = None
        #: Executions not yet folded (:data:`_RECORD` each; see
        #: :meth:`_fold_log`).
        self._log = bytearray()
        self._pool_snapshot: Optional[tuple[Variant, ...]] = None
        self._term_stack = None
        self.variants = list(variants)  # via the setter: resets the caches
        self._cost_estimator = cost_estimator
        self._backend = self.resolve_backend(backend)
        resolved = get_backend(self._backend)
        #: The backend labels a log record's tag selects: the backend's,
        #: then its fallback's (its own when it has none).  Updated in
        #: place on a swap: the log's finalizer holds this list.
        self._labels = [resolved.name, resolved.fallback_name or resolved.name]
        resolved.prepare()
        self.reselect_checks = 0  #: disagreement checkpoints evaluated
        self.reselections = 0  #: memo entries swapped by feedback
        self._reselect_ratio = (
            float(reselect_ratio) if reselect_ratio is not None else None
        )
        self._reselect_min = int(reselect_min_executions)
        if calibration is None and getattr(cost_estimator, "calibrated", False):
            calibration = cost_estimator
        if calibration is None and self._reselect_ratio is not None:
            from repro.perfmodel.feedback import get_default_estimator

            calibration = get_default_estimator()
        self._calibration = calibration
        #: Per-backend execute-time Histogram cache (the registry lookup
        #: formats a key and takes the registry lock).
        self._exec_hists: dict[str, Histogram] = {}
        # Executions still logged when the dispatcher dies reach the
        # process-wide histograms anyway.
        weakref.finalize(
            self, _drain_log, self._log, self._exec_hists, self._labels
        ).atexit = False
        with _DISPATCHERS_LOCK:
            _DISPATCHERS.add(self)

    # -- pool and estimator bookkeeping --------------------------------------

    @property
    def variants(self) -> list["Variant"]:
        return self._variants

    @variants.setter
    def variants(self, value: Sequence["Variant"]) -> None:
        self._variants = list(value)
        self._invalidate()

    @property
    def cost_estimator(self) -> CostEstimator:
        return self._cost_estimator

    @cost_estimator.setter
    def cost_estimator(self, value: CostEstimator) -> None:
        # Memoized decisions embed the old estimator's costs and winners;
        # swapping the estimator (e.g. FLOPs -> performance model) must
        # drop them.  The term stack only serves the FLOP fast path and
        # stays valid for the same pool.
        self._cost_estimator = value
        if getattr(value, "calibrated", False):
            self._calibration = value
        with self._memo_lock:
            self._memo.clear()

    @property
    def calibration(self) -> Optional[CostEstimator]:
        """The estimator feedback re-selection sweeps under (if enabled)."""
        return self._calibration

    @staticmethod
    def resolve_backend(backend: Union[str, Backend]) -> Union[str, Backend]:
        """The backend a dispatcher built with ``backend`` runs on: the
        instance or registered name itself, a retired name mapped to its
        replacement; an unknown name raises :class:`DispatchError`."""
        if isinstance(backend, Backend):
            return backend
        backend = _LEGACY_BACKENDS.get(backend, backend)
        if backend not in BACKEND_NAMES:
            raise DispatchError(
                f"unknown execution backend {backend!r}; "
                f"choose one of {BACKEND_NAMES}"
            )
        return backend

    @property
    def backend(self) -> Union[str, Backend]:
        """The execution-backend strategy (name or Backend instance)."""
        return self._backend

    @backend.setter
    def backend(self, value: Union[str, Backend]) -> None:
        value = self.resolve_backend(value)
        if value == self._backend:
            return
        resolved = get_backend(value)
        # Memoized *decisions* (variant + cost) are backend-independent;
        # only the compiled plans and what was measured on them are stale.
        # Keep the selections warm and recompile plans lazily under the
        # new backend (which drops the entries' native records), after the
        # executions logged so far are folded under the backend that ran
        # them.
        with self._memo_lock:
            self._fold_log()
            self._backend = value
            self._labels[:] = [resolved.name, resolved.fallback_name or resolved.name]
            self._lowered = {}
            for entry in self._memo.values():
                entry.reset(entry.variant, entry.cost)
            self._native_run = None
        resolved.prepare()

    def _invalidate(self) -> None:
        with self._memo_lock:
            self._pool_snapshot = tuple(self._variants)
            self._term_stack = None
            self._lowered = {}
            self._memo.clear()

    def _sync_pool(self) -> tuple["Variant", ...]:
        """The coherent pool snapshot, invalidating stale caches first.

        Reassigning ``self.variants`` resets eagerly (the setter); this
        guard additionally catches *in-place* mutation of the list —
        including same-length replacement, which a length check would
        miss — by comparing element identity against the snapshot the
        caches were built for.  Callers evaluate and index the returned
        snapshot tuple (never ``self._variants`` directly), and every
        cache write is gated on the snapshot still being current, so a
        concurrent pool swap can at worst waste a sweep — it can never
        persist a decision computed against the old pool.
        """
        pool = self._variants
        snapshot = self._pool_snapshot
        if (
            snapshot is None
            or len(snapshot) != len(pool)
            or any(map(is_not, pool, snapshot))
        ):
            self._invalidate()
            snapshot = self._pool_snapshot
        return snapshot

    # -- cost evaluation ------------------------------------------------------

    def cost_matrix(self, instances, *, validate: bool = True) -> np.ndarray:
        """Estimated costs of every variant on every instance, batched.

        ``instances`` is one size vector or an ``(count, n+1)`` array; the
        result has shape ``(num_variants, count)``.  With ``validate``
        (the default) every row is checked against the chain, in one
        numpy pass (:meth:`_validated_batch`); trusted callers that
        already validated their instances — size inference, the serve
        layer — pass ``validate=False`` to skip it (a cheap width check
        still applies).  Under the
        default FLOP estimator the whole matrix is one
        :func:`~repro.compiler.selection.evaluate_cost_terms` sweep over
        the cached term stack: each distinct cost term of the variants is
        priced once per instance and each variant's terms are summed in
        order, with no per-variant Python loop; any other estimator is
        priced by :func:`~repro.compiler.selection.cost_matrix`.
        """
        validated = self._as_instance_matrix(instances, validate)
        snapshot = self._sync_pool()
        return self._evaluate_costs(snapshot, validated)

    def _as_instance_matrix(self, instances, validate: bool) -> np.ndarray:
        """Normalize one size vector or a batch to a validated 2-D array."""
        instances = np.asarray(instances)
        if instances.ndim == 1:
            instances = instances[None, :]
        if instances.ndim != 2:
            raise DispatchError(
                f"instances must be a size vector or a 2-D (count, n+1) "
                f"array, got shape {instances.shape}"
            )
        if validate:
            return self._validated_batch(instances)
        if instances.shape[1] != self.chain.n + 1:
            raise DispatchError(
                f"instances have {instances.shape[1]} sizes, expected "
                f"{self.chain.n + 1}"
            )
        return np.asarray(instances, dtype=np.float64)

    def _validated_batch(self, instances: np.ndarray) -> np.ndarray:
        """Check every row as :meth:`Chain.validate_sizes` does, in numpy.

        Width, positivity after the same int truncation, and the
        square-operand equalities are checked on the whole batch at once.
        On any failure, or a non-finite or non-numeric entry, the per-row
        loop runs instead, so the exception and its message are the scalar
        check's.
        """
        width = self.chain.n + 1
        kind = instances.dtype.kind
        if instances.shape[1] == width and (
            kind in "iu" or (kind == "f" and np.isfinite(instances).all())
        ):
            q = instances if kind in "iu" else np.trunc(instances)
            square = [i for i, op in enumerate(self.chain.operands) if op.is_square]
            if (q > 0).all() and (q[:, square] == q[:, [i + 1 for i in square]]).all():
                return q.astype(np.float64)
        return np.array(
            [self.chain.validate_sizes([int(x) for x in row]) for row in instances],
            dtype=np.float64,
        ).reshape(instances.shape[0], width)

    def _evaluate_costs(
        self,
        snapshot: tuple["Variant", ...],
        validated: np.ndarray,
        estimator: Optional[CostEstimator] = None,
    ) -> np.ndarray:
        """Costs of one coherent pool snapshot on pre-validated instances.

        ``estimator`` defaults to :attr:`cost_estimator`; feedback
        re-selection sweeps under its calibration model instead.  The
        term stack is cached *paired with its snapshot*, and the cache
        write is gated on the snapshot still being current — so this never
        evaluates a stack built from a different pool than the one the
        caller will index.
        """
        if estimator is None:
            estimator = self._cost_estimator
        if estimator is flop_estimator:
            from repro.compiler.selection import (
                evaluate_cost_terms,
                flatten_cost_terms,
            )

            cached = self._term_stack
            if cached is not None and cached[0] is snapshot:
                stack = cached[1]
            else:
                stack = flatten_cost_terms(snapshot)
                with self._memo_lock:
                    if self._pool_snapshot is snapshot:
                        self._term_stack = (snapshot, stack)
            return evaluate_cost_terms(stack, validated)
        from repro.compiler.selection import cost_matrix

        return cost_matrix(snapshot, validated, estimator)

    # -- selection ------------------------------------------------------------

    def select_many(
        self, instances, *, validate: bool = True
    ) -> list[tuple[Variant, float]]:
        """Batched dispatch: the winning (variant, cost) per instance.

        One broadcast cost sweep covers all instances; ``argmin`` keeps the
        documented tie-break (first occurrence of the minimum, i.e. the
        earliest variant in ``self.variants`` order).  ``validate=False``
        skips instance validation for pre-validated callers.
        """
        validated = self._as_instance_matrix(instances, validate)
        snapshot = self._sync_pool()
        costs = self._evaluate_costs(snapshot, validated)
        winners = costs.argmin(axis=0)
        return [
            (snapshot[v], float(costs[v, i]))
            for i, v in enumerate(winners)
        ]

    def _decide(
        self,
        snapshot: tuple["Variant", ...],
        sizes: Sequence[tuple[int, ...]],
        estimator: CostEstimator,
    ) -> list[_MemoEntry]:
        """A fresh decision per validated size vector, from one sweep."""
        costs = self._evaluate_costs(
            snapshot, np.asarray(sizes, dtype=np.float64), estimator
        )
        winners = costs.argmin(axis=0).tolist()
        return [
            _MemoEntry(snapshot[w], float(costs[w, j]), q)
            for j, (q, w) in enumerate(zip(sizes, winners))
        ]

    def _store(
        self,
        entries: dict[tuple, _MemoEntry],
        snapshot: tuple["Variant", ...],
        estimator: CostEstimator,
    ) -> None:
        """Memoize fresh decisions by shape key under the capacity bound;
        a key memoized concurrently keeps its first decision.

        Eviction is CLOCK, run before the fresh entries go in: the oldest
        entry goes unless its reference bit is set, in which case the bit
        is cleared and the entry moves to the back.  Hits set bits without
        the lock, so the sweep grants at most one second chance per
        memoized entry.  When the fresh entries alone exceed the
        capacity, the earliest of them are the ones dropped.
        """
        if self.memo_capacity <= 0:
            return
        with self._memo_lock:
            if (
                self._pool_snapshot is not snapshot
                or self._cost_estimator is not estimator
            ):
                # The pool or the estimator changed while we swept: the
                # decisions are stale, drop them rather than poison the
                # memo that the concurrent swap just cleared.
                return
            memo = self._memo
            fresh = [item for item in entries.items() if item[0] not in memo]
            capacity = self.memo_capacity
            chances = len(memo)
            evicted = 0
            while memo and len(memo) + len(fresh) > capacity:
                key, entry = next(iter(memo.items()))
                if entry.referenced and chances:
                    entry.referenced = False
                    chances -= 1
                    memo.move_to_end(key)
                else:
                    memo.popitem(last=False)
                    evicted += 1
            dropped = max(0, len(fresh) - capacity)
            memo.update(fresh[dropped:])
            self.memo_evictions += evicted + dropped

    def _select_entry(self, key: tuple, q: tuple[int, ...]) -> _MemoEntry:
        """The memoized dispatch decision for a validated size vector and
        its shape key, counting the hit or the miss."""
        snapshot = self._sync_pool()
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is not None:
                entry.referenced = True
                self.memo_hits += 1
                return entry
            self.memo_misses += 1
        estimator = self._cost_estimator
        (entry,) = self._decide(snapshot, [q], estimator)
        self._store({key: entry}, snapshot, estimator)
        return entry

    def select(self, sizes: Sequence[int]) -> tuple[Variant, float]:
        """The best variant and its estimated cost for an instance.

        Tie-break: when several variants share the minimum estimated cost,
        the *earliest* in ``self.variants`` order wins (``argmin`` returns
        the first occurrence of the minimum).  That order is itself
        deterministic — Theorem 2 emits representatives in equivalence-
        class order, and Algorithm 1 appends expansion picks after them —
        so dispatch is stable run-to-run and process-to-process, which the
        serving layer relies on for reproducible answers.  The memo keeps
        the first decision per size vector, so warm answers are the same
        decision, not merely an equal one.
        """
        q = self.chain.validate_sizes(sizes)
        entry = self._select_entry(self._infer.shapes(q), q)
        return entry.variant, entry.cost

    def plan_for(
        self, sizes: Sequence[int], *, validate: bool = True
    ) -> tuple[Variant, float, ExecutionPlan]:
        """The memoized ``(variant, cost, plan)`` for an instance.

        The plan is the winning variant's, compiled on its first use and
        shared by every size vector it wins.  ``validate=False`` trusts
        the caller's sizes (e.g. just inferred from arrays).
        """
        q = (
            self.chain.validate_sizes(sizes)
            if validate
            else tuple(int(s) for s in sizes)
        )
        entry = self._select_entry(self._infer.shapes(q), q)
        return entry.variant, entry.cost, self._entry_plan(entry)

    def _entry_plan(self, entry: _MemoEntry) -> ExecutionPlan:
        """The plan of the entry's variant, lowered through the backend on
        its first use; a fused native plan's record is published on the
        entry, for the interpreter to serve it from the memo."""
        variant = entry.variant
        plan = self._lowered.get(id(variant))
        if plan is None:
            backend = self._backend
            plan = compile_plan(variant, entry.sizes, backend=backend)
            with self._memo_lock:
                # Unless a concurrent backend or pool swap made it stale.
                if self._backend == backend and any(
                    v is variant for v in self._pool_snapshot
                ):
                    plan = self._lowered.setdefault(id(variant), plan)
        if entry.record is None:
            native = plan.fused
            if isinstance(native, NativePlan):
                with self._memo_lock:
                    # Only while the entry still names the plan's variant
                    # and the plan is still that variant's on the current
                    # backend: both change only under this lock.
                    if (
                        entry.variant is plan.variant
                        and self._lowered.get(id(plan.variant)) is plan
                    ):
                        entry.record = native.record
                        self._native_run = native.run
        return plan

    def costs(self, sizes: Sequence[int]) -> list[tuple[str, float]]:
        """Estimated cost of every variant (for inspection/debugging)."""
        matrix = self.cost_matrix([sizes])
        return [
            (v.name or str(i), float(matrix[i, 0]))
            for i, v in enumerate(self.variants)
        ]

    # -- execution ------------------------------------------------------------

    def _kernel_observers(
        self, entry: _MemoEntry, plan: ExecutionPlan
    ) -> tuple[tuple[Callable[[float], None], Callable[[float], None], float], ...]:
        """The entry's per-step histogram observers, built on first traced
        replay and cached on the memo entry (invalidated with the plan).

        Each step gets a ``(observe_seconds, observe_rate, flops)`` triple:
        the raw duration histogram plus the observed-FLOP/s histogram the
        calibrated cost model refreshes from — the step's analytic FLOPs
        are computed once here (cold path), so the traced hot loop pays
        one division per step to report a rate.
        """
        observers = entry.kernel_hists
        if observers is None:
            from repro.perfmodel.feedback import KERNEL_RATE_METRIC
            from repro.perfmodel.machine import step_call

            registry = get_registry()
            sizes = np.asarray([entry.sizes], dtype=np.float64)
            observers = tuple(
                (
                    registry.histogram(
                        "runtime.kernel_seconds",
                        kernel=step.kernel.name,
                        routine=routine,
                    ).observe,
                    registry.histogram(
                        KERNEL_RATE_METRIC,
                        kernel=step.kernel.name,
                        routine=routine,
                    ).observe,
                    float(step_call(step, sizes)[0][0]),
                )
                for step, routine in zip(
                    plan.variant.steps, plan.step_routines
                )
            )
            entry.kernel_hists = observers
        return observers

    def _fold_log(self) -> None:
        """Fold the execution log into the hit count, per-backend
        executions, the latest replay and the execute-time histograms.
        The caller holds the memo lock."""
        hits, counts, latest = _drain_log(self._log, self._exec_hists, self._labels)
        executions = self.backend_executions
        for label, count in zip(self._labels, counts):
            if count:
                executions[label] = executions.get(label, 0) + count
        if latest is not None and (
            self.last_execute_at is None or latest[0] > self.last_execute_at
        ):
            self.last_execute_at, self.last_execute_seconds = latest
        self.memo_hits += hits

    def run(
        self,
        arrays: Sequence[np.ndarray],
        *,
        out: Optional[np.ndarray] = None,
    ) -> DispatchOutcome:
        """Dispatch and execute one instance; returns the full outcome.

        A warm call on the ``c`` backend is one native call, which looks
        the operand shapes up in the memo, replays the entry's packed
        record and logs the hit (module docstring).  Whatever it declines
        takes the Python path: one memo probe on the operand shapes and
        one replay of the variant's plan — the shapes were validated by
        size inference on the miss that memoized them.  A miss only
        *resolves* the entry (infer, select, memoize); Python hits and
        misses then run the same code (which lowers a variant once).
        With tracing enabled (never served natively from the memo), the
        replay additionally times every kernel call into
        per-``(kernel, routine)`` histograms — on ``c``, the interpreter's
        own timing of the routines that run — and emits a ``runtime.run``
        span; disabled, the only work besides the replay is one record
        appended to the execution log (:meth:`_fold_log`), as the
        interpreter appends it for a native hit.

        ``out`` receives the result in a caller-owned buffer of the
        result's shape, which the outcome then carries.  A ``c`` plan
        without fix-ups writes straight into it when it is a
        C-contiguous, writeable float64 array whose address range
        overlaps no operand's — a warm replay then allocates no array;
        every other replay computes a fresh result and copies it in (see
        :meth:`~repro.runtime.plan.ExecutionPlan.replay`).
        """
        native = self._native_run
        if native is not None:
            warm = native(
                self._memo, self._variants, self._pool_snapshot, self._log,
                arrays, out,
            )
            if warm is not None:
                entry, result, elapsed = warm
                sizes, variant, cost = entry.sizes, entry.variant, entry.cost
                if self._reselect_ratio is not None:
                    self._feedback(entry, sizes, elapsed)
                # DispatchOutcome._make without its length check.
                return tuple.__new__(DispatchOutcome, (sizes, variant, cost, result))
        values = [np.asarray(a, dtype=_FLOAT64) for a in arrays]
        key = tuple([v.shape for v in values])
        entry = self._memo.get(key)
        pool, snapshot = self._variants, self._pool_snapshot
        if (
            entry is None
            or len(pool) != len(snapshot)
            or any(map(is_not, pool, snapshot))
        ):
            # Miss (or a pool mutated in place): _select_entry counts the
            # hit or miss itself.
            entry = self._select_entry(key, self._infer.infer(values))
            tag = 0
        else:
            entry.referenced = True
            tag = _HIT
        plan = self._entry_plan(entry)
        sizes = entry.sizes
        traced = obs_trace._enabled  # module flag, read once per call
        if not traced:
            start = time.perf_counter()
            result = plan.replay(values, out)
            end = time.perf_counter()
        else:
            # Traced path: the plan records raw per-step durations (one
            # C-level append between kernels), then the histogram feeds
            # and the runtime.run span are all emitted post-hoc in one
            # cache-coherent cluster — a `with span(...)` here would pay
            # its bookkeeping cold on both sides of the kernel sequence.
            durations: list[float] = []
            started_at = time.time()
            start = time.perf_counter()
            try:
                result = plan.replay(values, out, record=durations.append)
            except BaseException as exc:
                obs_trace.leaf_span(
                    "runtime.run",
                    started_at,
                    time.perf_counter() - start,
                    status="error",
                    backend=plan.backend,
                    sizes=list(sizes),
                    error=f"{type(exc).__name__}: {exc}",
                )
                raise
            end = time.perf_counter()
            for (observe_s, observe_rate, flops), seconds in zip(
                self._kernel_observers(entry, plan), durations
            ):
                observe_s(seconds)
                if seconds > 0.0 and flops > 0.0:
                    observe_rate(flops / seconds)
            obs_trace.leaf_span(
                "runtime.run",
                started_at,
                end - start,
                backend=plan.backend,
                sizes=list(sizes),
                variant=entry.variant.name,
                elapsed=end - start,
            )
        elapsed = end - start
        if plan.backend != self._labels[0]:
            tag += _FALLBACK
        log = self._log
        log += _RECORD.pack(end, elapsed, tag)
        if len(log) >= _LOG_BYTES:  # the interpreter declines a full log
            with self._memo_lock:
                self._fold_log()
        # Snapshot the decision that actually ran before the feedback
        # checkpoint — a re-selection there swaps the entry in place, and
        # the outcome must describe this call, not the next one.
        variant, cost = plan.variant, entry.cost
        if self._reselect_ratio is not None:
            self._feedback(entry, sizes, elapsed)
        return DispatchOutcome._make((sizes, variant, cost, result))

    def _feedback(
        self, entry: _MemoEntry, q: tuple[int, ...], elapsed: float
    ) -> None:
        """Measured-vs-predicted disagreement check for one replay.

        Between checkpoints this is one increment, one EMA update, and one
        integer compare.  At a checkpoint (the first after
        ``reselect_min_executions`` replays, then doubling — so the total
        number of checks over an entry's lifetime is logarithmic in its
        executions), the calibration refreshes and the full pool is
        re-swept under it.  The entry's decision is swapped (the next
        call runs the new variant's plan) when the calibrated winner
        differs and either trigger fires by ``reselect_ratio``:

        * *disagreement* — the measured EMA and the calibrated prediction
          of the current variant diverge (the model has not caught up with
          this machine yet, so the original selection is suspect);
        * *advantage* — the calibrated model prices another variant that
          much cheaper than the current one.  This is the trigger that
          fires once calibration has learned from this very entry's
          traffic: prediction then *agrees* with the measurement, yet the
          learned rates expose a better selection.

        Without the advantage trigger, an entry whose own traffic taught
        the model would never re-select — agreement would mask the now
        visibly-wrong original choice.
        """
        entry.executions += 1
        ema = entry.measured_ema
        entry.measured_ema = (
            elapsed
            if ema is None
            else ema + MEASURED_EMA_WEIGHT * (elapsed - ema)
        )
        if entry.executions < max(self._reselect_min, entry.next_check):
            return
        entry.next_check = entry.executions * 2
        calibration = self._calibration
        measured = entry.measured_ema
        refresh = getattr(calibration, "maybe_refresh", None)
        if refresh is not None:
            refresh()
        predicted = float(calibration(entry.variant, q))
        self.reselect_checks += 1
        if measured <= 0.0 or predicted <= 0.0:
            return
        disagreement = (
            measured / predicted
            if measured >= predicted
            else predicted / measured
        )
        (fresh,) = self._decide(self._sync_pool(), [q], calibration)
        winner, best = fresh.variant, fresh.cost
        advantage = predicted / best if best > 0.0 else float("inf")
        if (
            disagreement < self._reselect_ratio
            and advantage < self._reselect_ratio
        ):
            return
        with self._memo_lock:
            if winner is entry.variant:
                # The calibrated model disagrees with the measurement but
                # still picks the same variant: refresh the entry's cost
                # (now in calibrated seconds) and keep its variant.
                entry.cost = best
                return
            self.reselections += 1
            entry.reset(winner, best)

    def __call__(self, *arrays: np.ndarray) -> np.ndarray:
        """Evaluate the chain: pick the best variant for the sizes, run it
        (one list or tuple argument: see
        :func:`~repro.runtime.executor.call_operands`)."""
        if len(arrays) == 1:
            arrays = call_operands(self.chain, arrays)
        return self.run(arrays).result

    def execute_many(
        self, instances: Sequence[Sequence[np.ndarray]]
    ) -> list[np.ndarray]:
        """Dispatch and execute a batch of instances.

        All uncached size vectors share **one** broadcast cost sweep;
        execution then replays each winning variant's plan (compiled on
        its first use) in input order.
        """
        prepared = [
            [np.asarray(a, dtype=_FLOAT64) for a in arrays]
            for arrays in instances
        ]
        sized = [self._infer.infer(arrays) for arrays in prepared]
        keys = [tuple([v.shape for v in arrays]) for arrays in prepared]
        local: dict[tuple, _MemoEntry] = {}
        if sized:
            snapshot = self._sync_pool()
            estimator = self._cost_estimator
            with self._memo_lock:
                fresh = {
                    key: q
                    for key, q in zip(keys, sized)
                    if key not in self._memo
                }
                # Counters mirror the scalar path: the first occurrence of
                # each uncached size is a miss (they share the single
                # sweep below); every other instance — warm sizes and
                # repeats of sizes this very batch resolves — is a hit.
                self.memo_misses += len(fresh)
                self.memo_hits += len(sized) - len(fresh)
            if fresh:
                local = dict(
                    zip(fresh, self._decide(snapshot, list(fresh.values()), estimator))
                )
                self._store(local, snapshot, estimator)
        results = []
        executed: dict[str, int] = {}
        start = time.perf_counter()
        for key, q, arrays in zip(keys, sized, prepared):
            # Counters were settled above.  The local entries keep the
            # one-sweep promise even with memo_capacity=0 or immediate
            # eviction; _select_entry is the last-resort fallback (and
            # counts its own miss).
            entry = self._memo.get(key)
            if entry is not None:
                entry.referenced = True
            else:
                entry = local.get(key) or self._select_entry(key, q)
            plan = self._entry_plan(entry)
            results.append(plan.replay(arrays))
            executed[plan.backend] = executed.get(plan.backend, 0) + 1
        if sized:
            end = time.perf_counter()
            with self._memo_lock:
                for name, count in executed.items():
                    self.backend_executions[name] = (
                        self.backend_executions.get(name, 0) + count
                    )
                self.last_execute_seconds = end - start
                self.last_execute_at = end
            get_registry().histogram(
                "runtime.batch_seconds", backend=self._labels[0]
            ).observe(end - start)
        return results

    def memo_stats(self) -> dict[str, object]:
        """Memo and execution counters, JSON-ready (service stats, tests).

        ``executions`` counts executed instances per *concrete* plan
        backend — a ``c`` plan that fell back to ``blas`` counts as
        ``blas``; ``last_execute_seconds`` is the replay wall time of
        the most recent :meth:`run` call or :meth:`execute_many` batch.
        Pending execution-log records are folded first, so every count is
        exact as of this call.
        """
        with self._memo_lock:
            self._fold_log()
            return {
                "entries": len(self._memo),
                "capacity": self.memo_capacity,
                "hits": self.memo_hits,
                "misses": self.memo_misses,
                "evictions": self.memo_evictions,
                "backend": self._labels[0],
                "reselect_checks": self.reselect_checks,
                "reselections": self.reselections,
                "executions": dict(self.backend_executions),
                "last_execute_seconds": self.last_execute_seconds,
            }

    def __len__(self) -> int:
        return len(self.variants)

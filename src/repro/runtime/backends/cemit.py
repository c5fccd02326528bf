"""The ``c`` execution backend: frozen plans replayed by one native interpreter.

PR 6's ``blas`` backend got the kernel *math* to BLAS speed, but every
plan step still pays a Python round-trip — interpreter dispatch, scipy
wrapper argument parsing, result allocation — which dominates on small
and medium operands.  This backend removes the per-step tax: each frozen
:class:`~repro.runtime.plan.ExecutionPlan` is *packed* into a compact
integer step record, and one fixed C translation unit
(``step_interp.c``, a CPython extension) walks that record natively,
calling BLAS/LAPACK through function pointers harvested from
``scipy.linalg.cython_blas`` / ``cython_lapack`` PyCapsules.  One Python
call per *replay* (a METH_FASTCALL entry, GIL released for the walk),
zero per step.  The entry finds the record by the operands' shapes in a
table of plans: a :class:`NativePlan` passes its own one-plan table, and
a dispatcher passes its plan table, which makes a warm dispatch the same
one call (:mod:`repro.runtime.dispatcher`).

Everything dynamic is resolved into the record at plan-compile time:

* the operand roles of each step's
  :class:`~repro.runtime.executor.StepCall` (the record every backend
  lowers from: family, structured side, transposes, stored
  triangularity), folded into the routine's transpose / side / uplo
  flags by this packer's own layout algebra — a C-contiguous stored
  array is re-presented as its Fortran-contiguous transpose with the
  flags flipped, fixed at pack time (no copies);
* all dimensions and leading dimensions (the plan is already specialized
  to one size vector);
* buffer addressing: inputs map to the call's operand arguments,
  intermediates to offsets in one per-call ``malloc``'d workspace (so
  plans stay stateless and replay concurrently), the final step writes
  straight into the caller's output array whenever its natural layout
  allows.

Packing costs microseconds, so a new size vector never waits for a
compiler.  The interpreter itself is compiled once with the discovered
toolchain (:mod:`~repro.runtime.backends.toolchain`) and cached
content-addressed by its source and the interpreter ABI tag in the
bounded on-disk codegen cache (:mod:`repro.runtime.codegen_cache`) — a
warm deployment never invokes the compiler.  Function-pointer addresses
are per-process, so the first load in a process passes the harvested
capsules to the module's ``init``.

Degradation is total and silent: no toolchain, no harvestable capsules,
an unsupported step (configurations the routines cannot express), a
chain of more than :data:`MAX_OPERANDS` operands, a compiler rejection,
or a load failure all fall back
to the ``blas`` lowering the plan already carries (``specialize`` here
delegates to :class:`~repro.runtime.backends.blas.BlasBackend`), counted
per reason in the ``runtime.codegen_fallbacks`` metric and logged at
info level.  A fallen-back plan reports ``backend == "blas"``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import logging
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.obs import get_registry
from repro.obs import trace as obs_trace
from repro.runtime.backends.base import Backend, LoweredKernel
from repro.runtime.backends.blas import (
    SYSV_LWORK_PER_ROW,
    BlasBackend,
    blas_available,
)
from repro.runtime.backends.toolchain import (
    ToolchainError,
    discover_toolchain,
)
from repro.runtime.codegen_cache import get_codegen_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import StepCall
    from repro.runtime.plan import ExecutionPlan

__all__ = [
    "CEmitBackend",
    "NativePlan",
    "cemit_available",
    "pack_plan",
    "shape_key",
]

logger = logging.getLogger("repro.runtime.cemit")

#: Every routine the interpreter calls, in capsule-harvest order (the
#: order ``init`` assigns its function pointers in).
_ROUTINES = (
    "dgemm",
    "dsymm",
    "dtrmm",
    "dtrsm",
    "dposv",
    "dsysv",
    "dgetrf",
    "dgetrs",
)

#: The interpreter's source and the module name its ``PyInit_`` exports.
_SOURCE_PATH = Path(__file__).with_name("step_interp.c")
_MODULE_NAME = "_step_interp"


# ---------------------------------------------------------------------------
# PyCapsule harvest: routine name -> function-pointer address (per process).
# ---------------------------------------------------------------------------

_capsule_get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_get_pointer.restype = ctypes.c_void_p
_capsule_get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_get_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_get_name.restype = ctypes.c_char_p
_capsule_get_name.argtypes = [ctypes.py_object]

_addresses: Optional[tuple[Optional[dict[str, int]]]] = None
_addresses_lock = threading.Lock()


def _harvest_addresses() -> Optional[dict[str, int]]:
    """Addresses of every routine in :data:`_ROUTINES`, or ``None``.

    The capsules live in ``__pyx_capi__`` of scipy's cython wrapper
    modules; their addresses are process-local, so the harvest runs once
    per process and is fed to the loaded interpreter's ``init``.
    """
    global _addresses
    with _addresses_lock:
        if _addresses is not None:
            return _addresses[0]
        found: dict[str, int] = {}
        try:
            from scipy.linalg import cython_blas, cython_lapack

            for module in (cython_blas, cython_lapack):
                capi = getattr(module, "__pyx_capi__", {})
                for name in _ROUTINES:
                    capsule = capi.get(name)
                    if capsule is not None and name not in found:
                        address = _capsule_get_pointer(
                            capsule, _capsule_get_name(capsule)
                        )
                        if address:
                            found[name] = address
        except Exception:  # pragma: no cover - scipy-less environments
            found = {}
        result = found if all(name in found for name in _ROUTINES) else None
        _addresses = (result,)
        return result


def cemit_available() -> bool:
    """Whether this process can pack, compile, and run native plans."""
    return (
        blas_available()
        and _harvest_addresses() is not None
        and discover_toolchain() is not None
    )


# ---------------------------------------------------------------------------
# Packing: one plan -> one step record for the interpreter.
# ---------------------------------------------------------------------------

#: Opcodes, field layout and buffer-reference kinds; the C side
#: (``step_interp.c``) documents each opcode's fields and must agree.
(
    OP_GEMM,
    OP_SYMM,
    OP_TRMM,
    OP_TRSM,
    OP_ROW_SCALE,
    OP_COL_SCALE,
    OP_DIAG_DIAG,
    OP_POSV,
    OP_SYSV,
    OP_GESV,
    OP_STORE_T,
    OP_ROW_DIV,
    OP_COL_DIV,
) = range(1, 14)
_REF_INPUT, _REF_WS, _REF_OUT = range(3)

#: Operands of the longest chain the interpreter runs (its buffer views
#: live on the C stack); longer chains fall back to blas.
MAX_OPERANDS = 64


def _ref(kind: int, index: int) -> int:
    return index << 2 | kind


#: The reference to the caller's output array.
_OUT = _ref(_REF_OUT, 0)


class _Unsupported(Exception):
    """The packer cannot express a step; the plan falls back whole."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Step(NamedTuple):
    """One packed step: the C ``step_t`` record, field for field."""

    op: int
    f0: int = 0
    f1: int = 0
    f2: int = 0
    m: int = 0
    n: int = 0
    k: int = 0
    a: int = 0
    lda: int = 0
    b: int = 0
    ldb: int = 0
    c: int = 0
    ldc: int = 0
    w0: int = 0
    w1: int = 0
    w2: int = 0


class _Buf(NamedTuple):
    """One buffer slot's pack-time layout.

    The physical buffer is read Fortran-contiguously with dimensions
    ``(pr, pc)`` and leading dimension ``pr``; the *logical* stored value
    is its transpose iff ``t`` (a C-contiguous stored array is exactly
    its F-contiguous transpose, so inputs start with ``t=True``).
    """

    pr: int
    pc: int
    t: bool
    ref: int

    @property
    def logical(self) -> tuple[int, int]:
        return (self.pc, self.pr) if self.t else (self.pr, self.pc)


class _StepSpec(NamedTuple):
    """One step's decided layout; ``step.c`` is filled in once the
    output buffer is chosen."""

    pr: int
    pc: int
    t_out: bool
    #: The physical output equals its own transpose (diagonal results),
    #: so either layout may serve as the final answer directly.
    sym_out: bool
    step: _Step


def _tn(flag: bool) -> int:
    return ord("T") if flag else ord("N")


def _ul(lower: bool) -> int:
    return ord("L") if lower else ord("U")


def _side(left: bool) -> int:
    return ord("L") if left else ord("R")


_UPPER = ord("U")


class _Packer:
    """Walks a plan's steps, laying out the workspace."""

    def __init__(self):
        self.ws_doubles = 0

    def alloc(self, doubles: int) -> int:
        """Reserve ``doubles`` workspace doubles; returns the offset."""
        offset = self.ws_doubles
        self.ws_doubles += doubles
        return offset

    def alloc_ints(self, count: int) -> int:
        return self.alloc((count + 1) // 2)

    # -- per-family packing --------------------------------------------------

    def _gemm(self, call: "StepCall", l: _Buf, r: _Buf, last: bool) -> _StepSpec:
        el = call.left_trans != l.t
        er = call.right_trans != r.t
        m, k = (l.pc, l.pr) if el else (l.pr, l.pc)
        _, n = (r.pc, r.pr) if er else (r.pr, r.pc)
        if last and el != er:
            # Pack the transposed product so the final dgemm writes the
            # caller's C-ordered output buffer directly: C^T = op(B)^T op(A)^T.
            # Only mixed flags: swapping the operands keeps the (T, N) /
            # (N, T) pair, so the call is the blas backend's, bit for bit.
            # Equal flags would turn NN into TT (or back), a different
            # BLAS path whose rounding differs; those products keep the
            # blas lowering's flags and take the transposed store pass.
            step = _Step(
                OP_GEMM, f0=_tn(not er), f1=_tn(not el), m=n, n=m, k=k,
                a=r.ref, lda=r.pr, b=l.ref, ldb=l.pr, ldc=n,
            )
            return _StepSpec(n, m, True, False, step)
        step = _Step(
            OP_GEMM, f0=_tn(el), f1=_tn(er), m=m, n=n, k=k,
            a=l.ref, lda=l.pr, b=r.ref, ldb=r.pr, ldc=m,
        )
        return _StepSpec(m, n, False, False, step)

    def _symm(self, call: "StepCall", l: _Buf, r: _Buf, last: bool) -> _StepSpec:
        side_left = call.s_left
        s, g = (l, r) if side_left else (r, l)
        eg = call.o_trans != g.t
        # The symmetric operand equals its transpose: its layout flag is
        # immaterial and 'U' always names a valid stored triangle.  A
        # transposed general operand computes the transposed product with
        # the side flipped (t_out records it) — dsymm has no transb.
        m, n = g.pr, g.pc
        step = _Step(
            OP_SYMM, f0=_side(side_left != eg), f1=_UPPER, m=m, n=n,
            a=s.ref, lda=s.pr, b=g.ref, ldb=g.pr, ldc=m,
        )
        return _StepSpec(m, n, eg, False, step)

    def _triangular(
        self, call: "StepCall", l: _Buf, r: _Buf, last: bool, op: int
    ) -> _StepSpec:
        """dtrmm / dtrsm: the same flag algebra for product and solve."""
        if call.s_lower is None:
            raise _Unsupported("unsupported-step")
        t_left = call.s_left
        tb, g = (l, r) if t_left else (r, l)
        et = call.s_trans != tb.t
        lower = call.s_lower != tb.t  # transposed view flips the triangle
        eg = call.o_trans != g.t
        m, n = g.pr, g.pc
        # dtrmm/dtrsm work in place: the interpreter copies B into the
        # output slot first, so the operand buffers survive the call.
        step = _Step(
            op, f0=_side(t_left != eg), f1=_ul(lower), f2=_tn(et != eg),
            m=m, n=n, a=tb.ref, lda=tb.pr, b=g.ref, ldc=m,
        )
        return _StepSpec(m, n, eg, False, step)

    def _diagonal(
        self, call: "StepCall", l: _Buf, r: _Buf, last: bool, ops: tuple[int, int]
    ) -> _StepSpec:
        """Diagonal product (dimm) or solve (disv): scale or divide the
        other operand's rows or columns by the diagonal's entries."""
        diag_left = call.s_left
        d, g = (l, r) if diag_left else (r, l)
        eg = call.o_trans != g.t
        # Work in the other operand's own layout (t_out = eg): the scale
        # then runs down physical rows or columns with unit stride.
        op = ops[0] if diag_left != eg else ops[1]
        step = _Step(op, m=g.pr, n=g.pc, a=d.ref, lda=d.pr + 1, b=g.ref)
        return _StepSpec(g.pr, g.pc, eg, False, step)

    def _didimm(self, call: "StepCall", l: _Buf, r: _Buf, last: bool) -> _StepSpec:
        n = l.pr
        step = _Step(
            OP_DIAG_DIAG, m=n, a=l.ref, lda=l.pr + 1, b=r.ref, ldb=r.pr + 1
        )
        return _StepSpec(n, n, False, True, step)

    def _factor_solve(
        self, call: "StepCall", l: _Buf, r: _Buf, last: bool, op: int
    ) -> _StepSpec:
        """dposv / dsysv / dgetrf+dgetrs: copy-factor the coefficient,
        materialize the right-hand side in the layout the solve needs."""
        side_left = call.s_left
        c, rhs = (l, r) if side_left else (r, l)
        ec = call.s_trans != c.t
        er = call.o_trans != rhs.t
        na = c.pr
        # side=left solves op(A) X = R and needs R physical in B;
        # side=right solves op(A)^T X^T = R^T and needs R^T physical —
        # either way the buffer already holds the right presentation
        # exactly when er == (not side_left), else one transposed copy
        # (the scipy path pays the same copy inside the wrapper).
        direct = er == (not side_left)
        brow, bcol = (rhs.pr, rhs.pc) if direct else (rhs.pc, rhs.pr)
        # The factorization overwrites its matrix: factor a workspace
        # copy, never an operand buffer.
        acopy = self.alloc(na * na)
        ipiv = work = lwork = 0
        if op != OP_POSV:
            ipiv = self.alloc_ints(na)
        if op == OP_SYSV:
            lwork = SYSV_LWORK_PER_ROW * na
            work = self.alloc(lwork)
        trans = ec if side_left else not ec  # getrs only
        step = _Step(
            op, f0=_tn(trans), f1=_UPPER, f2=_tn(not direct), m=na, n=bcol,
            k=lwork, a=c.ref, b=rhs.ref, ldb=rhs.pr, ldc=brow,
            w0=acopy, w1=ipiv, w2=work,
        )
        return _StepSpec(brow, bcol, not side_left, False, step)


#: family -> packer, each called as ``pack(packer, call, l, r, last)``.
#: A family absent here falls the plan back.
_PACKERS = {
    "gemm": _Packer._gemm,
    "symm": _Packer._symm,
    "trmm": functools.partial(_Packer._triangular, op=OP_TRMM),
    "dimm": functools.partial(_Packer._diagonal, ops=(OP_ROW_SCALE, OP_COL_SCALE)),
    "disv": functools.partial(_Packer._diagonal, ops=(OP_ROW_DIV, OP_COL_DIV)),
    "didimm": _Packer._didimm,
    "trsm": functools.partial(_Packer._triangular, op=OP_TRSM),
    "posv": functools.partial(_Packer._factor_solve, op=OP_POSV),
    "sysv": functools.partial(_Packer._factor_solve, op=OP_SYSV),
    "gesv": functools.partial(_Packer._factor_solve, op=OP_GESV),
}


def pack_plan(plan: "ExecutionPlan") -> tuple[bytes, tuple[int, int]]:
    """Pack one plan as an interpreter step record: ``(record, out_shape)``.

    Raises :class:`_Unsupported` for steps outside the packer's family
    table or calls without the triangularity the routines need — callers
    fall the whole plan back to ``blas``.
    """
    steps = plan.variant.steps
    if not steps:
        raise _Unsupported("no-steps")
    n_inputs = plan.chain.n
    if n_inputs > MAX_OPERANDS:
        raise _Unsupported("too-many-operands")
    packer = _Packer()

    bufs: list[_Buf] = [
        # A C-contiguous stored (r, c) array is the F-contiguous (c, r)
        # transpose of the logical value: t=True, ld = c.
        _Buf(c, r, True, _ref(_REF_INPUT, i))
        for i, (r, c) in enumerate(plan.expected_shapes)
    ]

    def slot(ref) -> int:
        kind, index = ref
        return index if kind == "matrix" else n_inputs + index

    last = len(steps) - 1
    packed: list[_Step] = []
    for i, (step, call) in enumerate(zip(steps, plan.calls)):
        l, r = bufs[slot(step.left_ref)], bufs[slot(step.right_ref)]
        pack = _PACKERS.get(call.family)
        if pack is None:
            raise _Unsupported("unsupported-step")
        spec = pack(packer, call, l, r, i == last)
        if i == last and (spec.t_out or spec.sym_out):
            # The caller's output array is C-ordered (r, c): as an F
            # buffer it wants the transposed (or symmetric) result — the
            # final step can produce it in place, no store pass.
            dst = _OUT
        else:
            dst = _ref(_REF_WS, packer.alloc(spec.pr * spec.pc))
        packed.append(spec.step._replace(c=dst))
        bufs.append(_Buf(spec.pr, spec.pc, spec.t_out, dst))

    final = bufs[-1]
    out_r, out_c = final.logical
    if not (final.t or final.ref == _OUT):
        # Natural layout disagreed with the output array: one transposed
        # store pass (the output is the F-contiguous (c, r) view of the
        # C-ordered result).
        packed.append(
            _Step(OP_STORE_T, m=out_c, n=out_r, a=final.ref, lda=final.pr, c=_OUT)
        )

    fields = [n_inputs, out_r, out_c, packer.ws_doubles, len(packed)]
    for shape in plan.expected_shapes:
        fields.extend(shape)
    for step in packed:
        fields.extend(step)
    return array("q", fields).tobytes(), (out_r, out_c)


def shape_key(shapes) -> bytes:
    """The plan-table key of a tuple of stored operand shapes: their
    ``(rows, cols)`` pairs as native int64s, the form the interpreter reads
    them in off the operands' buffers (and the shapes field of a record)."""
    return array("q", [dim for shape in shapes for dim in shape]).tobytes()


# ---------------------------------------------------------------------------
# The interpreter module and the per-plan native callable.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _interpreter_source() -> tuple[str, str]:
    """``(cache key, source)`` of the interpreter: the key digests the
    source and the ABI tag, so a changed source or interpreter never
    loads a stale object."""
    source = _SOURCE_PATH.read_text()
    digest = hashlib.sha256(
        f"{sys.implementation.cache_tag}\0{source}".encode()
    ).hexdigest()[:16]
    return f"step-interp-{digest}", source


#: cache key -> bound ``run`` of the initialized interpreter.  Shared
#: objects cannot be unloaded; one load per process serves every plan.
_loaded: dict[str, Callable] = {}
_loaded_lock = threading.Lock()


def _load_native_run(key: str, so_path: str) -> Callable:
    with _loaded_lock:
        run = _loaded.get(key)
        if run is not None:
            return run
        loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, so_path)
        spec = importlib.util.spec_from_file_location(
            _MODULE_NAME, so_path, loader=loader
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        addresses = _harvest_addresses()
        if addresses is None:  # pragma: no cover - guarded by lower_plan
            raise ExecutionError("BLAS capsule addresses unavailable")
        module.init(
            tuple(addresses[name] for name in _ROUTINES),
            ExecutionError,
            np.empty,
            np.dtype(np.float64),
            vars(obs_trace),
        )
        run = module.run
        _loaded[key] = run
        return run


class NativePlan:
    """The packed plan's replay callable: one native call, one output.

    The interpreter writes the result into the caller's ``out`` when that
    buffer conforms — float64, C-contiguous, writeable, exactly the
    output shape, and no address range shared with an operand (the final
    step may write its output while still reading an input); it checks
    that itself, on the buffers' address ranges.  Any other ``out``, or
    none, gets a fresh output array, which the caller copies where it
    wants it.  Plans stay stateless: concurrent replays share nothing but
    the read-only input buffers and the record.  The interpreter raises
    :class:`ExecutionError` itself for failed factorizations, and
    declines operands that are not C-contiguous float64 matrices of the
    planned shapes.  A wrong shape then raises :class:`ExecutionError`;
    any other declined operand is retried as a C-contiguous float64 copy
    — the one copy non-contiguous callers pay, exactly where the blas
    backend pays ``np.asfortranarray``.

    ``run`` (the interpreter's entry), ``record`` and ``out_shape`` let a
    dispatcher serve the plan from its own plan table as well.
    """

    __slots__ = ("run", "record", "out_shape", "_shapes", "_plans")

    def __init__(
        self,
        run: Callable,
        record: bytes,
        out_shape: tuple[int, int],
        shapes: tuple[tuple[int, int], ...],
    ):
        self.run = run
        self.record = record
        self.out_shape = out_shape
        self._shapes = shapes
        #: The one-plan table ``run`` looks this plan up in.
        self._plans = {shape_key(shapes): (None, record, out_shape)}

    def __call__(
        self, values: list[np.ndarray], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        result = self.run(self._plans, None, None, None, values, out)
        if result is None:
            if len(values) != len(self._shapes):
                raise ExecutionError(
                    f"expected {len(self._shapes)} operands, got {len(values)}"
                )
            for i, (value, shape) in enumerate(zip(values, self._shapes)):
                if np.shape(value) != shape:
                    raise ExecutionError(
                        f"operand {i}: expected stored shape {shape}, "
                        f"got {np.shape(value)}"
                    )
            contiguous = [np.ascontiguousarray(v, dtype=np.float64) for v in values]
            result = self.run(self._plans, None, None, None, contiguous, out)
        return result


# ---------------------------------------------------------------------------
# The backend.
# ---------------------------------------------------------------------------


class CEmitBackend(Backend):
    """Pack whole plans for the native step interpreter; lower steps via blas.

    ``specialize`` delegates to :class:`BlasBackend`, so every plan this
    backend compiles also carries the per-step blas lowering — that is
    the per-step loop a timed replay (``replay(..., record=...)``) runs
    and the ready-made fallback when native lowering declines.
    """

    name = "c"
    fallback_name = "blas"

    def __init__(self):
        self._blas = BlasBackend()

    def specialize(self, call: "StepCall") -> LoweredKernel:
        return self._blas.specialize(call)

    def lower_plan(self, plan: "ExecutionPlan") -> Optional[Callable]:
        if not blas_available():
            return self._fall_back("no-capsules", plan)
        if _harvest_addresses() is None:
            return self._fall_back("no-capsules", plan)
        toolchain = discover_toolchain()
        if toolchain is None:
            return self._fall_back("no-toolchain", plan)
        registry = get_registry()
        start = time.perf_counter()
        try:
            record, out_shape = pack_plan(plan)
        except _Unsupported as exc:
            return self._fall_back(exc.reason, plan)
        # The "emit" stage times packing: no C is written per plan.
        registry.histogram("runtime.codegen_seconds", stage="emit").observe(
            time.perf_counter() - start
        )
        try:
            key, source = _interpreter_source()
            so_path = get_codegen_cache().shared_object(key, source, toolchain)
        except (OSError, ToolchainError) as exc:
            logger.info("codegen compile failed: %s", exc)
            return self._fall_back("compile-error", plan)
        start = time.perf_counter()
        try:
            run = _load_native_run(key, so_path)
        except Exception as exc:
            logger.info("codegen load failed for %s: %s", key, exc)
            return self._fall_back("load-error", plan)
        registry.histogram("runtime.codegen_seconds", stage="load").observe(
            time.perf_counter() - start
        )
        return NativePlan(run, record, out_shape, plan.expected_shapes)

    @staticmethod
    def _fall_back(reason: str, plan: "ExecutionPlan") -> None:
        get_registry().counter(
            "runtime.codegen_fallbacks", reason=reason
        ).inc()
        logger.info(
            "c backend fell back to blas for %s at q=%s (%s)",
            plan.variant.name or "<anonymous>",
            list(plan.sizes),
            reason,
        )
        return None

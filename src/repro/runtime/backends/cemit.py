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
zero per step.  A :class:`NativePlan` passes its record; a dispatcher
passes its plan table, in which the entry finds the record by the
operands' shapes, making a warm dispatch the same one call
(:mod:`repro.runtime.dispatcher`).

Like the paper's generated code, a record is packed once per variant, for
*symbolic* sizes.  Packing resolves:

* the operand roles of each step's
  :class:`~repro.runtime.executor.StepCall` (the record every backend
  lowers from: family, structured side, transposes, stored
  triangularity), folded into the routine's transpose / side / uplo
  flags by this packer's own layout algebra — a C-contiguous stored
  array is re-presented as its Fortran-contiguous transpose with the
  flags flipped, fixed at pack time (no copies);
* every dimension and leading dimension, as a reference into the size
  vector ``q`` that the interpreter binds from the operands' shapes on
  every call (checking what size inference checks);
* buffer addressing: inputs map to the call's operand arguments,
  intermediates to one per-call ``malloc``'d workspace laid out from the
  bound sizes (so plans stay stateless and replay concurrently), the
  final step writes straight into the caller's output array whenever its
  natural layout allows.

Packing costs microseconds, once per variant; a new size vector costs
no packing.  The interpreter itself is compiled once with the discovered
toolchain (:mod:`~repro.runtime.backends.toolchain`) and cached
content-addressed by its source and the interpreter ABI tag in the
on-disk codegen cache (:mod:`repro.runtime.codegen_cache`) — a warm
deployment never invokes the compiler.  A dispatcher binding the backend
starts that build in the background (:meth:`CEmitBackend.prepare`), and
the first plan joins it.  Function-pointer addresses
are per-process, so the first load in a process passes the harvested
capsules to the module's ``init``.

Degradation is total and silent: no toolchain, no harvestable capsules,
an unsupported step (configurations the routines cannot express), a
chain of more than :data:`MAX_OPERANDS` operands, a compiler rejection,
or a load failure all fall the plan back to a per-step ``blas`` lowering
(built only then), counted per reason in the ``runtime.codegen_fallbacks``
metric and logged at info level.  A fallen-back plan reports
``backend == "blas"``.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import sys
import threading
import time
from array import array
from functools import lru_cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.obs import get_registry
from repro.obs import trace as obs_trace
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
from repro.runtime.executor import SizeInferencer

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


#: The reference to the caller's output array (step ``i``'s own output
#: is ``_ref(_REF_WS, i)``, placed in the workspace by the interpreter).
_OUT = _ref(_REF_OUT, 0)


class _Unsupported(Exception):
    """The packer cannot express a step; the plan falls back whole."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Step(NamedTuple):
    """One packed step: the C ``step_t`` record, field for field; its
    dimensions are size refs, its workspace offsets the interpreter's."""

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
    ``(pr, pc)`` and leading dimension ``pr`` (size refs); the *logical*
    stored value is its transpose iff ``t`` (a C-contiguous stored array
    is exactly its F-contiguous transpose, so inputs start with ``t=True``).
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


# Per-family packing.  Every dimension a step names is a *size ref* into
# the instance vector ``q``: ``i << 1`` stands for ``q[i]`` and
# ``i << 1 | 1`` for ``q[i] + 1`` (a diagonal's stride), so a buffer's
# dimensions are even refs and ``d.pr + 1`` is its diagonal stride.  The
# interpreter binds the refs from the operands' shapes on every call, and
# places the workspace from the bound sizes.


def _gemm(call: "StepCall", l: _Buf, r: _Buf, last: bool) -> _StepSpec:
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


def _symm(call: "StepCall", l: _Buf, r: _Buf, last: bool) -> _StepSpec:
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
    call: "StepCall", l: _Buf, r: _Buf, last: bool, op: int
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
    call: "StepCall", l: _Buf, r: _Buf, last: bool, ops: tuple[int, int]
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


def _didimm(call: "StepCall", l: _Buf, r: _Buf, last: bool) -> _StepSpec:
    n = l.pr
    step = _Step(
        OP_DIAG_DIAG, m=n, a=l.ref, lda=l.pr + 1, b=r.ref, ldb=r.pr + 1
    )
    return _StepSpec(n, n, False, True, step)


def _factor_solve(
    call: "StepCall", l: _Buf, r: _Buf, last: bool, op: int
) -> _StepSpec:
    """dposv / dsysv / dgetrf+dgetrs: copy-factor the coefficient,
    materialize the right-hand side in the layout the solve needs."""
    side_left = call.s_left
    c, rhs = (l, r) if side_left else (r, l)
    ec = call.s_trans != c.t
    er = call.o_trans != rhs.t
    # side=left solves op(A) X = R and needs R physical in B;
    # side=right solves op(A)^T X^T = R^T and needs R^T physical —
    # either way the buffer already holds the right presentation
    # exactly when er == (not side_left), else one transposed copy
    # (the scipy path pays the same copy inside the wrapper).
    direct = er == (not side_left)
    brow, bcol = (rhs.pr, rhs.pc) if direct else (rhs.pc, rhs.pr)
    trans = ec if side_left else not ec  # getrs only
    # The interpreter factors a workspace copy of the coefficient,
    # never an operand buffer; dsysv's k is its workspace per row.
    step = _Step(
        op, f0=_tn(trans), f1=_UPPER, f2=_tn(not direct), m=c.pr, n=bcol,
        k=SYSV_LWORK_PER_ROW if op == OP_SYSV else 0,
        a=c.ref, b=rhs.ref, ldb=rhs.pr, ldc=brow,
    )
    return _StepSpec(brow, bcol, not side_left, False, step)


#: family -> (routine label, packer), each packer called as
#: ``pack(call, l, r, last)``.  The labels are the blas backend's where
#: the interpreter runs the same routine.  A family absent here falls the
#: plan back.
_PACKERS = {
    "gemm": ("dgemm", _gemm),
    "symm": ("dsymm", _symm),
    "trmm": ("dtrmm", partial(_triangular, op=OP_TRMM)),
    "dimm": ("diag-scale", partial(_diagonal, ops=(OP_ROW_SCALE, OP_COL_SCALE))),
    "disv": ("diag-solve", partial(_diagonal, ops=(OP_ROW_DIV, OP_COL_DIV))),
    "didimm": ("diag-scale", _didimm),
    "trsm": ("dtrsm", partial(_triangular, op=OP_TRSM)),
    "posv": ("dposv", partial(_factor_solve, op=OP_POSV)),
    "sysv": ("dsysv", partial(_factor_solve, op=OP_SYSV)),
    "gesv": ("dgetrf+dgetrs", partial(_factor_solve, op=OP_GESV)),
}


def pack_plan(plan: "ExecutionPlan") -> tuple[bytes, tuple[str, ...]]:
    """Pack one plan as an interpreter step record, for any sizes; returns
    the record and the routine each variant step runs.

    Raises :class:`_Unsupported` for steps outside the packer's family
    table or calls without the triangularity the routines need — callers
    fall the whole plan back to ``blas``.
    """
    steps = plan.variant.steps
    if not steps:
        raise _Unsupported("no-steps")
    chain = plan.chain
    n_inputs = chain.n
    if n_inputs > MAX_OPERANDS:
        raise _Unsupported("too-many-operands")

    # at[i]: the q entry that stands for q_i; a square operand ties q_{i+1}
    # to q_i's, so the interpreter's one-size-per-entry check covers it.
    at = [0]
    for operand in chain:
        at.append(at[-1] if operand.is_square else len(at))
    shapes = SizeInferencer(chain).shapes(at)
    bufs: list[_Buf] = [
        # A C-contiguous stored (r, c) array is the F-contiguous (c, r)
        # transpose of the logical value: t=True, ld = c.
        _Buf(c << 1, r << 1, True, _ref(_REF_INPUT, i))
        for i, (r, c) in enumerate(shapes)
    ]

    def slot(ref) -> int:
        kind, index = ref
        return index if kind == "matrix" else n_inputs + index

    last = len(steps) - 1
    packed: list[_Step] = []
    routines: list[str] = []
    for i, (step, call) in enumerate(zip(steps, plan.calls)):
        l, r = bufs[slot(step.left_ref)], bufs[slot(step.right_ref)]
        if call.family not in _PACKERS:
            raise _Unsupported("unsupported-step")
        routine, pack = _PACKERS[call.family]
        routines.append(routine)
        spec = pack(call, l, r, i == last)
        # The caller's output array is C-ordered (r, c): as an F buffer it
        # wants the transposed (or symmetric) result — the final step can
        # produce it in place, no store pass.
        dst = _OUT if i == last and (spec.t_out or spec.sym_out) else _ref(_REF_WS, i)
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

    fields = [n_inputs, len(packed), out_r >> 1, out_c >> 1]
    for shape in shapes:
        fields.extend(shape)
    for step in packed:
        fields.extend(step)
    return array("q", fields).tobytes(), tuple(routines)


def shape_key(shapes) -> bytes:
    """The plan-table key of a tuple of stored operand shapes: their
    ``(rows, cols)`` pairs as native int64s, the form the interpreter reads
    them in off the operands' buffers (and the shapes field of a record)."""
    return array("q", [dim for shape in shapes for dim in shape]).tobytes()


# ---------------------------------------------------------------------------
# The interpreter module and the per-plan native callable.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
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


class NativePlan(NamedTuple):
    """The packed plan's replay callable: one native call, one output.

    The interpreter binds the record's sizes from the operands' shapes
    and writes the result into the caller's ``out`` when that buffer
    conforms — float64, C-contiguous, writeable, exactly the output
    shape, and no address range shared with an operand (the final step
    may write its output while still reading an input); any other ``out``,
    or none, gets a fresh output array, which the caller copies where it
    wants it.  Plans stay stateless: concurrent replays share nothing but
    the read-only input buffers and the record.  The interpreter raises
    :class:`ExecutionError` itself for failed factorizations, and returns
    ``None`` for operands that are not C-contiguous float64 matrices of
    consistent shapes.  ``run`` (the interpreter's entry) and ``record``
    let a dispatcher serve the plan from its own plan table as well.

    ``timed`` receives the interpreter's duration of each variant step
    after the walk; ``routines`` names the routine each step runs.
    """

    run: Callable
    record: bytes
    routines: tuple[str, ...]

    def __call__(self, values: list, out=None, timed=None):
        seconds = None if timed is None else bytearray()
        result = self.run(self.record, None, None, seconds, values, out)
        if seconds:  # a timed walk ran
            for step_seconds in memoryview(seconds).cast("d"):
                timed(step_seconds)
        return result


# ---------------------------------------------------------------------------
# The backend.
# ---------------------------------------------------------------------------


class CEmitBackend(BlasBackend):
    """Pack whole plans for the native step interpreter.

    A packed plan runs only in the interpreter, traced or not.  A plan
    lowers step by step through the inherited blas ``specialize`` only
    when :meth:`lower_plan` declines: that is the blas fallback.
    """

    name = "c"
    fallback_name = "blas"

    def prepare(self) -> None:
        """Start building the interpreter on a background thread unless the
        codegen directory already holds it (one ``isfile``) or no build is
        possible; :meth:`lower_plan` then joins the build in flight.  So
        the compiler runs while the rest of the program compiles, not at
        its first call."""
        key, source = _interpreter_source()
        cache = get_codegen_cache()
        if not os.path.isfile(cache.path_for(key)) and cemit_available():
            cache.start_build(key, source, discover_toolchain())

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
            record, routines = pack_plan(plan)
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
        return NativePlan(run, record, routines)

    @staticmethod
    def _fall_back(reason: str, plan: "ExecutionPlan") -> None:
        get_registry().counter(
            "runtime.codegen_fallbacks", reason=reason
        ).inc()
        logger.info(
            "c backend fell back to blas for %s (%s)",
            plan.variant.name or "<anonymous>",
            reason,
        )
        return None

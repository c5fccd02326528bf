"""The ``c`` execution backend: frozen plans emitted as native C step loops.

PR 6's ``blas`` backend got the kernel *math* to BLAS speed, but every
plan step still pays a Python round-trip — interpreter dispatch, scipy
wrapper argument parsing, result allocation — which dominates on small
and medium operands.  This backend removes the per-step tax entirely:
each frozen :class:`~repro.runtime.plan.ExecutionPlan` is code-generated
as one C function that walks the whole step list natively, calling
BLAS/LAPACK through function pointers harvested from
``scipy.linalg.cython_blas`` / ``cython_lapack`` PyCapsules.  One Python
call per *replay* (a METH_FASTCALL CPython extension entry), zero per
step.

Everything dynamic is resolved to constants at emit time:

* transpose / side / triangularity flags, via the same algebra as
  :mod:`repro.runtime.backends.blas` (a C-contiguous stored array is
  re-presented as its Fortran-contiguous transpose with the flags
  flipped — no copies);
* all dimensions and leading dimensions (the plan is already specialized
  to one size vector);
* buffer addressing: inputs map to the call's buffer arguments,
  intermediates to offsets in one per-call ``malloc``'d workspace (so
  plans stay stateless and replay concurrently), the final step writes
  straight into the caller's output array whenever its natural layout
  allows.

The emitted module is compiled lazily with the discovered toolchain
(:mod:`~repro.runtime.backends.toolchain`) and cached content-addressed
in the bounded on-disk codegen cache
(:mod:`repro.runtime.codegen_cache`) — a warm deployment never invokes
the compiler.  Function-pointer addresses are per-process, so every load
re-harvests the capsules and passes them to the module's ``init``.

Degradation is total and silent: no toolchain, no harvestable capsules,
an unsupported step (the diagonal solves, configurations the routines
cannot express), a compiler rejection, or a load failure all fall back
to the ``blas`` lowering the plan already carries (``specialize`` here
delegates to :class:`~repro.runtime.backends.blas.BlasBackend`), counted
per reason in the ``runtime.codegen_fallbacks`` metric and logged at
info level.  A fallen-back plan reports ``backend == "blas"``.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import logging
import sys
import threading
import time
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.obs import get_registry
from repro.runtime.backends.base import Backend, LoweredKernel
from repro.runtime.backends.blas import (
    BlasBackend,
    _structured_position,
    blas_available,
)
from repro.runtime.backends.toolchain import (
    Toolchain,
    ToolchainError,
    discover_toolchain,
)
from repro.runtime.codegen_cache import get_codegen_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import KernelCallConfig
    from repro.runtime.plan import ExecutionPlan

__all__ = ["CEmitBackend", "cemit_available"]

logger = logging.getLogger("repro.runtime.cemit")

#: Every routine an emitted module may call, in capsule-harvest order.
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

#: C function-pointer typedef per routine (the Fortran calling convention
#: scipy's cython capsules expose: everything by pointer, 32-bit ints).
_SIGNATURES = {
    "dgemm": (
        "char*, char*, int*, int*, int*, double*, double*, int*, "
        "double*, int*, double*, double*, int*"
    ),
    "dsymm": (
        "char*, char*, int*, int*, double*, double*, int*, double*, "
        "int*, double*, double*, int*"
    ),
    "dtrmm": (
        "char*, char*, char*, char*, int*, int*, double*, double*, "
        "int*, double*, int*"
    ),
    "dtrsm": (
        "char*, char*, char*, char*, int*, int*, double*, double*, "
        "int*, double*, int*"
    ),
    "dposv": "char*, int*, int*, double*, int*, double*, int*, int*",
    "dsysv": (
        "char*, int*, int*, double*, int*, int*, double*, int*, "
        "double*, int*, int*"
    ),
    "dgetrf": "int*, int*, double*, int*, int*, int*",
    "dgetrs": (
        "char*, int*, int*, double*, int*, int*, double*, int*, int*"
    ),
}


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
    per process and is re-fed to every loaded module's ``init``.
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
    """Whether this process can emit, compile, and run native plans."""
    return (
        blas_available()
        and _harvest_addresses() is not None
        and discover_toolchain() is not None
    )


# ---------------------------------------------------------------------------
# Emission: one plan -> one C translation unit.
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    """The emitter cannot express a step; the plan falls back whole."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Buf(NamedTuple):
    """One buffer slot's emit-time layout.

    The physical buffer is read Fortran-contiguously with dimensions
    ``(pr, pc)`` and leading dimension ``pr``; the *logical* stored value
    is its transpose iff ``t`` (a C-contiguous stored array is exactly
    its F-contiguous transpose, so inputs start with ``t=True``).
    """

    pr: int
    pc: int
    t: bool
    expr: str

    @property
    def logical(self) -> tuple[int, int]:
        return (self.pc, self.pr) if self.t else (self.pr, self.pc)


class _StepSpec(NamedTuple):
    """One step's decided emission: output layout + line generator."""

    pr: int
    pc: int
    t_out: bool
    #: The physical output equals its own transpose (diagonal results),
    #: so either layout may serve as the final answer directly.
    sym_out: bool
    make: Callable[[str], list[str]]


def _memcpy(dst: str, src: str, doubles: int) -> str:
    return f"memcpy({dst}, {src}, (size_t){doubles} * sizeof(double));"


def _transpose_copy(
    dst: str, src: str, rows: int, cols: int, src_ld: int
) -> str:
    """``dst`` (rows x cols, F-order) := transpose of ``src`` (ld src_ld)."""
    return (
        "{ int i, j; "
        f"for (j = 0; j < {cols}; j++) "
        f"for (i = 0; i < {rows}; i++) "
        f"{dst}[i + (size_t)j * {rows}] = "
        f"{src}[j + (size_t)i * {src_ld}]; }}"
    )


def _tn(flag: bool) -> str:
    return "'T'" if flag else "'N'"


def _ul(lower: bool) -> str:
    return "'L'" if lower else "'U'"


def _lapack_check(step: int, routine: str) -> str:
    return (
        f"if (info != 0) {{ err_step = {step}; err_info = info; "
        f'err_routine = "{routine}"; goto native_done; }}'
    )


class _Emitter:
    """Walks a plan's steps, producing the body of ``cg_run``."""

    def __init__(self, plan: "ExecutionPlan"):
        self.plan = plan
        self.lines: list[str] = []
        self.routines: list[str] = []
        self.ws_doubles = 0
        self.has_solve = False

    def routine(self, name: str) -> str:
        if name not in self.routines:
            self.routines.append(name)
        return f"p_{name}"

    def alloc(self, doubles: int) -> str:
        offset = self.ws_doubles
        self.ws_doubles += doubles
        return f"(ws + {offset})"

    def alloc_ints(self, count: int) -> str:
        offset = self.ws_doubles
        self.ws_doubles += (count + 1) // 2
        return f"((int*)(ws + {offset}))"

    # -- per-kernel emission -------------------------------------------------

    def _gemm(
        self, i: int, cfg: "KernelCallConfig", l: _Buf, r: _Buf, last: bool
    ) -> _StepSpec:
        el = cfg.left_trans != l.t
        er = cfg.right_trans != r.t
        m, k = (l.pc, l.pr) if el else (l.pr, l.pc)
        _, n = (r.pc, r.pr) if er else (r.pr, r.pc)
        gemm = self.routine("dgemm")
        if last:
            # Emit the transposed product so the final dgemm writes the
            # caller's C-ordered output buffer directly: C^T = op(B)^T op(A)^T.
            def make(dst: str) -> list[str]:
                return [
                    f"char ta = {_tn(not er)}, tb = {_tn(not el)};",
                    f"int m = {n}, n = {m}, k = {k};",
                    f"int lda = {r.pr}, ldb = {l.pr}, ldc = {n};",
                    "double one = 1.0, zero = 0.0;",
                    f"{gemm}(&ta, &tb, &m, &n, &k, &one, {r.expr}, &lda, "
                    f"{l.expr}, &ldb, &zero, {dst}, &ldc);",
                ]

            return _StepSpec(n, m, True, False, make)

        def make(dst: str) -> list[str]:
            return [
                f"char ta = {_tn(el)}, tb = {_tn(er)};",
                f"int m = {m}, n = {n}, k = {k};",
                f"int lda = {l.pr}, ldb = {r.pr}, ldc = {m};",
                "double one = 1.0, zero = 0.0;",
                f"{gemm}(&ta, &tb, &m, &n, &k, &one, {l.expr}, &lda, "
                f"{r.expr}, &ldb, &zero, {dst}, &ldc);",
            ]

        return _StepSpec(m, n, False, False, make)

    def _symm(
        self, i: int, cfg: "KernelCallConfig", l: _Buf, r: _Buf, last: bool
    ) -> _StepSpec:
        side_left = cfg.side == "left"
        s, g = (l, r) if side_left else (r, l)
        g_trans = cfg.right_trans if side_left else cfg.left_trans
        eg = g_trans != g.t
        # The symmetric operand equals its transpose: its layout flag is
        # immaterial and 'U' always names a valid stored triangle.  A
        # transposed general operand computes the transposed product with
        # the side flipped (t_out records it) — dsymm has no transb.
        phys_side = ("'L'" if side_left else "'R'") if not eg else (
            "'R'" if side_left else "'L'"
        )
        m, n = g.pr, g.pc
        symm = self.routine("dsymm")

        def make(dst: str) -> list[str]:
            return [
                f"char side = {phys_side}, uplo = 'U';",
                f"int m = {m}, n = {n};",
                f"int lda = {s.pr}, ldb = {g.pr}, ldc = {m};",
                "double one = 1.0, zero = 0.0;",
                f"{symm}(&side, &uplo, &m, &n, &one, {s.expr}, &lda, "
                f"{g.expr}, &ldb, &zero, {dst}, &ldc);",
            ]

        return _StepSpec(m, n, eg, False, make)

    def _trmm(
        self, i: int, cfg: "KernelCallConfig", l: _Buf, r: _Buf, last: bool
    ) -> _StepSpec:
        t_pos = _structured_position(cfg)
        if t_pos is None:
            raise _Unsupported("unsupported-step")
        t_left = t_pos == "left"
        tb, g = (l, r) if t_left else (r, l)
        t_trans = cfg.left_trans if t_left else cfg.right_trans
        t_lower = cfg.left_lower if t_left else cfg.right_lower
        g_trans = cfg.right_trans if t_left else cfg.left_trans
        et = t_trans != tb.t
        lower = bool(t_lower) != tb.t  # transposed view flips the triangle
        eg = g_trans != g.t
        phys_side = ("'L'" if t_left else "'R'") if not eg else (
            "'R'" if t_left else "'L'"
        )
        transa = et if not eg else not et
        m, n = g.pr, g.pc
        trmm = self.routine("dtrmm")

        def make(dst: str) -> list[str]:
            return [
                # dtrmm multiplies in place: the operand buffers must
                # survive the call, so B is the output slot's private copy.
                _memcpy(dst, g.expr, m * n),
                f"char side = {phys_side}, uplo = {_ul(lower)}, "
                f"ta = {_tn(transa)}, diag = 'N';",
                f"int m = {m}, n = {n};",
                f"int lda = {tb.pr}, ldb = {m};",
                "double one = 1.0;",
                f"{trmm}(&side, &uplo, &ta, &diag, &m, &n, &one, "
                f"{tb.expr}, &lda, {dst}, &ldb);",
            ]

        return _StepSpec(m, n, eg, False, make)

    def _trsm(
        self, i: int, cfg: "KernelCallConfig", l: _Buf, r: _Buf, last: bool
    ) -> _StepSpec:
        side_left = cfg.side == "left"
        c, rhs = (l, r) if side_left else (r, l)
        c_trans = cfg.left_trans if side_left else cfg.right_trans
        c_lower = cfg.left_lower if side_left else cfg.right_lower
        r_trans = cfg.right_trans if side_left else cfg.left_trans
        if c_lower is None:
            raise _Unsupported("unsupported-step")
        ec = c_trans != c.t
        lower = bool(c_lower) != c.t
        er = r_trans != rhs.t
        phys_side = ("'L'" if side_left else "'R'") if not er else (
            "'R'" if side_left else "'L'"
        )
        transa = ec if not er else not ec
        m, n = rhs.pr, rhs.pc
        trsm = self.routine("dtrsm")

        def make(dst: str) -> list[str]:
            return [
                _memcpy(dst, rhs.expr, m * n),
                f"char side = {phys_side}, uplo = {_ul(lower)}, "
                f"ta = {_tn(transa)}, diag = 'N';",
                f"int m = {m}, n = {n};",
                f"int lda = {c.pr}, ldb = {m};",
                "double one = 1.0;",
                f"{trsm}(&side, &uplo, &ta, &diag, &m, &n, &one, "
                f"{c.expr}, &lda, {dst}, &ldb);",
            ]

        return _StepSpec(m, n, er, False, make)

    def _dimm(
        self, i: int, cfg: "KernelCallConfig", l: _Buf, r: _Buf, last: bool
    ) -> _StepSpec:
        # The diag flags locate the diagonal operand exactly (``side``
        # marks the structured operand, which is the *other* one for
        # ``L * D`` / ``S * D`` — see blas._lower_dimm).
        if cfg.left_diag or cfg.right_diag:
            diag_left = cfg.left_diag
        else:
            diag_left = cfg.side == "left"
        d, g = (l, r) if diag_left else (r, l)
        g_trans = cfg.right_trans if diag_left else cfg.left_trans
        eg = g_trans != g.t
        # Emit in the general operand's own layout (t_out = eg): the scale
        # then runs down physical rows or columns with unit stride.
        row_scale = diag_left != eg
        m, n = g.pr, g.pc
        stride = d.pr + 1

        def make(dst: str) -> list[str]:
            if row_scale:
                body = (
                    f"for (j = 0; j < {n}; j++) "
                    f"for (i = 0; i < {m}; i++) "
                    f"{dst}[i + (size_t)j * {m}] = "
                    f"{d.expr}[(size_t)i * {stride}] * "
                    f"{g.expr}[i + (size_t)j * {m}];"
                )
            else:
                body = (
                    f"for (j = 0; j < {n}; j++) {{ "
                    f"double s = {d.expr}[(size_t)j * {stride}]; "
                    f"for (i = 0; i < {m}; i++) "
                    f"{dst}[i + (size_t)j * {m}] = "
                    f"s * {g.expr}[i + (size_t)j * {m}]; }}"
                )
            return ["int i, j;", body]

        return _StepSpec(m, n, eg, False, make)

    def _didimm(
        self, i: int, cfg: "KernelCallConfig", l: _Buf, r: _Buf, last: bool
    ) -> _StepSpec:
        n = l.pr
        ls, rs = l.pr + 1, r.pr + 1

        def make(dst: str) -> list[str]:
            return [
                "int k;",
                f"memset({dst}, 0, (size_t){n * n} * sizeof(double));",
                f"for (k = 0; k < {n}; k++) "
                f"{dst}[(size_t)k * {n + 1}] = "
                f"{l.expr}[(size_t)k * {ls}] * {r.expr}[(size_t)k * {rs}];",
            ]

        return _StepSpec(n, n, False, True, make)

    def _factor_solve(
        self,
        i: int,
        cfg: "KernelCallConfig",
        l: _Buf,
        r: _Buf,
        family: str,
    ) -> _StepSpec:
        """dposv / dsysv / dgetrf+dgetrs: copy-factor the coefficient,
        materialize the right-hand side in the layout the solve needs."""
        self.has_solve = True
        side_left = cfg.side == "left"
        c, rhs = (l, r) if side_left else (r, l)
        c_trans = cfg.left_trans if side_left else cfg.right_trans
        r_trans = cfg.right_trans if side_left else cfg.left_trans
        ec = c_trans != c.t
        er = r_trans != rhs.t
        na = c.pr
        # side=left solves op(A) X = R and needs R physical in B;
        # side=right solves op(A)^T X^T = R^T and needs R^T physical —
        # either way the buffer already holds the right presentation
        # exactly when er == (not side_left), else one transposed copy
        # (the scipy path pays the same copy inside the wrapper).
        direct = er == (not side_left)
        brow, bcol = (rhs.pr, rhs.pc) if direct else (rhs.pc, rhs.pr)
        acopy = self.alloc(na * na)
        if family == "dposv":
            solve = self.routine("dposv")
            extra_decl: list[str] = []
            calls = [
                f"{solve}(&uplo, &nn, &nrhs, {acopy}, &lda, DST, &ldb, "
                "&info);",
                _lapack_check(i, "dposv"),
            ]
        elif family == "dsysv":
            solve = self.routine("dsysv")
            ipiv = self.alloc_ints(na)
            work = self.alloc(64 * na)
            extra_decl = [f"int lwork = {64 * na};"]
            calls = [
                f"{solve}(&uplo, &nn, &nrhs, {acopy}, &lda, {ipiv}, DST, "
                f"&ldb, {work}, &lwork, &info);",
                _lapack_check(i, "dsysv"),
            ]
        else:  # dgetrf + dgetrs
            getrf = self.routine("dgetrf")
            getrs = self.routine("dgetrs")
            ipiv = self.alloc_ints(na)
            trans = (ec if side_left else not ec)
            extra_decl = [f"char tr = {_tn(trans)};"]
            calls = [
                f"{getrf}(&nn, &nn, {acopy}, &lda, {ipiv}, &info);",
                _lapack_check(i, "dgetrf"),
                f"{getrs}(&tr, &nn, &nrhs, {acopy}, &lda, {ipiv}, DST, "
                "&ldb, &info);",
                _lapack_check(i, "dgetrs"),
            ]

        def make(dst: str) -> list[str]:
            lines = [
                f"char uplo = 'U';",
                f"int nn = {na}, nrhs = {bcol}, lda = {na}, ldb = {brow}, "
                "info = 0;",
                *extra_decl,
                # The factorization overwrites its matrix: factor a
                # workspace copy, never an operand buffer.
                _memcpy(acopy, c.expr, na * na),
                _memcpy(dst, rhs.expr, rhs.pr * rhs.pc)
                if direct
                else _transpose_copy(dst, rhs.expr, brow, bcol, rhs.pr),
            ]
            lines += [line.replace("DST", dst) for line in calls]
            return lines

        return _StepSpec(brow, bcol, not side_left, False, make)


_PRODUCT_EMITTERS = {
    "GEMM": "_gemm",
    "SYMM": "_symm",
    "SYSYMM": "_symm",
    "TRMM": "_trmm",
    "TRTRMM": "_trmm",
    "TRSYMM": "_trmm",
    "DIMM": "_dimm",
    "DIDIMM": "_didimm",
    "TRSM": "_trsm",
    "TRSYSV": "_trsm",
    "TRTRSV": "_trsm",
}

_SOLVE_FAMILIES = {
    "POGESV": "dposv",
    "POSYSV": "dposv",
    "POTRSV": "dposv",
    "SYGESV": "dsysv",
    "SYSYSV": "dsysv",
    "SYTRSV": "dsysv",
    "GEGESV": "dgetrs",
    "GESYSV": "dgetrs",
    "GETRSV": "dgetrs",
}


def emit_plan_source(
    plan: "ExecutionPlan",
) -> tuple[str, str, list[str], tuple[int, int]]:
    """Emit one plan as C: ``(source, module_name, routines, out_shape)``.

    Raises :class:`_Unsupported` for steps outside the emitter's kernel
    table (the diagonal solves, configurations without the flags the
    routines need) — callers fall the whole plan back to ``blas``.
    """
    steps = plan.variant.steps
    if not steps:
        raise _Unsupported("no-steps")
    n_inputs = plan.chain.n
    em = _Emitter(plan)

    bufs: list[_Buf] = [
        # A C-contiguous stored (r, c) array is the F-contiguous (c, r)
        # transpose of the logical value: t=True, ld = c.
        _Buf(c, r, True, f"in{i}")
        for i, (r, c) in enumerate(plan.expected_shapes)
    ]

    def slot(ref) -> int:
        kind, index = ref
        return index if kind == "matrix" else n_inputs + index

    last = len(steps) - 1
    step_blocks: list[str] = []
    for i, (step, cfg) in enumerate(zip(steps, plan.call_configs)):
        l, r = bufs[slot(step.left_ref)], bufs[slot(step.right_ref)]
        kernel = step.kernel.name
        family = _SOLVE_FAMILIES.get(kernel)
        if family is not None:
            spec = em._factor_solve(i, cfg, l, r, family)
        else:
            method = _PRODUCT_EMITTERS.get(kernel)
            if method is None:
                raise _Unsupported("unsupported-step")
            spec = getattr(em, method)(i, cfg, l, r, i == last)
        if i == last and (spec.t_out or spec.sym_out):
            # The caller's output array is C-ordered (r, c): as an F
            # buffer it wants the transposed (or symmetric) result — the
            # final step can produce it in place, no store pass.
            dst = "outbuf"
        else:
            dst = em.alloc(spec.pr * spec.pc)
        body = "\n".join(f"      {line}" for line in spec.make(dst))
        step_blocks.append(
            f"    {{ /* step {i}: {kernel} -> "
            f"{family or _PRODUCT_EMITTERS[kernel].lstrip('_')} */\n"
            f"{body}\n    }}"
        )
        bufs.append(_Buf(spec.pr, spec.pc, spec.t_out, dst))

    final = bufs[-1]
    out_r, out_c = final.logical
    if not (final.t or final.expr == "outbuf"):
        # Natural layout disagreed with the output array: one transposed
        # store pass (outbuf is the F-contiguous (c, r) view of the
        # C-ordered result).
        step_blocks.append(
            "    { /* store: transpose into the output array */\n"
            "      "
            + _transpose_copy("outbuf", final.expr, out_c, out_r, final.pr)
            + "\n    }"
        )

    source = _render_module(
        em, plan, n_inputs, (out_r, out_c), step_blocks
    )
    digest = hashlib.sha256(
        f"{sys.implementation.cache_tag}\0{source}".encode()
    ).hexdigest()[:16]
    modname = f"_repro_cg_{digest}"
    return source.replace("@MOD@", modname), modname, em.routines, (
        out_r,
        out_c,
    )


def _render_module(
    em: _Emitter,
    plan: "ExecutionPlan",
    n_inputs: int,
    out_shape: tuple[int, int],
    step_blocks: list[str],
) -> str:
    nbuf = n_inputs + 1
    out_doubles = out_shape[0] * out_shape[1]
    typedefs = "\n".join(
        f"typedef void (*{name}_fn)({_SIGNATURES[name]});\n"
        f"static {name}_fn p_{name};"
        for name in em.routines
    )
    assigns = "\n".join(
        f"    p_{name} = ({name}_fn)PyLong_AsVoidPtr("
        f"PyTuple_GET_ITEM(addrs, {k}));"
        for k, name in enumerate(em.routines)
    )
    len_checks = []
    for i, (r, c) in enumerate(plan.expected_shapes):
        len_checks.append(
            f"    if (buf[{i}].len != (Py_ssize_t){r * c} * 8) "
            f"{{ PyErr_Format(PyExc_ValueError, "
            f'"operand {i}: expected {r}x{c} float64"); goto fail; }}'
        )
    len_checks.append(
        f"    if (buf[{n_inputs}].len != (Py_ssize_t){out_doubles} * 8) "
        f"{{ PyErr_SetString(PyExc_ValueError, "
        f'"output: expected {out_shape[0]}x{out_shape[1]} float64"); '
        "goto fail; }"
    )
    input_decls = "\n".join(
        f"    double* in{i} = (double*)buf[{i}].buf;"
        for i in range(n_inputs)
    )
    ws_alloc = (
        f"    ws = (double*)malloc((size_t){em.ws_doubles} * "
        "sizeof(double));\n"
        "    if (ws == NULL) { PyErr_NoMemory(); goto fail; }"
        if em.ws_doubles
        else "    (void)ws;"
    )
    plan_name = (plan.variant.name or "<anonymous>").replace('"', "'")
    sizes = ",".join(str(s) for s in plan.sizes)
    steps = "\n".join(step_blocks)
    return f"""/* Generated by repro.runtime.backends.cemit
 * plan: {plan_name} at q=[{sizes}]
 * One native call replays the whole step list; BLAS/LAPACK is reached
 * through function pointers injected per process via init().
 */
#include <Python.h>
#include <stdlib.h>
#include <string.h>

{typedefs}

static PyObject* cg_init(PyObject* self, PyObject* addrs) {{
    if (!PyTuple_Check(addrs) || PyTuple_GET_SIZE(addrs) != {len(em.routines)}) {{
        PyErr_SetString(PyExc_TypeError,
                        "init expects a tuple of {len(em.routines)} addresses");
        return NULL;
    }}
{assigns}
    if (PyErr_Occurred()) return NULL;
    Py_RETURN_NONE;
}}

static PyObject* cg_run(PyObject* self, PyObject* const* args,
                        Py_ssize_t nargs) {{
    Py_buffer buf[{nbuf}];
    int held = 0;
    double* ws = NULL;
    int err_step = -1, err_info = 0;
    const char* err_routine = NULL;
    if (nargs != {nbuf}) {{
        PyErr_SetString(PyExc_TypeError,
                        "run expects {n_inputs} operands plus the output");
        return NULL;
    }}
    for (; held < {n_inputs}; held++)
        if (PyObject_GetBuffer(args[held], &buf[held], PyBUF_SIMPLE) < 0)
            goto fail;
    if (PyObject_GetBuffer(args[{n_inputs}], &buf[{n_inputs}],
                           PyBUF_WRITABLE) < 0)
        goto fail;
    held++;
{chr(10).join(len_checks)}
{ws_alloc}
    {{
{input_decls}
    double* outbuf = (double*)buf[{n_inputs}].buf;
    Py_BEGIN_ALLOW_THREADS
{steps}
    goto native_done;
native_done: ;
    Py_END_ALLOW_THREADS
    }}
    if (err_step >= 0) {{
        PyErr_Format(PyExc_RuntimeError,
                     "plan step %d: %s failed (info=%d)",
                     err_step, err_routine, err_info);
        goto fail;
    }}
    free(ws);
    while (held) PyBuffer_Release(&buf[--held]);
    Py_RETURN_NONE;
fail:
    free(ws);
    while (held) PyBuffer_Release(&buf[--held]);
    return NULL;
}}

static PyMethodDef cg_methods[] = {{
    {{"init", (PyCFunction)cg_init, METH_O, NULL}},
    {{"run", (PyCFunction)(void*)cg_run, METH_FASTCALL, NULL}},
    {{NULL, NULL, 0, NULL}}
}};

static struct PyModuleDef cg_module = {{
    PyModuleDef_HEAD_INIT, "@MOD@", NULL, -1, cg_methods
}};

PyMODINIT_FUNC PyInit_@MOD@(void) {{
    return PyModule_Create(&cg_module);
}}
"""


# ---------------------------------------------------------------------------
# Loading and the per-plan native callable.
# ---------------------------------------------------------------------------

#: module name -> bound ``run`` of an already-initialized module.  Shared
#: objects cannot be unloaded; one load serves every plan that hashes to
#: the same emission.
_loaded: dict[str, Callable] = {}
_loaded_lock = threading.Lock()


def _load_native_run(
    modname: str, so_path: str, routines: list[str]
) -> Callable:
    with _loaded_lock:
        run = _loaded.get(modname)
        if run is not None:
            return run
        loader = importlib.machinery.ExtensionFileLoader(modname, so_path)
        spec = importlib.util.spec_from_file_location(
            modname, so_path, loader=loader
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        addresses = _harvest_addresses()
        if addresses is None:  # pragma: no cover - guarded by lower_plan
            raise ExecutionError("BLAS capsule addresses unavailable")
        module.init(tuple(addresses[name] for name in routines))
        run = module.run
        _loaded[modname] = run
        return run


class _NativePlan:
    """The compiled plan's replay callable: one native call, one output.

    A fresh output array per call keeps plans stateless (concurrent
    replays share nothing but the read-only input buffers and the
    module's code).  The retry path re-presents inputs C-contiguously —
    the one copy non-contiguous callers pay, exactly where the blas
    backend pays ``np.asfortranarray``.
    """

    __slots__ = ("_run", "_out_shape")

    def __init__(self, run: Callable, out_shape: tuple[int, int]):
        self._run = run
        self._out_shape = out_shape

    def __call__(self, values: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self._out_shape, dtype=np.float64)
        try:
            try:
                self._run(*values, out)
            except (BufferError, ValueError):
                self._run(
                    *[
                        np.ascontiguousarray(v, dtype=np.float64)
                        for v in values
                    ],
                    out,
                )
        except RuntimeError as exc:  # LAPACK info != 0, translated
            raise ExecutionError(str(exc)) from exc
        return out


# ---------------------------------------------------------------------------
# The backend.
# ---------------------------------------------------------------------------


class CEmitBackend(Backend):
    """Code-generate whole plans to native step loops; lower steps via blas.

    ``specialize`` delegates to :class:`BlasBackend`, so every plan this
    backend compiles also carries the per-step blas lowering — that is
    the per-step loop a timed replay (``replay(..., record=...)``) runs
    and the ready-made fallback when native lowering declines.
    """

    name = "c"
    fallback_name = "blas"

    def __init__(self):
        self._blas = BlasBackend()

    def specialize(
        self, kernel_name: str, cfg: "KernelCallConfig"
    ) -> LoweredKernel:
        return self._blas.specialize(kernel_name, cfg)

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
            source, modname, routines, out_shape = emit_plan_source(plan)
        except _Unsupported as exc:
            return self._fall_back(exc.reason, plan)
        registry.histogram("runtime.codegen_seconds", stage="emit").observe(
            time.perf_counter() - start
        )
        try:
            so_path = get_codegen_cache().shared_object(
                modname, source, toolchain
            )
        except ToolchainError as exc:
            logger.info("codegen compile failed: %s", exc)
            return self._fall_back("compile-error", plan)
        start = time.perf_counter()
        try:
            run = _load_native_run(modname, so_path, routines)
        except Exception as exc:
            logger.info("codegen load failed for %s: %s", modname, exc)
            return self._fall_back("load-error", plan)
        registry.histogram("runtime.codegen_seconds", stage="load").observe(
            time.perf_counter() - start
        )
        return _NativePlan(run, out_shape)

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

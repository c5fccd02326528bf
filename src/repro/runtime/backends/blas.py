"""The native BLAS execution backend: frozen kernel calls lowered to
``scipy.linalg.blas`` / ``scipy.linalg.lapack`` routines.

The compiler tracks operand properties (triangular, symmetric, SPD,
diagonal, transposed) precisely so the cheap *structured* kernel can be
picked — but the reference backend still executes every product as a full
dense matmul and every solve through generic scipy entry points.  This
module makes the structured choice pay off at execution time: each step's
:class:`~repro.runtime.executor.StepCall` (kernel family, which operand is
structured, its transpose and stored triangularity, the other operand's
transpose) is lowered **once, at plan-compile time** to a direct
BLAS/LAPACK call of its family, with the roles pre-resolved into the
routine's own flags.

Contiguity and copies
---------------------
BLAS is column-major.  A C-contiguous (numpy-default) array ``a`` is the
same memory as the Fortran-contiguous array ``a.T``, so every lowering
routes operands through :func:`_fortran_view` — fold the physical order
into the routine's ``trans``/``side``/``lower`` flags instead of
materializing transposed or reordered copies.  The only copies the hot
loop pays are the ones the routines themselves require (e.g. ``dtrmm`` /
``dtrsm`` write their result into a private copy of ``B`` because the
operand buffers must never be overwritten — plans replay concurrently
and input arrays belong to the caller).

Lowering table (by family; see also ``BLAS_LOWERED_KERNELS``)
-------------------------------------------------------------
===========================  =======================================
family: kernels              routine
===========================  =======================================
gemm: GEMM                   ``dgemm`` (``dsyrk`` + mirror when both
                             operands are the same array, ``A op(A)``)
symm: SYMM, SYSYMM           ``dsymm``
trmm: TRMM, TRTRMM, TRSYMM   ``dtrmm``
dimm, didimm: DIMM, DIDIMM   broadcast diagonal scaling
trsm: TRSM, TRSYSV, TRTRSV   ``dtrsm``
posv: POGESV, POSYSV, ...    ``dposv``
sysv: SYGESV, SYSYSV, ...    ``dsysv``
gesv: GEGESV, GESYSV, ...    ``dgetrf`` + ``dgetrs``
disv: DIGESV, DISYSV, ...    reference fallback (already a broadcast)
===========================  =======================================

Calls the routines cannot express fall back per-kernel to the
reference implementation (labelled ``"reference fallback"``), so plan
compilation is total: the backend never refuses a plan, it only lowers
less of it.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError
from repro.kernels import reference as _reference
from repro.kernels.spec import KERNEL_FAMILY
from repro.runtime.backends.base import (
    FALLBACK_ROUTINE,
    Backend,
    LoweredKernel,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import StepCall

try:  # pragma: no cover - exercised implicitly on every import
    from scipy.linalg import blas as _blas
    from scipy.linalg import lapack as _lapack
except Exception:  # pragma: no cover - scipy-less environments
    _blas = None
    _lapack = None

_BLAS_ROUTINES = ("dgemm", "dsymm", "dtrmm", "dtrsm", "dsyrk")
_LAPACK_ROUTINES = ("dgetrf", "dgetrs", "dposv", "dsysv")


def blas_available() -> bool:
    """Whether every routine this backend lowers to is importable."""
    return (
        _blas is not None
        and _lapack is not None
        and all(hasattr(_blas, name) for name in _BLAS_ROUTINES)
        and all(hasattr(_lapack, name) for name in _LAPACK_ROUTINES)
    )


# ---------------------------------------------------------------------------
# Contiguity algebra: present operands Fortran-contiguously with zero copies.
# ---------------------------------------------------------------------------

def _fortran_view(a: np.ndarray, trans: bool):
    """``(array, trans)`` presenting ``op(a)`` without copying.

    ``op(array)`` (transpose iff the returned flag) equals ``op(a)`` for
    the incoming flag, and the returned array is Fortran-contiguous
    whenever ``a`` is contiguous in either order — a C-contiguous array
    is re-presented as its F-contiguous transpose view with the flag
    flipped.  Non-contiguous arrays (rare: sliced views) are copied.
    """
    if a.flags.f_contiguous:
        return a, trans
    if a.flags.c_contiguous:
        return a.T, not trans
    return np.asfortranarray(a), trans


def _fortran_triangular(a: np.ndarray, trans: bool, lower: bool):
    """:func:`_fortran_view` for triangular operands.

    Re-presenting the array as its transpose view flips the *stored*
    triangularity along with the trans flag.
    """
    if a.flags.f_contiguous:
        return a, trans, lower
    if a.flags.c_contiguous:
        return a.T, not trans, not lower
    return np.asfortranarray(a), trans, lower


def _check_info(info: int, what: str) -> None:
    if info < 0:
        raise ExecutionError(
            f"{what} failed: illegal argument {-info} to the LAPACK routine"
        )
    if info > 0:
        raise ExecutionError(f"{what} failed: matrix is singular (info={info})")


# ---------------------------------------------------------------------------
# Lowerings, one per family.  Each reads the operand roles off the step's
# StepCall: the structured operand (coefficient, for solves) is the left
# one iff ``call.s_left``.
# ---------------------------------------------------------------------------

def _lower_gemm(call: "StepCall"):
    """``op(A) op(B)`` -> ``dgemm`` (``dsyrk`` when A and B alias)."""
    lt, rt = call.left_trans, call.right_trans
    syrk_shape = lt != rt  # A op(A): symmetric rank-k update territory

    def run(left, right):
        if syrk_shape and left is right:
            # One operand, half the FLOPs: dsyrk fills the upper
            # triangle of op(a) op(a)^T; mirror it to the full dense
            # storage every downstream kernel expects.
            a, t = _fortran_view(left, lt)
            c = _blas.dsyrk(1.0, a, trans=1 if t else 0, lower=0)
            return c + np.triu(c, 1).T
        a, ta = _fortran_view(left, lt)
        b, tb = _fortran_view(right, rt)
        return _blas.dgemm(1.0, a, b, trans_a=1 if ta else 0, trans_b=1 if tb else 0)

    return run


def _lower_symm(call: "StepCall"):
    """``S G`` / ``G S`` with S symmetric -> ``dsymm``.

    The symmetric operand equals its transpose, so its trans flag and
    physical order are both immaterial; the general operand's transpose
    is expressed by computing the transposed product with the side
    flipped and viewing the result back (``(S G^T)^T = G S``), which
    ``dsymm`` *can* spell — no transposed copy is ever materialized.
    """
    side_left, g_trans = call.s_left, call.o_trans

    def run(left, right):
        s, g = (left, right) if side_left else (right, left)
        sa, _ = _fortran_view(s, False)
        gb, gt = _fortran_view(g, g_trans)
        if not gt:
            return _blas.dsymm(1.0, sa, gb, side=0 if side_left else 1, lower=0)
        out = _blas.dsymm(1.0, sa, gb, side=1 if side_left else 0, lower=0)
        return out.T

    return run


def _lower_triangular(call: "StepCall", routine: str):
    """``op(T) G`` / ``G op(T)`` (``dtrmm``) or ``op(T)^-1 G`` /
    ``G op(T)^-1`` (``dtrsm``), T triangular.

    Triangular transposition folds into ``trans_a`` (flipping the stored
    triangularity when the array is re-presented as its transpose view);
    a transposed general operand uses the same side-flip duality as
    :func:`_lower_symm`: ``op(T) G^T = (G op(T)^T)^T``, and likewise for
    the inverse.
    """
    if call.s_lower is None:
        return None
    side_left, t_trans, t_lower, g_trans = (
        call.s_left, call.s_trans, call.s_lower, call.o_trans,
    )
    apply = getattr(_blas, routine)

    def run(left, right):
        t, g = (left, right) if side_left else (right, left)
        ta, tt, tl = _fortran_triangular(t, t_trans, t_lower)
        gb, gt = _fortran_view(g, g_trans)
        if not gt:
            return apply(
                1.0, ta, gb,
                side=0 if side_left else 1,
                lower=1 if tl else 0,
                trans_a=1 if tt else 0,
            )
        out = apply(
            1.0, ta, gb,
            side=1 if side_left else 0,
            lower=1 if tl else 0,
            trans_a=0 if tt else 1,
        )
        return out.T

    return run


def _lower_dimm(call: "StepCall"):
    """``D G`` (row scaling) / ``G D`` (column scaling), D diagonal.

    Not a BLAS call at all — a broadcast multiply over the diagonal view,
    replacing the reference backend's full dense matmul (2mn^2 FLOPs) with
    the mn the kernel actually costs.  Bit-compatible with the dense
    emulation for finite inputs: the dense sum adds exact zeros.
    """
    diag_left, g_trans = call.s_left, call.o_trans

    def run(left, right):
        d, g = (left, right) if diag_left else (right, left)
        diag = d.diagonal()
        og = g.T if g_trans else g
        if diag_left:
            return diag[:, None] * og
        return og * diag[None, :]

    return run


def _lower_didimm(call: "StepCall"):
    """``D1 D2`` with both operands diagonal: elementwise on the diagonals."""

    def run(left, right):
        return np.diag(left.diagonal() * right.diagonal())

    return run


def _lower_posv(call: "StepCall"):
    """SPD solve -> one ``dposv`` (Cholesky-factor-and-solve) call."""
    side_left, r_trans = call.s_left, call.o_trans

    def run(left, right):
        a, b = (left, right) if side_left else (right, left)
        rhs = b.T if r_trans else b
        if side_left:
            _, x, info = _lapack.dposv(a, rhs, lower=0)
        else:
            # X A = R  <=>  A X^T = R^T (A is symmetric).
            _, x, info = _lapack.dposv(a, rhs.T, lower=0)
        if info != 0:
            raise ExecutionError(
                f"SPD solve failed: matrix is not positive definite "
                f"(dposv info={info})"
            )
        return x if side_left else x.T

    return run


#: ``dsysv`` workspace (``lwork``) per coefficient row.  scipy's default
#: (``lwork = n``) forces the unblocked Bunch-Kaufman factorization;
#: ``64 n`` is the blocked optimum ``dsysv_lwork`` reports for reference
#: LAPACK and OpenBLAS (block size 64).
SYSV_LWORK_PER_ROW = 64


def _lower_sysv(call: "StepCall"):
    """Symmetric-indefinite solve -> ``dsysv`` (blocked Bunch-Kaufman)."""
    side_left, r_trans = call.s_left, call.o_trans

    def run(left, right):
        a, b = (left, right) if side_left else (right, left)
        rhs = b.T if r_trans else b
        lwork = SYSV_LWORK_PER_ROW * max(a.shape[0], 1)
        if side_left:
            _, _, x, info = _lapack.dsysv(a, rhs, lower=0, lwork=lwork)
        else:
            _, _, x, info = _lapack.dsysv(a, rhs.T, lower=0, lwork=lwork)
        _check_info(info, "symmetric solve")
        return x if side_left else x.T

    return run


def _lower_gesv(call: "StepCall"):
    """General solve -> ``dgetrf`` + ``dgetrs`` (trans folded into getrs)."""
    side_left, c_trans, r_trans = call.s_left, call.s_trans, call.o_trans

    def run(left, right):
        a, b = (left, right) if side_left else (right, left)
        aa, at = _fortran_view(a, c_trans)
        lu, piv, info = _lapack.dgetrf(aa)
        _check_info(info, "general solve")
        if side_left:
            # op(A) X = R with R = op_r(b).
            rhs = b.T if r_trans else b
            x, info = _lapack.dgetrs(lu, piv, rhs, trans=1 if at else 0)
            _check_info(info, "general solve")
            return x
        # X op(A) = R  <=>  op(A)^T X^T = R^T.
        rhs_t = b if r_trans else b.T
        x, info = _lapack.dgetrs(lu, piv, rhs_t, trans=0 if at else 1)
        _check_info(info, "general solve")
        return x.T

    return run


# ---------------------------------------------------------------------------
# The backend.
# ---------------------------------------------------------------------------

#: family -> (routine label, lowering).  Families absent here (the
#: diagonal solves, which the reference backend already executes as
#: broadcasts) always take the reference fallback.
_LOWERINGS = {
    "gemm": ("dgemm", _lower_gemm),
    "symm": ("dsymm", _lower_symm),
    "trmm": ("dtrmm", partial(_lower_triangular, routine="dtrmm")),
    "dimm": ("diag-scale", _lower_dimm),
    "didimm": ("diag-scale", _lower_didimm),
    "trsm": ("dtrsm", partial(_lower_triangular, routine="dtrsm")),
    "posv": ("dposv", _lower_posv),
    "sysv": ("dsysv", _lower_sysv),
    "gesv": ("dgetrf+dgetrs", _lower_gesv),
}

#: kernel name -> routine label the backend lowers it to (README Table),
#: derived from the kernel-family table.
BLAS_LOWERED_KERNELS = {
    kernel: _LOWERINGS[family][0]
    for kernel, family in KERNEL_FAMILY.items()
    if family in _LOWERINGS
}


class BlasBackend(Backend):
    """Lower frozen kernel calls to direct BLAS/LAPACK routines.

    Total over the kernel set: anything the routines cannot express —
    the diagonal solves, missing scipy routines, calls without the
    triangularity they need — lowers to the reference implementation labelled
    :data:`~repro.runtime.backends.base.FALLBACK_ROUTINE`.
    """

    name = "blas"

    def specialize(self, call: "StepCall") -> LoweredKernel:
        entry = _LOWERINGS.get(call.family)
        if entry is not None and blas_available():
            routine, lower = entry
            impl = lower(call)
            if impl is not None:
                return LoweredKernel(impl, routine)
        return LoweredKernel(
            _reference.specialize_kernel(call), FALLBACK_ROUTINE
        )

"""Executable reference implementations of every kernel in Table I.

These NumPy/SciPy implementations form the runnable BLAS/LAPACK substrate of
the reproduction.  They are correctness-oriented: symmetric and triangular
matrices are stored as full dense arrays (with the redundant half present /
zeroed) so that results can be compared directly against naive dense
evaluation in the test suite.  The *cost* of a kernel is always taken from
its cost function in :mod:`repro.kernels.spec` — never measured from these
implementations — exactly as in the paper, where FLOP counts are analytic.

Conventions
-----------
* Every binary kernel associates a left operand with a right operand; the
  ``side`` argument of solve kernels says whether the *coefficient* (the
  inverted operand) is the left ("left": compute ``op(A)^-1 B``) or the
  right ("right": compute ``B op(A)^-1``) factor of the product.
* ``trans_*`` flags mean "the logical operand is the transpose of the array
  passed in"; transposition is applied lazily through NumPy views.
* ``lower_*`` flags give the *logical* triangularity where relevant.
* Execution plans do not call the per-kernel functions: they lower each
  step's :class:`~repro.runtime.executor.StepCall` once, by kernel
  family, through :func:`specialize_kernel` (one matmul for every product
  family, one structured solver per solve family).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.errors import ExecutionError

__all__ = [
    "gemm", "symm", "trmm", "sysymm", "trsymm", "trtrmm",
    "gegesv", "gesysv", "getrsv",
    "sygesv", "sysysv", "sytrsv",
    "pogesv", "posysv", "potrsv",
    "trsm", "trsysv", "trtrsv",
    "dimm", "didimm", "digesv", "disysv", "ditrsv", "didisv",
    "geinv", "syinv", "poinv", "trinv", "diinv",
    "explicit_transpose", "copy",
    "PRODUCT_FAMILIES", "SOLVER_BY_FAMILY", "specialize_kernel",
]


def _op(a: np.ndarray, trans: bool) -> np.ndarray:
    return a.T if trans else a


def _check_product_dims(a: np.ndarray, b: np.ndarray, kernel: str) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ExecutionError(f"{kernel}: operands must be 2-D arrays")
    if a.shape[1] != b.shape[0]:
        raise ExecutionError(
            f"{kernel}: inner dimensions do not match: {a.shape} x {b.shape}"
        )


def _solve_general(coeff: np.ndarray, rhs: np.ndarray, side: str) -> np.ndarray:
    """``coeff^-1 rhs`` (side='left') or ``rhs coeff^-1`` (side='right')."""
    try:
        if side == "left":
            return np.linalg.solve(coeff, rhs)
        return np.linalg.solve(coeff.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise ExecutionError(f"general solve failed: {exc}") from exc


def _solve_symmetric(coeff: np.ndarray, rhs: np.ndarray, side: str) -> np.ndarray:
    try:
        if side == "left":
            return scipy.linalg.solve(coeff, rhs, assume_a="sym")
        return scipy.linalg.solve(coeff, rhs.T, assume_a="sym").T
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise ExecutionError(f"symmetric solve failed: {exc}") from exc


def _solve_spd(coeff: np.ndarray, rhs: np.ndarray, side: str) -> np.ndarray:
    try:
        factor = scipy.linalg.cho_factor(coeff)
        if side == "left":
            return scipy.linalg.cho_solve(factor, rhs)
        return scipy.linalg.cho_solve(factor, rhs.T).T
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise ExecutionError(f"SPD solve failed: {exc}") from exc


def _solve_diagonal(coeff: np.ndarray, rhs: np.ndarray, side: str) -> np.ndarray:
    diag = np.diag(coeff)
    if np.any(diag == 0.0):
        raise ExecutionError("diagonal solve failed: zero diagonal entry")
    if side == "left":
        return rhs / diag[:, None]
    return rhs / diag[None, :]


def _solve_triangular(
    coeff: np.ndarray, rhs: np.ndarray, side: str, lower: bool
) -> np.ndarray:
    try:
        if side == "left":
            return scipy.linalg.solve_triangular(coeff, rhs, lower=lower)
        # X A = B  <=>  A^T X^T = B^T; transposing flips triangularity.
        return scipy.linalg.solve_triangular(coeff.T, rhs.T, lower=not lower).T
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise ExecutionError(f"triangular solve failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Product kernels.
# ---------------------------------------------------------------------------

def gemm(a, b, trans_a=False, trans_b=False, alpha=1.0):
    """``alpha * op(A) op(B)`` — general x general product (2mkn FLOPs)."""
    oa, ob = _op(np.asarray(a), trans_a), _op(np.asarray(b), trans_b)
    _check_product_dims(oa, ob, "GEMM")
    return alpha * (oa @ ob)


def symm(s, g, side="left", alpha=1.0):
    """``alpha * S G`` or ``alpha * G S`` with S symmetric (2m^2n / 2mn^2)."""
    s, g = np.asarray(s), np.asarray(g)
    if side == "left":
        _check_product_dims(s, g, "SYMM")
        return alpha * (s @ g)
    _check_product_dims(g, s, "SYMM")
    return alpha * (g @ s)


def trmm(t, g, side="left", trans_t=False, alpha=1.0):
    """``alpha * op(T) G`` or ``alpha * G op(T)`` with T triangular (m^2n / mn^2)."""
    ot, g = _op(np.asarray(t), trans_t), np.asarray(g)
    if side == "left":
        _check_product_dims(ot, g, "TRMM")
        return alpha * (ot @ g)
    _check_product_dims(g, ot, "TRMM")
    return alpha * (g @ ot)


def sysymm(s1, s2, alpha=1.0):
    """``alpha * S1 S2`` with both operands symmetric (2m^3 FLOPs)."""
    s1, s2 = np.asarray(s1), np.asarray(s2)
    _check_product_dims(s1, s2, "SYSYMM")
    return alpha * (s1 @ s2)


def trsymm(t, s, side="left", trans_t=False, alpha=1.0):
    """``alpha * op(T) S`` or ``alpha * S op(T)``, T triangular, S symmetric (m^3)."""
    ot, s = _op(np.asarray(t), trans_t), np.asarray(s)
    if side == "left":
        _check_product_dims(ot, s, "TRSYMM")
        return alpha * (ot @ s)
    _check_product_dims(s, ot, "TRSYMM")
    return alpha * (s @ ot)


def trtrmm(t1, t2, trans_a=False, trans_b=False, alpha=1.0):
    """``alpha * op(T1) op(T2)`` with both operands triangular (m^3/3 or 2m^3/3)."""
    o1, o2 = _op(np.asarray(t1), trans_a), _op(np.asarray(t2), trans_b)
    _check_product_dims(o1, o2, "TRTRMM")
    return alpha * (o1 @ o2)


# ---------------------------------------------------------------------------
# Solve kernels.  ``coeff`` is the matrix whose inverse appears in the
# association; ``side`` says on which side of the product it stands.
# ---------------------------------------------------------------------------

def gegesv(coeff, rhs, side="left", trans_coeff=False):
    """Solve ``op(A) X = B`` / ``X op(A) = B``, A and B general."""
    return _solve_general(_op(np.asarray(coeff), trans_coeff), np.asarray(rhs), side)


def gesysv(coeff, rhs, side="left", trans_coeff=False):
    """Solve with general coefficient and symmetric right-hand side."""
    return _solve_general(_op(np.asarray(coeff), trans_coeff), np.asarray(rhs), side)


def getrsv(coeff, rhs, side="left", trans_coeff=False):
    """Solve with general coefficient and triangular right-hand side."""
    return _solve_general(_op(np.asarray(coeff), trans_coeff), np.asarray(rhs), side)


def sygesv(coeff, rhs, side="left"):
    """Solve ``A X = B`` / ``X A = B`` with symmetric indefinite A."""
    return _solve_symmetric(np.asarray(coeff), np.asarray(rhs), side)


def sysysv(coeff, rhs, side="left"):
    """Solve with symmetric coefficient and symmetric right-hand side."""
    return _solve_symmetric(np.asarray(coeff), np.asarray(rhs), side)


def sytrsv(coeff, rhs, side="left"):
    """Solve with symmetric coefficient and triangular right-hand side."""
    return _solve_symmetric(np.asarray(coeff), np.asarray(rhs), side)


def pogesv(coeff, rhs, side="left"):
    """Solve ``A X = B`` / ``X A = B`` with SPD A (Cholesky-based)."""
    return _solve_spd(np.asarray(coeff), np.asarray(rhs), side)


def posysv(coeff, rhs, side="left"):
    """Solve with SPD coefficient and symmetric right-hand side."""
    return _solve_spd(np.asarray(coeff), np.asarray(rhs), side)


def potrsv(coeff, rhs, side="left"):
    """Solve with SPD coefficient and triangular right-hand side."""
    return _solve_spd(np.asarray(coeff), np.asarray(rhs), side)


def trsm(coeff, rhs, side="left", trans_coeff=False, lower=True, alpha=1.0):
    """Solve ``op(A) X = alpha B`` / ``X op(A) = alpha B`` with triangular A."""
    logical = _op(np.asarray(coeff), trans_coeff)
    logical_lower = lower != trans_coeff  # transposition flips triangularity
    return _solve_triangular(logical, alpha * np.asarray(rhs), side, logical_lower)


def trsysv(coeff, rhs, side="left", trans_coeff=False, lower=True):
    """Solve with triangular coefficient and symmetric right-hand side."""
    return trsm(coeff, rhs, side=side, trans_coeff=trans_coeff, lower=lower)


def trtrsv(coeff, rhs, side="left", trans_coeff=False, lower=True):
    """Solve with triangular coefficient and triangular right-hand side."""
    return trsm(coeff, rhs, side=side, trans_coeff=trans_coeff, lower=lower)


# ---------------------------------------------------------------------------
# Diagonal extension kernels (beyond Table I).
# ---------------------------------------------------------------------------

def dimm(d, b, side="left", alpha=1.0):
    """``alpha * D B`` (row scaling) or ``alpha * B D`` (column scaling)."""
    diag = np.diag(np.asarray(d))
    b = np.asarray(b)
    if side == "left":
        return alpha * (diag[:, None] * b)
    return alpha * (b * diag[None, :])


def didimm(d1, d2, alpha=1.0):
    """``alpha * D1 D2`` with both operands diagonal (element-wise)."""
    return alpha * np.diag(np.diag(np.asarray(d1)) * np.diag(np.asarray(d2)))


def digesv(coeff, rhs, side="left"):
    """Solve ``D X = B`` / ``X D = B`` with diagonal D (element division)."""
    return _solve_diagonal(np.asarray(coeff), np.asarray(rhs), side)


def disysv(coeff, rhs, side="left"):
    """Diagonal solve with a symmetric right-hand side."""
    return _solve_diagonal(np.asarray(coeff), np.asarray(rhs), side)


def ditrsv(coeff, rhs, side="left"):
    """Diagonal solve with a triangular right-hand side."""
    return _solve_diagonal(np.asarray(coeff), np.asarray(rhs), side)


def didisv(coeff, rhs, side="left"):
    """Solve with diagonal coefficient and diagonal right-hand side."""
    return _solve_diagonal(np.asarray(coeff), np.asarray(rhs), side)


def diinv(a):
    """Explicit inversion of a diagonal matrix (element reciprocals)."""
    diag = np.diag(np.asarray(a))
    if np.any(diag == 0.0):
        raise ExecutionError("diagonal inversion failed: zero diagonal entry")
    return np.diag(1.0 / diag)


# ---------------------------------------------------------------------------
# Unary fix-up kernels.
# ---------------------------------------------------------------------------

def geinv(a):
    """Explicit inversion of a general matrix (2m^3 FLOPs)."""
    try:
        return np.linalg.inv(np.asarray(a))
    except np.linalg.LinAlgError as exc:
        raise ExecutionError(f"explicit inversion failed: {exc}") from exc


def syinv(a):
    """Explicit inversion of a symmetric indefinite matrix."""
    return geinv(a)


def poinv(a):
    """Explicit inversion of an SPD matrix via Cholesky (m^3 FLOPs)."""
    a = np.asarray(a)
    identity = np.eye(a.shape[0], dtype=a.dtype)
    return _solve_spd(a, identity, "left")


def trinv(a, lower=True):
    """Explicit inversion of a triangular matrix (m^3/3 FLOPs)."""
    a = np.asarray(a)
    identity = np.eye(a.shape[0], dtype=a.dtype)
    return _solve_triangular(a, identity, "left", lower)


def explicit_transpose(a):
    """Out-of-place transposition (0 FLOPs)."""
    return np.ascontiguousarray(np.asarray(a).T)


def copy(a):
    """Out-of-place copy (0 FLOPs)."""
    return np.array(a, copy=True)


# ---------------------------------------------------------------------------
# Plan-time specialization.  Every execution plan lowers its binary kernel
# calls through these family tables: product families all reduce to a
# (possibly transposed) matmul on the full dense storage; solve families
# pick the structured solver of their coefficient.
# ---------------------------------------------------------------------------

#: Families whose execution is a dense matmul over the full storage.
PRODUCT_FAMILIES = frozenset({"gemm", "symm", "trmm", "dimm", "didimm"})

#: Solve families mapped to the structured solver of their coefficient.
SOLVER_BY_FAMILY = {
    "gesv": _solve_general,
    "sysv": _solve_symmetric,
    "posv": _solve_spd,
    "trsm": _solve_triangular,
    "disv": _solve_diagonal,
}


def specialize_kernel(call):
    """A direct ``(left, right) -> result`` callable for one resolved call.

    Execution plans (:mod:`repro.runtime.plan`) call each kernel with the
    same :class:`~repro.runtime.executor.StepCall` every time, so
    transpose resolution and side selection are resolved once here.  The
    returned callable trusts its inputs: 2-D float64 arrays whose shapes
    were validated when the plan was compiled (dimension mismatches
    surface as numpy errors, not :class:`ExecutionError`).  Products lower
    to the ``op(L) @ op(R)`` matmul, solves to the family solver of
    :data:`SOLVER_BY_FAMILY` with the transpose/triangularity algebra
    pre-applied.
    """
    if call.family in PRODUCT_FAMILIES:
        if call.left_trans and call.right_trans:
            return lambda left, right: left.T @ right.T
        if call.left_trans:
            return lambda left, right: left.T @ right
        if call.right_trans:
            return lambda left, right: left @ right.T
        return lambda left, right: left @ right
    solver = SOLVER_BY_FAMILY.get(call.family)
    if solver is None:
        raise ExecutionError(f"no implementation for kernel {call.kernel}")
    left_side = call.s_left
    coeff_trans, rhs_trans = call.s_trans, call.o_trans
    side = call.side
    if solver is _solve_triangular:
        # Stored-to-logical triangularity flips under transposition.
        logical_lower = bool(call.s_lower) != coeff_trans

        def run(left, right):
            coeff, rhs = (left, right) if left_side else (right, left)
            if coeff_trans:
                coeff = coeff.T
            if rhs_trans:
                rhs = rhs.T
            return _solve_triangular(coeff, rhs, side, logical_lower)

        return run

    def run(left, right):
        coeff, rhs = (left, right) if left_side else (right, left)
        if coeff_trans:
            coeff = coeff.T
        if rhs_trans:
            rhs = rhs.T
        return solver(coeff, rhs, side)

    return run


def specialize_kernel_out(call):
    """An out-parameter variant of :func:`specialize_kernel`, or ``None``.

    Product kernels lower to ``np.matmul(..., out=out)`` — the same BLAS
    dgemm as the allocating form, writing into a caller-owned buffer (an
    arena slot or the final ``out=``) instead of a fresh array.  ``out``
    must not alias either operand (numpy leaves overlapping ``matmul``
    outputs undefined); plan arenas guarantee that by construction.
    Solve kernels answer ``None`` — their scipy solvers allocate
    internally, so an out buffer would only add a copy.
    """
    if call.family not in PRODUCT_FAMILIES:
        return None
    if call.left_trans and call.right_trans:
        return lambda left, right, out: np.matmul(left.T, right.T, out=out)
    if call.left_trans:
        return lambda left, right, out: np.matmul(left.T, right, out=out)
    if call.right_trans:
        return lambda left, right, out: np.matmul(left, right.T, out=out)
    return lambda left, right, out: np.matmul(left, right, out=out)

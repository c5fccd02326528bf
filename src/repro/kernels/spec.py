"""Kernel descriptors: the full kernel set of Table I plus fix-up kernels.

Each :class:`KernelSpec` records:

* the *kind* of kernel (matrix product, linear-system solve, or unary
  fix-up),
* which operand roles support implicit transposition (``op(X) = X, X^T`` in
  the paper's notation) — this drives the transposition-propagation rewrites
  of Section IV step 3,
* the FLOP cost function, resolved per call site because several kernels
  have side- or triangularity-dependent costs (e.g. ``TRTRMM`` costs
  ``m^3/3`` when both operands have the same triangularity and ``2m^3/3``
  otherwise), and
* whether the kernel exists in standard BLAS/LAPACK or is one of the
  paper's custom kernels (the gray rows of Table I).

Naming convention (Appendix B): four-letter names associate a general matrix
with a matrix of the structure named by the first two letters; six-letter
names associate two non-general matrices.  For solves, the first two letters
name the coefficient and the next two the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.kernels.cost import (
    CostFunction,
    ZERO_COST,
    cubed_left,
    linear,
    scaling,
    solve_left,
    solve_right,
    square_left_times_n,
    square_right_times_m,
    trilinear,
    unary_cubed,
)

PRODUCT = "product"
SOLVE = "solve"
UNARY = "unary"


@dataclass(frozen=True)
class KernelSpec:
    """Static description of one kernel."""

    name: str
    kind: str  # PRODUCT, SOLVE, or UNARY
    description: str
    #: Whether the structured operand (product) / coefficient (solve) can be
    #: consumed transposed without a rewrite.
    structured_transposable: bool
    #: Whether the other operand (general/right-hand side) can be consumed
    #: transposed without a rewrite.
    other_transposable: bool
    #: Resolve the FLOP cost given the call configuration.  ``side`` is the
    #: side of the structured/coefficient operand; ``cheap`` selects the
    #: favourable cost case for kernels with two cost regimes.
    cost_resolver: Callable[[str, bool], CostFunction]
    #: True for standard BLAS/LAPACK functionality (white rows of Table I).
    in_blas: bool = False

    def cost(self, side: str = "left", cheap: bool = True) -> CostFunction:
        """FLOP cost function for a call with the given configuration."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self.cost_resolver(side, cheap)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def _fixed(cost: CostFunction) -> Callable[[str, bool], CostFunction]:
    return lambda side, cheap: cost


def _sided(left: CostFunction, right: CostFunction) -> Callable[[str, bool], CostFunction]:
    return lambda side, cheap: left if side == "left" else right


def _cheap(cheap_cost: CostFunction, expensive: CostFunction) -> Callable[[str, bool], CostFunction]:
    return lambda side, cheap: cheap_cost if cheap else expensive


# ---------------------------------------------------------------------------
# Product kernels (left table of Fig. 3).
# ---------------------------------------------------------------------------

GEMM = KernelSpec(
    name="GEMM",
    kind=PRODUCT,
    description="C := alpha*op(A)*op(B) + beta*C (general * general)",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_fixed(trilinear(2)),
    in_blas=True,
)

SYMM = KernelSpec(
    name="SYMM",
    kind=PRODUCT,
    description="C := alpha*A*B + beta*C with A symmetric (either side)",
    structured_transposable=False,  # irrelevant: S^T = S is rewritten away
    other_transposable=False,  # BLAS symm has no transpose flag on B
    cost_resolver=_sided(square_left_times_n(2), square_right_times_m(2)),
    in_blas=True,
)

TRMM = KernelSpec(
    name="TRMM",
    kind=PRODUCT,
    description="B := alpha*op(A)*B or B*op(A) with A triangular",
    structured_transposable=True,
    other_transposable=False,  # BLAS trmm has no transpose flag on B
    cost_resolver=_sided(square_left_times_n(1), square_right_times_m(1)),
    in_blas=True,
)

SYSYMM = KernelSpec(
    name="SYSYMM",
    kind=PRODUCT,
    description="C := alpha*A*B + beta*C with A, B symmetric (custom)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(cubed_left(2)),
)

TRSYMM = KernelSpec(
    name="TRSYMM",
    kind=PRODUCT,
    description="B := alpha*op(A)*B or B*op(A), A triangular, B symmetric (custom)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_fixed(cubed_left(1)),
)

TRTRMM = KernelSpec(
    name="TRTRMM",
    kind=PRODUCT,
    description="C := alpha*op(A)*op(B) with A, B triangular (custom)",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_cheap(cubed_left("1/3"), cubed_left("2/3")),
)

# ---------------------------------------------------------------------------
# Solve kernels (right table of Fig. 3).  The first two letters name the
# coefficient matrix, the following letters the right-hand side.
# ---------------------------------------------------------------------------

GEGESV = KernelSpec(
    name="GEGESV",
    kind=SOLVE,
    description="Solve op(A)X = B or X op(A) = B, A and B general (custom)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_sided(solve_left("2/3", 2), solve_right("2/3", 2)),
)

GESYSV = KernelSpec(
    name="GESYSV",
    kind=SOLVE,
    description="Solve op(A)X = B or X op(A) = B, A general, B symmetric (custom)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_fixed(cubed_left("8/3")),
)

GETRSV = KernelSpec(
    name="GETRSV",
    kind=SOLVE,
    description="Solve op(A)X = B or X op(A) = B, A general, B triangular (custom)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_cheap(cubed_left(2), cubed_left("8/3")),
)

SYGESV = KernelSpec(
    name="SYGESV",
    kind=SOLVE,
    description="Solve AX = B or XA = B, A symmetric, B general (custom)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_sided(solve_left("1/3", 2), solve_right("1/3", 2)),
)

SYSYSV = KernelSpec(
    name="SYSYSV",
    kind=SOLVE,
    description="Solve AX = B or XA = B, A and B symmetric (custom)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(cubed_left("7/3")),
)

SYTRSV = KernelSpec(
    name="SYTRSV",
    kind=SOLVE,
    description="Solve AX = B or XA = B, A symmetric, B triangular (custom)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(cubed_left("7/3")),
)

POGESV = KernelSpec(
    name="POGESV",
    kind=SOLVE,
    description="Solve AX = B or XA = B, A SPD, B general (custom)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_sided(solve_left("1/3", 2), solve_right("1/3", 2)),
)

POSYSV = KernelSpec(
    name="POSYSV",
    kind=SOLVE,
    description="Solve AX = B or XA = B, A SPD, B symmetric (custom)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(cubed_left("7/3")),
)

POTRSV = KernelSpec(
    name="POTRSV",
    kind=SOLVE,
    description="Solve AX = B or XA = B, A SPD, B triangular (custom)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_cheap(cubed_left("5/3"), cubed_left("7/3")),
)

TRSM = KernelSpec(
    name="TRSM",
    kind=SOLVE,
    description="Solve op(A)X = alpha*B or X op(A) = alpha*B, A triangular, B general",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_sided(square_left_times_n(1), square_right_times_m(1)),
    in_blas=True,
)

TRSYSV = KernelSpec(
    name="TRSYSV",
    kind=SOLVE,
    description="Solve op(A)X = B or X op(A) = B, A triangular, B symmetric (custom)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_fixed(cubed_left(1)),
)

TRTRSV = KernelSpec(
    name="TRTRSV",
    kind=SOLVE,
    description="Solve op(A)X = alpha*B or X op(A) = alpha*B, A and B triangular (custom)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_cheap(cubed_left("1/3"), cubed_left(1)),
)

# ---------------------------------------------------------------------------
# Diagonal extension kernels (beyond Table I).  The paper's grammar leaves
# the structure list open ("General | Symmetric | LowerTri | ...");  these
# kernels give diagonal operands their natural sub-cubic costs: scaling a
# dense operand is O(mn) and combining two diagonals is O(m).
# ---------------------------------------------------------------------------

DIMM = KernelSpec(
    name="DIMM",
    kind=PRODUCT,
    description="B := alpha*D*B or B*D with D diagonal (row/column scaling)",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_fixed(scaling(1)),
)

DIDIMM = KernelSpec(
    name="DIDIMM",
    kind=PRODUCT,
    description="C := alpha*D1*D2 with both operands diagonal",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_fixed(linear(1)),
)

DIGESV = KernelSpec(
    name="DIGESV",
    kind=SOLVE,
    description="Solve D X = B or X D = B, D diagonal, B general",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_fixed(scaling(1)),
)

DISYSV = KernelSpec(
    name="DISYSV",
    kind=SOLVE,
    description="Solve D X = B or X D = B, D diagonal, B symmetric",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_fixed(scaling(1)),
)

DITRSV = KernelSpec(
    name="DITRSV",
    kind=SOLVE,
    description="Solve D X = B or X D = B, D diagonal, B triangular",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_fixed(scaling(1)),
)

DIDISV = KernelSpec(
    name="DIDISV",
    kind=SOLVE,
    description="Solve D1 X = D2 or X D1 = D2 with both operands diagonal",
    structured_transposable=True,
    other_transposable=True,
    cost_resolver=_fixed(linear(1)),
)

DIAGONAL_KERNELS: tuple[KernelSpec, ...] = (
    DIMM, DIDIMM, DIGESV, DISYSV, DITRSV, DIDISV,
)

# ---------------------------------------------------------------------------
# Unary fix-up kernels.  These are not part of Table I: they are used only in
# the rare events where an inversion or transposition is propagated all the
# way to the end result (Section IV), and for single-matrix chains.
# ---------------------------------------------------------------------------

GEINV = KernelSpec(
    name="GEINV",
    kind=UNARY,
    description="Explicit inversion of a general matrix (GETRF + GETRI)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_fixed(unary_cubed(2)),
)

SYINV = KernelSpec(
    name="SYINV",
    kind=UNARY,
    description="Explicit inversion of a symmetric indefinite matrix (SYTRF + SYTRI)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(unary_cubed(2)),
)

POINV = KernelSpec(
    name="POINV",
    kind=UNARY,
    description="Explicit inversion of an SPD matrix (POTRF + POTRI)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(unary_cubed(1)),
)

TRINV = KernelSpec(
    name="TRINV",
    kind=UNARY,
    description="Explicit inversion of a triangular matrix (TRTRI)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_fixed(unary_cubed("1/3")),
)

TRANSPOSE = KernelSpec(
    name="TRANSPOSE",
    kind=UNARY,
    description="Explicit out-of-place transposition (0 FLOPs, pure data movement)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(ZERO_COST),
)

COPY = KernelSpec(
    name="COPY",
    kind=UNARY,
    description="Out-of-place copy (0 FLOPs; used for single-matrix chains)",
    structured_transposable=False,
    other_transposable=False,
    cost_resolver=_fixed(ZERO_COST),
)


PRODUCT_KERNELS: tuple[KernelSpec, ...] = (GEMM, SYMM, TRMM, SYSYMM, TRSYMM, TRTRMM)
SOLVE_KERNELS: tuple[KernelSpec, ...] = (
    GEGESV, GESYSV, GETRSV,
    SYGESV, SYSYSV, SYTRSV,
    POGESV, POSYSV, POTRSV,
    TRSM, TRSYSV, TRTRSV,
)
DIINV = KernelSpec(
    name="DIINV",
    kind=UNARY,
    description="Explicit inversion of a diagonal matrix (element reciprocal)",
    structured_transposable=True,
    other_transposable=False,
    cost_resolver=_fixed(linear(1)),
)

UNARY_KERNELS: tuple[KernelSpec, ...] = (
    GEINV, SYINV, POINV, TRINV, DIINV, TRANSPOSE, COPY,
)

KERNELS: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        *PRODUCT_KERNELS,
        *SOLVE_KERNELS,
        *DIAGONAL_KERNELS,
        *UNARY_KERNELS,
    )
}


#: Execution family of every binary kernel: the one routine (or broadcast)
#: that carries it out, named after its BLAS/LAPACK call.  Kernels of one
#: family differ only in the features of the *other* operand, which the
#: routine consumes densely; every backend and emitter keys its lowering
#: by family (see :class:`~repro.runtime.executor.StepCall`).
KERNEL_FAMILY: dict[str, str] = {
    "GEMM": "gemm",
    "SYMM": "symm", "SYSYMM": "symm",
    "TRMM": "trmm", "TRSYMM": "trmm", "TRTRMM": "trmm",
    "DIMM": "dimm",
    "DIDIMM": "didimm",
    "TRSM": "trsm", "TRSYSV": "trsm", "TRTRSV": "trsm",
    "POGESV": "posv", "POSYSV": "posv", "POTRSV": "posv",
    "SYGESV": "sysv", "SYSYSV": "sysv", "SYTRSV": "sysv",
    "GEGESV": "gesv", "GESYSV": "gesv", "GETRSV": "gesv",
    "DIGESV": "disv", "DISYSV": "disv", "DITRSV": "disv", "DIDISV": "disv",
}


def get_kernel(name: str) -> KernelSpec:
    """Look a kernel up by name, raising ``KeyError`` with suggestions."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(sorted(KERNELS))}"
        ) from None

"""Execute variants on concrete NumPy matrices (paper Section IV, Fig. 1).

The run-time half of the generated code walks a variant's kernel-call
sequence, feeding stored arrays through the kernel implementations,
resolving pending inversions/transpositions at the end, and managing
intermediate buffers.  That walk lives in one place, the compiled
:class:`~repro.runtime.plan.ExecutionPlan`; :func:`execute_variant` is the
one-shot form (compile a reference plan, infer the sizes, replay it once).
This module holds what plans and the dispatcher share: call
records (:class:`StepCall`), size inference, the fix-up table, and the
concrete-operand helpers.

Storage convention: the caller passes one array per chain matrix, holding
the *base* matrix ``M_i`` (not ``op(M_i)``).  A transposed operand is
therefore passed with its stored shape ``q_i x q_{i-1}``; inverted operands
are square, so their stored shape is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.kernels import reference
from repro.kernels.spec import KERNEL_FAMILY

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Typing only: repro.runtime stays import-independent of the compiler
    # package, whose __init__ imports repro.runtime.
    from repro.compiler.states import OperandState
    from repro.compiler.variant import Variant


@dataclass(frozen=True)
class StepCall:
    """One kernel call's operand roles, resolved once per plan step.

    The one record every backend and emitter lowers from.  ``family`` is
    the kernel's execution family (:data:`~repro.kernels.spec.KERNEL_FAMILY`);
    ``kernel`` names the kernel itself, for labels and diagnostics only.
    The *structured* operand is the coefficient of a solve, the diagonal
    of ``dimm``, the triangular operand of ``trmm`` and the symmetric one
    of ``symm`` (the left operand of ``gemm`` and ``didimm``); ``s_left``
    says whether it is the call's left operand, ``s_trans`` and
    ``s_lower`` give its transpose flag and stored triangularity (``None``
    unless triangular), and ``o_trans`` the other operand's transpose flag.
    """

    kernel: str
    family: str
    s_left: bool
    s_trans: bool = False
    s_lower: Optional[bool] = None
    o_trans: bool = False

    @property
    def side(self) -> str:
        return "left" if self.s_left else "right"

    @property
    def left_trans(self) -> bool:
        return self.s_trans if self.s_left else self.o_trans

    @property
    def right_trans(self) -> bool:
        return self.o_trans if self.s_left else self.s_trans

    @classmethod
    def of(cls, step) -> "StepCall":
        """Resolve a variant :class:`~repro.compiler.variant.Step`'s call."""
        kernel = step.kernel.name
        family = KERNEL_FAMILY[kernel]
        left, right = step.left_state, step.right_state
        if family == "dimm":
            # ``side`` marks the structured operand, which for L * D and
            # S * D is the non-diagonal one: locate the diagonal itself.
            s_left = left.stored_structure is Structure.DIAGONAL
        else:
            s_left = step.side == "left"
            if family == "trmm" and _stored_lower(left if s_left else right) is None:
                # TRSYMM's S * L puts side on the symmetric operand.
                s_left = not s_left
        s, o = (left, right) if s_left else (right, left)
        return cls(kernel, family, s_left, s.transposed, _stored_lower(s), o.transposed)


def _stored_lower(state: "OperandState") -> Optional[bool]:
    stored = state.stored_structure
    if stored is Structure.LOWER_TRIANGULAR:
        return True
    if stored is Structure.UPPER_TRIANGULAR:
        return False
    return None


def expected_stored_shapes(chain: Chain, sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Stored array shape expected for each chain matrix on an instance."""
    return list(SizeInferencer(chain).shapes(chain.validate_sizes(sizes)))


def call_operands(chain: Chain, arrays: tuple) -> tuple:
    """The operands of an evaluator's ``__call__(*arrays)``.

    A single list or tuple argument is the operand list when the chain has
    more than one operand, or when its one element is an array; otherwise
    it is the one operand itself (say, a nested list).
    """
    if len(arrays) == 1 and isinstance(arrays[0], (list, tuple)):
        (only,) = arrays
        if chain.n > 1 or (len(only) == 1 and isinstance(only[0], np.ndarray)):
            return tuple(only)
    return arrays


def infer_sizes(chain: Chain, arrays: Sequence[np.ndarray]) -> tuple[int, ...]:
    """Recover ``q`` from stored arrays (a one-shot :class:`SizeInferencer`)."""
    return SizeInferencer(chain).infer(arrays)


class SizeInferencer:
    """Per-chain compiled size inference: the one check that stored
    arrays form an instance of the chain.

    One chain shape serves millions of instances, so this class hoists
    the per-chain facts — transpose flags, square slots — into tuples at
    construction and infers with a single linked pass over the array
    shapes (each inner dimension is checked where consecutive operands
    meet).  Returns the validated size tuple; inconsistent or malformed
    arrays raise :class:`ExecutionError`, square-constraint violations the
    chain's canonical :class:`~repro.errors.ShapeError`.
    """

    __slots__ = ("chain", "_transposed", "_square_slots")

    def __init__(self, chain: Chain):
        self.chain = chain
        self._transposed = tuple(op.transposed for op in chain)
        self._square_slots = tuple(
            i for i, op in enumerate(chain.operands) if op.is_square
        )

    def infer(self, arrays: Sequence[np.ndarray]) -> tuple[int, ...]:
        chain = self.chain
        n = chain.n
        if len(arrays) != n:
            raise ExecutionError(
                f"expected {n} arrays for chain {chain}, got {len(arrays)}"
            )
        q = [0] * (n + 1)
        cols = 0
        for i, (array, transposed) in enumerate(zip(arrays, self._transposed)):
            shape = array.shape
            if len(shape) != 2:
                raise ExecutionError(f"operand {i} must be a 2-D array")
            rows, new_cols = shape
            if transposed:
                rows, new_cols = new_cols, rows
            if i and rows != cols:
                raise ExecutionError(
                    f"inconsistent sizes at q{i}: {cols} vs {rows} "
                    f"(operand {i}, shape {array.shape})"
                )
            if rows <= 0 or new_cols <= 0:
                raise ExecutionError(
                    f"operand {i} has a degenerate shape {array.shape}"
                )
            q[i] = rows
            cols = new_cols
        q[n] = cols
        for i in self._square_slots:
            if q[i] != q[i + 1]:
                chain.validate_sizes(q)  # canonical ShapeError
        return tuple(q)

    def shapes(self, sizes: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """The stored operand shapes of a validated size vector — the
        inverse of :meth:`infer`, and one-to-one on valid vectors."""
        return tuple(
            (sizes[i + 1], sizes[i]) if t else (sizes[i], sizes[i + 1])
            for i, t in enumerate(self._transposed)
        )

    __call__ = infer


def resolve_fixup(kernel_name: str, state: "OperandState"):
    """The unary callable for one final fix-up kernel.

    Single source of the fix-up name-to-implementation mapping, bound
    once per compiled execution plan.  ``state`` is the variant's final
    operand state — it determines the stored triangularity for ``TRINV``.
    """
    if kernel_name == "GEINV" or kernel_name == "SYINV":
        return reference.geinv
    if kernel_name == "POINV":
        return reference.poinv
    if kernel_name == "TRINV":
        lower = bool(_stored_lower(state))
        return lambda value: reference.trinv(value, lower=lower)
    if kernel_name == "DIINV":
        return reference.diinv
    if kernel_name == "TRANSPOSE":
        return reference.explicit_transpose
    if kernel_name == "COPY":
        return reference.copy
    raise ExecutionError(f"unknown fix-up kernel {kernel_name}")


def execute_variant(variant: Variant, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate the chain on concrete matrices through this variant's kernels.

    A one-shot reference :class:`~repro.runtime.plan.ExecutionPlan`: the
    plan infers the sizes from the arrays (which validates them against
    the chain) and replays once.  Callers running one variant repeatedly
    should compile the plan once themselves.
    """
    # Deferred: the plan module imports this one.
    from repro.runtime.plan import ExecutionPlan

    return ExecutionPlan(variant).execute(arrays)


# ---------------------------------------------------------------------------
# Test/benchmark helpers: random concrete operands and a naive oracle.
# ---------------------------------------------------------------------------

def random_matrix(
    structure: Structure,
    prop: Property,
    rows: int,
    cols: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random well-conditioned matrix honouring the given features."""
    if structure is Structure.GENERAL and prop is Property.SINGULAR:
        return rng.standard_normal((rows, cols))
    if rows != cols:
        raise ExecutionError(
            f"features ({structure.value}, {prop.value}) require a square "
            f"matrix, got {rows}x{cols}"
        )
    n = rows
    if prop is Property.ORTHOGONAL:
        if structure is Structure.DIAGONAL:
            # A diagonal orthogonal matrix is a signature matrix.
            return np.diag(np.where(rng.random(n) < 0.5, -1.0, 1.0))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if structure is Structure.SYMMETRIC:
            # A random symmetric orthogonal matrix: a reflection I - 2vv^T.
            v = rng.standard_normal((n, 1))
            v /= np.linalg.norm(v)
            return np.eye(n) - 2.0 * (v @ v.T)
        return q
    if prop is Property.SPD:
        a = rng.standard_normal((n, n))
        return a @ a.T / np.sqrt(n) + np.eye(n)
    if structure is Structure.SYMMETRIC:
        a = rng.standard_normal((n, n))
        s = (a + a.T) / 2.0
        if prop.is_invertible:
            s += np.eye(n) * n  # diagonal dominance guarantees invertibility
        return s
    if structure.is_triangular:
        a = rng.standard_normal((n, n))
        t = np.tril(a) if structure is Structure.LOWER_TRIANGULAR else np.triu(a)
        if prop.is_invertible:
            d = np.abs(np.diag(t)) + 1.0
            t[np.arange(n), np.arange(n)] = d
        return t
    if structure is Structure.DIAGONAL:
        values = rng.standard_normal(n)
        if prop.is_invertible:
            values = np.sign(values) * (np.abs(values) + 1.0)
        return np.diag(values)
    # General invertible: shift the diagonal away from zero.
    a = rng.standard_normal((n, n))
    return a + np.eye(n) * np.sqrt(n)


def random_instance_arrays(
    chain: Chain, sizes: Sequence[int], rng: np.random.Generator
) -> list[np.ndarray]:
    """Random stored arrays for every operand of an instance."""
    q = chain.validate_sizes(sizes)
    arrays = []
    for i, operand in enumerate(chain):
        rows, cols = q[i], q[i + 1]
        if operand.transposed:
            rows, cols = cols, rows
        arrays.append(
            random_matrix(
                operand.matrix.structure, operand.matrix.prop, rows, cols, rng
            )
        )
    return arrays


def naive_evaluate(chain: Chain, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Oracle: evaluate the chain directly with dense NumPy operations."""
    result: Optional[np.ndarray] = None
    for operand, array in zip(chain, arrays):
        value = np.asarray(array, dtype=np.float64)
        if operand.op.inverted:
            value = np.linalg.inv(value)
        if operand.op.transposed:
            value = value.T
        result = value if result is None else result @ value
    assert result is not None
    return result

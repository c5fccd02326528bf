"""Code variants: sequences of kernel calls with cost functions (§III-C, §IV).

A :class:`Variant` is the compile-time artifact generated for one
parenthesization: an ordered sequence of :class:`Step` kernel calls (plus
possible unary fix-up steps when an inversion or transposition is propagated
all the way to the end result).  Each variant carries a FLOP cost function
``T(A, q)`` over instances ``q`` — both as fast numeric evaluation and as a
sympy expression.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.errors import CompilationError
from repro.ir.chain import Chain
from repro.kernels.cost import CostFunction
from repro.kernels.spec import COPY, TRANSPOSE, KernelSpec
from repro.kernels.tables import lookup_inversion_kernel
from repro.compiler.parenthesization import ParenTree
from repro.compiler.states import (
    AssociationResult,
    OperandState,
    SourceRef,
    associate,
    initial_states,
)


#: A cost as monomial terms ``(coefficient, ((symbol index, exponent), ...))``,
#: the factors of each term in symbol order.
FlatTerms = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]


def call_terms(cost: CostFunction, call_dims: Sequence[int]) -> FlatTerms:
    """The terms of one call of ``cost`` on the size symbols ``call_dims``
    (its ``(m, k, n)``; a fix-up charges one symbol for all three)."""
    flat = []
    for term in cost.terms:
        powers: dict[int, int] = {}
        for sym, exp in zip(call_dims, (term.em, term.ek, term.en)):
            if exp:
                powers[sym] = powers.get(sym, 0) + exp
        flat.append((float(term.coeff), tuple(sorted(powers.items()))))
    return tuple(flat)


@dataclass(frozen=True)
class Step:
    """One resolved kernel call inside a variant."""

    index: int
    kernel: KernelSpec
    side: str
    cheap: bool
    #: Base-value references of the operands in kernel-call order.
    left_ref: SourceRef
    right_ref: SourceRef
    #: Full operand states in kernel-call order (flags for the executor).
    left_state: OperandState
    right_state: OperandState
    #: Canonical association triplet (a, b, c) of the original association.
    triplet: tuple[int, int, int]
    #: Size-symbol indices (m, k, n) of the actual kernel call.
    call_dims: tuple[int, int, int]
    cost: CostFunction
    result_state: OperandState

    @classmethod
    def of(
        cls, result: AssociationResult, index: int, triplet: tuple[int, int, int]
    ) -> "Step":
        """The step issuing one resolved association as call ``index``."""
        return cls(
            index=index,
            kernel=result.kernel,
            side=result.side,
            cheap=result.cheap,
            left_ref=result.left.source,
            right_ref=result.right.source,
            left_state=result.left,
            right_state=result.right,
            triplet=triplet,
            call_dims=result.call_dims,
            cost=result.cost,
            result_state=result.result,
        )

    @cached_property
    def _flat_terms(self) -> FlatTerms:
        """This call's cost terms, shared by every variant holding the step."""
        return call_terms(self.cost, self.call_dims)

    def describe(self) -> str:
        a, b, c = self.triplet
        return (
            f"X{self.index} := {self.kernel.name}"
            f"[{self.side}{',cheap' if not self.cheap else ''}]"
            f"(q{a}, q{b}, q{c})"
        )


@dataclass(frozen=True)
class FixupStep:
    """A unary fix-up applied to the final result (explicit inv/transpose)."""

    kernel: KernelSpec
    #: Size-symbol index the cost is charged on (square dimension).
    dim: int
    cost: CostFunction

    @property
    def call_dims(self) -> tuple[int, int, int]:
        """The size symbols its cost is charged on, as ``(m, k, n)``."""
        return (self.dim, self.dim, self.dim)

    @cached_property
    def _flat_terms(self) -> FlatTerms:
        """This fix-up's cost terms (see :attr:`Step._flat_terms`)."""
        return call_terms(self.cost, self.call_dims)


@dataclass(frozen=True)
class Variant:
    """A generated code variant for one parenthesization of a chain."""

    chain: Chain
    tree: Optional[ParenTree]
    steps: tuple[Step, ...]
    fixups: tuple[FixupStep, ...]
    final_state: OperandState
    name: str = ""

    # -- cost evaluation ------------------------------------------------------

    @cached_property
    def _flat_terms(self) -> FlatTerms:
        """Cost flattened to the cached terms of every step, then of every
        fix-up (see :func:`call_terms`)."""
        parts = self.steps + self.fixups
        return tuple(itertools.chain.from_iterable(p._flat_terms for p in parts))

    def flop_cost(self, sizes: Sequence[int]) -> float:
        """Numeric FLOP cost ``T(A, q)`` on a concrete instance ``q``."""
        total = 0.0
        for coeff, powers in self._flat_terms:
            value = coeff
            for sym, exp in powers:
                value *= sizes[sym] ** exp
            total += value
        return total

    def flop_cost_many(self, instances: np.ndarray) -> np.ndarray:
        """Vectorized cost over an ``(num_instances, n+1)`` size array.

        Each distinct power ``q_s ** e`` is computed once per call; the
        products and the sum keep :meth:`flop_cost`'s order, so the costs
        equal :func:`~repro.compiler.selection.flop_cost_matrix`'s bit for
        bit.
        """
        instances = np.asarray(instances, dtype=np.float64)
        total = np.zeros(instances.shape[0])
        powers: dict[tuple[int, int], np.ndarray] = {}
        for coeff, factors in self._flat_terms:
            value = coeff
            for factor in factors:
                power = powers.get(factor)
                if power is None:
                    sym, exp = factor
                    power = powers[factor] = instances[:, sym] ** exp
                value = value * power
            total += value
        return total

    def symbolic_cost(self):
        """Exact symbolic FLOP cost as a sympy expression in ``q0 .. qn``."""
        import sympy

        symbols = sympy.symbols(
            [f"q{i}" for i in range(self.chain.n + 1)], positive=True
        )
        total = sympy.Integer(0)
        for part in self.steps + self.fixups:
            total += part.cost.to_sympy(*(symbols[d] for d in part.call_dims))
        return sympy.expand(total)

    # -- presentation ----------------------------------------------------------

    @property
    def triplets(self) -> tuple[tuple[int, int, int], ...]:
        """The association triplets ``(a_i, b_i, c_i)`` in issue order."""
        return tuple(step.triplet for step in self.steps)

    @property
    def kernel_names(self) -> tuple[str, ...]:
        return tuple(step.kernel.name for step in self.steps) + tuple(
            fix.kernel.name for fix in self.fixups
        )

    def signature(self) -> tuple:
        """Hashable identity: the (kernel, triplet) sequence plus fix-ups."""
        return (
            tuple((s.kernel.name, s.side, s.triplet) for s in self.steps),
            tuple((f.kernel.name, f.dim) for f in self.fixups),
        )

    def describe(self) -> str:
        """Multi-line human-readable listing of the kernel call sequence."""
        lines = [f"variant {self.name or '<anonymous>'} for chain {self.chain}"]
        if self.tree is not None:
            labels = [str(op) for op in self.chain]
            lines.append(f"  parenthesization: {self.tree.render(labels)}")
        for step in self.steps:
            lines.append("  " + step.describe())
        for fix in self.fixups:
            lines.append(f"  finalize: {fix.kernel.name}(q{fix.dim})")
        return "\n".join(lines)

    def __str__(self) -> str:
        if self.tree is not None:
            return self.tree.render([str(op) for op in self.chain])
        return self.name or "<variant>"


def _make_same_class(chain: Chain):
    classes = chain.equivalence_classes()
    rep = {}
    for cls in classes:
        for member in cls:
            rep[member] = cls[0]
    return lambda i, j: rep[i] == rep[j]


def _build_fixups(state: OperandState, chain: Chain) -> tuple[FixupStep, ...]:
    """Explicit fix-ups when operators propagate to the end result (§IV)."""
    fixups: list[FixupStep] = []
    if state.inverted:
        if not state.square:
            raise CompilationError("cannot invert a non-square final result")
        kernel = lookup_inversion_kernel(state.stored_structure, state.prop)
        fixups.append(
            FixupStep(kernel=kernel, dim=state.rows, cost=kernel.cost())
        )
    if state.transposed:
        fixups.append(
            FixupStep(kernel=TRANSPOSE, dim=state.rows, cost=TRANSPOSE.cost())
        )
    return tuple(fixups)


def build_variants(
    chain: Chain, trees: Sequence[ParenTree], names: Sequence[str]
) -> list[Variant]:
    """Construct the variant of every tree in ``trees`` (Section IV).

    Associations are issued leftmost available first, i.e. in post-order
    (see :func:`~repro.compiler.parenthesization.linearize`), each resolved
    by :func:`repro.compiler.states.associate`.  A subtree's steps depend
    only on the subtree and the number of steps before it, so they are
    memoized, for this call only, on (subtree identity, post-order offset):
    one ``associate`` and one :class:`Step` per key, and every variant's
    ``steps`` is a concatenation of shared tuples.
    """
    trees = list(trees)
    for tree in trees:
        if tree.lo != 0 or tree.hi != chain.n - 1:
            raise CompilationError(
                f"tree spans matrices {tree.lo}..{tree.hi} but the chain has "
                f"{chain.n} matrices"
            )
    states = initial_states(chain)
    if chain.n == 1:
        pairs = zip(trees, names, strict=True)
        return [_single_matrix_variant(chain, states[0], name) for _, name in pairs]
    same_class = _make_same_class(chain)
    leaves = [((), state) for state in states]
    # Keyed by id(): ``trees`` keeps every node alive for the whole call.
    memo: dict[tuple[int, int], tuple[tuple[Step, ...], OperandState]] = {}

    def build(node: ParenTree, offset: int) -> tuple[tuple[Step, ...], OperandState]:
        if node.is_leaf:
            return leaves[node.lo]
        key = (id(node), offset)
        built = memo.get(key)
        if built is None:
            left_steps, left_state = build(node.left, offset)
            right_steps, right_state = build(node.right, offset + len(left_steps))
            index = offset + len(left_steps) + len(right_steps)
            result = associate(left_state, right_state, same_class, index)
            step = Step.of(result, index, node.triplet)
            built = memo[key] = (left_steps + right_steps + (step,), result.result)
        return built

    variants = []
    for tree, name in zip(trees, names, strict=True):
        steps, final = build(tree, 0)
        variants.append(
            Variant(chain, tree, steps, _build_fixups(final, chain), final, name)
        )
    return variants


def build_variant(chain: Chain, tree: ParenTree, name: str = "") -> Variant:
    """The unique variant of one parenthesization (see :func:`build_variants`)."""
    return build_variants(chain, [tree], [name])[0]


def _single_matrix_variant(chain: Chain, state: OperandState, name: str) -> Variant:
    """Degenerate chain of one matrix: resolve its unary operators directly."""
    fixups: list[FixupStep] = list(_build_fixups(state, chain))
    if not fixups:
        fixups.append(FixupStep(kernel=COPY, dim=state.rows, cost=COPY.cost()))
    resolved = replace(state, inverted=False, transposed=False, source=("step", 0))
    return Variant(
        chain=chain,
        tree=None,
        steps=(),
        fixups=tuple(fixups),
        final_state=resolved,
        name=name or "single",
    )

"""A model of Armadillo's chain evaluation strategy (paper Section VII-B).

The paper uses Armadillo 14.6.1 as an external reference point, generating
code "that exploits as much knowledge of the input matrices as possible"
(``symmatl``, ``trimatl``/``trimatu``, and ``inv_sympd``).  Armadillo's
documented behaviour for chains longer than four matrices is a left-to-right
pairwise evaluation; its expression templates do not reorder generalized
chains, do not infer features of intermediate results, and translate the
``inv()`` operator into an *explicit inversion* followed by a product rather
than a linear-system solve.

This module models exactly that strategy on our kernel/cost substrate:

* each inverted operand is explicitly inverted up front (``inv_sympd`` for
  SPD operands — POINV; triangular inverse — TRINV; general — GEINV);
* products are evaluated strictly left to right;
* the declared structure of *input* operands is honoured where Armadillo's
  dispatch would use it (``trimatl/trimatu`` products map to TRMM,
  ``symmatl`` products to SYMM), but intermediate results are always
  treated as general matrices — there is no feature inference.

This preserves the paper's qualitative ordering: Armadillo loses to the
in-house left-to-right variant ``L`` (which propagates operators and infers
features), which in turn loses badly to the theory-selected sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.kernels.cost import CostFunction
from repro.kernels.spec import (
    GEINV,
    GEMM,
    POINV,
    SYMM,
    TRINV,
    TRMM,
    KernelSpec,
)


@dataclass(frozen=True)
class ArmadilloStep:
    """One kernel call in the Armadillo evaluation plan.

    Mirrors the attribute interface of :class:`repro.compiler.variant.Step`
    (``kernel``, ``cost``, ``call_dims``) so that every kernel-speed model
    times it with the same pricing loop.
    """

    kernel: KernelSpec
    cost: CostFunction
    call_dims: tuple[int, int, int]


class ArmadilloEvaluator:
    """Cost/time model of Armadillo's evaluation of one chain shape.

    Shaped like a variant, so a kernel-speed model prices the plan:
    ``machine.cost_many(evaluator, instances)``.
    """

    fixups: tuple = ()  # inversions run up front: no fix-ups

    def __init__(self, chain: Chain):
        self.chain = chain
        self.steps = tuple(self._plan(chain))

    @staticmethod
    def _inversion_kernel(structure: Structure, prop: Property) -> KernelSpec:
        if prop is Property.SPD:
            return POINV  # inv_sympd
        if structure.is_triangular:
            return TRINV  # inv(trimatl(...)) / inv(trimatu(...))
        return GEINV  # plain inv()

    @staticmethod
    def _product_kernel(
        left_structure: Structure, right_structure: Structure
    ) -> tuple[KernelSpec, str]:
        """Kernel and structured side for a pairwise product.

        Armadillo dispatches ``trimatl/trimatu`` operands to TRMM and
        ``symmatl`` operands to SYMM; everything else (including all
        intermediates, which are plain ``mat``) goes through GEMM.
        """
        if left_structure.is_triangular:
            return TRMM, "left"
        if right_structure.is_triangular:
            return TRMM, "right"
        if left_structure is Structure.SYMMETRIC:
            return SYMM, "left"
        if right_structure is Structure.SYMMETRIC:
            return SYMM, "right"
        return GEMM, "left"

    def _plan(self, chain: Chain):
        # Explicit inversions first: one unary call per inverted operand.
        structures: list[Structure] = []
        for i, operand in enumerate(chain):
            structure = operand.structure
            if operand.inverted:
                kernel = self._inversion_kernel(
                    operand.matrix.structure, operand.matrix.prop
                )
                yield ArmadilloStep(
                    kernel=kernel, cost=kernel.cost(), call_dims=(i, i, i)
                )
                # inv(trimatl(L)) yields a plain mat in Armadillo: the
                # triangularity of the inverse is not tracked.
                structure = Structure.GENERAL
            structures.append(structure)

        # Left-to-right pairwise products; intermediates are general.
        left_structure = structures[0]
        for i in range(1, chain.n):
            kernel, side = self._product_kernel(left_structure, structures[i])
            call_dims = (0, i, i + 1)
            cheap = True
            yield ArmadilloStep(
                kernel=kernel,
                cost=kernel.cost(side=side, cheap=cheap),
                call_dims=call_dims,
            )
            left_structure = Structure.GENERAL

    # -- cost evaluation -------------------------------------------------------

    def flop_cost_many(self, instances: np.ndarray) -> np.ndarray:
        """Vectorized FLOP cost of the Armadillo plan over instances."""
        instances = np.asarray(instances, dtype=np.float64)
        total = np.zeros(instances.shape[0])
        for step in self.steps:
            m = instances[:, step.call_dims[0]]
            k = instances[:, step.call_dims[1]]
            n = instances[:, step.call_dims[2]]
            for term in step.cost.terms:
                total += float(term.coeff) * m**term.em * k**term.ek * n**term.en
        return total

    def flop_cost(self, sizes: Sequence[int]) -> float:
        return float(self.flop_cost_many(np.asarray([sizes]))[0])

    def kernel_names(self) -> tuple[str, ...]:
        return tuple(step.kernel.name for step in self.steps)

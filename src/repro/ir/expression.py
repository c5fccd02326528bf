"""Sums of generalized matrix chains (a step beyond the paper).

The paper's conclusion names "more general expressions involving addition
and subtraction" as the open next step.  This module takes the first,
well-defined slice of that space: expressions of the form

    R := c1 * chain_1  +/-  c2 * chain_2  +/-  ...

where each term is a generalized matrix chain scaled by an optional scalar
literal, and all terms share one matrix symbol table (the same matrix may
appear in several terms and must be bound to the same array at run time).
Each term is compiled independently with the full multi-versioning
machinery; the additions are a fixed post-pass (they admit no reordering
freedom without common-subexpression reasoning, which the paper explicitly
leaves out as NP-complete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.ir.chain import Chain
from repro.ir.matrix import Matrix


@dataclass(frozen=True)
class ChainTerm:
    """One addend: a scalar coefficient times a chain."""

    coefficient: float
    chain: Chain

    def __str__(self) -> str:
        sign = "-" if self.coefficient < 0 else "+"
        magnitude = abs(self.coefficient)
        scalar = "" if magnitude == 1.0 else f"{magnitude:g} * "
        return f"{sign} {scalar}{self.chain}"


@dataclass(frozen=True)
class ChainSum:
    """A sum of scaled chains sharing one matrix symbol table."""

    terms: tuple[ChainTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ShapeError("an expression needs at least one term")
        # Matrices are identified by name; the same name must carry the
        # same features everywhere.
        features: dict[str, Matrix] = {}
        for term in self.terms:
            for operand in term.chain:
                matrix = operand.matrix
                known = features.get(matrix.name)
                if known is None:
                    features[matrix.name] = matrix
                elif known != matrix:
                    raise ShapeError(
                        f"matrix {matrix.name!r} is used with conflicting "
                        f"features across terms"
                    )

    @property
    def matrices(self) -> dict[str, Matrix]:
        """All distinct matrices, keyed by name, in first-use order."""
        table: dict[str, Matrix] = {}
        for term in self.terms:
            for operand in term.chain:
                table.setdefault(operand.matrix.name, operand.matrix)
        return table

    def __iter__(self) -> Iterator[ChainTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        rendered = " ".join(str(term) for term in self.terms)
        return rendered[2:] if rendered.startswith("+ ") else rendered

    # -- run-time size handling ---------------------------------------------

    def term_sizes(
        self, arrays: Mapping[str, np.ndarray]
    ) -> list[tuple[int, ...]]:
        """Per-term instance vectors recovered from named arrays.

        Validates that every matrix is provided, shapes are consistent with
        features and chain adjacency, and all terms produce results of the
        same dimensions.
        """
        from repro.runtime.executor import infer_sizes

        missing = [name for name in self.matrices if name not in arrays]
        if missing:
            raise ShapeError(f"missing arrays for matrices: {', '.join(missing)}")
        sizes = []
        result_dims: tuple[int, int] | None = None
        for term in self.terms:
            term_arrays = [
                np.asarray(arrays[op.matrix.name]) for op in term.chain
            ]
            q = infer_sizes(term.chain, term_arrays)
            dims = (q[0], q[-1])
            if result_dims is None:
                result_dims = dims
            elif dims != result_dims:
                raise ShapeError(
                    f"term {term.chain} produces a {dims[0]}x{dims[1]} "
                    f"result but an earlier term produced "
                    f"{result_dims[0]}x{result_dims[1]}"
                )
            sizes.append(q)
        return sizes

    def addition_flops(self, result_rows: int, result_cols: int) -> float:
        """FLOPs of accumulating the terms (one add per element per '+')."""
        extra_ops = len(self.terms) - 1
        scalar_scales = sum(
            1 for term in self.terms if abs(term.coefficient) != 1.0
        )
        return float(result_rows * result_cols * (extra_ops + scalar_scales))

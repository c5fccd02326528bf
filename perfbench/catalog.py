"""The chains the benchmark compiles, and seeded instances of them.

The library-user chains are those of the repository's ``examples/``
programs (Schur contributes its chain term ``B D^-1 C``), plus the
10-matrix GEMM chain of ``benchmarks/bench_backend_c.py``.  Seeded n=7
shapes come from the paper's shape sampler and are rendered back to
program text, so every chain can travel as a ``compile`` request.

The *suite* — which shapes, which working-set and request sizes — is one
seeded draw with the fixed :data:`SUITE_SEED`, so runs with different
``--seed`` measure the same programs; ``--seed`` draws everything else
(operand values, size pairings, call orders, penalty samples).  With
per-seed suites, which shapes a seed happens to draw moved latencies by
20-80% between seeds and drowned any change worth detecting.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.sampling import sample_shapes
from repro.runtime.executor import random_instance_arrays

EXAMPLES = {
    "tikhonov": (
        "Matrix P <Symmetric, SPD>; Matrix A <General, Singular>; "
        "Matrix B <General, Singular>; X := P^-1 * A^T * B;"
    ),
    "schur": (
        "Matrix B <General, Singular>; Matrix D <Symmetric, SPD>; "
        "Matrix C <General, Singular>; S := B * D^-1 * C;"
    ),
    "jacobi": (
        "Matrix D <Diagonal, NonSingular>; Matrix A <Symmetric, SPD>; "
        "Matrix B <General, Singular>; R := D^-1 * A * D^-1 * B;"
    ),
    "quickstart": (
        "Matrix G1 <General, Singular>; Matrix L <LowerTri, NonSingular>; "
        "Matrix G2 <General, Singular>; R := G1 * L^-1 * G2;"
    ),
    "kalman": (
        "Matrix X <General, Singular>; Matrix HX <General, Singular>; "
        "Matrix HXc <General, Singular>; Matrix M <Symmetric, SPD>; "
        "R := X * HX * HXc^T * M^-1;"
    ),
    "triangular": (
        "Matrix G1 <General, Singular>; Matrix L1 <LowerTri, NonSingular>; "
        "Matrix G2 <General, Singular>; Matrix L2 <LowerTri, NonSingular>; "
        "R := G1 * L1^-1 * G2 * L2^-1;"
    ),
}

GEMM10 = (
    "; ".join(f"Matrix A{i} <General, Singular>" for i in range(10))
    + "; R := "
    + " * ".join(f"A{i}" for i in range(10))
    + ";"
)


def source_of(chain) -> str:
    """Program text for a chain (matrix declarations + one assignment)."""
    declared: dict[str, str] = {}
    terms = []
    for operand in chain:
        matrix = operand.matrix
        declared.setdefault(
            matrix.name,
            f"Matrix {matrix.name} <{matrix.structure.value}, {matrix.prop.value}>",
        )
        terms.append(f"{matrix.name}{operand.op.value}")
    return "; ".join(declared.values()) + "; R := " + " * ".join(terms) + ";"


#: Seed of the benchmark suite (the programs), independent of ``--seed``.
SUITE_SEED = 2026


def suite_rng(label: int) -> np.random.Generator:
    return np.random.default_rng([SUITE_SEED, label])


def suite_shapes(count: int, label: int, n: int = 7) -> list:
    """``count`` n=7 shapes of the paper's execution-time distribution."""
    return sample_shapes(n, count, suite_rng(label), rectangular_probability=0.5)


def stratified_sizes(chain, count: int, rng: np.random.Generator, low: int, high: int) -> np.ndarray:
    """``count`` size vectors uniform in [low, high] whose per-class
    marginals do not depend on ``rng``: every size-symbol class takes the
    midpoints of ``count`` equal strata, paired across classes by ``rng``
    (a Latin hypercube without jitter)."""
    strata = (low + (np.arange(count) + 0.5) * (high - low + 1) / count).astype(np.int64)
    sizes = np.empty((count, chain.n + 1), dtype=np.int64)
    for cls in chain.equivalence_classes():
        draws = strata[rng.permutation(count)]
        for index in cls:
            sizes[:, index] = draws
    return sizes


def sample_sizes(chain, count: int, rng: np.random.Generator, low: int, high: int, edge: tuple | None = None) -> np.ndarray:
    """``count`` valid size vectors, log-uniform in [low, high] per
    size-symbol class (small sizes dominate, as on a dispatch hot path).

    ``edge=(lo, hi)`` draws the classes of the outermost sizes ``q0`` and
    ``qn`` from that range instead: large inner operands with a small
    result, the shape of a large rectangular request.
    """
    sizes = np.empty((count, chain.n + 1), dtype=np.int64)
    for cls in chain.equivalence_classes():
        lo, hi = (edge if edge is not None and (0 in cls or chain.n in cls) else (low, high))
        draws = np.exp(rng.uniform(np.log(lo), np.log(hi + 1), size=count)).astype(np.int64)
        for index in cls:
            sizes[:, index] = np.clip(draws, lo, hi)
    return sizes


def well_conditioned(matrix: np.ndarray, structure) -> np.ndarray:
    """Shrink a triangular operand's off-diagonal part by its order.

    A random triangular matrix with O(1) off-diagonal entries has a
    condition number growing exponentially with its order (about 1e19 at
    n=500), and variants may legitimately invert any non-singular operand
    — so such data would measure the inputs' conditioning, not the
    program.  Scaling the strictly triangular part by 1/n keeps every
    leading block diagonally dominant.
    """
    if not structure.is_triangular:
        return matrix
    diagonal = np.diag(np.diag(matrix))
    return diagonal + (matrix - diagonal) / matrix.shape[0]


def instance_arrays(chain, sizes, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded, well-conditioned stored operands of one instance."""
    arrays = random_instance_arrays(chain, [int(s) for s in sizes], rng)
    return [
        np.ascontiguousarray(well_conditioned(a, op.matrix.structure))
        for op, a in zip(chain, arrays)
    ]


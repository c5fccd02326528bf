"""Tikhonov-regularization normal equations with the input language.

Tikhonov regularization (paper Section I) solves
``x = (A^T A + G^T G)^-1 A^T b``; once the regularized Gram matrix
``P := A^T A + G^T G`` has been formed it is symmetric positive-definite,
and applying the estimator to a block of right-hand sides ``B`` is the
generalized matrix chain ``P^-1 A^T B``.

This example uses the *textual* input language of the paper's Fig. 2 (the
other examples use the Python builder API) and demonstrates dispatch
crossover: for few right-hand sides the Cholesky solve dominates; for many,
the chain association order matters.

Run:  python examples/tikhonov.py
"""

import numpy as np

from repro import compile_chain, parse_program
from repro.runtime.executor import naive_evaluate

PROGRAM = """
# Tikhonov estimator applied to a block of right-hand sides.
Matrix P <Symmetric, SPD>;       # regularized Gram matrix  A^T A + G^T G
Matrix A <General, Singular>;    # design matrix (stored transposed below)
Matrix B <General, Singular>;    # right-hand sides
X := P^-1 * A^T * B;
"""


def main() -> None:
    program = parse_program(PROGRAM)
    print(f"parsed chain: {program.result_name} := {program.chain}")

    generated = compile_chain(program.chain, expand_by=1, seed=11)
    print(f"variants: {[v.name for v in generated.variants]}")
    for variant in generated.variants:
        print(f"  cost[{variant.name}] = {variant.symbolic_cost()}")

    rng = np.random.default_rng(1)
    n_features, n_samples = 60, 40
    a = rng.standard_normal((n_samples, n_features))
    g = rng.standard_normal((n_features, n_features))
    p = a.T @ a + g.T @ g  # SPD by construction

    for n_rhs in (1, 10, 1000):
        sizes = (n_features, n_features, n_samples, n_rhs)
        variant, cost = generated.select(sizes)
        print(
            f"n_rhs={n_rhs:>5}: dispatches to {variant.name} "
            f"({' -> '.join(variant.kernel_names)}), {cost:,.0f} FLOPs"
        )

    # Evaluate and verify against a dense oracle.  The second operand is
    # A^T, so the stored array is A itself (shape n_samples x n_features).
    b = rng.standard_normal((n_samples, 5))
    arrays = [p, a, b]
    x = generated(*arrays)
    expected = naive_evaluate(generated.chain, arrays)
    err = np.abs(x - expected).max() / np.abs(expected).max()
    print(f"numeric check: max rel err = {err:.2e}")

    # Cross-check against the closed-form Tikhonov solution.
    direct = np.linalg.solve(p, a.T @ b)
    err2 = np.abs(x - direct).max() / np.abs(direct).max()
    print(f"against np.linalg.solve: max rel err = {err2:.2e}")


if __name__ == "__main__":
    main()

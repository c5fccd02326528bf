"""Diagonal (Jacobi) preconditioning chain — the diagonal extension.

The paper's input grammar leaves the structure list open
(``General | Symmetric | LowerTri | ...``); this reproduction adds a
``Diagonal`` structure with sub-cubic kernels (scaling is O(mn), not the
O(m^2 n) a triangular kernel would charge).  A natural use is Jacobi-style
preconditioning, where the two-sided scaled operator

    R := D^-1 * A * D^-1 * B

appears with a diagonal D extracted from A.  This example shows the cheap
kernels being picked, the cost gap against treating D as merely triangular,
and a numeric check.

Run:  python examples/jacobi_preconditioning.py
"""

import numpy as np

from repro import Matrix, Property, Structure, compile_chain
from repro.runtime.executor import naive_evaluate


def main() -> None:
    D = Matrix("D", Structure.DIAGONAL, Property.NON_SINGULAR)
    A = Matrix("A", Structure.SYMMETRIC, Property.SPD)
    B = Matrix("B", Structure.GENERAL)
    chain = D.inv * A * D.inv * B

    generated = compile_chain(chain, expand_by=1, seed=3)
    print(f"chain: {chain}")
    for variant in generated.variants:
        print()
        print(variant.describe())
        print(f"  symbolic cost: {variant.symbolic_cost()}")

    # Compare against the same chain with D declared lower-triangular
    # (which is technically true — a diagonal matrix is triangular — but
    # throws away the cheap scaling kernels).
    Dt = Matrix("D", Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR)
    triangular_version = compile_chain(Dt.inv * A * Dt.inv * B, seed=3)

    for sizes in [(500, 500, 500, 500, 8), (200, 200, 200, 200, 600)]:
        _, cost_diag = generated.select(sizes)
        _, cost_tri = triangular_version.select(sizes)
        print(
            f"\nq={sizes}: diagonal-aware cost {cost_diag:,.0f} FLOPs, "
            f"triangular-only {cost_tri:,.0f} FLOPs "
            f"({cost_tri / cost_diag:.2f}x more)"
        )

    # Numeric check on a small instance.
    rng = np.random.default_rng(0)
    n, k = 30, 5
    a = rng.standard_normal((n, n))
    spd = a @ a.T / np.sqrt(n) + np.eye(n)
    d = np.diag(np.abs(np.diag(spd)) ** 0.5)
    b = rng.standard_normal((n, k))
    arrays = [d, spd, d, b]
    result = generated(*arrays)
    check = naive_evaluate(generated.chain, arrays)
    err = np.abs(result - check).max() / np.abs(check).max()
    print(f"\nnumeric check: max rel err = {err:.2e}")


if __name__ == "__main__":
    main()

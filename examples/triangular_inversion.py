"""Blocked triangular inversion chain: G1 L1^-1 G2 L2^-1 (paper Section I).

The paper cites the chain ``G1 L1^-1 G2 L2^-1`` from a blocked algorithm
for inverting a triangular matrix.  Both inverses have non-singular
triangular coefficients, so every association involving them maps to cheap
TRSM solves — *if* the compiler propagates the operators well.  This
example shows the generated variants, their symbolic costs, and a
comparison against the naive strategy of explicitly inverting L1 and L2
first (what a user typing ``G1 @ inv(L1) @ G2 @ inv(L2)`` gets in NumPy).

Run:  python examples/triangular_inversion.py
"""

import numpy as np

from repro import Matrix, Property, Structure, compile_chain
from repro.runtime.executor import naive_evaluate, random_instance_arrays


def explicit_inversion_cost(sizes) -> float:
    """FLOPs of inv(L1), inv(L2) plus three left-to-right GEMMs."""
    q = sizes
    inv_cost = 2 * q[1] ** 3 + 2 * q[3] ** 3  # LAPACK getri-style on full mats
    gemms = (
        2 * q[0] * q[1] * q[2]
        + 2 * q[0] * q[2] * q[3]
        + 2 * q[0] * q[3] * q[4]
    )
    return inv_cost + gemms


def main() -> None:
    G1 = Matrix("G1", Structure.GENERAL)
    L1 = Matrix("L1", Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR)
    G2 = Matrix("G2", Structure.GENERAL)
    L2 = Matrix("L2", Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR)
    chain = G1 * L1.inv * G2 * L2.inv

    print(f"chain: {chain}")
    generated = compile_chain(chain, expand_by=1, seed=7)
    for variant in generated.variants:
        print()
        print(variant.describe())
        print(f"  symbolic cost: {variant.symbolic_cost()}")

    rng = np.random.default_rng(3)
    print()
    for sizes in [(500, 80, 80, 80, 80), (50, 400, 400, 400, 400)]:
        variant, cost = generated.select(sizes)
        naive = explicit_inversion_cost(sizes)
        print(
            f"q={sizes}: {variant.name} costs {cost:,.0f} FLOPs; "
            f"explicit inversion + GEMMs would cost {naive:,.0f} "
            f"({naive / cost:.1f}x more)"
        )

    sizes = (20, 8, 8, 6, 6)
    arrays = random_instance_arrays(generated.chain, sizes, rng)
    result = generated(*arrays)
    check = naive_evaluate(generated.chain, arrays)
    err = np.abs(result - check).max() / np.abs(check).max()
    print(f"\nnumeric check on q={sizes}: max rel err = {err:.2e}")


if __name__ == "__main__":
    main()

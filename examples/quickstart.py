"""Quickstart: compile and evaluate a generalized matrix chain.

This is the reproduction's one-minute tour of Fig. 1:

1. describe a symbolic chain (features known, sizes unknown);
2. compile it: the code generator picks a provably-good set of variants
   (Theorem 2) and builds the dispatch function;
3. call the generated code with concrete matrices: the dispatcher sees the
   sizes, evaluates every variant's cost function, and runs the best one.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Matrix, Property, Structure, compile_chain
from repro.runtime.executor import naive_evaluate, random_instance_arrays


def main() -> None:
    # R := G1 * L^-1 * G2  — a general matrix, a triangular solve, another
    # general matrix.  Sizes are symbolic at compile time.
    G1 = Matrix("G1", Structure.GENERAL)
    L = Matrix("L", Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR)
    G2 = Matrix("G2", Structure.GENERAL)
    chain = G1 * L.inv * G2

    print(f"chain: {chain}")
    generated = compile_chain(chain, expand_by=1, seed=0)
    print(f"compiled {len(generated)} variants:")
    print(generated.describe())
    print()

    rng = np.random.default_rng(42)
    for sizes in [(300, 40, 40, 10), (10, 40, 40, 300), (100, 100, 100, 100)]:
        arrays = random_instance_arrays(generated.chain, sizes, rng)
        variant, cost = generated.select(sizes)
        result = generated(*arrays)
        check = naive_evaluate(generated.chain, arrays)
        err = np.abs(result - check).max() / max(1.0, np.abs(check).max())
        print(
            f"q={sizes}: dispatched to {variant.name:>3} "
            f"({'/'.join(variant.kernel_names)}), "
            f"cost={cost:,.0f} FLOPs, max rel err={err:.2e}"
        )

    print()
    print("Generated C++ (excerpt):")
    print("\n".join(generated.cpp_source().splitlines()[:25]))


if __name__ == "__main__":
    main()

"""Ensemble Kalman filter chain: G1 G2 G3^T M^-1 (paper Section I).

The paper motivates GMCs with the ensemble Kalman filter, whose update
involves the chain ``G1 G2 G3^T M^-1`` where the Gs are general and ``M``
is a symmetric positive-definite innovation covariance.  The expression is
fixed, but the ensemble size, state dimension, and observation dimension
vary between deployments — exactly the symbolic-size setting.

This example compiles the chain once and then evaluates it across three
regimes (small ensembles, large ensembles, square-ish), showing how the
dispatcher picks different variants — and how much worse a single
left-to-right evaluation would have been.

Run:  python examples/kalman_filter.py
"""

import numpy as np

from repro import Matrix, Property, Structure, compile_chain, left_to_right_variant
from repro.runtime.executor import naive_evaluate, random_instance_arrays
from repro.compiler.selection import optimal_cost


def main() -> None:
    # X (state ensemble), HX (observed ensemble), HXc (centred), and the
    # SPD innovation covariance M.
    X = Matrix("X", Structure.GENERAL)
    HX = Matrix("HX", Structure.GENERAL)
    HXc = Matrix("HXc", Structure.GENERAL)
    M = Matrix("M", Structure.SYMMETRIC, Property.SPD)
    chain = X * HX * HXc.T * M.inv

    print(f"Kalman-filter chain: {chain}")
    generated = compile_chain(chain, expand_by=1, size_range=(10, 2000), seed=1)
    print(f"variants: {[v.name for v in generated.variants]}")
    ltr = left_to_right_variant(generated.chain)
    rng = np.random.default_rng(0)

    regimes = {
        # q = (state dim, ensemble, ensemble, obs dim, obs dim)
        "large state, small ensemble": (2000, 50, 50, 40, 40),
        "small state, large ensemble": (40, 1000, 1000, 30, 30),
        "balanced": (300, 300, 300, 300, 300),
    }
    for label, sizes in regimes.items():
        variant, cost = generated.select(sizes)
        opt = optimal_cost(generated.chain, sizes)
        ltr_cost = ltr.flop_cost(sizes)
        print(f"\n{label}: q = {sizes}")
        print(f"  dispatched variant : {variant.name} "
              f"({' -> '.join(variant.kernel_names)})")
        print(f"  dispatched cost    : {cost:,.0f} FLOPs "
              f"({cost / opt:.3f}x optimal)")
        print(f"  left-to-right cost : {ltr_cost:,.0f} FLOPs "
              f"({ltr_cost / opt:.2f}x optimal)")

    # Numerical spot check on a small instance.
    sizes = (50, 12, 12, 9, 9)
    arrays = random_instance_arrays(generated.chain, sizes, rng)
    result = generated(*arrays)
    check = naive_evaluate(generated.chain, arrays)
    err = np.abs(result - check).max() / np.abs(check).max()
    print(f"\nnumeric check on q={sizes}: max rel err = {err:.2e}")


if __name__ == "__main__":
    main()

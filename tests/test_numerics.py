"""Numerical-stability checks motivating the compiler's rewrites.

The paper's Section IV justifies avoiding explicit inversions "due to
numerical stability and performance".  These tests exercise the stability
half on the executable substrate: solving ``L^-1 G`` through TRSM (what the
compiler emits) is consistently at least as accurate as explicitly
inverting ``L`` and multiplying (what naive user code does), and the
propagated-inversion rewrites keep results accurate on ill-conditioned
chains.
"""

import numpy as np
import pytest

from repro.ir.chain import Chain
from repro.runtime.executor import execute_variant
from repro.compiler.parenthesization import left_to_right_tree
from repro.compiler.selection import all_variants
from repro.compiler.variant import build_variant

from conftest import make_general, make_lower


def _ill_conditioned_lower(n: int, rng: np.random.Generator, decay: float = 0.75):
    """Lower-triangular matrix with cond in the 1e6..1e9 range for n=16..20.

    The diagonal decays geometrically and the strictly-lower part is kept
    small so the conditioning is driven by the diagonal spread rather than
    exploding exponentially.
    """
    t = np.tril(rng.standard_normal((n, n)), k=-1) * 0.25
    t[np.diag_indices(n)] = decay ** np.arange(n)
    return t


class TestSolveVsExplicitInversion:
    def test_trsm_beats_explicit_inverse_on_average(self):
        solve_errors, explicit_errors = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, k = 16, 6
            low = _ill_conditioned_lower(n, rng)
            x_true = rng.standard_normal((n, k))
            g = low @ x_true  # so that L^-1 G == x_true exactly

            import scipy.linalg

            solved = scipy.linalg.solve_triangular(low, g, lower=True)
            explicit = np.linalg.inv(low) @ g
            denominator = np.abs(x_true).max()
            solve_errors.append(np.abs(solved - x_true).max() / denominator)
            explicit_errors.append(np.abs(explicit - x_true).max() / denominator)
        assert np.median(solve_errors) <= np.median(explicit_errors) * 1.5
        assert np.mean(solve_errors) <= np.mean(explicit_errors) * 1.5

    def test_compiled_chain_accuracy_on_ill_conditioned_solve(self):
        # L^-1 G compiled through the library stays close to the exactly
        # constructed solution even when cond(L) is large.
        chain = Chain((make_lower("L").inv, make_general("G").as_operand()))
        variant = build_variant(chain, left_to_right_tree(2))
        assert variant.kernel_names == ("TRSM",)
        rng = np.random.default_rng(0)
        n, k = 16, 4
        low = _ill_conditioned_lower(n, rng)
        x_true = rng.standard_normal((n, k))
        g = low @ x_true
        result = execute_variant(variant, [low, g])
        err = np.abs(result - x_true).max() / np.abs(x_true).max()
        assert err < 1e-8

    def test_inversion_propagation_rewrite_is_accurate(self):
        # (L G^-1) H evaluates through the rewritten TRSM + GEGESV path;
        # verify against a solution constructed to be exactly representable.
        chain = Chain(
            (
                make_lower("L").as_operand(),
                make_general("G", invertible=True).inv,
                make_general("H").as_operand(),
            )
        )
        rng = np.random.default_rng(1)
        n, k = 20, 5
        low = _ill_conditioned_lower(n, rng, decay=0.85)
        g = rng.standard_normal((n, n)) + np.eye(n) * np.sqrt(n)
        h = rng.standard_normal((n, k))
        reference = low @ np.linalg.solve(g, h)
        # The rewritten path solves with the product G L^-1, whose condition
        # number is roughly cond(G) * cond(L) ~ 1e8, so allow for the
        # corresponding round-off amplification.
        for variant in all_variants(chain):
            result = execute_variant(variant, [low, g, h])
            err = np.abs(result - reference).max() / np.abs(reference).max()
            assert err < 1e-5, variant.kernel_names


class TestConditioningOfVariants:
    def test_variants_agree_within_conditioning_limits(self):
        # All variants of a moderately conditioned chain agree to ~1e-9
        # relative accuracy; gross disagreement would indicate a wrong
        # rewrite rather than round-off.
        chain = Chain(
            (
                make_general("A").as_operand(),
                make_lower("L").inv,
                make_general("B").as_operand(),
            )
        )
        rng = np.random.default_rng(2)
        n, m, k = 10, 12, 8
        a = rng.standard_normal((m, n))
        low = _ill_conditioned_lower(n, rng)
        b = rng.standard_normal((n, k))
        results = [
            execute_variant(variant, [a, low, b])
            for variant in all_variants(chain)
        ]
        scale = max(np.abs(results[0]).max(), 1.0)
        for other in results[1:]:
            assert np.abs(other - results[0]).max() / scale < 1e-9

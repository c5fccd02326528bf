"""Tests for compiled execution plans (repro.runtime.plan)."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ExecutionError, ShapeError
from repro.ir.chain import Chain
from repro.compiler.parenthesization import leaf, left_to_right_tree
from repro.compiler.selection import all_variants
from repro.compiler.variant import build_variant
from repro.runtime import (
    blas_available,
    compile_plan,
    execute_variant,
    naive_evaluate,
    random_instance_arrays,
)

from conftest import (
    general_chain,
    make_general,
    make_lower,
    random_option_chain,
    small_sizes_for,
)

needs_blas = pytest.mark.skipif(
    not blas_available(), reason="scipy BLAS/LAPACK routines unavailable"
)

#: ``c`` runs wherever blas does: with a C toolchain its plans replay
#: through the fused native call; without one (or with REPRO_DISABLE_CC
#: set) they fall back to the blas step loop, which the sweep then covers.
REPLAY_BACKENDS = [
    "reference",
    pytest.param("blas", marks=needs_blas),
    pytest.param("c", marks=needs_blas),
]

REPLAY_MODES = ("plain", "arena", "out", "arena+out", "record")


def _inv(name):
    return make_general(name, invertible=True).inv


#: name -> (chain, parenthesization, sizes, keep fix-ups).  The step
#: chains have a non-final product step, so reference arenas get a buffer.
#: The compiler gives a lone operand a COPY fix-up; "single" strips it to
#: exercise the replay's own no-alias copy.
REPLAY_CASES = {
    "steps": (
        Chain(
            (
                make_general("G1").as_operand(),
                make_general("G2").as_operand(),
                make_lower("L").inv,
                make_general("G3").as_operand(),
            )
        ),
        left_to_right_tree(4),
        (4, 5, 6, 6, 7),
        False,
    ),
    "steps+fixup": (
        Chain((_inv("A"), _inv("B"), _inv("C"))),
        left_to_right_tree(3),
        (5, 5, 5, 5),
        True,
    ),
    "single": (Chain((make_general("A").as_operand(),)), leaf(0), (4, 6), False),
    "single+fixup": (Chain((_inv("A"),)), leaf(0), (5, 5), True),
}

class TestPlanExecution:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_interpretive_executor_and_oracle(self, seed):
        """A plan replays exactly what execute_variant computes."""
        rng = np.random.default_rng(seed)
        chain = random_option_chain(int(rng.integers(2, 6)), rng)
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        for variant in all_variants(chain):
            plan = compile_plan(variant, sizes)
            got = plan.execute(arrays)
            # Bit-identical to the interpretive path: same kernels, same
            # order, same arrays.
            np.testing.assert_array_equal(
                got, execute_variant(variant, arrays)
            )
            np.testing.assert_allclose(
                got / scale, expected / scale, atol=1e-7
            )

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(42)
        chain = general_chain(4)
        sizes = (5, 6, 7, 8, 9)
        plan = compile_plan(all_variants(chain)[0], sizes)
        arrays = random_instance_arrays(chain, sizes, rng)
        first = plan.execute(arrays)
        for _ in range(3):
            np.testing.assert_array_equal(plan.execute(arrays), first)

    def test_single_matrix_chain(self):
        chain = Chain((make_general("A", invertible=True).inv,))
        [variant] = all_variants(chain)
        plan = compile_plan(variant, (4, 4))
        rng = np.random.default_rng(0)
        [a] = random_instance_arrays(chain, (4, 4), rng)
        np.testing.assert_allclose(plan.execute([a]) @ a, np.eye(4), atol=1e-8)

    def test_single_matrix_chain_never_aliases_input(self):
        """Regression: a no-op plan must return a copy, not the caller's
        array — mutating the result used to corrupt the operand."""
        chain = Chain((make_general("A").as_operand(),))
        [variant] = all_variants(chain)
        plan = compile_plan(variant, (3, 3))
        a = np.arange(9, dtype=np.float64).reshape(3, 3)
        original = a.copy()
        result = plan.execute([a])
        assert result is not a
        np.testing.assert_array_equal(result, original)
        result[0, 0] = 1e9
        np.testing.assert_array_equal(a, original)
        # Same contract for the interpretive executor.
        result = execute_variant(variant, [a])
        assert result is not a
        result[0, 0] = -1e9
        np.testing.assert_array_equal(a, original)

    def test_plan_records_instance_metadata(self):
        chain = general_chain(3)
        variant = all_variants(chain)[0]
        plan = compile_plan(variant, (3, 4, 5, 6))
        assert plan.sizes == (3, 4, 5, 6)
        assert plan.expected_shapes == ((3, 4), (4, 5), (5, 6))
        assert plan.variant is variant
        assert "execution plan" in plan.describe()


class TestPlanValidation:
    def test_compile_rejects_invalid_sizes(self):
        chain = general_chain(3)
        with pytest.raises(ShapeError):
            compile_plan(all_variants(chain)[0], (3, 4))  # wrong length

    def test_execute_rejects_wrong_operand_count(self):
        chain = general_chain(3)
        plan = compile_plan(all_variants(chain)[0], (3, 4, 5, 6))
        with pytest.raises(ExecutionError, match="expected 3 arrays"):
            plan.execute([np.zeros((3, 4))])

    def test_check_shapes_catches_mismatch(self):
        chain = general_chain(2)
        plan = compile_plan(all_variants(chain)[0], (3, 4, 5))
        bad = [np.zeros((3, 4)), np.zeros((9, 5))]
        with pytest.raises(ExecutionError, match="stored shape"):
            plan.execute(bad, check_shapes=True)
        plan.validate([np.zeros((3, 4)), np.zeros((4, 5))])  # passes

    def test_callable_alias(self):
        rng = np.random.default_rng(1)
        chain = general_chain(2)
        sizes = (3, 4, 5)
        plan = compile_plan(all_variants(chain)[0], sizes)
        arrays = random_instance_arrays(chain, sizes, rng)
        np.testing.assert_array_equal(plan(arrays), plan.execute(arrays))


class TestReplayModes:
    """The one replay loop: backend x mode x chain shape."""

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    @pytest.mark.parametrize("mode", REPLAY_MODES)
    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    def test_replay_mode(self, backend, mode, case):
        chain, tree, sizes, keep_fixups = REPLAY_CASES[case]
        variant = build_variant(chain, tree)
        if not keep_fixups:
            variant = dataclasses.replace(variant, fixups=())
        assert bool(variant.fixups) == keep_fixups
        arrays = random_instance_arrays(chain, sizes, np.random.default_rng(0))
        expected = naive_evaluate(chain, arrays)
        plan = compile_plan(variant, sizes, backend=backend)
        arena = out = record = None
        if "arena" in mode:
            values = list(arrays)
            plan.record_buffer_shapes(values, plan.replay(values))
            arena = plan.new_arena()
        if "out" in mode:
            out = np.empty(expected.shape)
        durations = []
        if mode == "record":
            record = durations.append
        result = plan.replay(list(arrays), arena, out, record=record)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(result / scale, expected / scale, atol=1e-8)
        assert not any(np.shares_memory(result, a) for a in arrays)
        if out is not None:
            assert result is out
        if record is not None:
            assert len(durations) == len(variant.steps)

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

REPLAY_MODES = ("plain", "out", "record")

#: ``out`` buffers that no backend can write in place: replay must compute
#: a fresh result and copy it in.
COPY_PATH_OUTS = ("fortran", "float32", "aliased")


def _inv(name):
    return make_general(name, invertible=True).inv


#: name -> (chain, parenthesization, sizes, keep fix-ups).
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
    # The final step solves in place in the output buffer, so an ``out``
    # aliasing L would corrupt the solve if written directly.
    "solve": (
        Chain((make_general("G").as_operand(), make_lower("L").inv)),
        left_to_right_tree(2),
        (4, 5, 5),
        False,
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


def _replay_case(case, backend):
    """``(plan, arrays, expected)`` for one :data:`REPLAY_CASES` entry."""
    chain, tree, sizes, keep_fixups = REPLAY_CASES[case]
    variant = build_variant(chain, tree)
    if not keep_fixups:
        variant = dataclasses.replace(variant, fixups=())
    assert bool(variant.fixups) == keep_fixups
    arrays = random_instance_arrays(chain, sizes, np.random.default_rng(0))
    expected = naive_evaluate(chain, arrays)
    return compile_plan(variant, sizes, backend=backend), arrays, expected


class TestReplayModes:
    """The one replay loop: backend x mode x chain shape."""

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    @pytest.mark.parametrize("mode", REPLAY_MODES)
    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    def test_replay_mode(self, backend, mode, case):
        plan, arrays, expected = _replay_case(case, backend)
        out = record = None
        if mode == "out":
            out = np.empty(expected.shape)
        durations = []
        if mode == "record":
            record = durations.append
        result = plan.replay(list(arrays), out, record=record)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(result / scale, expected / scale, atol=1e-8)
        assert not any(np.shares_memory(result, a) for a in arrays)
        if out is not None:
            assert result is out
        if record is not None:
            assert len(durations) == len(plan.variant.steps)

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    @pytest.mark.parametrize("kind", COPY_PATH_OUTS)
    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    def test_out_copy_path(self, backend, kind, case):
        """An ``out`` the native call must not write still ends up holding
        the right result: fresh result, then a copy."""
        plan, arrays, expected = _replay_case(case, backend)
        if kind == "fortran":
            out = np.empty(expected.shape, order="F")
        elif kind == "float32":
            out = np.empty(expected.shape, dtype=np.float32)
        else:
            # The last operand (read by the final step) lives inside the
            # output buffer's memory.
            size, last = expected.size, arrays[-1]
            base = np.empty(size + last.size)
            out = base[:size].reshape(expected.shape)
            alias = base[size // 2 : size // 2 + last.size].reshape(last.shape)
            alias[...] = last
            arrays = [*arrays[:-1], alias]
            assert np.shares_memory(out, alias)
        result = plan.replay(list(arrays), out)
        assert result is out
        scale = max(1.0, float(np.abs(expected).max()))
        atol = 1e-5 if kind == "float32" else 1e-8
        np.testing.assert_allclose(result / scale, expected / scale, atol=atol)

    def test_out_buffer_receives_result(self):
        chain = general_chain(3)
        sizes = (32, 48, 24, 40)
        plan = compile_plan(all_variants(chain)[0], sizes, backend="reference")
        arrays = random_instance_arrays(chain, sizes, np.random.default_rng(3))
        expected = plan.replay(list(arrays))
        out = np.empty_like(expected)
        got = plan.replay(list(arrays), out)
        assert got is out
        assert np.array_equal(out, expected)

"""Tests for the C++ emission (generated variants + dispatch)."""

import numpy as np
import pytest

from repro.ir.chain import Chain
from repro.api import compile_chain
from repro.codegen.cpp_emitter import emit_cpp, emit_kernels_header
from repro.compiler.selection import all_variants

from conftest import general_chain, make_general, make_lower


class TestEmitCpp:
    def setup_method(self):
        self.chain = Chain(
            (
                make_lower("L").as_operand(),
                make_general("G", invertible=True).inv,
                make_general("H").as_operand(),
            )
        )
        self.variants = all_variants(self.chain)
        self.source = emit_cpp(self.chain, self.variants, function_name="eval_lgh")

    def test_contains_cost_function_per_variant(self):
        for i in range(len(self.variants)):
            assert f"cost_variant_{i}" in self.source

    def test_contains_variant_function_per_variant(self):
        for i in range(len(self.variants)):
            assert f"Matrix variant_{i}(const Matrix* A)" in self.source

    def test_contains_dispatch(self):
        assert "inline Matrix eval_lgh(const Matrix* A)" in self.source
        assert "best_cost" in self.source
        assert "switch (best)" in self.source

    def test_kernel_calls_present(self):
        used = {s.kernel.name.lower() for v in self.variants for s in v.steps}
        for name in used:
            assert f"kernels::{name}(" in self.source

    def test_size_inference_from_inputs(self):
        assert "A[0].rows()" in self.source
        assert "A[2].cols()" in self.source

    def test_dispatch_checks_sizes(self):
        """One comparison per shared size and per square operand."""
        assert "#include <stdexcept>" in self.source
        for i in (1, 2):
            assert f"if (static_cast<double>(A[{i}].rows()) != q[{i}])" in self.source
            assert (
                f'throw std::invalid_argument("inconsistent sizes at q{i}");'
                in self.source
            )
        for i in (0, 1):  # L and G^-1; H is free
            assert (
                f'throw std::invalid_argument("operand {i} must be square");'
                in self.source
            )
        assert "operand 2 must be square" not in self.source

    def test_transposed_operand_swaps_dims(self):
        chain = Chain((make_general("A").T, make_general("B").as_operand()))
        source = emit_cpp(chain, all_variants(chain))
        # For a transposed operand, q[0] comes from cols().
        assert "q[0] = static_cast<double>(A[0].cols());" in source

    def test_includes_header(self):
        assert '#include "gmc_kernels.hpp"' in self.source

    def test_cost_expression_matches_numeric_value(self):
        # Evaluate the emitted C++ cost expression with Python semantics.
        variant = self.variants[0]
        q = [7.0, 7.0, 7.0, 4.0]
        namespace = {f"q{i}": q[i] for i in range(4)}
        from repro.codegen.cpp_emitter import _cost_expression

        expr = _cost_expression(variant).replace(" * ", "*")
        assert eval(expr, {}, namespace) == pytest.approx(
            variant.flop_cost(tuple(int(x) for x in q))
        )


class TestEmitHeader:
    def test_header_declares_all_kernels(self):
        header = emit_kernels_header()
        from repro.kernels.spec import KERNELS

        for name in KERNELS:
            assert f" {name.lower()}(" in header

    def test_header_declares_types(self):
        header = emit_kernels_header()
        for needle in ("class Matrix", "enum class Side", "struct CallConfig"):
            assert needle in header


class TestGeneratedCodeFacade:
    def test_cpp_source_from_compile_chain(self):
        generated = compile_chain(general_chain(4), num_training_instances=50)
        source = generated.cpp_source(function_name="eval_g4")
        assert "eval_g4" in source
        assert source.count("Matrix variant_") >= len(generated.variants)

    def test_single_matrix_chain_emits_fixup_only(self):
        chain = Chain((make_general("A", invertible=True).inv,))
        generated = compile_chain(chain, num_training_instances=10)
        source = generated.cpp_source()
        assert "kernels::geinv" in source

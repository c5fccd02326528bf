"""C++ source emission for generated variants and dispatch (paper Fig. 1).

The emitted translation unit contains, for a chain of ``n`` matrices and
``k`` selected variants:

* one ``cost_variant_<i>`` function per variant, evaluating the analytic
  FLOP cost from the concrete sizes ``q[0..n]``;
* one ``variant_<i>`` function per variant, issuing the kernel call
  sequence (through the ``gmc::kernels`` API also emitted here) and
  managing intermediate buffers;
* a dispatch function that infers and checks the sizes of the input
  matrices, evaluates every cost function, and forwards to the cheapest
  variant.

The C++ is self-contained modulo the kernel library header
(:func:`emit_kernels_header`), whose implementations would be bound to
BLAS/LAPACK plus the paper's custom kernels in a real deployment.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.chain import Chain
from repro.compiler.states import OperandState
from repro.compiler.variant import Variant


def _cpp_ident(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _cost_expression(variant: Variant) -> str:
    """C++ expression for the variant's FLOP cost in terms of ``q[...]``."""
    terms = []
    for coeff, powers in variant._flat_terms:
        factors = [f"{coeff:.17g}"]
        for sym, exp in powers:
            factors.extend([f"q{sym}"] * exp)
        terms.append(" * ".join(factors))
    return " + ".join(terms) if terms else "0.0"


def _tri_state(state: OperandState) -> str:
    stored = state.stored_structure
    if stored.name == "LOWER_TRIANGULAR":
        return "Tri::Lower"
    if stored.name == "UPPER_TRIANGULAR":
        return "Tri::Upper"
    return "Tri::None_"


def _operand_expr(ref: tuple[str, int]) -> str:
    kind, index = ref
    return f"A[{index}]" if kind == "matrix" else f"X{index}"


def _emit_variant_body(variant: Variant, indent: str = "    ") -> list[str]:
    lines: list[str] = []
    last = None
    for step in variant.steps:
        cfg = ", ".join(
            [
                "Side::Left" if step.side == "left" else "Side::Right",
                "true" if step.left_state.transposed else "false",
                "true" if step.right_state.transposed else "false",
                _tri_state(step.left_state),
                _tri_state(step.right_state),
            ]
        )
        lines.append(
            f"{indent}Matrix X{step.index} = kernels::{step.kernel.name.lower()}("
            f"{_operand_expr(step.left_ref)}, {_operand_expr(step.right_ref)}, "
            f"{{{cfg}}});  // {step.describe()}"
        )
        last = f"X{step.index}"
    if last is None:
        last = "A[0]"
        lines.append(f"{indent}Matrix result = Matrix({last});")
    else:
        lines.append(f"{indent}Matrix result = std::move({last});")
    for fix in variant.fixups:
        tri = _tri_state(variant.final_state)
        lines.append(
            f"{indent}result = kernels::{fix.kernel.name.lower()}(result, {tri});"
        )
    lines.append(f"{indent}return result;")
    return lines


def emit_cpp(
    chain: Chain,
    variants: Sequence[Variant],
    function_name: str = "evaluate_chain",
) -> str:
    """Emit the full generated C++ translation unit for a chain."""
    n = chain.n
    name = _cpp_ident(function_name)
    lines: list[str] = []
    out = lines.append

    out("// Auto-generated by repro: multi-versioned evaluator for a")
    out(f"// generalized matrix chain with symbolic sizes.")
    out(f"// Chain shape: {chain}")
    out(f"// Variants: {len(variants)}")
    out("#include <cstddef>")
    out("#include <limits>")
    out("#include <stdexcept>")
    out("#include <utility>")
    out('#include "gmc_kernels.hpp"')
    out("")
    out("namespace gmc {")
    out(f"namespace {name}_impl {{")
    out("")

    # Cost functions.
    for i, variant in enumerate(variants):
        out(f"// Cost of variant {i}: {variant}")
        out(f"inline double cost_variant_{i}(const double* q) {{")
        for sym in range(n + 1):
            out(f"    const double q{sym} = q[{sym}];")
        out(f"    return {_cost_expression(variant)};")
        out("}")
        out("")

    # Variant bodies.
    for i, variant in enumerate(variants):
        labels = [str(op) for op in chain]
        tree_str = variant.tree.render(labels) if variant.tree else "<unary>"
        out(f"// Variant {i} ({variant.name or 'anonymous'}): {tree_str}")
        out(f"inline Matrix variant_{i}(const Matrix* A) {{")
        lines.extend(_emit_variant_body(variant))
        out("}")
        out("")

    out(f"}}  // namespace {name}_impl")
    out("")

    # Dispatch function.
    out(f"// Dispatch: evaluate every variant's cost on the observed sizes")
    out(f"// and forward to the cheapest one.")
    out(f"inline Matrix {name}(const Matrix* A) {{")
    out(f"    double q[{n + 1}];")
    for i, operand in enumerate(chain):
        rows, cols = ("cols", "rows") if operand.transposed else ("rows", "cols")
        if i == 0:
            out(f"    q[0] = static_cast<double>(A[0].{rows}());")
        else:  # one comparison per shared size
            out(f"    if (static_cast<double>(A[{i}].{rows}()) != q[{i}])")
            out(f'        throw std::invalid_argument("inconsistent sizes at q{i}");')
        out(f"    q[{i + 1}] = static_cast<double>(A[{i}].{cols}());")
    for i in (i for i, operand in enumerate(chain) if operand.is_square):
        out(f"    if (q[{i}] != q[{i + 1}])")
        out(f'        throw std::invalid_argument("operand {i} must be square");')
    out("    double best_cost = std::numeric_limits<double>::infinity();")
    out("    int best = -1;")
    for i in range(len(variants)):
        out(f"    if (const double c = {name}_impl::cost_variant_{i}(q); c < best_cost) {{")
        out(f"        best_cost = c; best = {i};")
        out("    }")
    out("    switch (best) {")
    for i in range(len(variants)):
        out(f"        case {i}: return {name}_impl::variant_{i}(A);")
    out("        default: return Matrix();  // unreachable")
    out("    }")
    out("}")
    out("")
    out("}  // namespace gmc")
    return "\n".join(lines) + "\n"


def emit_kernels_header() -> str:
    """Emit the kernel-library header the generated code compiles against."""
    from repro.kernels.spec import KERNELS

    lines: list[str] = []
    out = lines.append
    out("// gmc_kernels.hpp — kernel API targeted by the generated code.")
    out("// Binary kernels take (left, right, CallConfig); unary fix-ups take")
    out("// (value, Tri).  Implementations bind to BLAS/LAPACK plus the")
    out("// custom kernels of the paper (Table I).")
    out("#pragma once")
    out("#include <cstddef>")
    out("")
    out("namespace gmc {")
    out("")
    out("class Matrix {")
    out("public:")
    out("    Matrix();")
    out("    explicit Matrix(const Matrix& other);")
    out("    std::size_t rows() const;")
    out("    std::size_t cols() const;")
    out("    double* data();")
    out("};")
    out("")
    out("enum class Side { Left, Right };")
    out("enum class Tri { Lower, Upper, None_ };")
    out("")
    out("struct CallConfig {")
    out("    Side side;")
    out("    bool left_trans;")
    out("    bool right_trans;")
    out("    Tri left_tri;")
    out("    Tri right_tri;")
    out("};")
    out("")
    out("namespace kernels {")
    for kernel in KERNELS.values():
        out(f"// {kernel.description}")
        if kernel.kind == "unary":
            out(f"Matrix {kernel.name.lower()}(const Matrix& value, Tri tri);")
        else:
            out(
                f"Matrix {kernel.name.lower()}(const Matrix& left, "
                f"const Matrix& right, const CallConfig& cfg);"
            )
    out("}  // namespace kernels")
    out("")
    out("}  // namespace gmc")
    return "\n".join(lines) + "\n"

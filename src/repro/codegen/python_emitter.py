"""Standalone Python source emission for generated variants and dispatch.

While :mod:`repro.codegen.cpp_emitter` produces the C++ artifact of the
paper's Fig. 1, this emitter produces the equivalent *executable* artifact:
a self-contained Python module (depending only on numpy and scipy) with one
function per variant, one cost function per variant, and a dispatch
function.  The emitted source can be written to a file and imported without
this library installed — it is what "the generated code" means for a Python
deployment.

The emitted module exposes:

* ``cost_variant_<i>(q)`` — FLOP cost from a size tuple;
* ``variant_<i>(A)`` — evaluate via the i-th kernel sequence;
* ``infer_sizes(A)`` — recover and check ``q`` from the stored operands;
* ``evaluate(*A)`` — dispatch: infer sizes, pick argmin cost, run it.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.chain import Chain
from repro.compiler.variant import Variant
from repro.runtime.executor import StepCall, _stored_lower

_PRELUDE = '''\
"""Auto-generated by repro: multi-versioned GMC evaluator.

Chain shape: {chain}
Variants: {count}
This module is self-contained: it depends only on numpy and scipy.
"""

import numpy as np
import scipy.linalg


def _op(a, trans):
    return a.T if trans else a


def _matmul(a, b, ta=False, tb=False):
    return _op(a, ta) @ _op(b, tb)


def _solve_general(coeff, rhs, side, trans):
    a = _op(coeff, trans)
    if side == "left":
        return np.linalg.solve(a, rhs)
    return np.linalg.solve(a.T, rhs.T).T


def _solve_sym(coeff, rhs, side):
    if side == "left":
        return scipy.linalg.solve(coeff, rhs, assume_a="sym")
    return scipy.linalg.solve(coeff, rhs.T, assume_a="sym").T


def _solve_spd(coeff, rhs, side):
    factor = scipy.linalg.cho_factor(coeff)
    if side == "left":
        return scipy.linalg.cho_solve(factor, rhs)
    return scipy.linalg.cho_solve(factor, rhs.T).T


def _solve_tri(coeff, rhs, side, trans, stored_lower):
    logical = _op(coeff, trans)
    lower = stored_lower != trans
    if side == "left":
        return scipy.linalg.solve_triangular(logical, rhs, lower=lower)
    return scipy.linalg.solve_triangular(logical.T, rhs.T, lower=not lower).T


def _inv_general(a):
    return np.linalg.inv(a)


def _inv_spd(a):
    return _solve_spd(a, np.eye(a.shape[0]), "left")


def _inv_tri(a, stored_lower):
    return scipy.linalg.solve_triangular(a, np.eye(a.shape[0]), lower=stored_lower)


def _solve_diag(coeff, rhs, side):
    diag = np.diag(coeff)
    if side == "left":
        return rhs / diag[:, None]
    return rhs / diag[None, :]


def _inv_diag(a):
    return np.diag(1.0 / np.diag(a))
'''

#: Solve family -> (prelude helper, whether it takes the coefficient's
#: transpose flag, whether it takes its stored triangularity).  Every
#: other family is a product, emitted as one ``_matmul``.
_SOLVERS = {
    "gesv": ("_solve_general", True, False),
    "sysv": ("_solve_sym", False, False),
    "posv": ("_solve_spd", False, False),
    "disv": ("_solve_diag", False, False),
    "trsm": ("_solve_tri", True, True),
}


def _ref_expr(ref: tuple[str, int]) -> str:
    kind, index = ref
    return f"A[{index}]" if kind == "matrix" else f"X{index}"


def _emit_step(step) -> str:
    call = StepCall.of(step)
    left = _ref_expr(step.left_ref)
    right = _ref_expr(step.right_ref)
    solver = _SOLVERS.get(call.family)
    if solver is None:
        expr = f"_matmul({left}, {right}, {call.left_trans}, {call.right_trans})"
    else:
        helper, takes_trans, takes_lower = solver
        coeff, rhs = (left, right) if call.s_left else (right, left)
        if call.o_trans:
            rhs = f"np.ascontiguousarray({rhs}.T)"
        args = [coeff, rhs, f'"{call.side}"']
        if takes_trans:
            args.append(str(call.s_trans))
        if takes_lower:
            args.append(str(bool(call.s_lower)))
        expr = f"{helper}({', '.join(args)})"
    return f"    X{step.index} = {expr}  # {step.describe()}"


def _emit_fixups(variant: Variant, result_expr: str) -> list[str]:
    lines: list[str] = []
    current = result_expr
    state = variant.final_state
    for fix in variant.fixups:
        name = fix.kernel.name
        if name in ("GEINV", "SYINV"):
            lines.append(f"    result = _inv_general({current})")
        elif name == "POINV":
            lines.append(f"    result = _inv_spd({current})")
        elif name == "TRINV":
            lines.append(
                f"    result = _inv_tri({current}, {bool(_stored_lower(state))})"
            )
        elif name == "DIINV":
            lines.append(f"    result = _inv_diag({current})")
        elif name == "TRANSPOSE":
            lines.append(f"    result = np.ascontiguousarray({current}.T)")
        else:  # COPY
            lines.append(f"    result = np.array({current}, copy=True)")
        current = "result"
    if current != "result":
        lines.append(f"    result = {current}")
    return lines


def _cost_expression(variant: Variant) -> str:
    terms = []
    for coeff, powers in variant._flat_terms:
        factors = [repr(coeff)]
        for sym, exp in powers:
            factors.extend([f"q[{sym}]"] * exp)
        terms.append(" * ".join(factors))
    return " + ".join(terms) if terms else "0.0"


def emit_python(
    chain: Chain,
    variants: Sequence[Variant],
    module_docname: str = "generated GMC evaluator",
) -> str:
    """Emit the standalone Python module source for a chain's variants."""
    lines: list[str] = [
        _PRELUDE.format(chain=str(chain), count=len(variants)),
        "",
    ]
    out = lines.append

    for i, variant in enumerate(variants):
        out(f"def cost_variant_{i}(q):")
        out(f'    """FLOP cost of variant {i}: {variant}."""')
        out(f"    return {_cost_expression(variant)}")
        out("")
        out("")

    for i, variant in enumerate(variants):
        out(f"def variant_{i}(A):")
        out(f'    """{variant}: {" -> ".join(variant.kernel_names)}."""')
        for step in variant.steps:
            out(_emit_step(step))
        result_expr = (
            f"X{variant.steps[-1].index}" if variant.steps else "A[0]"
        )
        fixups = _emit_fixups(variant, result_expr)
        if fixups:
            lines.extend(fixups)
        else:
            out(f"    result = {result_expr}")
        out("    return result")
        out("")
        out("")

    out("_COSTS = [" + ", ".join(f"cost_variant_{i}" for i in range(len(variants))) + "]")
    out("_VARIANTS = [" + ", ".join(f"variant_{i}" for i in range(len(variants))) + "]")
    out("")
    out("")
    out("def infer_sizes(A):")
    out('    """Recover the instance vector q from the stored operands."""')
    out(f"    q = [0] * {chain.n + 1}")
    for i, operand in enumerate(chain):
        rows, cols = (1, 0) if operand.transposed else (0, 1)
        if i == 0:
            out(f"    q[0] = A[0].shape[{rows}]")
        else:  # one comparison per shared size
            dim = f"A[{i}].shape[{rows}]"
            out(f"    if {dim} != q[{i}]:")
            out(f'        raise ValueError(f"inconsistent sizes at q{i}: {{q[{i}]}} vs {{{dim}}}")')
        out(f"    q[{i + 1}] = A[{i}].shape[{cols}]")
    for i in (i for i, operand in enumerate(chain) if operand.is_square):
        out(f"    if q[{i}] != q[{i + 1}]:")
        out(f'        raise ValueError(f"operand {i} must be square, got {{q[{i}]}}x{{q[{i + 1}]}}")')
    out("    return tuple(q)")
    out("")
    out("")
    out("def evaluate(*A):")
    out('    """Dispatch: infer sizes, evaluate every cost, run the argmin."""')
    out("    if len(A) == 1 and isinstance(A[0], (list, tuple)):")
    out("        A = tuple(A[0])")
    out("    q = infer_sizes(A)")
    out("    costs = [cost(q) for cost in _COSTS]")
    out("    best = min(range(len(costs)), key=costs.__getitem__)")
    out("    return _VARIANTS[best](A)")
    out("")
    return "\n".join(lines)

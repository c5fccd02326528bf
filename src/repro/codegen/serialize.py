"""JSON (de)serialization of chains and compiled variants.

Compilation is deterministic but not free (Catalan-many variants are
enumerated and scored on a training set).  Serializing the generated code
lets an application compile once and ship/load the result — the moral
equivalent of distributing the generated C++ object files.

The format stores the chain shape, and per variant the full resolved step
sequence (kernel, side, cost case, operand states, triplets, call dims) and
fix-ups, so loading does not recompute anything.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ReproError
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import Operand, UnaryOp
from repro.kernels.spec import get_kernel
from repro.compiler.parenthesization import ParenTree
from repro.compiler.states import OperandState
from repro.compiler.variant import FixupStep, Step, Variant

FORMAT_VERSION = 1


class SerializationError(ReproError):
    """The payload is not a valid serialized compilation."""


# -- chain -----------------------------------------------------------------

def chain_to_dict(chain: Chain) -> dict[str, Any]:
    return {
        "operands": [
            {
                "name": op.matrix.name,
                "structure": op.matrix.structure.name,
                "property": op.matrix.prop.name,
                "op": op.op.name,
            }
            for op in chain
        ]
    }


def chain_from_dict(payload: dict[str, Any]) -> Chain:
    try:
        operands = tuple(
            Operand(
                Matrix(
                    entry["name"],
                    Structure[entry["structure"]],
                    Property[entry["property"]],
                ),
                UnaryOp[entry["op"]],
            )
            for entry in payload["operands"]
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed chain payload: {exc}") from exc
    return Chain(operands)


# -- operand states -----------------------------------------------------------

def _state_to_dict(state: OperandState) -> dict[str, Any]:
    return {
        "structure": state.structure.name,
        "property": state.prop.name,
        "inverted": state.inverted,
        "transposed": state.transposed,
        "rows": state.rows,
        "cols": state.cols,
        "square": state.square,
        "source": list(state.source),
    }


def _state_from_dict(payload: dict[str, Any]) -> OperandState:
    return OperandState(
        structure=Structure[payload["structure"]],
        prop=Property[payload["property"]],
        inverted=bool(payload["inverted"]),
        transposed=bool(payload["transposed"]),
        rows=int(payload["rows"]),
        cols=int(payload["cols"]),
        square=bool(payload["square"]),
        source=(payload["source"][0], int(payload["source"][1])),
    )


# -- variants --------------------------------------------------------------

def variant_to_dict(variant: Variant) -> dict[str, Any]:
    return {
        "name": variant.name,
        "steps": [
            {
                "index": step.index,
                "kernel": step.kernel.name,
                "side": step.side,
                "cheap": step.cheap,
                "left_ref": list(step.left_ref),
                "right_ref": list(step.right_ref),
                "left_state": _state_to_dict(step.left_state),
                "right_state": _state_to_dict(step.right_state),
                "triplet": list(step.triplet),
                "call_dims": list(step.call_dims),
                "result_state": _state_to_dict(step.result_state),
            }
            for step in variant.steps
        ],
        "fixups": [
            {"kernel": fix.kernel.name, "dim": fix.dim}
            for fix in variant.fixups
        ],
        "final_state": _state_to_dict(variant.final_state),
    }


def variant_from_dict(payload: dict[str, Any], chain: Chain) -> Variant:
    try:
        steps = []
        for entry in payload["steps"]:
            kernel = get_kernel(entry["kernel"])
            steps.append(
                Step(
                    index=int(entry["index"]),
                    kernel=kernel,
                    side=entry["side"],
                    cheap=bool(entry["cheap"]),
                    left_ref=(entry["left_ref"][0], int(entry["left_ref"][1])),
                    right_ref=(entry["right_ref"][0], int(entry["right_ref"][1])),
                    left_state=_state_from_dict(entry["left_state"]),
                    right_state=_state_from_dict(entry["right_state"]),
                    triplet=tuple(entry["triplet"]),
                    call_dims=tuple(entry["call_dims"]),
                    cost=kernel.cost(side=entry["side"], cheap=bool(entry["cheap"])),
                    result_state=_state_from_dict(entry["result_state"]),
                )
            )
        fixups = []
        for entry in payload["fixups"]:
            kernel = get_kernel(entry["kernel"])
            fixups.append(
                FixupStep(kernel=kernel, dim=int(entry["dim"]), cost=kernel.cost())
            )
        final_state = _state_from_dict(payload["final_state"])
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed variant payload: {exc}") from exc
    return Variant(
        chain=chain,
        tree=None,  # the tree is not needed after compilation
        steps=tuple(steps),
        fixups=tuple(fixups),
        final_state=final_state,
        name=payload.get("name", ""),
    )


# -- top level ----------------------------------------------------------------

def compilation_to_dict(chain: Chain, variants: list[Variant]) -> dict[str, Any]:
    """A compiled chain (shape + variants) as a JSON-ready dict."""
    return {
        "format_version": FORMAT_VERSION,
        "chain": chain_to_dict(chain),
        "variants": [variant_to_dict(v) for v in variants],
    }


def compilation_from_dict(data: Any) -> tuple[Chain, list[Variant]]:
    """Load a :func:`compilation_to_dict` payload; returns (chain, variants).

    Raises :class:`SerializationError` on malformed or incompatible input.
    """
    if not isinstance(data, dict):
        raise SerializationError("top-level payload must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    chain = chain_from_dict(data["chain"])
    variants = [variant_from_dict(entry, chain) for entry in data["variants"]]
    return chain, variants


def dumps(chain: Chain, variants: list[Variant], indent: int | None = None) -> str:
    """Serialize a compiled chain (shape + variants) to a JSON string."""
    return json.dumps(compilation_to_dict(chain, variants), indent=indent)


def loads(payload: str) -> tuple[Chain, list[Variant]]:
    """Load a compiled chain from :func:`dumps` text; returns (chain, variants).

    Raises :class:`SerializationError` on malformed or incompatible input.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return compilation_from_dict(data)

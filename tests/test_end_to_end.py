"""Whole-system integration tests.

Each scenario drives the complete flow a downstream user would:

    program text -> parse -> compile (selection + expansion) -> verify IR
    -> serialize/deserialize -> emit standalone Python -> execute through
    all three paths (library dispatcher, deserialized dispatcher, emitted
    module) -> compare against the dense oracle -> generate the report.

If any layer drifts out of sync with another (cost functions vs executor vs
emitters vs serializer), these tests fail even when each unit test passes.
"""

import numpy as np
import pytest

from repro.api import GeneratedCode, compile_chain
from repro.codegen import serialize
from repro.runtime.executor import naive_evaluate, random_instance_arrays
from repro.compiler.validation import verify_variant
from repro.experiments.sampling import sample_instances
from repro.ir.parser import parse_program

from conftest import random_option_chain, small_sizes_for

SCENARIOS = [
    # (name, program source)
    (
        "kalman",
        "Matrix X <General, Singular>; Matrix HX <General, Singular>;"
        " Matrix HXc <General, Singular>; Matrix M <Symmetric, SPD>;"
        " R := X * HX * HXc^T * M^-1;",
    ),
    (
        "blocked-inversion",
        "Matrix G1 <General, Singular>; Matrix L1 <LowerTri, NonSingular>;"
        " Matrix G2 <General, Singular>; Matrix L2 <LowerTri, NonSingular>;"
        " R := G1 * L1^-1 * G2 * L2^-1;",
    ),
    (
        "orthogonal-sandwich",
        "Matrix Q <General, Orthogonal>; Matrix S <Symmetric, SPD>;"
        " Matrix G <General, Singular>;"
        " R := Q^-1 * S^-1 * Q * G;",
    ),
    (
        "diagonal-mix",
        "Matrix D <Diagonal, NonSingular>; Matrix U <UpperTri, NonSingular>;"
        " Matrix G <General, Singular>;"
        " R := D^-1 * U * D * G;",
    ),
]


def _arrays_for(generated: GeneratedCode, rng) -> tuple[list, tuple]:
    sizes = tuple(
        int(x)
        for x in sample_instances(generated.chain, 1, rng, low=4, high=10)[0]
    )
    # Shared matrices (e.g. Q and Q^-1) must be bound to the same array.
    by_name: dict[str, np.ndarray] = {}
    arrays = []
    from repro.runtime.executor import random_matrix

    q = generated.chain.validate_sizes(sizes)
    for i, operand in enumerate(generated.chain):
        rows, cols = q[i], q[i + 1]
        if operand.transposed:
            rows, cols = cols, rows
        name = operand.matrix.name
        if name not in by_name:
            by_name[name] = random_matrix(
                operand.matrix.structure, operand.matrix.prop, rows, cols, rng
            )
        arrays.append(by_name[name])
    return arrays, sizes


@pytest.mark.parametrize("name,source", SCENARIOS)
def test_full_pipeline(name, source):
    rng = np.random.default_rng(hash(name) % 2**32)
    program = parse_program(source)
    generated = compile_chain(
        program.chain, expand_by=1, num_training_instances=200, seed=7
    )

    # 1. Every selected variant passes the IR verifier.
    for variant in generated.variants:
        verify_variant(variant)

    # 2. Execution agrees with the dense oracle.
    arrays, sizes = _arrays_for(generated, rng)
    expected = naive_evaluate(generated.chain, arrays)
    scale = max(1.0, float(np.abs(expected).max()))
    result = generated(*arrays)
    np.testing.assert_allclose(result / scale, expected / scale, atol=1e-7)

    # 3. Serialization round-trip picks and computes identically.
    clone = GeneratedCode.from_json(generated.to_json())
    assert [v.signature() for v in clone.variants] == [
        v.signature() for v in generated.variants
    ]
    np.testing.assert_allclose(clone(*arrays) / scale, result / scale, atol=1e-12)

    # 4. The emitted standalone Python module agrees too.
    namespace: dict = {}
    exec(compile(generated.python_source(), f"<{name}>", "exec"), namespace)
    emitted = namespace["evaluate"](*arrays)
    np.testing.assert_allclose(emitted / scale, result / scale, atol=1e-9)

    # 5. The emitted C++ mentions every kernel the variants use.
    cpp = generated.cpp_source()
    for variant in generated.variants:
        for step in variant.steps:
            assert f"kernels::{step.kernel.name.lower()}(" in cpp

    # 6. The report renders.
    report = generated.report(num_instances=50, seed=1)
    assert "Compilation report" in report


def test_pipeline_on_random_shapes():
    rng = np.random.default_rng(99)
    for _ in range(3):
        chain = random_option_chain(int(rng.integers(3, 6)), rng)
        generated = compile_chain(chain, num_training_instances=100, seed=3)
        for variant in generated.variants:
            verify_variant(variant)
        sizes = small_sizes_for(generated.chain, rng)
        arrays = random_instance_arrays(generated.chain, sizes, rng)
        expected = naive_evaluate(generated.chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(
            generated(*arrays) / scale, expected / scale, atol=1e-7
        )
        _, loaded = serialize.loads(generated.to_json())
        assert len(loaded) == len(generated.variants)

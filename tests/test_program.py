"""The CompiledProgram artifact: wire format, fidelity, cross-process use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import GeneratedCode, compile_chain, load_program
from repro.compiler.program import (
    ARTIFACT_VERSION,
    ArtifactError,
    CompiledProgram,
)
from repro.compiler.cache import CacheEntry
from repro.runtime.executor import (
    execute_variant,
    naive_evaluate,
    random_instance_arrays,
)
from repro.compiler.session import CompilerSession
from repro.experiments.sampling import sample_instances
from repro.ir.chain import Chain
from repro.serve.backends import DiskBackend

from conftest import (
    general_chain,
    make_general,
    make_lower,
    make_symmetric,
    make_upper,
    random_option_chain,
    small_sizes_for,
)


def feature_chains() -> dict[str, Chain]:
    """Chains covering the operand feature combinations under test."""
    from repro.ir.features import Property, Structure
    from repro.ir.matrix import Matrix

    diag = Matrix("D", Structure.DIAGONAL, Property.NON_SINGULAR)
    spd = Matrix("S", Structure.SYMMETRIC, Property.SPD)
    return {
        "general": general_chain(4),
        "transposed": make_general("A") * make_general("B").T * make_general("C"),
        "inverted": make_general("A") * make_lower("L").inv * make_general("B"),
        "triangular": make_lower("L") * make_upper("U") * make_general("G"),
        "spd": spd.as_operand() * make_general("A") * spd.inv,
        "diagonal": diag.as_operand() * make_general("A") * make_symmetric("S2"),
        "mixed": make_upper("U").T * make_general("G") * make_lower("L").inv,
    }


def assert_same_dispatch(original, restored, chain, count=25, seed=3):
    """Both dispatchers agree on variant identity and cost, instance-wise."""
    rng = np.random.default_rng(seed)
    instances = sample_instances(chain, count, rng, low=2, high=400)
    for q in instances:
        q = tuple(int(x) for x in q)
        picked_a, cost_a = original.select(q)
        picked_b, cost_b = restored.select(q)
        assert picked_a.signature() == picked_b.signature()
        assert cost_b == pytest.approx(cost_a)


class TestWireFormat:
    @pytest.mark.parametrize("name", sorted(feature_chains()))
    def test_artifact_fidelity_per_feature_combination(self, name):
        """ISSUE acceptance: loads(dumps()) dispatches identically."""
        chain = feature_chains()[name]
        generated = compile_chain(
            chain, num_training_instances=60, seed=5, use_cache=False
        )
        program = generated.to_program()
        restored = CompiledProgram.loads(program.dumps())
        assert restored.chain == chain
        assert [v.signature() for v in restored.variants] == [
            v.signature() for v in program.variants
        ]
        assert_same_dispatch(
            generated.dispatcher, restored.to_dispatcher(), chain
        )

    @pytest.mark.parametrize("name", ["transposed", "inverted", "triangular"])
    def test_restored_execution_matches_oracle(self, name):
        chain = feature_chains()[name]
        generated = compile_chain(
            chain, num_training_instances=40, seed=2, use_cache=False
        )
        restored = CompiledProgram.loads(generated.to_program().dumps())
        rng = np.random.default_rng(11)
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        got = restored.execute(*arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-7)

    def test_provenance_round_trips(self):
        chain = general_chain(3)
        session = CompilerSession()
        generated = session.compile(chain, num_training_instances=30)
        program = generated.to_program()
        assert program.key  # stamped by the session
        assert program.created_unix > 0
        assert program.producer.get("pid") == os.getpid()
        assert program.options.get("num_training_instances") == 30
        assert "enumerate" in program.timings
        assert program.diagnostics["variant_pool"]["pool_size"] >= len(program)

        restored = CompiledProgram.loads(program.dumps())
        assert restored.key == program.key
        assert restored.options == dict(program.options)
        assert restored.diagnostics == dict(program.diagnostics)
        assert restored.producer == dict(program.producer)
        np.testing.assert_array_equal(
            restored.training_instances, program.training_instances
        )

    def test_save_and_load_file(self, tmp_path):
        chain = random_option_chain(4, np.random.default_rng(9))
        generated = compile_chain(chain, num_training_instances=40, use_cache=False)
        path = tmp_path / "prog.json"
        generated.save(path)
        clone = load_program(path)
        assert isinstance(clone, GeneratedCode)
        assert clone.chain == chain
        assert_same_dispatch(generated.dispatcher, clone.dispatcher, chain)
        # load_program round-trips the artifact object too.
        assert clone.program is not None and clone.program.chain == chain

    def test_top_level_exports(self):
        assert repro.CompiledProgram is CompiledProgram
        assert repro.load_program is load_program

    def test_cache_entry_is_the_artifact(self):
        assert CacheEntry is CompiledProgram


def _pinned_program() -> CompiledProgram:
    """A small artifact with every field fixed (one variant, one fix-up)."""
    from repro.compiler.selection import all_variants
    from repro.ir.parser import parse_chain

    chain = parse_chain(
        "Matrix L <LowerTri, NonSingular>; Matrix B <General, Singular>; "
        "R := L^-1 * B^T;"
    )
    return CompiledProgram(
        chain=chain,
        variants=tuple(all_variants(chain)),
        training_instances=np.array([[2.0, 3.0, 4.0]]),
        key="k",
        created_unix=1.5,
        producer={"pid": 1, "host": "h", "python": "3"},
        timings={"parse": 0.25},
        options={"backend": "c"},
        diagnostics={"variant_pool": 1},
    )


#: ``dumps()`` of :func:`_pinned_program`, byte for byte.
PINNED_ARTIFACT = (
    '{"artifact_version": 2, "program": {"format_version": 1, "chain": '
    '{"operands": [{"name": "L", "structure": "LOWER_TRIANGULAR", '
    '"property": "NON_SINGULAR", "op": "INVERSE"}, {"name": "B", '
    '"structure": "GENERAL", "property": "SINGULAR", "op": '
    '"TRANSPOSE"}]}, "variants": [{"name": "P0", "steps": [{"index": 0, '
    '"kernel": "TRSM", "side": "right", "cheap": true, "left_ref": '
    '["matrix", 1], "right_ref": ["matrix", 0], "left_state": '
    '{"structure": "GENERAL", "property": "SINGULAR", "inverted": false, '
    '"transposed": false, "rows": 2, "cols": 1, "square": false, '
    '"source": ["matrix", 1]}, "right_state": {"structure": '
    '"UPPER_TRIANGULAR", "property": "NON_SINGULAR", "inverted": true, '
    '"transposed": true, "rows": 1, "cols": 0, "square": true, "source": '
    '["matrix", 0]}, "triplet": [0, 1, 2], "call_dims": [2, 1, 0], '
    '"result_state": {"structure": "GENERAL", "property": "SINGULAR", '
    '"inverted": false, "transposed": true, "rows": 0, "cols": 2, '
    '"square": false, "source": ["step", 0]}}], "fixups": [{"kernel": '
    '"TRANSPOSE", "dim": 0}], "final_state": {"structure": "GENERAL", '
    '"property": "SINGULAR", "inverted": false, "transposed": true, '
    '"rows": 0, "cols": 2, "square": false, "source": ["step", 0]}}]}, '
    '"training_instances": [[2.0, 3.0, 4.0]], "meta": {"key": "k", '
    '"created_unix": 1.5, "producer": {"pid": 1, "host": "h", "python": '
    '"3"}, "timings": {"parse": 0.25}, "options": {"backend": "c"}, '
    '"diagnostics": {"variant_pool": 1}}}'
)


class TestArtifactBytes:
    """The program section is built and read as a dict, never as JSON
    text in between; the artifact's bytes are those of the format."""

    def test_pinned_program_bytes(self):
        assert _pinned_program().dumps() == PINNED_ARTIFACT

    def test_round_trip_is_byte_identical(self):
        text = _pinned_program().dumps()
        assert CompiledProgram.loads(text).dumps() == text
        chain = random_option_chain(4, np.random.default_rng(3))
        program = compile_chain(
            chain, num_training_instances=12, use_cache=False
        ).to_program()
        text = program.dumps()
        assert CompiledProgram.loads(text).dumps() == text


class TestVersioning:
    def test_rejects_wrong_artifact_version(self):
        chain = general_chain(2)
        program = compile_chain(
            chain, num_training_instances=10, use_cache=False
        ).to_program()
        payload = json.loads(program.dumps())
        payload["artifact_version"] = ARTIFACT_VERSION + 1
        with pytest.raises(ArtifactError, match="artifact version"):
            CompiledProgram.loads(json.dumps(payload))

    def test_rejects_bare_serialize_payload(self):
        chain = general_chain(2)
        generated = compile_chain(
            chain, num_training_instances=10, use_cache=False
        )
        with pytest.raises(ArtifactError, match="artifact version"):
            CompiledProgram.loads(generated.to_json())

    def test_rejects_garbage(self):
        with pytest.raises(ArtifactError, match="invalid JSON"):
            CompiledProgram.loads("{nope")
        with pytest.raises(ArtifactError, match="JSON object"):
            CompiledProgram.loads("[1, 2]")
        with pytest.raises(ArtifactError):
            CompiledProgram.loads(json.dumps({"artifact_version": 1}))

    def test_rejects_ragged_or_non_numeric_training(self, tmp_path):
        chain = general_chain(3)
        program = compile_chain(
            chain, num_training_instances=10, use_cache=False
        ).to_program()
        payload = json.loads(program.dumps())
        for bad in ([[1.0, 2.0], [3.0]], ["garbage"]):
            payload["training_instances"] = bad
            with pytest.raises(ArtifactError, match="training instances"):
                CompiledProgram.loads(json.dumps(payload))
        # ... and a disk cache treats such an entry as a miss, not a crash.
        payload["training_instances"] = [[1.0, 2.0], [3.0]]
        payload["meta"]["key"] = "r" * 64
        backend = DiskBackend(tmp_path)
        (tmp_path / ("r" * 64 + ".json")).write_text(json.dumps(payload))
        assert backend.load("r" * 64) is None

    def test_rejects_bad_training_shape(self):
        chain = general_chain(3)
        program = compile_chain(
            chain, num_training_instances=10, use_cache=False
        ).to_program()
        payload = json.loads(program.dumps())
        payload["training_instances"] = [[1.0, 2.0]]  # needs n+1 = 4 columns
        with pytest.raises(ArtifactError, match="training instances"):
            CompiledProgram.loads(json.dumps(payload))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            CompiledProgram.load(tmp_path / "absent.json")


CHILD_SCRIPT = """
import sys
from repro.compiler.session import CompilerSession
from conftest_free import build_chain

session = CompilerSession(cache_dir=sys.argv[1])
generated = session.compile(build_chain(), num_training_instances=50, seed=7)
print(session.last_context.cache_key)
"""

CHILD_HELPER = """
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix

def build_chain():
    a = Matrix("A", Structure.GENERAL, Property.SINGULAR)
    l = Matrix("L", Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR)
    b = Matrix("B", Structure.GENERAL, Property.SINGULAR)
    return a * l.inv * b.T
"""


class TestCrossProcess:
    def test_disk_entry_written_by_another_process(self, tmp_path):
        """ISSUE acceptance: artifacts cross process boundaries via disk."""
        cache_dir = tmp_path / "cache"
        helper_dir = tmp_path / "helper"
        helper_dir.mkdir()
        (helper_dir / "conftest_free.py").write_text(CHILD_HELPER)
        (helper_dir / "child.py").write_text(CHILD_SCRIPT)
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(helper_dir)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, str(helper_dir / "child.py"), str(cache_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        child_key = proc.stdout.strip().splitlines()[-1]

        # This process loads the child's artifact through a DiskBackend...
        backend = DiskBackend(cache_dir)
        program = backend.load(child_key)
        assert program is not None
        assert program.key == child_key
        assert program.producer.get("pid") != os.getpid()

        # ...and a session over the same directory serves the compilation
        # without running the pipeline.
        chain = (
            make_general("A") * make_lower("L").inv * make_general("B").T
        )
        session = CompilerSession(cache_dir=cache_dir)
        generated = session.compile(chain, num_training_instances=50, seed=7)
        stats = session.cache_stats()
        assert stats.disk_hits == 1 and stats.misses == 0

        # Fidelity: the restored dispatcher equals a from-scratch compile.
        local = CompilerSession().compile(
            chain, num_training_instances=50, seed=7
        )
        assert_same_dispatch(local.dispatcher, generated.dispatcher, chain)
        assert_same_dispatch(local.dispatcher, program.to_dispatcher(), chain)


class TestDispatchPassArtifact:
    def test_pipeline_context_carries_program(self):
        session = CompilerSession()
        generated = session.compile(
            general_chain(4), num_training_instances=25
        )
        assert generated.program is not None
        assert generated.program.key
        assert len(generated.program.variants) == len(generated.variants)

    def test_cache_hit_rebuilds_program_with_same_key(self):
        session = CompilerSession()
        first = session.compile(general_chain(4), num_training_instances=25)
        second = session.compile(general_chain(4), num_training_instances=25)
        assert session.cache_stats().hits == 1
        assert second.program is not None
        assert second.program.key == first.program.key

    def test_hand_assembled_generated_code_builds_bare_program(self):
        chain = general_chain(3)
        generated = compile_chain(chain, num_training_instances=20, use_cache=False)
        bare = GeneratedCode.from_json(generated.to_json())
        program = bare.to_program()
        assert program.key == ""
        assert program.chain == chain
        restored = CompiledProgram.loads(program.dumps())
        assert_same_dispatch(
            generated.dispatcher, restored.to_dispatcher(), chain
        )

    def test_describe_mentions_key_and_pool(self):
        session = CompilerSession()
        generated = session.compile(general_chain(3), num_training_instances=20)
        text = generated.to_program().describe()
        assert "key:" in text
        assert "variant pool" in text

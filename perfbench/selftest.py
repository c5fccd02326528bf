"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks that the benchmark is deterministic where it must be, that it
notices a wrong answer, that its span arithmetic is sound, and that
``BENCHMARK.json`` names exactly the metrics the runner prints.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402

benchlib.pin_threads()
benchlib.use_source_tree()

import numpy as np  # noqa: E402

import dispatch_hot  # noqa: E402
import fig6_real  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402
import spans  # noqa: E402
from benchlib import Outcome  # noqa: E402


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
            h.update(str(part.shape).encode())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def fig6_digest(seed: int) -> str:
    inputs = fig6_real.make_inputs(seed)
    return digest(
        [str(c) for c in inputs["shapes"]],
        *inputs["validation"],
        inputs["instances"],
        inputs["probe"],
        *[inputs["pools"][k] for k in sorted(inputs["pools"])],
    )


def dispatch_digest(seed: int) -> str:
    inputs = dispatch_hot.make_inputs(seed)
    parts = [inputs["sources"], inputs["stream"]]
    for index, sizes, arrays, reference in inputs["entries"]:
        parts += [index, sizes, *arrays, reference]
    return digest(*parts)


def serve_digest(seed: int) -> str:
    """Inputs plus every pre-encoded line that carries no shm segment name
    (segment names are the OS's, not the seed's)."""
    inputs = serve_mixed.make_inputs(seed)
    handles = [f"handle-{i}" for i in range(len(inputs["sources"]))]
    lines = [
        serve_mixed.encode_request(request, handles, inputs["sources"], [])
        for request in inputs["requests"]
        if request["kind"] != "execute_shm"
    ]
    parts = [inputs["sources"], inputs["sequence"], lines]
    for request in inputs["requests"]:
        parts += [request.get("sizes"), *request.get("arrays", [])]
    return digest(*parts)


def check_determinism() -> None:
    for name, make in (("fig6-real", fig6_digest), ("dispatch-hot", dispatch_digest), ("serve-mixed", serve_digest)):
        first, second, other = make(3), make(3), make(4)
        assert first == second, f"{name}: seed 3 produced different inputs"
        assert first != other, f"{name}: seeds 3 and 4 produced the same inputs"
    print("PASS same seed -> byte-identical shapes, size vectors, operands and request lines")


def check_flop_penalty_repeats(scratch: benchlib.Scratch) -> None:
    inputs = fig6_real.make_inputs(5)
    a = fig6_real.Setup(inputs, scratch).flop_penalty
    b = fig6_real.Setup(inputs, scratch).flop_penalty
    assert a.tobytes() == b.tobytes(), "fig6-real flop penalties differ between two set-ups"
    print(f"PASS flop_penalty repeats exactly (mean {a.mean()!r}, max {a.max()!r})")


def check_corruption_counted(scratch: benchlib.Scratch) -> None:
    inputs = dispatch_hot.make_inputs(6)
    outcome = Outcome()
    setup = dispatch_hot.Setup(inputs, scratch, outcome)
    assert outcome.failed == 0, "set-up already failed"
    _, _, last = dispatch_hot.call_loop(setup, inputs, 0.2)
    dispatch_hot.verify(inputs, setup, last, outcome)
    assert outcome.failed == 0, "clean results counted as failed"
    entry = next(iter(last))
    corrupted = np.array(last[entry], copy=True)
    corrupted.flat[0] += 1.0
    last[entry] = corrupted
    dispatch_hot.verify(inputs, setup, last, outcome)
    assert outcome.failed == 1, f"a corrupted result counted {outcome.failed} times, not once"

    serve_inputs = serve_mixed.make_inputs(6)
    j = next(i for i, r in enumerate(serve_inputs["requests"]) if r["kind"] == "execute")
    request = serve_inputs["requests"][j]
    good = serve_mixed.encode_array(request["reference"], "npy")
    bad = serve_mixed.encode_array(request["reference"] + 1e-3, "npy")
    assert serve_mixed.check(serve_inputs, j, json.dumps({"ok": True, "result": good}).encode())
    assert not serve_mixed.check(serve_inputs, j, json.dumps({"ok": True, "result": bad}).encode())
    print("PASS a corrupted result is counted as failed (dispatch-hot verify, serve-mixed check)")


def check_span_nesting(scratch: benchlib.Scratch) -> None:
    recorder = spans.SpanRecorder(keep_raw=True)
    patches = spans.Patches(recorder)
    inputs = dispatch_hot.make_inputs(7)
    patches.install()
    try:
        setup = dispatch_hot.Setup(inputs, scratch, Outcome())
        recorder.phase = "run"
        dispatch_hot.call_loop(setup, inputs, 0.2)
    finally:
        patches.uninstall()
    assert recorder.raw, "no spans recorded"
    parents = {}
    for name, start, end, parent_start, parent_name, child in recorder.raw:
        assert 0.0 <= child <= end - start + 1e-9, f"{name}: children cover more than the span"
        if parent_start is not None:
            parents.setdefault((parent_name, parent_start), []).append((start, end))
    closed = {(name, start): end for name, start, end, *_ in recorder.raw}
    for (parent_name, parent_start), children in parents.items():
        parent_end = closed[(parent_name, parent_start)]
        for start, end in children:
            assert parent_start <= start and end <= parent_end, f"a child of {parent_name} escapes it"
        assert sum(e - s for s, e in children) <= parent_end - parent_start + 1e-9
    summary = recorder.summary()
    for key, stats in summary.items():
        if "self_total_us" in stats:
            assert stats["self_total_us"] <= stats["total_us"] + 1e-3, f"{key}: self time exceeds its span"
    run_span = summary["run:runtime.run"]
    inner = sum(summary.get(f"run:{n}", {}).get("total_us", 0.0) for n in ("runtime.infer", "runtime.replay", "runtime.lower"))
    assert inner <= run_span["total_us"], "runtime children exceed Dispatcher.run"
    assert not patches.installed
    print(f"PASS per-layer self times never exceed their parent span ({len(recorder.raw)} spans)")


def check_benchmark_json() -> None:
    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads differ"
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END), "end-to-end metrics differ"
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER), "per-layer metrics differ"
    for metric in spec["per_layer"]:
        assert metric["unit"] == layers.PER_LAYER_UNITS[metric["name"]], f"{metric['name']}: unit differs"
    print("PASS BENCHMARK.json names exactly the metrics the runner prints")


def main() -> int:
    started = time.perf_counter()
    scratch = benchlib.Scratch()
    try:
        check_benchmark_json()
        check_determinism()
        check_flop_penalty_repeats(scratch)
        check_corruption_counted(scratch)
        check_span_nesting(scratch)
    finally:
        scratch.close()
    print(f"all self-tests passed in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced run: per-layer metrics from the benchmark's own spans.

Every workload runs its timed loop twice, for half the seconds each: once
untraced (phase A) and once with the layer spans of :mod:`spans`
installed (phase B, span phase ``run``); set-up runs once, traced (span
phase ``setup``).  The per-layer numbers come from phase B and set-up;
phase A against phase B gives the tracing overhead.  Layers a workload
does not exercise report 0.

What each metric should move, and where it should not, is written down
in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import benchlib
import spans
from benchlib import COUNT, FRAC, MS, RATIO, US, Outcome

PASSES = ("parse", "simplify", "sample", "enumerate", "cost-matrix", "select", "expand", "dispatch")

#: Per-layer metrics (name -> unit), reported by every workload with
#: ``--trace 1``.
PER_LAYER_UNITS = {
    **{f"compiler.{name}_ms": MS for name in PASSES},
    "compiler.variant_pool": COUNT,
    "compiler.selected": COUNT,
    "compiler.cache.disk_load_ms": MS,
    "compiler.cache.mem_hit_ms": MS,
    "runtime.infer_us": US,
    "runtime.dispatch_self_us": US,
    "runtime.lower_us": US,
    "runtime.replay_us": US,
    "runtime.overhead_frac": FRAC,
    "runtime.memo_hit_ratio": FRAC,
    "runtime.unattributed_us": US,
    "runtime.auto_static_agree": COUNT,
    "runtime.auto_entries": COUNT,
    "kernels.gflops": "GFLOP/s",
    "codegen.emit_ms": MS,
    "codegen.compile_ms": MS,
    "codegen.load_ms": MS,
    "codegen.fallbacks": COUNT,
    "serve.decode_us": US,
    "serve.shm_open_us": US,
    "serve.encode_us": US,
    "serve.line_self_us": US,
    "serve.execute_us": US,
    "serve.dispatch_us": US,
    "serve.wire_bytes_per_req": "bytes",
    "serve.unattributed_us": US,
    "baselines.L_time_penalty.geomean": RATIO,
    "baselines.arma_flop_penalty.mean": RATIO,
    "bench.op_us.p50": US,
    "bench.trace_overhead_frac": FRAC,
    "bench.traced_variants_identical": COUNT,
}
PER_LAYER = tuple(PER_LAYER_UNITS)


def stat(summary: dict, phase: str, name: str, field: str = "p50_us") -> float:
    """One field of a span summary (:meth:`spans.SpanRecorder.summary`),
    0 when the span never closed in that phase."""
    return float(summary.get(f"{phase}:{name}", {}).get(field, 0.0))


def put(outcome: Outcome, name: str, value: float) -> None:
    outcome.put(name, value, PER_LAYER_UNITS[name])


def compiler_metrics(outcome: Outcome, summary: dict, phase: str = "setup") -> None:
    for name in PASSES:
        put(outcome, f"compiler.{name}_ms", stat(summary, phase, f"compiler.{name}") / 1e3)
    put(outcome, "compiler.variant_pool", stat(summary, phase, "compiler.variant_pool", "median"))
    put(outcome, "compiler.selected", stat(summary, phase, "compiler.selected", "median"))


def disk_load_metric(outcome: Outcome, summary: dict) -> None:
    put(outcome, "compiler.cache.disk_load_ms", stat(summary, "setup", "compiler.cache.disk_hit_ms", "median"))


def runtime_metrics(outcome: Outcome, summary: dict) -> None:
    """Self times along ``Dispatcher.run`` in the traced loop."""
    put(outcome, "runtime.infer_us", stat(summary, "run", "runtime.infer"))
    put(outcome, "runtime.dispatch_self_us", stat(summary, "run", "runtime.run", "self_p50_us"))
    put(outcome, "runtime.lower_us", stat(summary, "run", "runtime.lower"))
    put(outcome, "runtime.replay_us", stat(summary, "run", "runtime.replay"))
    run_total = stat(summary, "run", "runtime.run", "total_us")
    replay_total = stat(summary, "run", "runtime.replay", "total_us")
    put(outcome, "runtime.overhead_frac", (run_total - replay_total) / run_total if run_total else 0.0)
    # A memo miss is the only way a run lowers a plan, so the share of runs
    # that lowered none is the memo hit ratio.  (Counted from spans: the
    # server swaps a handle's dispatcher on every compile hit, and the
    # process-wide memo_stats() aggregate forgets the dropped ones.)
    runs = stat(summary, "run", "runtime.run", "count")
    lowered = stat(summary, "run", "runtime.lower", "count")
    put(outcome, "runtime.memo_hit_ratio", 1.0 - lowered / runs if runs else 0.0)


def codegen_metrics(outcome: Outcome, before: dict) -> None:
    """Codegen stage times and fallbacks from the registry entries the
    ``c`` backend already keeps, counted since ``before``."""
    from repro.obs import get_registry

    snapshot = get_registry().snapshot()
    for stage in ("emit", "compile", "load"):
        histogram = snapshot["histograms"].get(f"runtime.codegen_seconds{{stage={stage}}}")
        value = 1e3 * histogram["p50"] if histogram and histogram["count"] else 0.0
        put(outcome, f"codegen.{stage}_ms", value)
    fallbacks = sum(
        value - before.get(key, 0)
        for key, value in snapshot["counters"].items()
        if key.startswith("runtime.codegen_fallbacks")
    )
    put(outcome, "codegen.fallbacks", fallbacks)


def registry_counters() -> dict:
    from repro.obs import get_registry

    return dict(get_registry().snapshot()["counters"])


def overhead(outcome: Outcome, untraced_p50: float, traced_p50: float) -> None:
    put(outcome, "bench.op_us.p50", 1e6 * traced_p50)
    put(outcome, "bench.trace_overhead_frac", traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0)


def _record_disk_hit(recorder: spans.SpanRecorder, args, result) -> None:
    if result is not None:
        recorder.count("compiler.cache.disk_hit_ms", 1e3 * recorder.last["compiler.cache.disk_load"])


def traced_run(workload, seed: int, seconds: float, scratch: benchlib.Scratch) -> Outcome:
    recorder = spans.SpanRecorder()
    patches = spans.Patches(recorder, hooks={"compiler.cache.disk_load": _record_disk_hit})
    try:
        outcome = workload.traced(seed, seconds, scratch, recorder, patches)
    finally:
        patches.uninstall()
    for name in PER_LAYER:
        if name not in outcome.metrics:
            put(outcome, name, 0.0)
    outcome.notes.setdefault("spans", recorder.summary())
    return outcome


def names_agree(a, b) -> float:
    """1 when two dispatched-variant sequences agree on their common prefix."""
    common = min(len(a), len(b))
    return 1.0 if list(a[:common]) == list(b[:common]) else 0.0

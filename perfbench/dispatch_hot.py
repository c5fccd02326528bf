"""``dispatch-hot``: a library user calling generated code again and again.

The chains of the ``examples/`` programs, the 10-matrix GEMM chain and
two seeded n=7 shapes are compiled with the ``c`` backend (the Jacobi
chain's diagonal solve falls back to ``blas``).  A fixed working set of
size vectors in [4, 64] — far below the memo capacity (512) — is warmed
during setup, which pays the C compiler once per plan into a codegen
cache directory that is fresh for every setup.  The timed loop is one
thread calling in a closed loop, Zipf over the working set: every call
hits the memo, so size inference, memo lookup and bookkeeping weigh as
much as the kernels.
"""

from __future__ import annotations

import resource
import time
from array import array

import numpy as np

from repro.compiler.session import CompilerSession
from repro.ir.parser import parse_chain
from repro.runtime.codegen_cache import configure_codegen_cache
from repro.runtime.executor import naive_evaluate
from repro.serve.backends import DiskBackend

import benchlib
import catalog
import paper
from benchlib import MB, MS, PER_S, RATIO, Outcome

BACKEND = "c"
SIZE_RANGE = (4, 64)
#: Working-set size vectors per chain.
PER_CHAIN = 2
ZIPF_EXPONENT = 1.1
#: Pre-drawn Zipf index stream (cycled when a run outlasts it).
STREAM = 1 << 20
#: Instances per chain for the FLOP and time penalties.
FLOP_SAMPLES = 512
TIME_SAMPLES = 16
#: Replays per oracle candidate: microsecond plans need more than three.
TIME_REPLAYS = 15
#: The exhaustive 10-matrix compile is kept affordable the way
#: ``benchmarks/bench_backend_c.py`` does it: a small training set.
GEMM10_TRAINING = 20
SETUPS = 3


def make_inputs(seed: int) -> dict:
    """The suite's chains, working set and Zipf ranks; from the seed the
    operand values and the call sequence."""
    shapes = [catalog.source_of(c) for c in catalog.suite_shapes(2, label=8)]
    sources = list(catalog.EXAMPLES.values()) + [catalog.GEMM10] + shapes
    suite = catalog.suite_rng(9)
    rng = np.random.default_rng([seed, 8])
    entries = []  # (chain index, sizes, arrays, reference)
    for index, source in enumerate(sources):
        chain = parse_chain(source)
        for sizes in catalog.sample_sizes(chain, PER_CHAIN, suite, *SIZE_RANGE):
            arrays = catalog.instance_arrays(chain, sizes, rng)
            entries.append((index, tuple(int(s) for s in sizes), arrays, naive_evaluate(chain, arrays)))
    weights = 1.0 / np.arange(1, len(entries) + 1) ** ZIPF_EXPONENT
    ranks = suite.permutation(len(entries))
    stream = rng.choice(ranks, size=STREAM, p=weights / weights.sum()).astype(np.int32)
    return {"sources": sources, "entries": entries, "stream": stream, "seed": seed}


def compile_options(source: str) -> dict:
    options = {"backend": BACKEND, "size_range": SIZE_RANGE}
    if source == catalog.GEMM10:
        options["num_training_instances"] = GEMM10_TRAINING
    return options


class Setup:
    """Cold compile + disk reload of every chain, codegen warm-up of the
    working set into a fresh codegen cache."""

    def __init__(self, inputs: dict, scratch: benchlib.Scratch, outcome: Outcome):
        configure_codegen_cache(directory=scratch.fresh("codegen"))
        directory = scratch.fresh("dispatch-cache")
        cold = CompilerSession(cache_backend=DiskBackend(directory))
        for source in inputs["sources"]:
            cold.compile(source, **compile_options(source))
        warm = CompilerSession(cache_backend=DiskBackend(directory))
        self.programs = [warm.compile(source, **compile_options(source)) for source in inputs["sources"]]
        for index, sizes, arrays, reference in inputs["entries"]:
            program = self.programs[index]
            outcome.attempted += 1
            if not benchlib.results_match(program.chain, arrays, program(*arrays), reference):
                outcome.failed += 1


def call_loop(setup: Setup, inputs: dict, seconds: float, offset: int = 0):
    """The closed loop; returns per-call seconds, the stream position
    reached, and the last result per working-set entry."""
    calls = [(setup.programs[i], arrays) for i, _, arrays, _ in inputs["entries"]]
    stream = inputs["stream"]
    times = array("d")
    last: dict[int, np.ndarray] = {}
    clock = time.perf_counter
    deadline = clock() + seconds
    k = offset
    while clock() < deadline:
        # Chunks of 1024 never straddle the end: STREAM is a multiple.
        chunk = stream[k % STREAM : k % STREAM + 1024].tolist()
        for entry in chunk:
            program, arrays = calls[entry]
            start = clock()
            result = program(*arrays)
            times.append(clock() - start)
            last[entry] = result
        k += len(chunk)
    return np.frombuffer(times, dtype=np.float64), k, last


def traced_call_loop(setup: Setup, inputs: dict, seconds: float, offset: int, recorder):
    """:func:`call_loop` with per-call reads of the recorder: returns call
    seconds, call minus ``Dispatcher.run`` seconds, and last results."""
    calls = [(setup.programs[i], arrays) for i, _, arrays, _ in inputs["entries"]]
    stream = inputs["stream"]
    times, outside = array("d"), array("d")
    last: dict[int, np.ndarray] = {}
    spans_last = recorder.last
    clock = time.perf_counter
    deadline = clock() + seconds
    k = offset
    while clock() < deadline:
        chunk = stream[k % STREAM : k % STREAM + 1024].tolist()
        for entry in chunk:
            program, arrays = calls[entry]
            start = clock()
            result = program(*arrays)
            elapsed = clock() - start
            times.append(elapsed)
            outside.append(elapsed - spans_last["runtime.run"])
            last[entry] = result
        k += len(chunk)
    return np.frombuffer(times, dtype=np.float64), np.frombuffer(outside, dtype=np.float64), last


def auto_vs_static(setup: Setup, inputs: dict) -> tuple[int, int]:
    """How many working-set entries the ``auto`` tournament resolves to
    the backend the static rule c -> blas -> reference names."""
    from repro.runtime.backends import FALLBACK_ROUTINE
    from repro.runtime.plan import compile_plan

    agree = 0
    for index, sizes, _, _ in inputs["entries"]:
        program = setup.programs[index].program
        variant, _, auto_plan = program.to_dispatcher(backend="auto").plan_for(sizes)
        if compile_plan(variant, sizes, backend="c").backend == "c":
            static = "c"
        elif any(r != FALLBACK_ROUTINE for r in compile_plan(variant, sizes, backend="blas").step_routines):
            static = "blas"
        else:
            static = "reference"
        agree += auto_plan.backend == static
    return agree, len(inputs["entries"])


def traced(seed: int, seconds: float, scratch: benchlib.Scratch, recorder, patches) -> Outcome:
    import layers

    inputs = make_inputs(seed)
    outcome = Outcome()
    counters = layers.registry_counters()
    patches.install()
    setup = Setup(inputs, scratch, outcome)
    patches.uninstall()
    layers.codegen_metrics(outcome, counters)
    chosen = [setup.programs[i].select(sizes)[0].name for i, sizes, _, _ in inputs["entries"]]

    untraced, reached, _ = call_loop(setup, inputs, seconds / 2)
    recorder.phase = "run"
    patches.install()
    try:
        times, outside, last = traced_call_loop(setup, inputs, seconds / 2, reached, recorder)
    finally:
        patches.uninstall()
    outcome.attempted += untraced.size + times.size
    verify(inputs, setup, last, outcome)
    again = [setup.programs[i].select(sizes)[0].name for i, sizes, _, _ in inputs["entries"]]

    summary = recorder.summary()
    layers.compiler_metrics(outcome, summary)
    layers.disk_load_metric(outcome, summary)
    layers.runtime_metrics(outcome, summary)
    layers.put(outcome, "runtime.unattributed_us", 1e6 * benchlib.median(outside))
    flops = np.asarray([setup.programs[i].select(sizes)[1] for i, sizes, _, _ in inputs["entries"]])
    served = np.bincount(inputs["stream"][np.arange(reached, reached + times.size) % STREAM], minlength=flops.size)
    replay_total = layers.stat(summary, "run", "runtime.replay", "total_us") / 1e6
    layers.put(outcome, "kernels.gflops", float(flops @ served) / replay_total / 1e9 if replay_total else 0.0)
    agree, entries = auto_vs_static(setup, inputs)
    layers.put(outcome, "runtime.auto_static_agree", agree)
    layers.put(outcome, "runtime.auto_entries", entries)
    layers.overhead(outcome, benchlib.median(untraced), benchlib.median(times))
    layers.put(outcome, "bench.traced_variants_identical", layers.names_agree(chosen, again))
    flop, timed = penalties(setup.programs, inputs["sources"], seed, "blas")
    layers.put(outcome, "baselines.L_time_penalty.geomean", benchlib.geomean(timed[:, 1]))
    layers.put(outcome, "baselines.arma_flop_penalty.mean", paper.arma_penalty(setup.programs, seed, SIZE_RANGE))
    return outcome


def verify(inputs: dict, setup: Setup, last: dict, outcome: Outcome) -> None:
    for entry, result in last.items():
        index, _, arrays, reference = inputs["entries"][entry]
        if not benchlib.results_match(setup.programs[index].chain, arrays, result, reference):
            outcome.failed += 1


def penalties(programs, sources, seed: int, backend: str, size_range=SIZE_RANGE, edge=None):
    """FLOP and time penalties of the workload's chains over fresh samples
    of its size distribution (the working set is a draw from it)."""
    rng = np.random.default_rng([seed, 9])
    flop, timed = [], []
    for program, source in zip(programs, sources):
        chain = program.chain
        flop.append(paper.flop_penalties(program.dispatcher, catalog.sample_sizes(chain, FLOP_SAMPLES, rng, *size_range, edge=edge)))
        for sizes in catalog.sample_sizes(chain, TIME_SAMPLES, rng, *size_range, edge=edge):
            sizes = tuple(int(s) for s in sizes)
            dispatched, _ = program.dispatcher.select_many([sizes])[0]
            candidates = paper.oracle_candidates(chain, sizes, dispatched, program.variants)
            arrays = catalog.instance_arrays(chain, sizes, rng)
            timed.append(paper.time_penalty(candidates, sizes, arrays, backend, TIME_REPLAYS))
    return np.concatenate(flop), np.asarray(timed)


def run(seed: int, seconds: float, scratch: benchlib.Scratch) -> Outcome:
    inputs = make_inputs(seed)
    outcome = Outcome()
    setup_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        setup = Setup(inputs, scratch, outcome)
        setup_s.append(time.perf_counter() - start)
    times, _, last = call_loop(setup, inputs, seconds)
    outcome.attempted += times.size
    verify(inputs, setup, last, outcome)
    # The oracle times plans on blas: a c candidate would pay the C
    # compiler per variant and size vector.
    flop, timed = penalties(setup.programs, inputs["sources"], seed, "blas")

    outcome.put("setup_s", benchlib.median(setup_s), "s")
    outcome.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, MB)
    outcome.put("latency_ms.p50", 1e3 * benchlib.quantile(times, 0.5), MS)
    outcome.put("latency_ms.p90", 1e3 * benchlib.quantile(times, 0.9), MS)
    outcome.put("latency_ms.p99", 1e3 * benchlib.quantile(times, 0.99), MS)
    outcome.put("throughput_per_s", times.size / times.sum(), PER_S)
    outcome.put("time_penalty.geomean", benchlib.geomean(timed[:, 0]), RATIO)
    outcome.put("time_penalty.p90", benchlib.quantile(timed[:, 0], 0.9), RATIO)
    outcome.put("flop_penalty.mean", float(flop.mean()), RATIO)
    outcome.put("flop_penalty.max", float(flop.max()), RATIO)
    outcome.notes["samples"] = {
        "calls": int(times.size),
        "working_set": len(inputs["entries"]),
        "penalty_instances": {"flop": int(flop.size), "time": int(timed.shape[0])},
        "setups": SETUPS,
    }
    return outcome

"""``fig6-real``: the paper's Section VII-B experiment on the real runtime.

The suite's n=7 shapes (each matrix rectangular with probability 0.5) are
compiled cold into a session over a fresh disk tier, then reloaded from a
fresh session over the same directory — the deployed program.  The timed
loop dispatches and executes size vectors uniform in [50, 500] (the paper
uses [50, 1000]) on the ``blas`` backend.  It cycles over a seeded,
stratified instance set and clears the memos between passes, so every
call misses the memo and the cost sweep, plan lowering and BLAS kernels
do the work.

After the loop, four instances per shape go to the time oracle
(:mod:`paper`): the best of the compiled set, ``L`` and the
:data:`ORACLE_CHEAPEST` FLOP-cheapest of the 132 parenthesizations.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from repro.baselines.armadillo import ArmadilloEvaluator
from repro.compiler.selection import LEMMA2_FACTOR, all_variants
from repro.compiler.session import CompilerSession
from repro.experiments.sampling import MATRIX_OPTIONS, sample_instances
from repro.runtime.executor import naive_evaluate, random_matrix
from repro.serve.backends import DiskBackend

import benchlib
import catalog
import paper
from benchlib import MB, MS, PER_S, RATIO, Outcome

SHAPES = 16
#: Timed instances per shape (a stratified set the loop cycles over).
PER_SHAPE = 24
#: Validation vectors per shape for the (exact) FLOP penalties.
VALIDATION = 1000
SIZE_RANGE = (50, 500)
BACKEND = "blas"
#: Oracle instances per shape, timed after the loop.
ORACLE_PER_SHAPE = 4
ORACLE_CHEAPEST = 4
SETUPS = 3


def make_inputs(seed: int) -> dict:
    """Everything the workload feeds the program: the suite's shapes, and
    from the seed the sizes, their order and the operand values."""
    shapes = catalog.suite_shapes(SHAPES, label=6)
    rng = np.random.default_rng([seed, 6])
    validation = [sample_instances(c, VALIDATION, rng, *SIZE_RANGE) for c in shapes]
    instances = [
        (index, tuple(int(x) for x in sizes))
        for index, chain in enumerate(shapes)
        for sizes in catalog.stratified_sizes(chain, PER_SHAPE, rng, *SIZE_RANGE)
    ]
    instances = [instances[i] for i in rng.permutation(len(instances))]
    # One max-size operand per feature option; instances slice leading
    # blocks (principal submatrices keep SPD/triangular/invertibility).
    side = SIZE_RANGE[1]
    pools = {
        option: catalog.well_conditioned(random_matrix(structure, prop, side, side, rng), structure)
        for option, (structure, prop, _) in enumerate(MATRIX_OPTIONS)
    }
    probe = rng.standard_normal(side)
    return {"shapes": shapes, "validation": validation, "instances": instances, "pools": pools, "probe": probe}


def _option(operand) -> int:
    key = (operand.matrix.structure, operand.matrix.prop, operand.op)
    return next(i for i, option in enumerate(MATRIX_OPTIONS) if option == key)


def operands(chain, sizes, pools) -> list[np.ndarray]:
    arrays = []
    for i, operand in enumerate(chain):
        rows, cols = sizes[i], sizes[i + 1]
        if operand.transposed:
            rows, cols = cols, rows
        arrays.append(np.ascontiguousarray(pools[_option(operand)][:rows, :cols]))
    return arrays


class Setup:
    """One cold compile + disk reload of every shape, plus FLOP penalties."""

    def __init__(self, inputs: dict, scratch: benchlib.Scratch):
        directory = scratch.fresh("fig6-cache")
        cold = CompilerSession(cache_backend=DiskBackend(directory))
        for chain in inputs["shapes"]:
            cold.compile(chain, backend=BACKEND, size_range=SIZE_RANGE)
        warm = CompilerSession(cache_backend=DiskBackend(directory))
        self.programs = []
        for chain in inputs["shapes"]:
            program = warm.compile(chain, backend=BACKEND, size_range=SIZE_RANGE)
            if program.chain.n != chain.n:
                raise RuntimeError(f"simplification changed the shape of {chain}")
            self.programs.append(program)
        self.variants = [all_variants(p.chain) for p in self.programs]
        penalties, arma = [], []
        for program, variants, validation in zip(self.programs, self.variants, inputs["validation"]):
            optimum = paper.optimal_flops(program.chain, validation, variants)
            chosen = np.asarray([c for _, c in program.dispatcher.select_many(validation)])
            penalties.append(chosen / optimum)
            arma.append(ArmadilloEvaluator(program.chain).flop_cost_many(validation) / optimum)
        self.flop_penalty = np.concatenate(penalties)
        self.arma_penalty = np.concatenate(arma)


class Checker:
    """Each distinct instance's reference is evaluated once, before the
    loop, with ``naive_evaluate``; every result is then compared through
    a random projection against the reference's, which is never stricter
    than the full comparison — any mismatch is decided by the full one.
    Every timed call thus runs under the same conditions, not some right
    after a cache-flushing reference evaluation."""

    def __init__(self, inputs: dict):
        self.probe = inputs["probe"]
        self.projections: list[tuple[np.ndarray, float]] = []
        for shape, sizes in inputs["instances"]:
            chain = inputs["shapes"][shape]
            reference = naive_evaluate(chain, operands(chain, sizes, inputs["pools"]))
            probe = self.probe[: reference.shape[1]]
            scale = float(np.abs(reference).max()) * float(np.abs(probe).sum())
            self.projections.append((reference @ probe, scale))

    def __call__(self, index: int, chain, arrays, result) -> bool:
        projection, scale = self.projections[index]
        if (
            result.ndim == 2
            and result.shape[0] == projection.shape[0]
            and np.all(np.isfinite(result))
            and float(np.abs(result @ self.probe[: result.shape[1]] - projection).max()) <= 1e-8 * scale
        ):
            return True
        return benchlib.results_match(chain, arrays, result, naive_evaluate(chain, arrays))


def _execute(setup: Setup, inputs: dict, seconds: float, outcome: Outcome, check: Checker, dispatchers=None, on_call=None):
    """Dispatch + execute instances for ``seconds``; returns the per-call
    times (s) and the dispatched variant names, in order.  Memos are
    cleared between passes over the instance set, so every call misses.
    ``on_call(result, elapsed)`` sees every call (the traced run)."""
    pools, instances = inputs["pools"], inputs["instances"]
    dispatchers = dispatchers or [p.dispatcher for p in setup.programs]
    times, chosen = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        index = k % len(instances)
        if k and index == 0:
            for dispatcher in dispatchers:
                # Re-setting the estimator drops the memo (and only it).
                dispatcher.cost_estimator = dispatcher.cost_estimator
        k += 1
        shape, sizes = instances[index]
        chain = setup.programs[shape].chain
        arrays = operands(chain, sizes, pools)
        outcome.attempted += 1
        try:
            start = time.perf_counter()
            result = dispatchers[shape].run(arrays)
            elapsed = time.perf_counter() - start
        except Exception:
            outcome.failed += 1
            continue
        times.append(elapsed)
        chosen.append(result.variant.name)
        if on_call is not None:
            on_call(result, elapsed)
        if not check(index, chain, arrays, result.result):
            outcome.failed += 1
    return np.asarray(times), chosen


def _oracle(setup: Setup, inputs: dict, per_shape: int) -> tuple[np.ndarray, np.ndarray]:
    """Time and L penalties on the first ``per_shape`` instances of every
    shape in the seeded order."""
    time_pen, l_pen = [], []
    taken = [0] * SHAPES
    for shape, sizes in inputs["instances"]:
        if taken[shape] >= per_shape:
            continue
        taken[shape] += 1
        program = setup.programs[shape]
        arrays = operands(program.chain, sizes, inputs["pools"])
        dispatched, _ = program.dispatcher.select_many([sizes])[0]
        candidates = paper.oracle_candidates(
            program.chain, sizes, dispatched, program.variants, setup.variants[shape], ORACLE_CHEAPEST
        )
        penalty, left = paper.time_penalty(candidates, sizes, arrays, BACKEND)
        time_pen.append(penalty)
        l_pen.append(left)
    return np.asarray(time_pen), np.asarray(l_pen)


def _paper_rows(setup: Setup, outcome: Outcome) -> None:
    worst = float(setup.flop_penalty.max())
    outcome.rows["lemma2_essential_set_bound"] = worst <= LEMMA2_FACTOR
    outcome.notes["lemma2"] = {"worst_flop_factor": worst, "bound": LEMMA2_FACTOR}
    outcome.notes["oracle"] = (
        f"time oracle = best of the compiled set, L and the {ORACLE_CHEAPEST} "
        f"FLOP-cheapest of the 132 parenthesizations, min of {paper.REPLAYS} replays; "
        "timing all 132 costs about 0.8 s per instance, so it is left out"
    )


def run(seed: int, seconds: float, scratch: benchlib.Scratch) -> Outcome:
    inputs = make_inputs(seed)
    outcome = Outcome()
    setup_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        setup = Setup(inputs, scratch)
        setup_s.append(time.perf_counter() - start)
    times, _ = _execute(setup, inputs, seconds, outcome, Checker(inputs))
    time_pen, _ = _oracle(setup, inputs, ORACLE_PER_SHAPE)
    _paper_rows(setup, outcome)

    outcome.put("setup_s", benchlib.median(setup_s), "s")
    outcome.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, MB)
    outcome.put("latency_ms.p50", 1e3 * benchlib.quantile(times, 0.5), MS)
    outcome.put("latency_ms.p90", 1e3 * benchlib.quantile(times, 0.9), MS)
    outcome.put("latency_ms.p99", 1e3 * benchlib.quantile(times, 0.99), MS)
    outcome.put("throughput_per_s", times.size / times.sum(), PER_S)
    outcome.put("time_penalty.geomean", benchlib.geomean(time_pen), RATIO)
    outcome.put("time_penalty.p90", benchlib.quantile(time_pen, 0.9), RATIO)
    outcome.put("flop_penalty.mean", float(setup.flop_penalty.mean()), RATIO)
    outcome.put("flop_penalty.max", float(setup.flop_penalty.max()), RATIO)
    outcome.notes["samples"] = {
        "calls": int(times.size),
        "distinct_instances": len(inputs["instances"]),
        "oracle_instances": int(time_pen.size),
        "setups": SETUPS,
    }
    return outcome


def traced(seed: int, seconds: float, scratch: benchlib.Scratch, recorder, patches) -> Outcome:
    import layers

    inputs = make_inputs(seed)
    outcome = Outcome()
    check = Checker(inputs)
    patches.install()
    setup = Setup(inputs, scratch)
    patches.uninstall()
    untraced, chosen = _execute(setup, inputs, seconds / 2, outcome, check)

    # Phase B replays the same instances on fresh dispatchers (empty
    # memos), so both phases dispatch exactly the same calls cold.
    dispatchers = [p.program.to_dispatcher(backend=BACKEND) for p in setup.programs]
    flops, outside = [], []

    def on_call(result, elapsed):
        flops.append(result.cost)
        outside.append(elapsed - recorder.last["runtime.run"])

    recorder.phase = "run"
    patches.install()
    try:
        times, chosen_traced = _execute(setup, inputs, seconds / 2, outcome, check, dispatchers, on_call)
    finally:
        patches.uninstall()
    summary = recorder.summary()
    layers.compiler_metrics(outcome, summary)
    layers.disk_load_metric(outcome, summary)
    layers.runtime_metrics(outcome, summary)
    layers.put(outcome, "runtime.unattributed_us", 1e6 * benchlib.median(outside))
    replay_total = layers.stat(summary, "run", "runtime.replay", "total_us") / 1e6
    layers.put(outcome, "kernels.gflops", sum(flops) / replay_total / 1e9 if replay_total else 0.0)
    common = min(len(untraced), len(times))
    layers.overhead(outcome, benchlib.median(untraced[:common]), benchlib.median(times[:common]))
    identical = layers.names_agree(chosen, chosen_traced)
    layers.put(outcome, "bench.traced_variants_identical", identical)
    outcome.rows["traced_untraced_same_variants"] = identical == 1.0
    _, l_pen = _oracle(setup, inputs, 1)
    layers.put(outcome, "baselines.L_time_penalty.geomean", benchlib.geomean(l_pen))
    layers.put(outcome, "baselines.arma_flop_penalty.mean", float(setup.arma_penalty.mean()))
    _paper_rows(setup, outcome)
    return outcome

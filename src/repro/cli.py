"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``compile`` — compile a program in the Fig. 2 input language through a
  :class:`~repro.compiler.session.CompilerSession` and show the selected
  variants, their symbolic costs, and (optionally) the generated C++ code;
  ``--output prog.json`` writes the versioned
  :class:`~repro.compiler.program.CompiledProgram` artifact (compile once,
  run anywhere via ``repro run``); ``--cache-dir`` persists compilations
  across invocations; ``--variant-space``/``--max-variants`` pick the
  candidate-generation strategy (the DP-seeded space scales compilation to
  long chains).
* ``run`` — load a compiled artifact (``repro compile --output``, a cache
  entry file, or a served ``artifact`` response saved to disk) and use it
  without recompiling: describe it, dispatch on ``--sizes``, or execute on
  concrete matrices from an ``--npz`` file; ``--backend
  {reference,blas,c}`` picks the execution backend, and dispatching
  prints the compiled plan with the routine each step lowered to.
* ``cache stats`` / ``cache clear`` / ``cache warm`` — inspect, empty, or
  warm-validate the on-disk compilation cache; ``stats`` and ``clear``
  also cover the codegen tier (shared objects compiled by the ``c``
  backend, relocated by ``--codegen-cache-dir``).
* ``serve`` — long-lived JSON-lines compilation service
  (:mod:`repro.serve`): bounded queue, worker pool (``--workers-mode
  process`` fans compilation out to a process pool and ships artifacts
  back over pipes), request coalescing; stdin/stdout by default, or one
  asyncio event loop serving TCP on ``--port`` and HTTP POSTs on
  ``--http-port``; ``--stats`` prints queue depth, coalesce rate, and
  latency percentiles on exit; ``--metrics-port`` additionally serves the
  process-wide :mod:`repro.obs` registry as a Prometheus ``/metrics``
  HTTP endpoint.
* ``stats`` — query a running ``repro serve --port`` instance with one
  ``{"op": "stats"}`` request and print a human summary of the unified
  observability snapshot (service counters, cache tiers, pass timings,
  runtime memo and kernel histograms); ``--json`` dumps the raw response.
* ``compile``/``run`` accept ``--trace out.jsonl``: enable structured
  tracing for the command and stream every span (plus a final metrics
  snapshot) to a JSON-lines file.
* ``fig5`` — run Experiment A (FLOPs, paper Fig. 5) and print the summary
  statistics and eCDF samples.
* ``fig6`` — run Experiment B (execution time, paper Fig. 6).
* ``table1`` — print the kernel database (paper Table I).
* ``header`` — emit the ``gmc_kernels.hpp`` kernel API header.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

import numpy as np


def _env_cache_dir(fallback: str | None = None) -> str | None:
    """The REPRO_CACHE_DIR override, read at parser-build time.

    ``compile`` defaults to no disk cache unless the env var is set;
    ``cache stats/clear`` default to ``.repro-cache``.
    """
    return os.environ.get("REPRO_CACHE_DIR", fallback)


def _positive_int(text: str) -> int:
    """argparse ``type`` for counts and bounds that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_codegen_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--codegen-cache-dir",
        default=None,
        help="directory for shared objects compiled by the 'c' backend "
        "(default: $REPRO_CODEGEN_CACHE_DIR or ~/.cache/repro-codegen)",
    )


def _configure_codegen(args: argparse.Namespace) -> None:
    """Apply ``--codegen-cache-dir`` to the process-wide cache."""
    if args.codegen_cache_dir is not None:
        from repro.runtime.codegen_cache import configure_codegen_cache

        configure_codegen_cache(directory=args.codegen_cache_dir)


def _make_session(args: argparse.Namespace):
    from repro.compiler.session import CompilerSession, get_default_session

    if getattr(args, "cache_dir", None):
        return CompilerSession(cache_dir=args.cache_dir)
    return get_default_session()


def _print_session_diagnostics(session, args: argparse.Namespace) -> None:
    if getattr(args, "timings", False) and session.last_context is not None:
        print()
        print("pass timings:")
        for name, seconds in session.last_context.timings.items():
            print(f"  {name:<12} {1e3 * seconds:8.2f} ms")
        if session.last_context.skipped:
            skipped = dict.fromkeys(session.last_context.skipped)  # dedupe
            print(f"  skipped (cache hit): {', '.join(skipped)}")
        pool = session.last_context.diagnostics.get("variant_pool")
        if pool:
            print(
                "variant pool: "
                + "  ".join(f"{key}={pool[key]}" for key in sorted(pool))
            )
    if getattr(args, "stats", False):
        print()
        print(f"cache: {session.cache_stats()}")


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.ir.parser import parse_program

    if args.file:
        with open(args.file) as handle:
            source = handle.read()
    else:
        source = args.source
    if not source:
        print("error: provide --file or --source", file=sys.stderr)
        return 2

    session = _make_session(args)
    program = parse_program(source)
    if len(program.expression) > 1 or (
        program.expression.terms[0].coefficient != 1.0
    ):
        if args.output:
            print(
                "error: --output writes one artifact per compiled chain; "
                "compile each term's bare chain separately (artifacts carry "
                "no term coefficients)",
                file=sys.stderr,
            )
            return 2
        generated = session.compile_expression(
            program.expression,
            expand_by=args.expand,
            num_training_instances=args.train,
            seed=args.seed,
            variant_space=args.variant_space,
            max_variants=args.max_variants,
            backend=args.backend,
            cost_model=args.cost_model,
        )
        print(generated.describe())
        if args.cpp:
            print()
            for i, code in enumerate(generated.term_codes):
                print(code.cpp_source(function_name=f"{args.function_name}_term{i}"))
        _print_session_diagnostics(session, args)
        return 0

    generated = session.compile(
        program.chain,
        expand_by=args.expand,
        num_training_instances=args.train,
        seed=args.seed,
        variant_space=args.variant_space,
        max_variants=args.max_variants,
        backend=args.backend,
        cost_model=args.cost_model,
    )
    print(generated.describe())
    print()
    for variant in generated.variants:
        print(f"cost[{variant.name}] = {variant.symbolic_cost()}")
    if args.cpp:
        print()
        print(generated.cpp_source(function_name=args.function_name))
    if args.output:
        generated.save(args.output)
        print()
        print(f"wrote compiled artifact to {args.output}")
    _print_session_diagnostics(session, args)
    return 0


def _cost_unit(runtime) -> str:
    """The unit of the dispatcher's estimated costs, for display."""
    if getattr(runtime.cost_estimator, "calibrated", False):
        return "s, calibrated"
    return "FLOPs"


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.compiler.program import ArtifactError, CompiledProgram

    _configure_codegen(args)
    try:
        program = CompiledProgram.load(args.artifact)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.npz:
        with np.load(args.npz) as archive:
            names = [operand.matrix.name for operand in program.chain]
            if all(name in archive.files for name in names):
                arrays = [np.asarray(archive[name]) for name in names]
            elif len(archive.files) == program.chain.n:
                # Fall back to file order (np.savez positional arr_0..arr_k).
                arrays = [np.asarray(archive[key]) for key in archive.files]
            else:
                print(
                    f"error: {args.npz} holds {len(archive.files)} arrays "
                    f"({', '.join(archive.files)}); the chain needs "
                    f"{program.chain.n} ({', '.join(names)})",
                    file=sys.stderr,
                )
                return 2
        # The artifact's live runtime: sizes inferred once, dispatch and
        # plan-compiled execution in one pass (repro.runtime).
        runtime = program.runtime(
            backend=args.backend, cost_model=args.cost_model
        )
        sizes, variant, cost, result = runtime.run(arrays)
        unit = _cost_unit(runtime)
        print(f"instance sizes: {list(sizes)}")
        print(f"dispatched to: {variant.name}  (estimated cost {cost:g} {unit})")
        _, _, plan = runtime.plan_for(sizes, validate=False)
        print(plan.describe())
        if args.out:
            np.save(args.out, result)
            print(f"wrote result {result.shape} to {args.out}")
        else:
            print(f"result shape: {result.shape}")
            with np.printoptions(precision=6, threshold=64, edgeitems=3):
                print(result)
        return 0

    if args.sizes:
        sizes = [int(part) for part in args.sizes.replace(",", " ").split()]
        runtime = program.runtime(
            backend=args.backend, cost_model=args.cost_model
        )
        variant, cost, plan = runtime.plan_for(sizes)
        print(f"instance sizes: {sizes}")
        print(
            f"dispatched to: {variant.name}  "
            f"(estimated cost {cost:g} {_cost_unit(runtime)})"
        )
        print(plan.describe())
        return 0

    print(program.describe())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime.codegen_cache import get_codegen_cache
    from repro.serve.backends import DiskBackend

    _configure_codegen(args)
    disk = DiskBackend(args.cache_dir)
    if args.action == "stats":
        stats = disk.stats()
        print(f"cache directory: {stats['directory']}")
        print(f"entries:         {stats['entries']}")
        print(f"total bytes:     {stats['total_bytes']}")
        if stats.get("pruned"):
            print(f"pruned:          {stats['pruned']}")
        if args.verbose:
            for key in disk.keys():
                print(f"  {key}")
        codegen = get_codegen_cache().stats()
        print(f"codegen directory: {codegen['directory']}")
        print(f"codegen entries:   {codegen['entries']}")
        print(f"codegen bytes:     {codegen['total_bytes']}")
        return 0
    if args.action == "clear":
        removed = disk.clear()
        print(f"removed {removed} cache entries from {disk.directory}")
        codegen = get_codegen_cache()
        removed = codegen.clear()
        print(f"removed {removed} codegen entries from {codegen.directory}")
        return 0
    if args.action == "warm":
        from repro.compiler.session import CompilerSession

        session = CompilerSession(cache_backend=disk)
        warmed = session.warm(args.limit)
        print(f"warmed {warmed} cache entries from {disk.directory}")
        return 0
    print(f"error: unknown cache action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.compiler.pipeline import CompileOptions
    from repro.compiler.session import CompilerSession
    from repro.serve import AsyncCompileServer, CompileService, serve_stream
    from repro.serve.backends import DiskBackend

    cache_backend = None
    if args.cache_dir:
        cache_backend = DiskBackend(
            args.cache_dir,
            max_entries=args.max_cache_entries,
            max_bytes=args.max_cache_bytes,
        )
    elif args.max_cache_entries is not None or args.max_cache_bytes is not None:
        args.usage_error(
            "--max-cache-entries/--max-cache-bytes need --cache-dir "
            "(or $REPRO_CACHE_DIR)"
        )
    _configure_codegen(args)
    overrides = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("cost_model", args.cost_model),
        )
        if value
    }
    session = CompilerSession(
        cache_capacity=args.cache_capacity,
        cache_backend=cache_backend,
        options=CompileOptions(**overrides) if overrides else None,
    )
    service = CompileService(
        session,
        workers=args.workers,
        workers_mode=args.workers_mode,
        max_queue=args.max_queue,
        warm=not args.no_warm,
    )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs import serve_metrics_http

        metrics_server = serve_metrics_http(args.metrics_port, args.host)
        bound_host, bound_port = metrics_server.server_address[:2]
        print(
            f"Prometheus metrics on http://{bound_host}:{bound_port}/metrics",
            file=sys.stderr,
        )
    if args.workers_mode == "process":
        service.prestart()
        print("process pool ready", file=sys.stderr)
    if service.warmed:
        print(f"warmed {service.warmed} cache entries", file=sys.stderr)
    try:
        if args.port is not None or args.http_port is not None:
            server = AsyncCompileServer(
                service, args.host, args.port or 0, http_port=args.http_port
            ).start()
            host, port = server.address
            print(f"serving JSON-lines on {host}:{port}", file=sys.stderr)
            if server.http_address is not None:
                hhost, hport = server.http_address
                print(
                    f"serving HTTP POST on http://{hhost}:{hport}/",
                    file=sys.stderr,
                )
            try:
                threading.Event().wait()  # until KeyboardInterrupt
            finally:
                server.close()
        else:
            serve_stream(
                service,
                sys.stdin,
                sys.stdout,
                max_requests=args.max_requests,
            )
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        if metrics_server is not None:
            metrics_server.shutdown()
        if args.stats:
            print(f"service: {service.metrics}", file=sys.stderr)
            print(f"cache: {session.cache_stats()}", file=sys.stderr)
    return 0


def _print_stats_summary(stats: dict) -> None:
    """Human rendering of a ``{"op": "stats"}`` response."""
    print(
        f"protocol v{stats.get('protocol_version')}  "
        f"workers={stats.get('workers')} ({stats.get('workers_mode')})  "
        f"inflight={stats.get('inflight')}  "
        f"registry={stats.get('registry_entries')}"
    )
    service = stats.get("service") or {}
    if service:
        counters = "  ".join(
            f"{name}={service[name]}"
            for name in (
                "requests",
                "compiled",
                "cache_hits",
                "coalesced",
                "rejected",
                "errors",
            )
            if name in service
        )
        print(f"service: {counters}")
        print(
            f"         coalesce_rate={service.get('coalesce_rate')}  "
            f"queue_depth={service.get('queue_depth')}  "
            f"p50={service.get('p50_ms')}ms  p99={service.get('p99_ms')}ms"
        )
    obs = stats.get("obs") or {}
    cache_counters = [
        f"{key}={value}"
        for key, value in sorted((obs.get("counters") or {}).items())
        if key.startswith("cache.")
    ]
    if cache_counters:
        print("cache:   " + "  ".join(cache_counters))
    wire_counters = [
        f"{key}={value}"
        for key, value in sorted((obs.get("counters") or {}).items())
        if key.startswith("serve.wire_bytes")
    ]
    if wire_counters:
        print("wire:    " + "  ".join(wire_counters))
    connections = [
        f"{key}={int(value)}"
        for key, value in sorted((obs.get("gauges") or {}).items())
        if key.startswith("serve.connections")
    ]
    if connections:
        print("conns:   " + "  ".join(connections))
    runtime = (obs.get("scopes") or {}).get("runtime")
    if runtime:
        print(
            f"runtime: dispatchers={runtime.get('dispatchers')}  "
            f"memo_hits={runtime.get('memo_hits')}  "
            f"memo_misses={runtime.get('memo_misses')}  "
            f"memo_evictions={runtime.get('memo_evictions')}  "
            f"reselections={runtime.get('reselections', 0)}  "
            f"executions={runtime.get('executions')}"
        )
    calibration = (obs.get("scopes") or {}).get("calibration")
    if calibration:
        age = calibration.get("age_seconds")
        age_text = f"{age:.1f}s" if isinstance(age, (int, float)) else "never"
        print(
            f"calibration: entries={calibration.get('entries')}  "
            f"samples={calibration.get('samples')}  "
            f"refreshes={calibration.get('refreshes')}  "
            f"age={age_text}"
        )
    histograms = obs.get("histograms") or {}

    def _section(title: str, prefix: str, scale: float, unit: str) -> None:
        rows = {
            key: value
            for key, value in histograms.items()
            if key.startswith(prefix) and isinstance(value, dict)
        }
        if not rows:
            return
        print(title)
        for key, hist in sorted(rows.items()):
            label = key.split("{", 1)[-1].rstrip("}") if "{" in key else key
            print(
                f"  {label:<40} p50={scale * hist.get('p50', 0.0):10.3f} "
                f"{unit}  (n={hist.get('count', 0)})"
            )

    _section("pass timings:", "compiler.pass_seconds", 1e3, "ms")
    _section("execution:", "runtime.execute_seconds", 1e6, "us")
    _section("kernels:", "runtime.kernel_seconds", 1e6, "us")


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    import socket

    payload = json.dumps({"op": "stats", "id": 0}) + "\n"
    try:
        with socket.create_connection(
            (args.host, args.port), timeout=args.timeout
        ) as conn:
            conn.sendall(payload.encode("utf-8"))
            with conn.makefile("r", encoding="utf-8") as reader:
                line = reader.readline()
    except OSError as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    if not line.strip():
        print("error: empty response from server", file=sys.stderr)
        return 2
    response = json.loads(line)
    if not response.get("ok"):
        print(f"error: {response.get('error')}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    _print_stats_summary(response)
    return 0


def _print_ecdf(name: str, ecdf, xs) -> None:
    curve = ", ".join(f"{x:g}:{100 * y:.1f}%" for x, y in ecdf.curve(xs))
    print(f"  eCDF[{name}] {curve}  (max {ecdf.max:.2f})")


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.flops_experiment import run_flops_experiment

    result = run_flops_experiment(
        n_values=tuple(args.n),
        shapes_per_n=None if args.full else args.shapes,
        train_instances=args.train,
        val_instances=args.val,
        seed=args.seed,
        verbose=args.verbose,
    )
    print("Experiment A (Fig. 5): ratio over optimal number of FLOPs")
    print(result.summary_table())
    xs = (1.0, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5)
    for n in sorted(result.ratios):
        print(f"n = {n}:")
        for set_name in result.ratios[n]:
            _print_ecdf(set_name, result.ecdf(n, set_name), xs)
    if args.plot:
        from repro.experiments.figures import render_fig5

        for n in sorted(result.ratios):
            print()
            print(render_fig5(result, n))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.time_experiment import run_time_experiment

    result = run_time_experiment(
        num_shapes=args.shapes,
        train_instances=args.train,
        val_instances=args.val,
        seed=args.seed,
        verbose=args.verbose,
    )
    print("Experiment B (Fig. 6): ratio over optimal execution time")
    print(result.summary_table())
    xs = (1.0, 1.1, 1.5, 2.0, 2.5, 3.0)
    for set_name in result.ratios:
        _print_ecdf(set_name, result.ecdf(set_name), xs)
    if args.plot:
        from repro.experiments.figures import render_fig6

        print()
        print(render_fig6(result))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.kernels.spec import KERNELS

    print(f"{'kernel':<10} {'kind':<8} {'BLAS':<5} {'cost (left / cheap)':<24} type")
    print("-" * 70)
    for kernel in KERNELS.values():
        cost = kernel.cost(side="left", cheap=True)
        print(
            f"{kernel.name:<10} {kernel.kind:<8} "
            f"{'yes' if kernel.in_blas else 'no':<5} "
            f"{str(cost):<24} {cost.cost_type.value}"
        )
    return 0


def _cmd_header(args: argparse.Namespace) -> int:
    from repro.codegen.cpp_emitter import emit_kernels_header

    print(emit_kernels_header())
    return 0


def _read_source(args: argparse.Namespace) -> str | None:
    if args.file:
        with open(args.file) as handle:
            return handle.read()
    return args.source


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.api import compile_chain

    source = _read_source(args)
    if not source:
        print("error: provide --file or --source", file=sys.stderr)
        return 2
    generated = compile_chain(
        source, num_training_instances=args.train, seed=args.seed
    )
    print(generated.report(num_instances=args.instances, seed=args.seed))
    return 0


def _cmd_pygen(args: argparse.Namespace) -> int:
    from repro.api import compile_chain

    source = _read_source(args)
    if not source:
        print("error: provide --file or --source", file=sys.stderr)
        return 2
    generated = compile_chain(
        source,
        expand_by=args.expand,
        num_training_instances=args.train,
        seed=args.seed,
    )
    print(generated.python_source())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GMC symbolic-size compiler (CGO 2026 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a chain program")
    p.add_argument("--file", help="path to a program in the Fig. 2 language")
    p.add_argument("--source", help="inline program source")
    p.add_argument("--expand", type=int, default=0, help="extra variants (Alg. 1)")
    p.add_argument("--train", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--variant-space",
        choices=["auto", "exhaustive", "dp", "dp-adaptive"],
        default=None,
        help="candidate generation: exhaustive enumeration, DP-seeded "
        "sparse pool (scales to long chains), dp-adaptive (grow the DP "
        "seeding until held-out penalty plateaus), or auto by chain "
        "length (default: the session's own default, i.e. auto)",
    )
    p.add_argument(
        "--max-variants",
        type=int,
        default=None,
        help="bound the candidate pool (fanning-out variants always kept)",
    )
    p.add_argument(
        "--backend",
        choices=["reference", "blas", "c"],
        default=None,
        help="execution backend of the built dispatcher, recorded in the "
        "artifact (default: the session's default, i.e. c, which falls back "
        "to blas without a C toolchain)",
    )
    p.add_argument(
        "--cost-model",
        choices=["flops", "calibrated"],
        default=None,
        help="dispatcher cost model: flops (analytic, default) or "
        "calibrated (feedback-directed per-kernel FLOP/s learned from "
        "measured timings; recorded in the artifact)",
    )
    p.add_argument("--cpp", action="store_true", help="emit generated C++")
    p.add_argument("--function-name", default="evaluate_chain")
    p.add_argument(
        "--output",
        "-o",
        default=None,
        help="write the compiled artifact (versioned CompiledProgram JSON) "
        "to this file; load it later with `repro run` or "
        "repro.api.load_program",
    )
    p.add_argument(
        "--cache-dir",
        default=_env_cache_dir(),
        help="persist compilations to this directory (content-addressed; "
        "defaults to $REPRO_CACHE_DIR when set, else no disk cache)",
    )
    p.add_argument(
        "--timings", action="store_true", help="print per-pass wall times"
    )
    p.add_argument(
        "--stats", action="store_true", help="print compilation-cache stats"
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="enable structured tracing and write spans (plus a final "
        "metrics snapshot) to this JSON-lines file",
    )
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser(
        "run",
        help="load a compiled artifact and describe, dispatch, or execute it",
    )
    p.add_argument("artifact", help="path to a CompiledProgram artifact file")
    p.add_argument(
        "--sizes",
        default=None,
        help="comma- or space-separated instance sizes q0,..,qn: print the "
        "variant the dispatcher selects and its cost",
    )
    p.add_argument(
        "--npz",
        default=None,
        help="execute on concrete matrices from this .npz archive (entries "
        "named after the chain's matrices, or positional)",
    )
    p.add_argument(
        "--out", default=None, help="write the executed result to this .npy file"
    )
    p.add_argument(
        "--backend",
        choices=["reference", "blas", "c"],
        default=None,
        help="execution backend: c (plans replayed by a native step "
        "interpreter, falls back to blas without a C toolchain), blas "
        "(direct scipy.linalg.blas/lapack lowering), or reference (numpy "
        "substrate); default: the backend recorded in the artifact, else c",
    )
    p.add_argument(
        "--cost-model",
        choices=["flops", "calibrated"],
        default=None,
        help="dispatcher cost model override: flops (analytic) or "
        "calibrated (shipped/learned per-kernel FLOP/s); default: the "
        "model recorded in the artifact",
    )
    _add_codegen_cache_args(p)
    p.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="enable structured tracing and write spans (plus a final "
        "metrics snapshot) to this JSON-lines file",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("cache", help="inspect, warm, or clear the on-disk cache")
    p.add_argument("action", choices=["stats", "clear", "warm"])
    p.add_argument(
        "--cache-dir",
        default=_env_cache_dir(".repro-cache"),
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--verbose", action="store_true", help="list entry keys (stats)"
    )
    p.add_argument(
        "--limit", type=int, default=None, help="max entries to warm (warm)"
    )
    _add_codegen_cache_args(p)
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="JSON-lines compilation service (stdin/stdout, or TCP with --port)",
    )
    p.add_argument(
        "--cache-dir",
        default=_env_cache_dir(),
        help="persist compilations to this directory (defaults to "
        "$REPRO_CACHE_DIR when set, else no disk cache)",
    )
    p.add_argument(
        "--cache-capacity",
        type=_positive_int,
        default=256,
        help="in-memory LRU entries",
    )
    p.add_argument(
        "--max-cache-entries",
        type=_positive_int,
        default=None,
        help="bound the disk cache to this many entries (LRU-by-mtime pruning)",
    )
    p.add_argument(
        "--max-cache-bytes",
        type=_positive_int,
        default=None,
        help="bound the disk cache to this many bytes (LRU-by-mtime pruning)",
    )
    p.add_argument(
        "--workers", type=int, default=None, help="worker threads (default: auto)"
    )
    p.add_argument(
        "--workers-mode",
        choices=["thread", "process"],
        default="thread",
        help="run compilations on worker threads (default) or fan them out "
        "to a process pool that ships artifacts back over pipes "
        "(GIL-free throughput on distinct structures)",
    )
    p.add_argument(
        "--max-queue", type=int, default=256, help="bound on queued compilations"
    )
    p.add_argument(
        "--backend",
        choices=["reference", "blas", "c"],
        default=None,
        help="default execution backend for served compilations (per-request "
        "'backend' options override it; default: c, which falls back to "
        "blas without a C toolchain)",
    )
    p.add_argument(
        "--cost-model",
        choices=["flops", "calibrated"],
        default=None,
        help="default dispatcher cost model for served compilations "
        "(per-request 'cost_model' options override it)",
    )
    _add_codegen_cache_args(p)
    p.add_argument(
        "--no-warm",
        action="store_true",
        help="skip cache warm-up on startup",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve JSON-lines over TCP on this port from one asyncio event "
        "loop (0 picks a free port)",
    )
    p.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    p.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="also accept HTTP/1.1 POSTs of JSON request bodies on this "
        "port (0 picks a free port; without --port, JSON-lines gets a "
        "free port)",
    )
    p.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="stdin mode: exit after this many requests",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print service metrics and cache stats to stderr on exit",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve the process-wide metrics registry as Prometheus text "
        "on this HTTP port (/metrics; 0 picks a free port)",
    )
    # The disk bounds need a directory, which may come from the environment,
    # so that check runs after parsing; it still exits 2 with serve's usage.
    p.set_defaults(func=_cmd_serve, usage_error=p.error)

    p = sub.add_parser(
        "stats",
        help="query a running `repro serve --port` instance and print a "
        "human summary of its unified observability snapshot",
    )
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, required=True, help="server TCP port")
    p.add_argument(
        "--timeout", type=float, default=10.0, help="connect/read timeout (s)"
    )
    p.add_argument(
        "--json", action="store_true", help="print the raw JSON response"
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("fig5", help="Experiment A: FLOPs (Fig. 5)")
    p.add_argument("--n", type=int, nargs="+", default=[5, 6, 7])
    p.add_argument("--shapes", type=int, default=50, help="shapes per n")
    p.add_argument("--full", action="store_true", help="enumerate all shapes")
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--val", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--plot", action="store_true", help="ASCII eCDF charts")
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser("fig6", help="Experiment B: execution time (Fig. 6)")
    p.add_argument("--shapes", type=int, default=100)
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--val", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--plot", action="store_true", help="ASCII eCDF chart")
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("table1", help="print the kernel database (Table I)")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("analyze", help="markdown compilation report for a chain")
    p.add_argument("--file", help="path to a program in the Fig. 2 language")
    p.add_argument("--source", help="inline program source")
    p.add_argument("--train", type=int, default=500)
    p.add_argument("--instances", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pygen", help="emit standalone Python generated code")
    p.add_argument("--file", help="path to a program in the Fig. 2 language")
    p.add_argument("--source", help="inline program source")
    p.add_argument("--expand", type=int, default=0)
    p.add_argument("--train", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pygen)

    p = sub.add_parser("header", help="emit gmc_kernels.hpp")
    p.set_defaults(func=_cmd_header)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs import tracing_to

        with tracing_to(trace_path):
            status = args.func(args)
        print(f"wrote trace to {trace_path}", file=sys.stderr)
        return status
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

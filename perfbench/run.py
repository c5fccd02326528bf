"""The repository benchmark: one command, three workloads, one JSON line.

    python3 perfbench/run.py --workload fig6-real --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` is the separate traced run that times calls into
each layer and reports the per-layer metrics.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the full
result (provenance, asserted rows, span summary) goes to
``.bench_results/<workload>-seed<n>-trace<t>.json`` in the checkout.
See ``perfbench/METRICS.md`` for what each metric measures and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402  (no numpy yet: threads are pinned first)

benchlib.pin_threads()

WORKLOADS = {
    "fig6-real": "fig6_real",
    "dispatch-hot": "dispatch_hot",
    "serve-mixed": "serve_mixed",
}

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = (
    "setup_s",
    "peak_rss_mb",
    "latency_ms.p50",
    "latency_ms.p90",
    "latency_ms.p99",
    "throughput_per_s",
    "time_penalty.geomean",
    "time_penalty.p90",
    "flop_penalty.mean",
    "flop_penalty.max",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds: scratch directories are removed and
    # the serve-mixed server process is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    benchlib.use_source_tree()
    import importlib

    workload = importlib.import_module(WORKLOADS[args.workload])
    scratch = benchlib.Scratch()
    started = time.time()
    try:
        if args.trace:
            import layers

            outcome = layers.traced_run(workload, args.seed, args.seconds, scratch)
            names = layers.PER_LAYER
        else:
            outcome = workload.run(args.seed, args.seconds, scratch)
            names = END_TO_END
        provenance = benchlib.provenance()
    finally:
        scratch.close()
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise SystemExit(f"perfbench: {args.workload} did not report {missing}")
    metrics = {
        name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
        for name in names
    }
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise SystemExit(f"perfbench: non-finite metrics {bad}")
    correct = outcome.failed == 0 and all(outcome.rows.values())
    result = {
        "correct": correct,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "provenance": provenance,
        "rows": outcome.rows,
        "notes": outcome.notes,
        **result,
    }
    out_dir = benchlib.ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    better = {
        metric["name"]: metric["better"]
        for key in ("end_to_end", "per_layer")
        for metric in json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())[key]
    }
    print(json.dumps({"provenance": provenance, "rows": outcome.rows}, default=str))
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']:8s} {better[name]} is better")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``serve-mixed``: the serving data plane under a closed-loop request mix.

An ``AsyncCompileServer`` runs in its own process (:mod:`serve_child`) on
the service's default ``reference`` backend.  This process is the load
generator: two connections (one per core), closed loop, every request line
pre-encoded during setup so the client does almost no work while timed.

Mix: 55% ``execute`` of small operands (n 4-64, base64 npy), 15%
``execute`` of large operands (inner sizes 192-512) through shared
memory, 15% ``dispatch`` (sizes only), 10% ``compile`` of hot sources (a
session-cache hit) and 5% ``ping``.  Wire decode dominates the small
requests; shm zero-copy and the kernels dominate the large ones — not the
layers ``dispatch-hot`` leans on.
"""

from __future__ import annotations

import json
import select
import socket
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

from repro.compiler.session import CompilerSession
from repro.ir.parser import parse_chain
from repro.runtime.executor import naive_evaluate
from repro.serve import encode_array
from repro.serve import shm as shm_transport
from repro.serve.backends import DiskBackend
from repro.serve.frontend import decode_array

import benchlib
import catalog
import paper
from benchlib import MB, MS, PER_S, RATIO, Outcome

CONNECTIONS = 2
SMALL = (4, 64)
LARGE = (192, 512)
LARGE_EDGE = (8, 32)
#: Chains with a rectangular outer shape (large operands, small result).
LARGE_CHAINS = ("schur", "quickstart", "kalman", "triangular")
SMALL_PER_CHAIN = 8
LARGE_PER_CHAIN = 2
DISPATCH_PER_CHAIN = 6
MIX = {"execute": 0.55, "execute_shm": 0.15, "dispatch": 0.15, "compile": 0.10, "ping": 0.05}
#: Pre-drawn request sequence (cycled when a run outlasts it).
SEQUENCE = 1 << 19
FLOP_SAMPLES = 128
TIME_SAMPLES = 8
TIME_REPLAYS = 15
SETUPS = 3
#: Seconds to wait for the server process to answer a command.
SERVER_TIMEOUT = 60.0


def make_inputs(seed: int) -> dict:
    """Requests as data: the suite's sources and request sizes; from the
    seed the operand values and the request sequence."""
    names = list(catalog.EXAMPLES)
    sources = [catalog.EXAMPLES[name] for name in names]
    chains = [parse_chain(source) for source in sources]
    suite = catalog.suite_rng(10)
    rng = np.random.default_rng([seed, 10])
    requests = []  # dicts: kind, chain index, sizes, arrays, reference
    for index, chain in enumerate(chains):
        regimes = [("execute", SMALL_PER_CHAIN, SMALL, None)]
        if names[index] in LARGE_CHAINS:
            regimes.append(("execute_shm", LARGE_PER_CHAIN, LARGE, LARGE_EDGE))
        for kind, count, (low, high), edge in regimes:
            for sizes in catalog.sample_sizes(chain, count, suite, low, high, edge=edge):
                arrays = catalog.instance_arrays(chain, sizes, rng)
                requests.append({
                    "kind": kind,
                    "chain": index,
                    "sizes": [int(s) for s in sizes],
                    "arrays": arrays,
                    "reference": naive_evaluate(chain, arrays),
                })
        for sizes in catalog.sample_sizes(chain, DISPATCH_PER_CHAIN, suite, SMALL[0], LARGE[1]):
            requests.append({"kind": "dispatch", "chain": index, "sizes": [int(s) for s in sizes]})
        requests.append({"kind": "compile", "chain": index})
    requests.append({"kind": "ping"})
    by_kind: dict[str, list[int]] = {}
    for j, request in enumerate(requests):
        by_kind.setdefault(request["kind"], []).append(j)
    kinds = list(MIX)
    drawn = rng.choice(len(kinds), size=SEQUENCE, p=[MIX[k] for k in kinds])
    sequence = np.empty(SEQUENCE, dtype=np.int32)
    for k, kind in enumerate(kinds):
        where = np.flatnonzero(drawn == k)
        sequence[where] = rng.choice(by_kind[kind], size=where.size)
    # The expected answers come from an identical local compilation.
    local = CompilerSession()
    programs = [local.compile(source) for source in sources]
    return {"names": names, "sources": sources, "programs": programs, "requests": requests, "sequence": sequence, "seed": seed}


class Server:
    """The server subprocess and its command channel."""

    def __init__(self, cache_dir: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "serve_child.py"), cache_dir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=benchlib.source_env(),
            cwd=benchlib.ROOT,
            text=True,
        )
        self.port = self._answer()["port"]

    def _answer(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError("serve-mixed: the server process did not answer")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._answer()

    def stop(self) -> int:
        """Quit; returns the server's peak RSS in KiB."""
        try:
            peak = self.command("quit")["peak_rss_kb"]
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.kill()
            self.proc.stdout.close()
        return peak

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def roundtrip(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.reader.readline()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Setup:
    """A fresh server: cold compiles, disk-tier reload, encoded lines,
    one verified warm pass over every distinct request."""

    def __init__(self, inputs: dict, scratch: benchlib.Scratch, outcome: Outcome, patches=None):
        cache_dir = scratch.fresh("serve-cache")
        self.server = Server(cache_dir)
        self.segments: list = []
        self.connections: list[Connection] = []
        try:
            if patches is not None:
                self.server.command("trace setup")
            self._prepare(inputs, cache_dir, outcome, patches)
            if patches is not None:
                self.server.command("trace off")
        except BaseException:
            self.close()
            raise

    def _prepare(self, inputs: dict, cache_dir: str, outcome: Outcome, patches) -> None:
        self.connections = [Connection(self.server.port) for _ in range(CONNECTIONS)]
        first = self.connections[0]
        handles = []
        for source in inputs["sources"]:
            line = (json.dumps({"op": "compile", "source": source}) + "\n").encode()
            response = json.loads(first.roundtrip(line))
            if not response.get("ok"):
                raise RuntimeError(f"serve-mixed: cold compile failed: {response}")
            handles.append(response["handle"])
        if patches is not None:
            patches.install()
        try:
            replica = CompilerSession(cache_backend=DiskBackend(cache_dir))
            for source in inputs["sources"]:
                replica.compile(source)
        finally:
            if patches is not None:
                patches.uninstall()
        self.lines = [encode_request(request, handles, inputs["sources"], self.segments) for request in inputs["requests"]]
        for j, line in enumerate(self.lines):
            outcome.attempted += 1
            if not check(inputs, j, first.roundtrip(line)):
                outcome.failed += 1

    def stats(self) -> dict:
        return json.loads(self.connections[0].roundtrip(b'{"op": "stats"}\n'))

    def close(self) -> int:
        """Tear down; returns the server's peak RSS in KiB (0 if lost)."""
        for connection in self.connections:
            connection.close()
        # Unlink request segments before the server exits: its resource
        # tracker would otherwise unlink (and warn about) them.
        for segment in self.segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self.segments = []
        try:
            return self.server.stop()
        except Exception:
            self.server.kill()
            return 0


def encode_request(request: dict, handles: list, sources: list, segments: list) -> bytes:
    """One request as its wire line; shm operands are copied into fresh
    segments, appended to ``segments`` (the caller unlinks them)."""
    kind = request["kind"]
    if kind == "ping":
        payload = {"op": "ping"}
    elif kind == "compile":
        payload = {"op": "compile", "source": sources[request["chain"]]}
    elif kind == "dispatch":
        payload = {"op": "dispatch", "handle": handles[request["chain"]], "sizes": request["sizes"]}
    elif kind == "execute":
        payload = {
            "op": "execute",
            "handle": handles[request["chain"]],
            "arrays": [encode_array(a, "npy") for a in request["arrays"]],
        }
    else:
        arrays = []
        for array in request["arrays"]:
            segment_payload, segment = shm_transport.create_segment_payload(array)
            segments.append(segment)
            arrays.append(segment_payload)
        payload = {
            "op": "execute",
            "handle": handles[request["chain"]],
            "arrays": arrays,
            "result_encoding": "npy",
        }
    return (json.dumps(payload) + "\n").encode()


def check(inputs: dict, j: int, raw: bytes) -> bool:
    """One response against the expected answer of request ``j``."""
    try:
        response = json.loads(raw)
    except ValueError:
        return False
    if not response.get("ok"):
        return False
    request = inputs["requests"][j]
    kind = request["kind"]
    if kind == "ping":
        return response.get("pong") is True
    program = inputs["programs"][request["chain"]]
    if kind == "compile":
        return response.get("variants") == [v.name for v in program.variants]
    if kind == "dispatch":
        return response.get("variant") == program.select(request["sizes"])[0].name
    result = decode_array(response["result"])
    return benchlib.results_match(program.chain, request["arrays"], result, request["reference"])


def load(setup: Setup, inputs: dict, seconds: float, offset: int = 0):
    """Closed loop over ``CONNECTIONS`` client threads; returns request
    latencies (s), request indices, wall seconds, the next offset, and
    the last raw response per distinct request."""
    lines = setup.lines
    sequence = inputs["sequence"]
    counter = iter(range(offset, 1 << 62))
    lock = threading.Lock()
    latencies = [array("d") for _ in setup.connections]
    indices = [array("i") for _ in setup.connections]
    last: dict[int, bytes] = {}
    errors = [0] * len(setup.connections)
    deadline = time.perf_counter() + seconds

    def client(slot: int) -> None:
        connection = setup.connections[slot]
        clock = time.perf_counter
        times, seen = latencies[slot], indices[slot]
        while clock() < deadline:
            with lock:
                position = next(counter)
            j = int(sequence[position % SEQUENCE])
            start = clock()
            try:
                raw = connection.roundtrip(lines[j])
            except OSError:
                errors[slot] += 1
                return
            times.append(clock() - start)
            seen.append(j)
            last[j] = raw
            if not raw.startswith(b'{"ok": true'):
                errors[slot] += 1

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    with lock:
        reached = next(counter)
    times = np.concatenate([np.frombuffer(t, dtype=np.float64) for t in latencies])
    seen = np.concatenate([np.frombuffer(s, dtype=np.int32) for s in indices])
    return times, seen, wall, reached, last, sum(errors)


def penalties(inputs: dict) -> tuple[np.ndarray, np.ndarray]:
    """FLOP and time penalties over fresh samples of the request sizes,
    on the server's backend."""
    rng = np.random.default_rng([inputs["seed"], 11])
    flop, timed = [], []
    for name, program in zip(inputs["names"], inputs["programs"]):
        chain = program.chain
        regimes = [(SMALL, None)] + ([(LARGE, LARGE_EDGE)] if name in LARGE_CHAINS else [])
        for (low, high), edge in regimes:
            flop.append(paper.flop_penalties(program.dispatcher, catalog.sample_sizes(chain, FLOP_SAMPLES, rng, low, high, edge=edge)))
            count = TIME_SAMPLES if edge is None else LARGE_PER_CHAIN
            for sizes in catalog.sample_sizes(chain, count, rng, low, high, edge=edge):
                sizes = tuple(int(s) for s in sizes)
                dispatched, _ = program.dispatcher.select_many([sizes])[0]
                candidates = paper.oracle_candidates(chain, sizes, dispatched, program.variants)
                arrays = catalog.instance_arrays(chain, sizes, rng)
                timed.append(paper.time_penalty(candidates, sizes, arrays, "reference", TIME_REPLAYS))
    return np.concatenate(flop), np.asarray(timed)


def stop_resource_tracker() -> None:
    """Stop (and reap) this process's shared-memory resource tracker."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def wire_bytes(stats: dict) -> float:
    counters = stats.get("obs", {}).get("counters", {})
    return float(sum(v for k, v in counters.items() if k.startswith("serve.wire_bytes")))


def verify(inputs: dict, last: dict, outcome: Outcome) -> None:
    for j, raw in last.items():
        if not check(inputs, j, raw):
            outcome.failed += 1


def run(seed: int, seconds: float, scratch: benchlib.Scratch) -> Outcome:
    inputs = make_inputs(seed)
    outcome = Outcome()
    setup_s = []
    setup = None
    try:
        for round_ in range(SETUPS):
            start = time.perf_counter()
            setup = Setup(inputs, scratch, outcome)
            setup_s.append(time.perf_counter() - start)
            if round_ < SETUPS - 1:
                setup.close()
                setup = None
        before = setup.stats()
        times, seen, wall, _, last, errors = load(setup, inputs, seconds)
        after = setup.stats()
        peak_kb = setup.close()
        setup = None
    finally:
        if setup is not None:
            setup.close()
        stop_resource_tracker()
    outcome.attempted += times.size
    outcome.failed += errors
    verify(inputs, last, outcome)
    flop, timed = penalties(inputs)

    outcome.put("setup_s", benchlib.median(setup_s), "s")
    outcome.put("peak_rss_mb", peak_kb / 1024, MB)
    outcome.put("latency_ms.p50", 1e3 * benchlib.quantile(times, 0.5), MS)
    outcome.put("latency_ms.p90", 1e3 * benchlib.quantile(times, 0.9), MS)
    outcome.put("latency_ms.p99", 1e3 * benchlib.quantile(times, 0.99), MS)
    outcome.put("throughput_per_s", times.size / wall, PER_S)
    outcome.put("time_penalty.geomean", benchlib.geomean(timed[:, 0]), RATIO)
    outcome.put("time_penalty.p90", benchlib.quantile(timed[:, 0], 0.9), RATIO)
    outcome.put("flop_penalty.mean", float(flop.mean()), RATIO)
    outcome.put("flop_penalty.max", float(flop.max()), RATIO)
    kind_of = np.asarray([list(MIX).index(r["kind"]) for r in inputs["requests"]])[seen]
    outcome.notes["per_kind_ms_p50"] = {
        kind: 1e3 * benchlib.median(times[kind_of == k]) for k, kind in enumerate(MIX) if np.any(kind_of == k)
    }
    outcome.notes["server_stats"] = {
        "wire_bytes_per_request": (wire_bytes(after) - wire_bytes(before)) / max(1, times.size),
        "service": after.get("service"),
        "execution": after.get("execution"),
    }
    outcome.notes["samples"] = {"requests": int(times.size), "distinct_requests": len(inputs["requests"]), "setups": SETUPS}
    return outcome


def variants_of(responses: dict) -> dict:
    """Dispatched variant name per distinct request (None for ops without one)."""
    return {j: json.loads(raw).get("variant") for j, raw in responses.items()}


def traced(seed: int, seconds: float, scratch: benchlib.Scratch, recorder, patches) -> Outcome:
    import layers

    inputs = make_inputs(seed)
    outcome = Outcome()
    setup = None
    try:
        setup = Setup(inputs, scratch, outcome, patches)
        untraced, seen_a, _, reached, last_a, errors_a = load(setup, inputs, seconds / 2)
        before = setup.stats()
        setup.server.command("trace run")
        times, seen, _, _, last, errors = load(setup, inputs, seconds / 2, reached)
        setup.server.command("trace off")
        after = setup.stats()
        server = setup.server.command("report")
        setup.close()
        setup = None
    finally:
        if setup is not None:
            setup.close()
        stop_resource_tracker()
    outcome.attempted += untraced.size + times.size
    outcome.failed += errors_a + errors
    verify(inputs, last, outcome)

    layers.compiler_metrics(outcome, server)
    layers.disk_load_metric(outcome, recorder.summary())
    layers.runtime_metrics(outcome, server)
    layers.put(
        outcome,
        "runtime.unattributed_us",
        layers.stat(server, "run", "serve.execute") - layers.stat(server, "run", "runtime.run"),
    )
    layers.put(outcome, "compiler.cache.mem_hit_ms", layers.stat(server, "run", "serve.compile") / 1e3)
    layers.put(outcome, "serve.decode_us", layers.stat(server, "run", "serve.decode", "self_p50_us"))
    layers.put(outcome, "serve.shm_open_us", layers.stat(server, "run", "serve.shm_open"))
    layers.put(outcome, "serve.encode_us", layers.stat(server, "run", "serve.encode"))
    layers.put(outcome, "serve.line_self_us", layers.stat(server, "run", "serve.line", "nested_self_p50_us"))
    layers.put(outcome, "serve.execute_us", layers.stat(server, "run", "serve.execute"))
    layers.put(outcome, "serve.dispatch_us", layers.stat(server, "run", "serve.dispatch"))
    layers.put(outcome, "serve.wire_bytes_per_req", (wire_bytes(after) - wire_bytes(before)) / max(1, times.size))
    layers.put(
        outcome,
        "serve.unattributed_us",
        1e6 * benchlib.median(times) - layers.stat(server, "run", "serve.line"),
    )
    flops = np.zeros(len(inputs["requests"]))
    for j, request in enumerate(inputs["requests"]):
        if request["kind"].startswith("execute"):
            flops[j] = inputs["programs"][request["chain"]].select(request["sizes"])[1]
    replay_total = layers.stat(server, "run", "runtime.replay", "total_us") / 1e6
    served = np.bincount(seen, minlength=flops.size)
    layers.put(outcome, "kernels.gflops", float(flops @ served) / replay_total / 1e9 if replay_total else 0.0)
    layers.overhead(outcome, benchlib.median(untraced), benchlib.median(times))
    a, b = variants_of(last_a), variants_of(last)
    layers.put(outcome, "bench.traced_variants_identical", float(all(a[j] == b[j] for j in a.keys() & b.keys())))
    _, timed = penalties(inputs)
    layers.put(outcome, "baselines.L_time_penalty.geomean", benchlib.geomean(timed[:, 1]))
    layers.put(outcome, "baselines.arma_flop_penalty.mean", paper.arma_penalty(inputs["programs"], seed, SMALL))
    outcome.notes["server_spans"] = server
    return outcome

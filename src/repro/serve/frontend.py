"""Stdlib-only JSON-lines front end for the compilation service.

One request per line, one JSON response per line — a protocol thin enough
to drive with ``echo`` + a pipe, a TCP socket, or any language's stdlib.

Request schema (``id`` is optional and echoed back verbatim):

``{"op": "compile", "source": "<Fig. 2 program>", "options": {...}, "id": 1}``
    Compile a chain program.  ``options`` are the
    :class:`~repro.compiler.pipeline.CompileOptions` knobs (``expand_by``,
    ``num_training_instances``, ``size_range``, ``objective``, ``seed``,
    ``simplify``, ``variant_space``, ``max_variants`` — the last two pick
    the candidate-generation strategy, letting clients compile long chains
    through the DP-seeded space — and ``backend``, the execution backend
    ``execute`` runs under: ``"c"`` (the default, falling back to
    ``"blas"`` without a C toolchain), ``"blas"``, or ``"reference"``).
    Response carries a ``handle`` (the content address of the
    compilation) plus the selected variant names and symbolic costs.

``{"op": "dispatch", "handle": "...", "sizes": [500, 80, 500], "id": 2}``
    Run-time dispatch for one instance: answers which variant the
    generated dispatch function would pick, and its estimated cost.
    ``source`` may be supplied instead of ``handle`` (compile-if-needed).

``{"op": "execute", "handle": "...", "arrays": [...], "id": 5}``
    Wire-level execution against a previously compiled handle: the client
    ships one stored array per chain operand, the server loads the
    compiled artifact, dispatches on the inferred sizes, runs the chosen
    variant, and ships the result back.  Each array is a nested JSON
    list, an ``{"encoding": "npy", "data": "<base64>"}`` object (base64
    of the standard ``.npy`` byte stream), or — for same-host clients —
    an ``{"encoding": "shm", "name", "shape", "dtype"}`` object naming a
    :mod:`multiprocessing.shared_memory` segment the server maps and
    executes on directly, zero-copy (:mod:`repro.serve.shm`).  The
    response's ``result`` uses the same encoding as the first request
    array (override with ``"result_encoding": "shm" | "npy" | "list"``);
    a ``result_encoding`` of ``"shm"`` silently degrades to ``"npy"``
    when shared memory is unavailable — the payload always carries its
    actual encoding.

``{"op": "release", "name": "psm_...", "id": 7}``
    Free a server-created response segment eagerly (the well-behaved
    client's half of the shm ownership protocol; the TTL reaper covers
    crashed clients).  Answers ``{"released": true|false}``.

``{"op": "stats", "id": 3}``
    Service metrics (queue depth, coalesce rate, latency percentiles),
    session cache counters, ``execution`` (per-backend executed instance
    counts over the live handle registry), and ``transports`` — the
    operand encodings this server can decode.  The unified ``obs``
    snapshot additionally carries the ``serve.wire_bytes`` counters and
    the ``serve.connections`` gauge the front ends maintain.

``{"op": "metrics", "id": 6}``
    The process-wide :mod:`repro.obs` registry rendered as Prometheus
    text exposition format (the same body ``repro serve --metrics-port``
    serves over HTTP), returned as the ``"text"`` field.

``{"op": "warm", "id": 4}``
    Re-run cache warm-up from the session's backend; answers the count.

Responses are ``{"id": ..., "ok": true, ...}`` or
``{"id": ..., "ok": false, "error": "...", "error_type": "..."}``.  Malformed
JSON and unknown ops are answered in-band, never by closing the stream.

:func:`serve_stream` drives the protocol over file objects (the
``repro serve`` stdin/stdout mode).  :mod:`repro.serve.aserve` speaks it
over TCP (``repro serve --port N``) and HTTP (``--http-port``) from one
asyncio event loop, every connection sharing one :class:`CompileService`.
"""

from __future__ import annotations

import base64
import io
import json
import math
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import IO, TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.serve import shm as shm_transport
from repro.serve.metrics import connection_closed, connection_opened, record_wire
from repro.serve.service import CompileService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.chain import Chain

#: Protocol revision, reported by ``stats`` responses.  2 added the
#: wire-level ``execute`` op (handle + npy/base64 arrays); 3 added the
#: ``metrics`` op (Prometheus text) and the unified ``obs`` snapshot in
#: ``stats``; 4 added the zero-copy ``shm`` operand encoding, the
#: ``release`` op, and the ``transports`` negotiation field.
PROTOCOL_VERSION = 4

#: Bound on one protocol line (requests *and* responses).  A base64 npy
#: 1024x1024 double is ~11 MiB; 64 MiB leaves room for several large
#: operands per request while stopping a hostile or broken client from
#: ballooning a connection buffer without bound.
DEFAULT_MAX_LINE_BYTES = 64 * 1024 * 1024


def transports() -> list[str]:
    """Operand encodings this server can decode, preference-ordered.

    The negotiation half of the shm protocol: a client reads this from
    ``stats`` (or ``ping``) once per connection and picks the fastest
    transport both sides support, falling back down the list.
    """
    names = ["list", "npy"]
    if shm_transport.shm_available():
        names.append("shm")
    return names


# -- array codec (the execute op's payload format) ---------------------------

def as_wire_array(array: np.ndarray) -> np.ndarray:
    """``array`` ready for raw-bytes encoding, copying only when forced.

    C- and F-contiguous float arrays pass through untouched (the npy
    header records the storage order, so no re-layout is needed); only
    genuinely strided views pay a contiguity copy.  The no-copy guarantee
    is load-bearing for the serve data plane — a 1024x1024 double is 8 MiB
    of memcpy per avoidable copy — and regression-tested via
    ``np.shares_memory``.
    """
    array = np.asarray(array)
    if array.flags.c_contiguous or array.flags.f_contiguous:
        return array
    return np.ascontiguousarray(array)


def array_to_npy_bytes(array: np.ndarray) -> bytes:
    """The standard ``.npy`` byte stream, without the ``BytesIO`` detour.

    ``np.save`` writes header + data into a growing ``BytesIO`` and
    ``getvalue()`` copies the lot back out; here the (tiny) header is
    rendered once and joined directly with the array's existing buffer —
    one copy total, none for the header round-trip.
    """
    array = as_wire_array(array)
    header = _npy_header(array)
    if array.size == 0:  # memoryview cannot cast a zero-length shape
        return header
    data = array if array.flags.c_contiguous else array.T
    return b"".join((header, memoryview(data).cast("B")))


#: numpy's header layout constants: spare digits for the growth axis,
#: the alignment of the data start, and the magic + v1.0 length bytes.
_NPY_GROWTH_DIGITS = np.lib.format.GROWTH_AXIS_MAX_DIGITS
_NPY_ALIGN = np.lib.format.ARRAY_ALIGN
_NPY_PREFIX = len(np.lib.format.MAGIC_PREFIX) + 2 + 2


def _npy_header(array: np.ndarray) -> bytes:
    """The format 1.0 header ``np.save`` writes for a contiguous array,
    rendered by one format string instead of numpy's dict-and-``BytesIO``
    writer (which costs most of a small array's encode).

    Byte-identical to numpy's: the dict's keys sorted, the spare spaces
    numpy leaves for the growth axis (the last for Fortran order, else
    the first) to be rewritten in place, then space padding and a newline
    to a multiple of ``ARRAY_ALIGN`` bytes.
    """
    dtype = array.dtype
    descr = dtype.str if dtype.names is None else np.lib.format.dtype_to_descr(dtype)
    fortran = not array.flags.c_contiguous
    shape = array.shape
    text = "{'descr': %r, 'fortran_order': %r, 'shape': %r, }" % (
        descr,
        fortran,
        shape,
    )
    if shape:
        text += " " * (_NPY_GROWTH_DIGITS - len(repr(shape[-1 if fortran else 0])))
    length = len(text) + 1  # the closing newline
    length += _NPY_ALIGN - (_NPY_PREFIX + length) % _NPY_ALIGN
    return b"\x93NUMPY\x01\x00%s%s\n" % (
        length.to_bytes(2, "little"),
        text.ljust(length - 1).encode("latin1"),
    )


#: The header ``np.save`` writes (format 1.0 and 2.0): one dict literal
#: with the keys in this order, then space padding and a newline.
_NPY_HEADER = re.compile(
    rb"\{'descr': '([^'\\]+)', 'fortran_order': (True|False), "
    rb"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n"
)
#: Width of the little-endian header length, by format version bytes.
_NPY_LENGTH_WIDTH = {b"\x01\x00": 2, b"\x02\x00": 4}


def npy_bytes_to_array(raw: bytes) -> np.ndarray:
    """Decode an ``.npy`` byte stream as a zero-copy read-only view.

    The header ``np.save`` writes is parsed by one regex: numpy's own
    reader runs ``ast.literal_eval``, which compiles the header as Python
    source on every call and costs more than the kernels of a small
    execute.  The returned array aliases ``raw`` (kernels only
    read operands, so a read-only view feeds straight into execution).
    Any other header (format 3.0, structured dtypes, hand-written
    streams) goes through ``np.load(allow_pickle=False)``, so a stream
    decodes here exactly when ``np.load`` accepts it; pickled payloads
    are rejected on both paths.
    """
    if raw[:6] != np.lib.format.MAGIC_PREFIX:
        raise ValueError("not an .npy stream (bad magic)")
    width = _NPY_LENGTH_WIDTH.get(raw[6:8])
    match = None
    if width is not None:
        start = 8 + width
        end = start + int.from_bytes(raw[8:start], "little")
        if end <= len(raw):
            match = _NPY_HEADER.fullmatch(raw, start, end)
    if match is None:
        return np.load(io.BytesIO(raw), allow_pickle=False)
    descr, fortran, dims = match.groups()
    dtype = np.dtype(descr.decode("ascii"))
    if dtype.hasobject:
        raise ValueError("object arrays cannot be decoded (allow_pickle=False)")
    shape = tuple(int(d) for d in dims.split(b",") if d)
    array = np.frombuffer(raw, dtype=dtype, count=math.prod(shape), offset=end)
    return array.reshape(shape, order="F" if fortran == b"True" else "C")


def encode_array(
    array: np.ndarray,
    encoding: str = "npy",
    *,
    reaper: Optional[shm_transport.SegmentReaper] = None,
) -> object:
    """Encode one array for the JSON-lines wire.

    ``"npy"`` wraps the standard ``numpy.save`` byte stream in base64 —
    compact, dtype/shape-exact, loadable by any numpy.  ``"list"`` is the
    nested-list form for hand-written clients.  ``"shm"`` copies the
    array into a fresh shared-memory segment and ships only its name
    (same-host zero-copy; tracked by ``reaper`` — the server's TTL reaper
    by default — so orphans cannot leak); it degrades to ``"npy"`` when
    shared memory is unavailable or segment creation fails.
    """
    array = np.asarray(array)
    if encoding == "list":
        return array.tolist()
    if encoding == "shm":
        if shm_transport.shm_available():
            tracker = reaper if reaper is not None else shm_transport.default_reaper()
            try:
                payload, _ = shm_transport.create_segment_payload(
                    array, reaper=tracker
                )
            except Exception:
                pass  # degrade to npy below
            else:
                tracker.reap()
                return payload
        encoding = "npy"
    if encoding == "npy":
        return {
            "encoding": "npy",
            "data": base64.b64encode(array_to_npy_bytes(array)).decode("ascii"),
        }
    raise ValueError(
        f"unknown array encoding {encoding!r}; use 'npy', 'list', or 'shm'"
    )


def decode_operand(payload: object) -> tuple[np.ndarray, Optional[Callable[[], None]]]:
    """Decode one wire array zero-copy; returns ``(array, closer)``.

    The execute hot path: ``npy`` payloads decode as read-only views over
    the base64-decoded bytes, ``shm`` payloads map the named segment
    directly.  ``closer`` (when not ``None``) must be called once the
    arrays are no longer in use — it detaches the shm mapping.
    """
    if isinstance(payload, (list, tuple)):
        return np.asarray(payload, dtype=np.float64), None
    if isinstance(payload, dict):
        encoding = payload.get("encoding", "npy")
        data = payload.get("data")
        if encoding == "list":
            return np.asarray(data, dtype=np.float64), None
        if encoding == "npy":
            if not isinstance(data, str):
                raise ValueError("'npy' array payload needs base64 string 'data'")
            try:
                raw = base64.b64decode(data, validate=True)
                array = npy_bytes_to_array(raw)
            except Exception as exc:
                raise ValueError(f"undecodable npy array payload: {exc}") from exc
            if array.dtype != np.float64:
                array = np.asarray(array, dtype=np.float64)
            return array, None
        if encoding == "shm":
            if not shm_transport.shm_available():
                raise ValueError(
                    "shm operand transport is unavailable on this host; "
                    "re-send as 'npy'"
                )
            view, segment = shm_transport.open_segment(payload)
            if view.dtype != np.float64:
                array = np.asarray(view, dtype=np.float64)
                segment.close()
                return array, None
            return view, segment.close
        raise ValueError(f"unknown array encoding {encoding!r}")
    raise ValueError(
        "each array must be a nested JSON list, an "
        '{"encoding": "npy", "data": "<base64>"} object, or an '
        '{"encoding": "shm", "name": ...} object'
    )


def decode_array(payload: object) -> np.ndarray:
    """Decode one wire array into a privately-owned ndarray.

    The client-side convenience: shm payloads are copied out and the
    mapping detached, so the returned array never aliases a segment the
    peer may unlink.  Server-side execution uses :func:`decode_operand`
    (zero-copy, explicit lifetime) instead.
    """
    array, closer = decode_operand(payload)
    if closer is not None:
        try:
            return np.array(array, dtype=np.float64, copy=True)
        finally:
            del array
            closer()
    return array


def _error(payload_id, message: str, exc: Optional[BaseException] = None) -> dict:
    response = {"id": payload_id, "ok": False, "error": message}
    if exc is not None:
        response["error_type"] = type(exc).__name__
    return response


#: Distinct source texts whose parsed chain stays memoized (LRU).
_PARSE_MEMO_CAPACITY = 256
_parse_memo: "OrderedDict[str, Chain]" = OrderedDict()
_parse_memo_lock = threading.Lock()


def parsed_chain(source: str) -> Optional["Chain"]:
    """The memoized chain of a source parsed before, else ``None``.

    Never parses: the asyncio front end calls it on its event loop, where
    a source the server has not seen must not be parsed.
    """
    with _parse_memo_lock:
        chain = _parse_memo.get(source)
        if chain is not None:
            _parse_memo.move_to_end(source)
        return chain


def _parse_single_chain(source: str) -> "Chain":
    """A Fig. 2 program's single chain (the serving unit of compilation).

    Memoized per source text in a bounded LRU: a ``Chain`` is frozen, so
    every request for the text shares one.  Parse errors are not memoized.
    """
    chain = parsed_chain(source)
    if chain is not None:
        return chain
    from repro.errors import ParseError
    from repro.ir.parser import parse_program

    program = parse_program(source)
    terms = program.expression.terms
    if len(terms) > 1 or terms[0].coefficient != 1.0:
        raise ParseError(
            "the serve protocol compiles one chain per request; "
            "split multi-term expressions into one request per term"
        )
    chain = program.chain
    with _parse_memo_lock:
        _parse_memo[source] = chain
        if len(_parse_memo) > _PARSE_MEMO_CAPACITY:
            _parse_memo.popitem(last=False)
    return chain


def _compile_options(payload: dict) -> dict:
    """A request's ``options`` as compile keyword overrides: a normalized
    copy, so the caller's payload reads the same however often it is
    answered."""
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object")
    options = dict(options)
    if options.get("size_range") is not None:
        options["size_range"] = tuple(options["size_range"])
    return options


def _submit_source(
    service: CompileService, source: str, registered_only: bool, **options
) -> Optional[Future]:
    """Submit ``source``'s chain to the service.

    With ``registered_only``, only a compilation the handle registry
    answers (:meth:`CompileService.submit_registered`) is submitted, and
    ``None`` comes back otherwise; a source not parsed before is then
    never parsed.
    """
    if not registered_only:
        return service.submit(_parse_single_chain(source), **options)
    chain = parsed_chain(source)
    return None if chain is None else service.submit_registered(chain, **options)


def _handle_compile(
    service: CompileService, payload: dict, registered_only: bool = False
) -> Optional[dict]:
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError("'compile' needs a non-empty string 'source'")
    options = _compile_options(payload)
    start = time.perf_counter()
    if payload.get("artifact"):
        if registered_only:
            return None
        # The artifact records this request's own compile (its options,
        # pass timings and timestamp), so it is rebound on a worker: a
        # batch submission never answers from the handle registry.
        future = service.submit_many([_parse_single_chain(source)], **options)[0]
    else:
        future = _submit_source(service, source, registered_only, **options)
        if future is None:
            return None
    generated = future.result()
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    response = {
        "ok": True,
        "handle": getattr(future, "handle", None),
        "chain": str(generated.chain),
        "variants": [variant.name for variant in generated.variants],
        "num_variants": len(generated.variants),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    if payload.get("artifact"):
        # Ship the full versioned CompiledProgram so the client can run
        # dispatch/execute offline (repro.api.load_program on the saved
        # object, no further server round-trips).
        response["artifact"] = json.loads(generated.to_program().dumps())
    return response


def _resolve_handle(
    service: CompileService, payload: dict, op: str, registered_only: bool = False
) -> Optional[str]:
    """The request's handle, compiling ``source`` first when supplied
    (``None`` when ``registered_only`` and the registry cannot answer)."""
    handle = payload.get("handle")
    if handle is not None:
        return handle
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError(f"{op!r} needs a 'handle' or a 'source'")
    future = _submit_source(service, source, registered_only)
    if future is None:
        return None
    future.result()
    return getattr(future, "handle", None)


def _handle_dispatch(
    service: CompileService, payload: dict, registered_only: bool = False
) -> Optional[dict]:
    sizes = payload.get("sizes")
    if not isinstance(sizes, (list, tuple)) or not sizes:
        raise ValueError("'dispatch' needs a non-empty 'sizes' array")
    handle = _resolve_handle(service, payload, "dispatch", registered_only)
    if handle is None:
        return None
    variant, cost = service.dispatch(handle, [int(s) for s in sizes])
    return {
        "ok": True,
        "handle": handle,
        "variant": variant.name,
        "cost": float(cost),
    }


def _result_encoding(payload: dict) -> str:
    encoding = payload.get("result_encoding")
    if encoding is not None:
        return encoding
    # Mirror the first request array's encoding: bare lists and
    # {"encoding": "list"} objects both answer in lists.
    first = payload["arrays"][0]
    if isinstance(first, list):
        return "list"
    if isinstance(first, dict):
        return first.get("encoding", "npy")
    return "npy"


def _handle_execute(
    service: CompileService, payload: dict, registered_only: bool = False
) -> Optional[dict]:
    arrays_payload = payload.get("arrays")
    if not isinstance(arrays_payload, list) or not arrays_payload:
        raise ValueError("'execute' needs a non-empty 'arrays' list")
    handle = _resolve_handle(service, payload, "execute", registered_only)
    if handle is None:
        return None
    if service.lookup(handle) is None:
        # Reject unknown/evicted handles before paying the payload decode
        # (base64 .npy operands can be large).
        raise KeyError(f"unknown compilation handle {handle!r}")
    arrays: list[np.ndarray] = []
    closers: list[Callable[[], None]] = []
    try:
        for entry in arrays_payload:
            array, closer = decode_operand(entry)
            arrays.append(array)
            if closer is not None:
                closers.append(closer)
        start = time.perf_counter()
        # One live runtime per handle: the registry's dispatcher memoizes
        # the (sizes -> variant, plan) decision, so repeated same-size
        # requests skip the cost sweep and replay a pre-compiled plan
        # (see CompileService.execute).
        sizes, variant, cost, result = service.execute(handle, arrays)
        elapsed_ms = 1e3 * (time.perf_counter() - start)
    finally:
        del arrays
        for closer in closers:
            closer()
    return {
        "ok": True,
        "handle": handle,
        "sizes": [int(s) for s in sizes],
        "variant": variant.name,
        "cost": float(cost),
        "result": encode_array(result, _result_encoding(payload)),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def _handle_release(payload: dict) -> dict:
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("'release' needs a string 'name'")
    reaper = shm_transport.default_reaper()
    released = reaper.release(name)
    reaper.reap()
    return {"ok": True, "released": released}


def handle_request(
    service: CompileService, payload: dict, registered_only: bool = False
) -> Optional[dict]:
    """Answer one decoded request object (never raises).

    With ``registered_only``, answer only what needs no compile and no
    wait on a worker: a ``compile`` (or a ``dispatch``/``execute`` by
    ``source``) whose source was parsed before and whose compilation the
    handle registry holds, or one rejected before it would compile (a
    malformed payload).  Anything else returns ``None`` with nothing
    parsed, queued or counted, to be answered without the flag.
    """
    payload_id = payload.get("id") if isinstance(payload, dict) else None
    if not isinstance(payload, dict):
        return _error(None, "request must be a JSON object")
    op = payload.get("op")
    if registered_only and op not in ("compile", "dispatch", "execute"):
        return None
    try:
        if op == "compile":
            response = _handle_compile(service, payload, registered_only)
        elif op == "dispatch":
            response = _handle_dispatch(service, payload, registered_only)
        elif op == "execute":
            response = _handle_execute(service, payload, registered_only)
        elif op == "release":
            response = _handle_release(payload)
        elif op == "stats":
            response = {
                "ok": True,
                "protocol_version": PROTOCOL_VERSION,
                "transports": transports(),
                **service.stats(),
            }
        elif op == "metrics":
            from repro.obs import render_prometheus

            response = {"ok": True, "text": render_prometheus()}
        elif op == "warm":
            response = {"ok": True, "warmed": service.session.warm()}
        elif op == "ping":
            response = {"ok": True, "pong": True, "transports": transports()}
        else:
            return _error(
                payload_id,
                f"unknown op {op!r}; expected "
                "compile|dispatch|execute|release|stats|metrics|warm|ping",
            )
    except KeyError as exc:
        return _error(payload_id, str(exc.args[0]) if exc.args else str(exc), exc)
    except Exception as exc:
        return _error(payload_id, str(exc), exc)
    if response is None:
        return None
    response["id"] = payload_id
    return response


def handle_line(service: CompileService, line: str) -> Optional[str]:
    """One protocol round: request line in, response line out.

    Returns ``None`` for blank lines (keep-alive friendly); malformed JSON
    is answered with an in-band error.
    """
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except ValueError as exc:
        return json.dumps(_error(None, f"malformed JSON request: {exc}", exc))
    return json.dumps(handle_request(service, payload))


def serve_stream(
    service: CompileService,
    infile: IO[str],
    outfile: IO[str],
    *,
    max_requests: Optional[int] = None,
) -> int:
    """Serve JSON-lines over file objects until EOF; returns requests served.

    Responses are flushed per line so a piped client can converse
    interactively.  ``max_requests`` stops after that many non-blank lines
    (used by tests and batch drivers).
    """
    served = 0
    connection_opened("stdio")
    try:
        for line in infile:
            record_wire("stdio", "in", len(line))
            response = handle_line(service, line)
            if response is None:
                continue
            record_wire("stdio", "out", len(response) + 1)
            outfile.write(response + "\n")
            outfile.flush()
            served += 1
            if max_requests is not None and served >= max_requests:
                break
    finally:
        connection_closed("stdio")
    return served


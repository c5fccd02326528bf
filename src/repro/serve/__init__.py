"""repro.serve — the compilation service layer.

Turns the :class:`~repro.compiler.session.CompilerSession` into a
long-lived concurrent server: a bounded request queue and worker pool with
request coalescing (:mod:`repro.serve.service`), pluggable shared cache
backends (:mod:`repro.serve.backends`), service metrics
(:mod:`repro.serve.metrics`), the stdlib-only JSON-lines protocol and its
stdin/stdout mode (:mod:`repro.serve.frontend`, the ``repro serve`` CLI
command), the asyncio TCP/HTTP front end multiplexing thousands of
connections on one event loop (:mod:`repro.serve.aserve`, ``repro serve
--port`` / ``--http-port``), and a zero-copy shared-memory operand
transport for same-host clients (:mod:`repro.serve.shm`).
"""

from repro.serve.aserve import AsyncCompileServer
from repro.serve.backends import (
    CacheBackend,
    DiskBackend,
    InMemoryBackend,
    TieredBackend,
    default_backend,
)
from repro.serve.frontend import (
    decode_array,
    encode_array,
    handle_request,
    serve_stream,
)
from repro.serve.metrics import ServiceMetrics, percentile
from repro.serve.service import CompileService, default_worker_count
from repro.serve.shm import SegmentReaper, shm_available

__all__ = [
    "CacheBackend",
    "DiskBackend",
    "InMemoryBackend",
    "TieredBackend",
    "default_backend",
    "AsyncCompileServer",
    "decode_array",
    "encode_array",
    "handle_request",
    "serve_stream",
    "ServiceMetrics",
    "percentile",
    "CompileService",
    "default_worker_count",
    "SegmentReaper",
    "shm_available",
]

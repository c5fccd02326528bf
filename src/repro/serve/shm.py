"""Zero-copy shared-memory operand transport for same-host clients.

Base64 ``.npy`` payloads move every operand through four copies (array ->
npy bytes -> base64 -> JSON line -> parse) — ~15 MB of JSON per 1024x1024
double.  For a client on the same host, the array bytes never need to
touch the socket at all: the client copies its operand into a
:mod:`multiprocessing.shared_memory` segment once and ships only the
segment *name* plus the dtype/shape header::

    {"encoding": "shm", "name": "psm_...", "shape": [1024, 1024],
     "dtype": "<f8"}

The server maps the segment ``PROT_READ`` and executes **directly on the
view** (no copy); the result travels back the same way, in a segment the
server creates and the client releases (explicitly via the ``release``
op, or by the TTL reaper if the client crashed).

Ownership protocol
------------------
* **Request segments** are created by the client.  The server only ever
  *maps* them (``shm_open`` + ``mmap``, never through ``SharedMemory``,
  so the resource tracker never hears of them) and unmaps after the
  request; the client unlinks its own segments once the response
  arrives.  A mapping stays valid if the name is unlinked under it.
* **Response segments** are created by the server and tracked in a
  :class:`SegmentReaper`.  A well-behaved client sends
  ``{"op": "release", "name": ...}`` after copying the result out; a
  crashed client's segments are unlinked when their TTL expires (the
  reaper runs opportunistically on every shm encode/release, so a busy
  server never accumulates orphans).

Everything degrades: :func:`shm_available` gates the whole transport, and
the serve front ends fall back to base64 npy whenever a segment cannot be
created or mapped — the payload carries its own ``encoding``, so clients
handle the fallback transparently.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
import time
from typing import Optional

import numpy as np

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "SegmentReaper",
    "create_segment_payload",
    "default_reaper",
    "open_segment",
    "read_segment_payload",
    "release_segment",
    "shm_available",
]

#: Orphaned response segments older than this are unlinked by the reaper.
DEFAULT_TTL_SECONDS = 120.0

#: Guard against absurd/hostile headers (shape products, segment sizes).
MAX_SEGMENT_BYTES = 1 << 34  # 16 GiB


def shm_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` works on this host."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            import _posixshmem  # noqa: F401 - the attach path
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


_AVAILABLE: Optional[bool] = None


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def _payload_spec(payload: dict) -> tuple[str, tuple[int, ...], np.dtype, int]:
    """``(name, shape, dtype, nbytes)`` of a validated segment payload."""
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("'shm' array payload needs a string 'name'")
    shape = payload.get("shape")
    if not isinstance(shape, (list, tuple)) or not all(
        isinstance(d, int) and d >= 0 for d in shape
    ):
        raise ValueError("'shm' array payload needs an integer 'shape' list")
    try:
        dtype = np.dtype(payload.get("dtype", "<f8"))
    except TypeError as exc:
        raise ValueError(f"undecodable shm dtype: {exc}") from exc
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > MAX_SEGMENT_BYTES:
        raise ValueError(
            f"shm payload claims {nbytes} bytes, over the "
            f"{MAX_SEGMENT_BYTES}-byte bound"
        )
    return name, tuple(shape), dtype, nbytes


def create_segment_payload(
    array: np.ndarray, *, reaper: Optional["SegmentReaper"] = None
) -> tuple[dict, "object"]:
    """Copy ``array`` into a fresh segment; returns ``(payload, segment)``.

    The one unavoidable copy of the transport (array -> segment); after it
    the bytes are never touched again until the peer maps them.  The
    caller owns the returned :class:`SharedMemory` unless a ``reaper`` is
    given, which then tracks it for TTL-based unlinking (the server's
    response-segment path).
    """
    shared_memory = _shared_memory()
    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(
        create=True, size=max(1, array.nbytes)
    )
    try:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        np.copyto(view, array)
        del view  # drop the buffer reference before any later close()
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    payload = {
        "encoding": "shm",
        "name": segment.name,
        "shape": list(array.shape),
        "dtype": array.dtype.str,
    }
    if reaper is not None:
        reaper.track(segment)
    return payload, segment


def _attach(name: str) -> mmap.mmap:
    """Map an existing segment ``PROT_READ`` without taking ownership.

    ``SharedMemory(name=...)`` registers the segment with the resource
    tracker before Python 3.13, and the tracker unlinks whatever is still
    registered when the process exits, so a server that only read a
    client's request segment would destroy it; unregistering at once
    costs two pipe writes to the tracker process per operand.  Opening
    the name directly never involves the tracker: the creator owns the
    name by construction.  The mapping outlives both the descriptor and
    any unlink of the name while it is in use.
    """
    import _posixshmem

    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY)
    try:
        return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)


def open_segment(payload: dict) -> tuple[np.ndarray, mmap.mmap]:
    """Map a segment payload; returns ``(read_only_view, mapping)``.

    Zero-copy: the view aliases the shared bytes.  The caller must drop
    the view before it calls ``mapping.close()``, which unmaps them; the
    name is never unlinked here (the creator owns it).
    """
    name, shape, dtype, nbytes = _payload_spec(payload)
    try:
        segment = _attach(name)
    except FileNotFoundError as exc:
        raise ValueError(f"unknown shm segment {name!r}") from exc
    size = len(segment)
    if size < nbytes:
        segment.close()
        raise ValueError(
            f"shm segment {name!r} holds {size} bytes, "
            f"payload claims {nbytes}"
        )
    view = np.ndarray(shape, dtype=dtype, buffer=segment)
    view.flags.writeable = False
    return view, segment


def read_segment_payload(payload: dict) -> np.ndarray:
    """Copy a segment payload out into a private array and detach.

    The client-side convenience for reading a *response* segment: the
    returned array owns its memory, so the segment can be released
    immediately afterwards.
    """
    view, segment = open_segment(payload)
    try:
        return np.array(view, dtype=view.dtype, copy=True)
    finally:
        del view
        segment.close()


def release_segment(name: str) -> bool:
    """Unlink a segment by name (client freeing its own request segment)."""
    shared_memory = _shared_memory()
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - lost the race
        return False
    return True


class SegmentReaper:
    """TTL-tracked ownership of server-created response segments.

    ``track`` registers a segment with a deadline; ``release`` unlinks one
    eagerly (the ``release`` op); ``reap`` unlinks everything past its
    deadline.  ``reap`` is invoked opportunistically by the serve front
    ends on every shm encode and release, so a crashed client's segments
    survive at most one TTL beyond the next shm activity — and
    :meth:`close` unlinks everything at server shutdown.
    """

    def __init__(self, ttl: float = DEFAULT_TTL_SECONDS):
        if ttl <= 0:
            raise ValueError("ttl must be > 0 seconds")
        self.ttl = float(ttl)
        self._lock = threading.Lock()
        self._segments: dict[str, tuple[object, float]] = {}

    def track(self, segment, *, ttl: Optional[float] = None) -> None:
        deadline = time.monotonic() + (self.ttl if ttl is None else ttl)
        with self._lock:
            self._segments[segment.name] = (segment, deadline)

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def release(self, name: str) -> bool:
        """Unlink one tracked segment now; False if unknown/already gone."""
        with self._lock:
            entry = self._segments.pop(name, None)
        if entry is None:
            return False
        self._unlink(entry[0])
        return True

    def reap(self, now: Optional[float] = None) -> int:
        """Unlink every segment past its deadline; returns the count."""
        now = time.monotonic() if now is None else now
        with self._lock:
            expired = [
                name
                for name, (_, deadline) in self._segments.items()
                if deadline <= now
            ]
            segments = [self._segments.pop(name)[0] for name in expired]
        for segment in segments:
            self._unlink(segment)
        return len(segments)

    def close(self) -> int:
        """Unlink everything still tracked (server shutdown)."""
        with self._lock:
            segments = [entry[0] for entry in self._segments.values()]
            self._segments.clear()
        for segment in segments:
            self._unlink(segment)
        return len(segments)

    @staticmethod
    def _unlink(segment) -> None:
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - peer beat us to it
            pass
        except Exception:  # pragma: no cover - platform quirks stay quiet
            pass


_DEFAULT_REAPER: Optional[SegmentReaper] = None
_DEFAULT_REAPER_LOCK = threading.Lock()


def default_reaper() -> SegmentReaper:
    """The process-wide reaper the serve front ends track responses in."""
    global _DEFAULT_REAPER
    with _DEFAULT_REAPER_LOCK:
        if _DEFAULT_REAPER is None:
            _DEFAULT_REAPER = SegmentReaper()
        return _DEFAULT_REAPER

"""The benchmark's own span recorder and the layer patches it installs.

Spans are recorded around calls into each layer's public functions from
outside the program: :meth:`Patches.install` swaps a layer function for a
thin wrapper, :meth:`Patches.uninstall` puts the original back, so an
untraced phase runs the unmodified code.  ``repro.obs`` tracing stays off throughout — it
would switch ``Dispatcher.run`` to its per-step timed replay, a different
program.

A span's parent is the innermost span open in the same context
(``contextvars``), so nesting follows threads and asyncio tasks alike.
Closed spans are folded into per-``(phase, name)`` arrays of durations and
self times (duration minus the time covered by child spans), held in
memory and summarized when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from array import array
from typing import Callable, Optional

import numpy as np

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class _Span:
    __slots__ = ("name", "start", "child", "children", "parent")

    def __init__(self, name: str, start: float, parent: Optional["_Span"]):
        self.name = name
        self.start = start
        self.child = 0.0
        self.children = 0
        self.parent = parent


class SpanRecorder:
    """In-memory span aggregation, keyed by ``(phase, name)``.

    ``keep_raw`` additionally stores every closed span as
    ``(name, start, end, parent_start, parent_name, child_seconds)`` — the self-test uses
    it to check nesting; benchmark runs leave it off to bound memory.
    """

    def __init__(self, keep_raw: bool = False):
        self.phase = "setup"
        self.durations: dict[tuple[str, str], array] = {}
        self.selfs: dict[tuple[str, str], array] = {}
        #: Child-span count per closed span (a span whose work ran in
        #: another thread has none, and its self time includes the wait).
        self.children: dict[tuple[str, str], array] = {}
        #: Duration of the most recent closed span per name (per-call reads).
        self.last: dict[str, float] = {}
        #: Named counts recorded by count hooks, per (phase, name).
        self.counts: dict[tuple[str, str], list] = {}
        self.raw: Optional[list] = [] if keep_raw else None

    def open(self, name: str):
        span = _Span(name, time.perf_counter(), _current.get())
        return span, _current.set(span)

    def close(self, span: _Span, token) -> None:
        end = time.perf_counter()
        _current.reset(token)
        duration = end - span.start
        parent = span.parent
        if parent is not None:
            parent.child += duration
            parent.children += 1
        key = (self.phase, span.name)
        durations = self.durations.get(key)
        if durations is None:
            durations = self.durations[key] = array("d")
            self.selfs[key] = array("d")
            self.children[key] = array("i")
        durations.append(duration)
        self.selfs[key].append(duration - span.child)
        self.children[key].append(span.children)
        self.last[span.name] = duration
        if self.raw is not None:
            self.raw.append(
                (
                    span.name,
                    span.start,
                    end,
                    None if parent is None else parent.start,
                    None if parent is None else parent.name,
                    span.child,
                )
            )

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault((self.phase, name), []).append(float(value))

    # -- reading --------------------------------------------------------------

    def values(self, name: str, phase: Optional[str] = None, self_time: bool = False) -> np.ndarray:
        """Every recorded duration (or self time) of ``name`` in ``phase``
        (all phases when ``None``), in seconds."""
        source = self.selfs if self_time else self.durations
        chunks = [
            np.frombuffer(values, dtype=np.float64)
            for (span_phase, span_name), values in source.items()
            if span_name == name and (phase is None or span_phase == phase)
        ]
        return np.concatenate(chunks) if chunks else np.empty(0)

    def counted(self, name: str, phase: Optional[str] = None) -> np.ndarray:
        chunks = [
            values
            for (count_phase, count_name), values in self.counts.items()
            if count_name == name and (phase is None or count_phase == phase)
        ]
        return np.asarray([v for chunk in chunks for v in chunk], dtype=np.float64)

    def summary(self) -> dict:
        """JSON-ready per-(phase, name) summary, in microseconds: count,
        median and total duration and self time, and the median self time
        of the spans that had children in their own context (``nested``)."""
        out: dict[str, dict] = {}
        for (phase, name), durations in sorted(self.durations.items()):
            d = np.frombuffer(durations, dtype=np.float64)
            s = np.frombuffer(self.selfs[(phase, name)], dtype=np.float64)
            nested = s[np.frombuffer(self.children[(phase, name)], dtype=np.int32) > 0]
            out[f"{phase}:{name}"] = {
                "count": int(d.size),
                "p50_us": float(np.median(d) * 1e6),
                "mean_us": float(d.mean() * 1e6),
                "total_us": float(d.sum() * 1e6),
                "self_p50_us": float(np.median(s) * 1e6),
                "self_total_us": float(s.sum() * 1e6),
                "nested_count": int(nested.size),
                "nested_self_p50_us": float(np.median(nested) * 1e6) if nested.size else 0.0,
            }
        for (phase, name), values in sorted(self.counts.items()):
            out[f"{phase}:{name}"] = {
                "count": len(values),
                "median": float(np.median(values)),
            }
        return out


def _wrap(recorder: SpanRecorder, name: str, function: Callable, after: Optional[Callable]):
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            span, token = recorder.open(name)
            try:
                return await function(*args, **kwargs)
            finally:
                recorder.close(span, token)

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span, token = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span, token)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _count_pool(recorder: SpanRecorder, args, result) -> None:
    ctx = args[1]
    if ctx.variants is not None:
        recorder.count("compiler.variant_pool", len(ctx.variants))


def _count_selected(recorder: SpanRecorder, args, result) -> None:
    ctx = args[1]
    if not ctx.cache_hit and ctx.selected is not None:
        recorder.count("compiler.selected", len(ctx.selected))


def layer_targets() -> list[tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, count hook)`` for every layer call
    the benchmark times.  Owners are looked up where the caller finds
    them, e.g. ``compile_plan`` in the dispatcher module's namespace."""
    from repro.compiler import pipeline
    from repro.compiler.session import CompilerSession
    from repro.runtime import dispatcher as dispatcher_module
    from repro.runtime.dispatcher import Dispatcher
    from repro.runtime.executor import SizeInferencer
    from repro.runtime.plan import ExecutionPlan
    from repro.serve import aserve, frontend, shm
    from repro.serve.backends import DiskBackend
    from repro.serve.service import CompileService

    targets: list[tuple[object, str, str, Optional[Callable]]] = []
    for compiler_pass in pipeline.default_passes():
        hook = None
        if compiler_pass.name == "enumerate":
            hook = _count_pool
        elif compiler_pass.name == "expand":
            hook = _count_selected
        targets.append((type(compiler_pass), "run", f"compiler.{compiler_pass.name}", hook))
    targets += [
        (CompilerSession, "compile", "compiler.compile", None),
        (DiskBackend, "load", "compiler.cache.disk_load", None),
        (Dispatcher, "run", "runtime.run", None),
        (SizeInferencer, "infer", "runtime.infer", None),
        (dispatcher_module, "compile_plan", "runtime.lower", None),
        (ExecutionPlan, "replay", "runtime.replay", None),
        (aserve.AsyncCompileServer, "_respond", "serve.line", None),
        (aserve, "handle_request", "serve.request", None),
        (frontend, "_handle_compile", "serve.compile", None),
        (frontend, "decode_operand", "serve.decode", None),
        (frontend, "encode_array", "serve.encode", None),
        (shm, "open_segment", "serve.shm_open", None),
        (CompileService, "execute", "serve.execute", None),
        (CompileService, "dispatch", "serve.dispatch", None),
    ]
    return targets


class Patches:
    """Install/uninstall the layer wrappers of one recorder."""

    def __init__(self, recorder: SpanRecorder, hooks: Optional[dict] = None):
        self.recorder = recorder
        #: Extra count hooks by span name: ``hook(recorder, args, result)``
        #: runs after the wrapped call returns.
        self.hooks = dict(hooks or {})
        self._saved: list[tuple[object, str, object, bool]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for owner, attribute, name, hook in layer_targets():
            # An inherited method is shadowed on the subclass and the
            # shadow deleted again on uninstall.
            own = not isinstance(owner, type) or attribute in owner.__dict__
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original, own))
            hook = self.hooks.get(name, hook)
            setattr(owner, attribute, _wrap(self.recorder, name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original, own = self._saved.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

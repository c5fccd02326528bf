"""The first-class compilation artifact: a serializable ``CompiledProgram``.

The paper's model (Fig. 1) is compile-once / dispatch-at-runtime: the
compiler's *product* is a generated artifact — ``k`` variants plus a
cost-driven dispatch function — that lives independently of the compilation
process, like the generated C++ object files it stands in for.  This module
makes that product a first-class value:

* :class:`CompiledProgram` bundles the chain, the selected variants, the
  training instances the selection was scored on, and provenance (content
  address, pass timings, producer identity, option snapshot, variant-pool
  diagnostics);
* :meth:`CompiledProgram.dumps` / :meth:`CompiledProgram.loads` extend the
  :mod:`repro.codegen.serialize` format into a **versioned wire format**
  (``artifact_version``), so artifacts cross process and host boundaries:
  the compilation cache's disk entries, the process-pool workers of
  :mod:`repro.serve`, and ``repro compile --output`` / ``repro run`` all
  speak it;
* :meth:`CompiledProgram.to_dispatcher` reconstructs a working
  :class:`~repro.runtime.dispatcher.Dispatcher` anywhere the artifact lands.

The artifact doubles as the compilation-cache entry type
(:data:`repro.compiler.cache.CacheEntry` is an alias), which is what makes
cache backends portable rather than merely restartable: any backend byte
stream is a complete, loadable program.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import socket
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro.codegen.serialize import FORMAT_VERSION, SerializationError
from repro.ir.chain import Chain
from repro.runtime.backends import DEFAULT_BACKEND, Backend
from repro.runtime.dispatcher import CostEstimator, Dispatcher, flop_estimator
from repro.compiler.variant import Variant

#: Bump when the artifact wire layout changes incompatibly.
#: v2 added the optional ``calibration`` section (learned per-kernel
#: FLOP/s shipped with a warmed deployment); v1 payloads still load,
#: with an empty calibration.
ARTIFACT_VERSION = 2

#: Versions :meth:`CompiledProgram.loads` accepts.
SUPPORTED_ARTIFACT_VERSIONS = (1, 2)


class ArtifactError(SerializationError):
    """The payload is not a valid serialized compilation artifact."""


def _empty_training(chain: Chain) -> np.ndarray:
    return np.empty((0, chain.n + 1))


def options_metadata(options: Any) -> dict[str, Any]:
    """A JSON-clean snapshot of a :class:`CompileOptions` for provenance."""
    payload = dataclasses.asdict(options)
    if payload.get("size_range") is not None:
        payload["size_range"] = list(payload["size_range"])
    return payload


@lru_cache(maxsize=1)
def _hostname() -> str:
    try:
        return socket.gethostname()
    except OSError:  # pragma: no cover - platform-dependent
        return ""


def producer_metadata() -> dict[str, Any]:
    """Identity of the compiling process (for provenance, best-effort).

    The hostname is memoized: this runs on the per-compile hot path
    (every dispatch pass builds an artifact) and must not pay a syscall
    each time.
    """
    return {
        "pid": os.getpid(),
        "host": _hostname(),
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class CompiledProgram:
    """One compiled chain shape, complete enough to dispatch anywhere.

    The first three fields are the compilation's substance (and the
    historical ``CacheEntry`` triple); the rest are provenance carried on
    the wire but irrelevant to dispatch behaviour.
    """

    chain: Chain
    variants: tuple[Variant, ...]
    training_instances: np.ndarray
    #: Content address of the compilation (structure + options + pipeline);
    #: empty for artifacts built outside a session.
    key: str = ""
    #: ``time.time()`` at artifact construction (0.0 when unknown).
    created_unix: float = 0.0
    #: Producer identity (pid/host/python), see :func:`producer_metadata`.
    producer: Mapping[str, Any] = field(default_factory=dict)
    #: Per-pass wall times of the producing compilation, in seconds.
    timings: Mapping[str, float] = field(default_factory=dict)
    #: Snapshot of the :class:`CompileOptions` the program was built under.
    options: Mapping[str, Any] = field(default_factory=dict)
    #: Instrumentation recorded by the pipeline (e.g. ``variant_pool``).
    diagnostics: Mapping[str, Any] = field(default_factory=dict)
    #: Learned calibration shipped with the artifact (a
    #: :meth:`~repro.perfmodel.feedback.CalibratedEstimator.snapshot`
    #: payload); empty when nothing was learned.  Serialization prefers
    #: the *live* runtime's estimator state over this static field, so a
    #: trafficked program saves what it actually learned.
    calibration: Mapping[str, Any] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_artifacts(
        cls,
        chain: Chain,
        variants: Sequence[Variant],
        training_instances: Optional[np.ndarray],
        *,
        key: str = "",
        options: Any = None,
        timings: Optional[Mapping[str, float]] = None,
        diagnostics: Optional[Mapping[str, Any]] = None,
        calibration: Optional[Mapping[str, Any]] = None,
        copy_training: bool = True,
    ) -> "CompiledProgram":
        """Build (and timestamp) an artifact from pipeline products.

        With ``copy_training`` (the default) the training instances are
        copied so the artifact is immune to caller-side mutation — it may
        be cached and rebound many times.  Producers whose array is
        already a private copy (the cache-hit rebind path, which copies
        per request anyway) pass ``False`` to keep artifact construction
        off the per-request allocation path.
        """
        if training_instances is None:
            training = _empty_training(chain)
        elif copy_training:
            training = np.array(training_instances, dtype=np.float64, copy=True)
        else:
            training = np.asarray(training_instances, dtype=np.float64)
        return cls(
            chain=chain,
            variants=tuple(variants),
            training_instances=training,
            key=key,
            created_unix=time.time(),
            producer=producer_metadata(),
            timings=dict(timings or {}),
            options=options_metadata(options) if options is not None else {},
            diagnostics=dict(diagnostics or {}),
            calibration=dict(calibration or {}),
        )

    # -- wire format ---------------------------------------------------------

    def _live_calibration(self) -> dict[str, Any]:
        """What the ``calibration`` section should say *right now*.

        A program that served traffic through a calibrated runtime has
        learned rates the static field predates — prefer the live
        estimator's snapshot, falling back to the field (an artifact
        loaded and re-saved without traffic keeps its shipped table).
        """
        runtime = getattr(self, "_runtime", None)
        if runtime is not None:
            estimator = runtime.cost_estimator
            if getattr(estimator, "calibrated", False):
                snapshot = getattr(estimator, "snapshot", None)
                if callable(snapshot):
                    live = snapshot()
                    if live:
                        return live
        return dict(self.calibration) if self.calibration else {}

    def dumps(self, indent: int | None = None) -> str:
        """Serialize to the versioned artifact wire format (JSON text).

        The optional ``calibration`` section is emitted only when there is
        learned state to ship (see :meth:`_live_calibration`), so
        untrafficked artifacts stay byte-identical in shape to v1 apart
        from the version stamp.
        """
        from repro.codegen import serialize

        payload = {
            "artifact_version": ARTIFACT_VERSION,
            "program": serialize.compilation_to_dict(
                self.chain, list(self.variants)
            ),
            "training_instances": np.asarray(self.training_instances).tolist(),
            "meta": {
                "key": self.key,
                "created_unix": self.created_unix,
                "producer": dict(self.producer),
                "timings": dict(self.timings),
                "options": dict(self.options),
                "diagnostics": dict(self.diagnostics),
            },
        }
        calibration = self._live_calibration()
        if calibration:
            payload["calibration"] = calibration
        return json.dumps(payload, indent=indent)

    @classmethod
    def loads(cls, text: str) -> "CompiledProgram":
        """Parse an artifact produced by :meth:`dumps`.

        Raises :class:`ArtifactError` on malformed or version-incompatible
        input (including payloads in the bare :mod:`~repro.codegen.serialize`
        format, which lack the artifact envelope).
        """
        from repro.codegen import serialize

        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ArtifactError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ArtifactError("artifact payload must be a JSON object")
        version = payload.get("artifact_version")
        if version not in SUPPORTED_ARTIFACT_VERSIONS:
            raise ArtifactError(
                f"unsupported artifact version {version!r} "
                f"(expected one of {SUPPORTED_ARTIFACT_VERSIONS})"
            )
        program = payload.get("program")
        if not isinstance(program, dict):
            raise ArtifactError("artifact is missing the 'program' object")
        try:
            chain, variants = serialize.compilation_from_dict(program)
        except SerializationError as exc:
            raise ArtifactError(f"malformed program payload: {exc}") from exc
        try:
            training = np.asarray(
                payload.get("training_instances", []), dtype=np.float64
            )
        except (TypeError, ValueError) as exc:
            # Ragged or non-numeric rows: a corrupt entry must surface as
            # ArtifactError (cache backends turn that into a miss).
            raise ArtifactError(f"malformed training instances: {exc}") from exc
        if training.size == 0:
            training = _empty_training(chain)
        elif training.ndim != 2 or training.shape[1] != chain.n + 1:
            raise ArtifactError(
                f"training instances have shape {training.shape}, expected "
                f"(count, {chain.n + 1})"
            )
        meta = payload.get("meta") or {}
        if not isinstance(meta, dict):
            raise ArtifactError("artifact 'meta' must be an object")
        # v1 artifacts have no calibration section; tolerate any
        # non-object value the same way (no learned state).
        calibration = payload.get("calibration")
        if not isinstance(calibration, dict):
            calibration = {}
        elif calibration:
            # Rebuild once here so a section the calibrated runtime cannot
            # use fails the load (a cache miss) instead of every dispatch.
            from repro.perfmodel.feedback import CalibratedEstimator

            try:
                CalibratedEstimator.from_snapshot(calibration)
            except (TypeError, ValueError) as exc:
                raise ArtifactError(f"malformed calibration section: {exc}") from exc
        return cls(
            chain=chain,
            variants=tuple(variants),
            training_instances=training,
            key=str(meta.get("key", "") or ""),
            created_unix=float(meta.get("created_unix", 0.0) or 0.0),
            producer=dict(meta.get("producer") or {}),
            timings=dict(meta.get("timings") or {}),
            options=dict(meta.get("options") or {}),
            diagnostics=dict(meta.get("diagnostics") or {}),
            calibration=calibration,
        )

    def save(self, path: str | os.PathLike, indent: int | None = 2) -> None:
        """Write the artifact to a file (the ``repro compile --output`` path)."""
        from pathlib import Path

        Path(path).write_text(self.dumps(indent=indent) + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CompiledProgram":
        """Read an artifact file written by :meth:`save` (or a cache entry)."""
        from pathlib import Path

        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
        return cls.loads(text)

    # -- reconstruction ------------------------------------------------------

    def _resolve_backend(self, backend: Optional[str]) -> str:
        """An explicit backend request, else the compile-time snapshot,
        else (artifacts predating the snapshot) the default backend."""
        if backend is not None:
            return backend
        return str(self.options.get("backend") or DEFAULT_BACKEND)

    def _calibrated_estimator(self) -> CostEstimator:
        """The program's calibrated estimator, built once per artifact.

        With a shipped ``calibration`` section, a *private* estimator is
        rebuilt from it — a fresh process dispatches with the learned
        rates immediately, no warm-up — and keeps refreshing from local
        traffic.  Without one, the process-wide shared estimator is used,
        so every freshly-compiled calibrated program learns from (and
        contributes to) the same table.
        """
        cached = getattr(self, "_calibrated", None)
        if cached is None:
            from repro.perfmodel.feedback import (
                CalibratedEstimator,
                get_default_estimator,
            )

            if self.calibration:
                cached = CalibratedEstimator.from_snapshot(self.calibration)
            else:
                cached = get_default_estimator()
            object.__setattr__(self, "_calibrated", cached)
        return cached

    def _resolve_estimator(
        self,
        cost_estimator: Optional[CostEstimator],
        cost_model: Optional[str] = None,
    ) -> CostEstimator:
        """An explicit estimator request, else the artifact's own.

        Resolution order: an explicit ``cost_estimator`` wins; then an
        explicit ``cost_model`` name (the ``repro run --cost-model``
        override); then a *shipped* ``calibration`` section — the table
        only exists because a warmed deployment saved it to be used, and
        it must beat the compile-time options snapshot, which records the
        ``"flops"`` default whether or not anyone chose it; finally the
        options snapshot itself.
        """
        if cost_estimator is not None:
            return cost_estimator
        model = cost_model
        if model is None:
            if self.calibration:
                return self._calibrated_estimator()
            model = self.options.get("cost_model")
        if model == "calibrated":
            return self._calibrated_estimator()
        return flop_estimator

    def to_dispatcher(
        self,
        cost_estimator: Optional[CostEstimator] = None,
        backend: Optional[str] = None,
        cost_model: Optional[str] = None,
    ) -> Dispatcher:
        """A *fresh* run-time dispatcher over the artifact's variants.

        Each call builds a new dispatcher (empty memo, cold term stack);
        use :meth:`runtime` for the shared per-artifact instance that
        amortizes dispatch state across calls.  ``backend`` and the cost
        estimator default to the artifact's own snapshot — options,
        shipped calibration — (``c``/FLOPs for artifacts predating
        those sections); see :meth:`_resolve_estimator`.
        """
        return Dispatcher(
            self.chain,
            list(self.variants),
            cost_estimator=self._resolve_estimator(cost_estimator, cost_model),
            backend=self._resolve_backend(backend),
        )

    def runtime_identity(
        self,
        cost_estimator: Optional[CostEstimator] = None,
        backend: Optional[str] = None,
        cost_model: Optional[str] = None,
    ) -> tuple[Union[str, Backend], CostEstimator]:
        """The ``(backend, cost estimator)`` a :meth:`runtime` call with
        these arguments serves with; builds nothing."""
        return (
            Dispatcher.resolve_backend(self._resolve_backend(backend)),
            self._resolve_estimator(cost_estimator, cost_model),
        )

    def runtime(
        self,
        cost_estimator: Optional[CostEstimator] = None,
        backend: Optional[str] = None,
        cost_model: Optional[str] = None,
    ) -> Dispatcher:
        """The artifact's live runtime: one memoizing dispatcher, reused.

        Built lazily on first use and kept on the artifact, so repeated
        :meth:`execute` calls (and every consumer holding this program)
        share one dispatch memo and one flattened cost-term stack instead
        of rebuilding them per request.  Asking for a different
        ``cost_estimator``, ``cost_model``, or ``backend`` than the cached
        runtime's builds a fresh one.
        """
        resolved, estimator = self.runtime_identity(
            cost_estimator, backend, cost_model
        )
        cached: Optional[Dispatcher] = getattr(self, "_runtime", None)
        if (
            cached is not None
            and cached.cost_estimator is estimator
            and cached.backend == resolved
        ):
            return cached
        dispatcher = self.to_dispatcher(estimator, backend=resolved)
        # Frozen dataclass: the runtime is a derived cache, not wire state.
        object.__setattr__(self, "_runtime", dispatcher)
        return dispatcher

    def to_generated_code(
        self,
        cost_estimator: Optional[CostEstimator] = None,
        backend: Optional[str] = None,
    ):
        """The :class:`~repro.api.GeneratedCode` facade over this artifact."""
        from repro.api import GeneratedCode

        return GeneratedCode(
            chain=self.chain,
            variants=list(self.variants),
            # The artifact's live runtime, not a fresh dispatcher: every
            # facade over this program shares one dispatch memo.
            dispatcher=self.runtime(cost_estimator, backend=backend),
            training_instances=np.asarray(self.training_instances),
            program=self,
        )

    def execute(self, *arrays) -> np.ndarray:
        """Dispatch and evaluate one instance (convenience for ``repro run``).

        Goes through :meth:`runtime`, so repeated same-size executions hit
        the dispatch memo instead of re-sweeping the cost matrix.
        """
        return self.runtime()(*arrays)

    # -- presentation --------------------------------------------------------

    def describe(self) -> str:
        lines = [
            f"compiled program for chain {self.chain} "
            f"({len(self.variants)} variant(s))"
        ]
        if self.key:
            lines.append(f"  key: {self.key}")
        if self.created_unix:
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.gmtime(self.created_unix)
            )
            lines.append(f"  compiled: {stamp} UTC")
        producer = dict(self.producer)
        if producer:
            lines.append(
                "  producer: "
                + " ".join(f"{k}={v}" for k, v in sorted(producer.items()))
            )
        pool = dict(self.diagnostics).get("variant_pool")
        if pool:
            lines.append(
                "  variant pool: "
                + " ".join(f"{k}={v}" for k, v in sorted(pool.items()))
            )
        for variant in self.variants:
            lines.append(f"  variant {variant.name or '<anonymous>'}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.variants)


# Re-exported for callers that only deal with the envelope.
__all__ = [
    "ARTIFACT_VERSION",
    "SUPPORTED_ARTIFACT_VERSIONS",
    "FORMAT_VERSION",
    "ArtifactError",
    "CompiledProgram",
    "options_metadata",
    "producer_metadata",
]

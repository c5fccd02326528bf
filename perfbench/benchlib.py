"""Shared helpers of the repository benchmark.

Paths, thread pinning, statistics, the correctness check against
``naive_evaluate``, provenance, and the bookkeeping every workload fills
in (:class:`Outcome`).  Importing this module touches no numpy: thread
pinning must happen before numpy loads its BLAS.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the benchmark directory's parent.
ROOT = Path(__file__).resolve().parent.parent

#: BLAS/OpenMP pools pinned to one thread, in this process and in the
#: server subprocess, before numpy loads.  An unpinned OpenBLAS spawns a
#: thread per core that fights the benchmark's own load on a small host.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Metric units (end-to-end and per-layer names share one table).
MS, US, MB, RATIO, COUNT, PER_S, FRAC = "ms", "us", "MB", "ratio", "count", "1/s", "frac"


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/`` and nowhere else.

    A directory holding only the benchmark has no program to measure; the
    benchmark then exits non-zero without a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src} (expected src/repro)")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def source_env() -> dict:
    """Environment for a subprocess running the checkout's program."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(Path(__file__).resolve().parent)) if p
    )
    return env


class Scratch:
    """A private temporary directory inside the checkout, removed on exit."""

    def __init__(self):
        base = ROOT / ".bench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=base))
        self._count = 0

    def fresh(self, label: str) -> str:
        self._count += 1
        path = self.path / f"{label}-{self._count}"
        path.mkdir()
        return str(path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still owns a sibling


# -- statistics -------------------------------------------------------------


def quantile(values, q: float) -> float:
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    return float(np.quantile(values, q)) if values.size else 0.0


def median(values) -> float:
    return quantile(values, 0.5)


def geomean(values) -> float:
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    return float(np.exp(np.log(values).mean())) if values.size else 0.0


# -- correctness ------------------------------------------------------------


def results_match(chain, arrays, result, reference) -> bool:
    """``result`` equals ``naive_evaluate(chain, arrays)`` within tolerance.

    Conditioning-aware: the cheap relative check passes almost always; only
    when it fails is the 1-norm condition number of every invertible
    operand computed — a variant may solve with any of them, inverted in
    the chain or not — and the tolerance scaled by their product, so an
    inverse-heavy chain is judged by what its data allows.
    """
    import numpy as np

    result = np.asarray(result)
    reference = np.asarray(reference)
    if result.shape != reference.shape or not np.all(np.isfinite(result)):
        return False
    scale = max(float(np.abs(reference).max(initial=0.0)), 1e-300)
    error = float(np.abs(result - reference).max(initial=0.0)) / scale
    if error <= 1e-8:
        return True
    kappa = 1.0
    for operand, array in zip(chain, arrays):
        if operand.inverted or operand.matrix.prop.is_invertible:
            kappa *= float(np.linalg.cond(np.asarray(array), 1))
    size = max(max(np.shape(a)) for a in arrays)
    return error <= 64 * np.finfo(np.float64).eps * size * kappa


@dataclass
class Outcome:
    """What one workload run reports back to the runner."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    #: asserted rows: name -> bool (a false row makes the run incorrect)
    rows: dict = field(default_factory=dict)
    #: free-form extra facts written to the result file
    notes: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# -- provenance -------------------------------------------------------------

_BLAS_PATTERNS = (
    ("mkl", re.compile(r"^(lib)?mkl_", re.I)),
    ("openblas", re.compile(r"openblas", re.I)),
    ("blis", re.compile(r"^(lib)?blis", re.I)),
)


def blas_vendor() -> dict:
    """The BLAS numpy runs on: loaded-library basenames first (what is
    actually mapped), ``numpy.show_config()`` as the fallback."""
    import numpy as np

    found: dict[str, str] = {}
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1] if len(line.split()) >= 6 else ""
                base = path.rsplit("/", 1)[-1]
                for vendor, pattern in _BLAS_PATTERNS:
                    if base and pattern.search(base):
                        found.setdefault(vendor, base)
    except OSError:
        pass
    info: dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info = {"config_name": blas.get("name"), "config_version": blas.get("version")}
    except Exception:  # older numpy: show_config prints and returns None
        pass
    vendor = next(iter(found), None) or str(info.get("config_name") or "unknown")
    return {"vendor": vendor, "libraries": sorted(set(found.values())), **info}


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def provenance() -> dict:
    import platform

    import numpy as np
    import scipy

    from repro.runtime import cemit_available
    from repro.runtime.backends.toolchain import discover_toolchain

    toolchain = discover_toolchain()
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "c_toolchain": None if toolchain is None else str(getattr(toolchain, "compiler", toolchain)),
        "c_backend_available": bool(cemit_available()),
        "blas": blas_vendor(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }

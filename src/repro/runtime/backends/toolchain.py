"""C toolchain discovery for the native ``c`` execution backend.

The ``c`` backend (:mod:`repro.runtime.backends.cemit`) compiles its
native step interpreter once per codegen cache directory, with whatever
C compiler the host provides, on a background thread that starts when
the first ``c`` dispatcher binds (a masked or missing toolchain starts
none).  This module owns the discovery seam so it can be patched in
tests and masked in CI:

* ``$REPRO_CC`` names the compiler explicitly (absolute path or a name
  resolved on ``$PATH``);
* otherwise the first of ``cc``/``gcc``/``clang`` found on ``$PATH``
  wins;
* ``$REPRO_DISABLE_CC`` (any non-empty value) masks discovery entirely —
  the no-compiler degradation path, exercised once per CI run;
* a toolchain is only reported when the CPython ``Python.h`` header is
  present (the interpreter is a CPython extension).

Discovery is cached per process (compilers do not appear mid-run);
:func:`reset_toolchain_cache` drops the cache for tests that flip the
environment.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sysconfig
import threading
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Toolchain",
    "ToolchainError",
    "discover_toolchain",
    "reset_toolchain_cache",
]

#: Compiler names probed on $PATH, in preference order.
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")


class ToolchainError(RuntimeError):
    """A discovered compiler failed to build the interpreter."""


@dataclass(frozen=True)
class Toolchain:
    """One usable host C compiler plus the CPython include directory."""

    compiler: str
    include_dir: str

    def compile_shared(self, source_path: str, output_path: str) -> None:
        """Compile one C file (the step interpreter) into a shared object.

        ``-O2 -fPIC -shared`` is the whole story: the interpreter is a
        thin loop over packed steps around function-pointer calls, so
        there is nothing for heroic optimization levels to find, and
        keeping the command minimal keeps it portable across
        cc/gcc/clang.
        """
        cmd = [
            self.compiler,
            "-O2",
            "-fPIC",
            "-shared",
            "-o",
            output_path,
            source_path,
            f"-I{self.include_dir}",
        ]
        try:
            proc = subprocess.run(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise ToolchainError(f"{self.compiler} failed to run: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            raise ToolchainError(
                f"{self.compiler} exited {proc.returncode}: {stderr[:500]}"
            )


_lock = threading.Lock()
_cached: Optional[tuple[Optional[Toolchain]]] = None


def _probe() -> Optional[Toolchain]:
    if os.environ.get("REPRO_DISABLE_CC"):
        return None
    include_dir = sysconfig.get_paths().get("include")
    if not include_dir or not os.path.isfile(
        os.path.join(include_dir, "Python.h")
    ):
        return None
    override = os.environ.get("REPRO_CC")
    if override:
        resolved = (
            override
            if os.path.isabs(override) and os.access(override, os.X_OK)
            else shutil.which(override)
        )
        return Toolchain(resolved, include_dir) if resolved else None
    for name in _COMPILER_CANDIDATES:
        resolved = shutil.which(name)
        if resolved:
            return Toolchain(resolved, include_dir)
    return None


def discover_toolchain() -> Optional[Toolchain]:
    """The host toolchain, or ``None`` when compilation is impossible.

    ``None`` is a *supported* answer, not an error: the ``c`` backend
    falls back to ``blas`` (and says so in the
    ``runtime.codegen_fallbacks`` counter) whenever this returns it.
    """
    global _cached
    with _lock:
        if _cached is None:
            _cached = (_probe(),)
        return _cached[0]


def reset_toolchain_cache() -> None:
    """Forget the cached discovery (tests that patch the environment)."""
    global _cached
    with _lock:
        _cached = None

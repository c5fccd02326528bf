"""The ``c`` interpreter builds in the background once a dispatcher binds it.

A dispatcher on the ``c`` backend starts the interpreter build when its
codegen directory lacks the object, so the compiler runs while the rest
of the program compiles; the first plan joins the build.  Each test uses
its own codegen directory and joins the builds it started.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import compile_chain
from repro.experiments.sampling import sample_instances
from repro.obs import get_registry
from repro.runtime.backends import cemit, get_backend
from repro.runtime.backends.blas import blas_available
from repro.runtime.backends.toolchain import Toolchain, reset_toolchain_cache
from repro.runtime.codegen_cache import CodegenCache
from repro.runtime.executor import naive_evaluate, random_instance_arrays

SOURCES = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;",
    "Matrix G1 <General, Singular>; Matrix L <LowerTri, NonSingular>; "
    "Matrix G2 <General, Singular>; R := G1 * L^-1 * G2;",
    "Matrix B <General, Singular>; Matrix D <Symmetric, SPD>; "
    "Matrix C <General, Singular>; S := B * D^-1 * C;",
)

needs_capsules = pytest.mark.skipif(
    not (blas_available() and cemit._harvest_addresses() is not None),
    reason="scipy BLAS capsules unavailable",
)
needs_cemit = pytest.mark.skipif(
    not cemit.cemit_available(), reason="C toolchain or scipy capsules unavailable"
)


def _build_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("codegen-build-")]


def _join(threads) -> None:
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), f"{thread.name} still running"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh codegen directory for the ``c`` backend; joins its builds."""
    # Builds other tests left running would move the process-wide counters.
    _join(_build_threads())
    cache = CodegenCache(directory=str(tmp_path / "codegen"))
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: cache)
    yield cache
    _join(list(cache._builds.values()))


def _compile_all():
    return [
        compile_chain(source, backend="c", use_cache=False, num_training_instances=10)
        for source in SOURCES
    ]


def _first_calls(programs) -> list[str]:
    """Call every program once (checked against the oracle); returns the
    backend each first call's plan ran on."""
    rng = np.random.default_rng(5)
    backends = []
    for generated in programs:
        chain = generated.chain
        sizes = [int(q) for q in sample_instances(chain, 1, rng, 3, 9)[0]]
        arrays = random_instance_arrays(chain, sizes, rng)
        np.testing.assert_allclose(
            generated(*arrays), naive_evaluate(chain, arrays), rtol=1e-7
        )
        backends.append(generated.dispatcher.plan_for(sizes)[2].backend)
    return backends


def _counter(name: str, **labels) -> float:
    return get_registry().counter(name, **labels).value


def _failing_toolchain(tmp_path, monkeypatch) -> Path:
    """Make ``c`` discover a compiler that fails, appending a line to the
    returned file each time it runs."""
    runs = tmp_path / "runs"
    compiler = tmp_path / "failing-cc"
    compiler.write_text(f'#!/bin/sh\necho run >> "{runs}"\nexit 1\n')
    compiler.chmod(0o755)
    toolchain = Toolchain(str(compiler), str(tmp_path))
    monkeypatch.setattr(cemit, "discover_toolchain", lambda: toolchain)
    return runs


@needs_cemit
def test_fresh_directory_builds_once_in_the_background(cache):
    compiles = _counter("runtime.codegen_compiles")
    programs = _compile_all()
    # Several c dispatchers, one build: started by the first binding.
    programs.append(
        compile_chain(SOURCES[0], backend="c", use_cache=False, seed=1)
    )
    programs[0].program.to_dispatcher(backend="c")
    key, source = cemit._interpreter_source()
    assert list(cache._builds) == [key]
    assert _first_calls(programs) == ["c"] * len(programs)
    assert _counter("runtime.codegen_compiles") - compiles == 1
    stats = cache.stats()
    assert (stats["misses"], stats["compiles"], stats["entries"]) == (1, 1, 1)
    assert Path(cache.path_for(key)).with_suffix(".c").read_text() == source


@needs_cemit
def test_warm_directory_starts_no_build(cache, monkeypatch):
    key, source = cemit._interpreter_source()
    cache.shared_object(key, source, cemit.discover_toolchain())
    warm = CodegenCache(directory=cache.directory)
    monkeypatch.setattr(cemit, "get_codegen_cache", lambda: warm)
    compiles = _counter("runtime.codegen_compiles")
    programs = _compile_all()
    assert warm._builds == {}
    assert not _build_threads()
    assert _first_calls(programs) == ["c"] * len(programs)
    assert _counter("runtime.codegen_compiles") - compiles == 0
    assert warm.stats()["misses"] == 0


@pytest.mark.skipif(not blas_available(), reason="scipy BLAS unavailable")
def test_masked_toolchain_starts_no_build(cache, monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_CC", "1")
    reset_toolchain_cache()
    try:
        fallbacks = _counter("runtime.codegen_fallbacks", reason="no-toolchain")
        programs = _compile_all()
        assert cache._builds == {}
        assert not _build_threads()
        assert _first_calls(programs) == ["blas"] * len(programs)
        assert _counter(
            "runtime.codegen_fallbacks", reason="no-toolchain"
        ) - fallbacks == len(programs)
        assert not os.path.exists(cache.directory)
    finally:
        monkeypatch.delenv("REPRO_DISABLE_CC")
        reset_toolchain_cache()


@needs_capsules
def test_failing_toolchain_runs_once_and_falls_back(cache, tmp_path, monkeypatch):
    """A compiler that fails: one run, in the background, and every first
    call's plan is a counted ``compile-error`` fallback."""
    runs = _failing_toolchain(tmp_path, monkeypatch)
    fallbacks = _counter("runtime.codegen_fallbacks", reason="compile-error")
    programs = _compile_all()
    assert list(cache._builds) == [cemit._interpreter_source()[0]]
    assert _first_calls(programs) == ["blas"] * len(programs)
    assert runs.read_text().splitlines() == ["run"]
    assert _counter(
        "runtime.codegen_fallbacks", reason="compile-error"
    ) - fallbacks == len(programs)
    stats = cache.stats()
    assert (stats["misses"], stats["compiles"], stats["entries"]) == (1, 0, 0)


@needs_capsules
def test_concurrent_bindings_start_one_build(cache, tmp_path, monkeypatch):
    """More binding threads than cores, switching often: one build thread,
    one compiler run."""
    runs = _failing_toolchain(tmp_path, monkeypatch)
    started = []
    build = cache._build_quietly
    monkeypatch.setattr(
        cache, "_build_quietly", lambda *args: (started.append(args), build(*args))
    )
    backend = get_backend("c")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        binders = [
            threading.Thread(target=backend.prepare)
            for _ in range(4 * (os.cpu_count() or 1))
        ]
        for binder in binders:
            binder.start()
        _join(binders)
    finally:
        sys.setswitchinterval(interval)
    _join(list(cache._builds.values()))
    assert len(started) == len(cache._builds) == 1
    assert runs.read_text().splitlines() == ["run"]


@needs_capsules
def test_binding_does_not_wait_for_a_running_build(cache, tmp_path, monkeypatch):
    """While the compiler runs, more ``c`` dispatchers bind and compile at
    once; only a plan waits for the build."""
    release = tmp_path / "release"
    compiler = tmp_path / "blocking-cc"
    compiler.write_text(
        f'#!/bin/sh\nwhile [ ! -e "{release}" ]; do sleep 0.02; done\nexit 1\n'
    )
    compiler.chmod(0o755)
    toolchain = Toolchain(str(compiler), str(tmp_path))
    monkeypatch.setattr(cemit, "discover_toolchain", lambda: toolchain)
    try:
        programs = _compile_all()[:1]
        more = threading.Thread(target=lambda: programs.extend(_compile_all()))
        more.start()
        more.join(timeout=20)
        assert not more.is_alive(), "binding waited for the running build"
        assert len(programs) == 1 + len(SOURCES)
        assert all(build.is_alive() for build in cache._builds.values())
    finally:
        release.touch()
    assert _first_calls(programs) == ["blas"] * len(programs)


CHILD = """
import sys
from repro.api import compile_chain
from repro.runtime.codegen_cache import configure_codegen_cache

configure_codegen_cache(sys.argv[1])
compile_chain(sys.argv[2], backend="c", use_cache=False, num_training_instances=5)
"""


@needs_cemit
def test_process_exiting_mid_build_leaves_a_complete_object(tmp_path):
    """A process that compiles a ``c`` program and exits at once waits for
    the build: no temp files, no truncated source, no compiler left
    writing into the directory."""
    directory = tmp_path / "codegen"
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(directory), SOURCES[1]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    key, source = cemit._interpreter_source()
    listing = sorted(os.listdir(directory))
    assert listing == [f"{key}.c", f"{key}.so"]
    assert (directory / f"{key}.c").read_text() == source
    size = (directory / f"{key}.so").stat().st_size
    assert size > 0
    time.sleep(0.5)
    assert sorted(os.listdir(directory)) == listing
    assert (directory / f"{key}.so").stat().st_size == size

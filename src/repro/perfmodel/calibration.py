"""Performance models calibrated from measured kernel timings.

:class:`repro.perfmodel.models.PerformanceModelSet` samples the *simulated*
machine; this module applies the identical methodology to the *real* one:
time each NumPy/SciPy reference kernel on the Cartesian grid (the paper
uses six points per axis over [50, 1000]), record FLOP/s, interpolate, and
estimate variant times as FLOPs / interpolated performance.  The resulting
:class:`MeasuredPerformanceModelSet` fills the same grid builder from
measurements, and prices variants through the same ``time_call`` and
shared loop, so the Fig. 6 experiment can be re-run against actual
hardware (``run_time_experiment`` accepts any machine/model pair with the
same interface).

Measurements use the median of repeated runs, as in the paper.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.kernels import reference as ref
from repro.kernels.spec import get_kernel
from repro.perfmodel.machine import SimulatedMachine
from repro.perfmodel.models import KERNEL_MODEL_DIMS, PerformanceModelSet
from repro.perfmodel.timing import time_callable


def _spd(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T / np.sqrt(n) + np.eye(n)


def _sym(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2 + np.eye(n) * n


def _low(n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.tril(rng.standard_normal((n, n)))
    t[np.diag_indices(n)] = np.abs(np.diag(t)) + 1.0
    return t


def _gen(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((m, n))


def _gen_inv(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + np.eye(n) * np.sqrt(n)


def _diag(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(np.abs(rng.standard_normal(n)) + 1.0)


def build_call(
    kernel: str, m: int, k: int, n: int, rng: np.random.Generator
) -> Callable[[], object]:
    """A zero-argument callable issuing one kernel invocation of given dims."""
    builders: dict[str, Callable[[], Callable[[], object]]] = {
        "GEMM": lambda: (lambda a=_gen(m, k, rng), b=_gen(k, n, rng): ref.gemm(a, b)),
        "SYMM": lambda: (lambda s=_sym(m, rng), g=_gen(m, n, rng): ref.symm(s, g)),
        "TRMM": lambda: (lambda t=_low(m, rng), g=_gen(m, n, rng): ref.trmm(t, g)),
        "TRSM": lambda: (lambda t=_low(m, rng), g=_gen(m, n, rng): ref.trsm(t, g)),
        "SYSYMM": lambda: (lambda a=_sym(m, rng), b=_sym(m, rng): ref.sysymm(a, b)),
        "TRSYMM": lambda: (lambda t=_low(m, rng), s=_sym(m, rng): ref.trsymm(t, s)),
        "TRTRMM": lambda: (lambda a=_low(m, rng), b=_low(m, rng): ref.trtrmm(a, b)),
        "GEGESV": lambda: (
            lambda a=_gen_inv(m, rng), b=_gen(m, n, rng): ref.gegesv(a, b)
        ),
        "GESYSV": lambda: (
            lambda a=_gen_inv(m, rng), b=_sym(m, rng): ref.gesysv(a, b)
        ),
        "GETRSV": lambda: (
            lambda a=_gen_inv(m, rng), b=_low(m, rng): ref.getrsv(a, b)
        ),
        "SYGESV": lambda: (lambda a=_sym(m, rng), b=_gen(m, n, rng): ref.sygesv(a, b)),
        "SYSYSV": lambda: (lambda a=_sym(m, rng), b=_sym(m, rng): ref.sysysv(a, b)),
        "SYTRSV": lambda: (lambda a=_sym(m, rng), b=_low(m, rng): ref.sytrsv(a, b)),
        "POGESV": lambda: (lambda a=_spd(m, rng), b=_gen(m, n, rng): ref.pogesv(a, b)),
        "POSYSV": lambda: (lambda a=_spd(m, rng), b=_sym(m, rng): ref.posysv(a, b)),
        "POTRSV": lambda: (lambda a=_spd(m, rng), b=_low(m, rng): ref.potrsv(a, b)),
        "TRSYSV": lambda: (lambda a=_low(m, rng), b=_sym(m, rng): ref.trsysv(a, b)),
        "TRTRSV": lambda: (
            lambda a=_low(m, rng), b=_low(m, rng).T.copy(): ref.trtrsv(
                a, b, lower=True
            )
        ),
        "DIMM": lambda: (lambda d=_diag(m, rng), b=_gen(m, n, rng): ref.dimm(d, b)),
        "DIDIMM": lambda: (lambda a=_diag(m, rng), b=_diag(m, rng): ref.didimm(a, b)),
        "DIGESV": lambda: (lambda d=_diag(m, rng), b=_gen(m, n, rng): ref.digesv(d, b)),
        "DISYSV": lambda: (lambda d=_diag(m, rng), b=_sym(m, rng): ref.disysv(d, b)),
        "DITRSV": lambda: (lambda d=_diag(m, rng), b=_low(m, rng): ref.ditrsv(d, b)),
        "DIDISV": lambda: (lambda a=_diag(m, rng), b=_diag(m, rng): ref.didisv(a, b)),
        "GEINV": lambda: (lambda a=_gen_inv(m, rng): ref.geinv(a)),
        "SYINV": lambda: (lambda a=_sym(m, rng): ref.syinv(a)),
        "POINV": lambda: (lambda a=_spd(m, rng): ref.poinv(a)),
        "TRINV": lambda: (lambda a=_low(m, rng): ref.trinv(a)),
        "DIINV": lambda: (lambda a=_diag(m, rng): ref.diinv(a)),
    }
    try:
        return builders[kernel]()
    except KeyError:
        raise KeyError(f"no measurement recipe for kernel {kernel!r}") from None


def measure_performance(
    kernel: str,
    m: int,
    k: int,
    n: int,
    repeats: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Measured FLOP/s of one kernel configuration (median of repeats)."""
    rng = rng or np.random.default_rng(0)
    call = build_call(kernel, m, k, n, rng)
    call()  # warm-up (allocations, BLAS thread pools)
    seconds = max(time_callable(call, repeats), 1e-9)
    flops = get_kernel(kernel).cost(side="left", cheap=True).evaluate(m, k, n)
    if flops <= 0.0:
        return 0.0
    return flops / seconds


class MeasuredPerformanceModelSet(PerformanceModelSet):
    """Grid-interpolated models calibrated against wall-clock measurements.

    Prices variants exactly like the simulated :class:`PerformanceModelSet`
    (``cost_many`` / ``__call__``), so it can be handed to the Fig. 6
    harness to run the experiment on real hardware.  Data-movement kernels
    (TRANSPOSE/COPY) still use the analytic bandwidth model of the attached
    :class:`SimulatedMachine`.
    """

    def __init__(
        self,
        grid: Sequence[float] = (50.0, 100.0, 300.0),
        repeats: int = 3,
        kernels: Optional[Iterable[str]] = None,
        seed: int = 0,
    ):
        self.repeats = repeats
        rng = np.random.default_rng(seed)

        def measured(kernel: str, m, k, n) -> np.ndarray:
            perf = np.empty(np.shape(m))
            for idx in np.ndindex(perf.shape):
                perf[idx] = measure_performance(
                    kernel, int(m[idx]), int(k[idx]), int(n[idx]), repeats, rng
                )
            return perf

        names = list(kernels) if kernels is not None else list(KERNEL_MODEL_DIMS)
        self._sample(SimulatedMachine(), grid, measured, names)

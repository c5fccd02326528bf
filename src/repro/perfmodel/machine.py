"""A deterministic simulated machine for kernel execution times.

The paper times kernels on an Intel Xeon Gold 6132 (14 cores, OpenBLAS).
We replace that testbed with a roofline-style analytic machine:

* every kernel runs at a kernel-specific fraction of machine peak —
  ``GEMM`` is the most efficient, structured products somewhat less so, and
  factorization-based solves markedly less (matching the universally
  observed BLAS-3 > LAPACK-solve efficiency ordering);
* efficiency *saturates* with problem size: small problems run far below
  peak (``s / (s + s_half)`` with ``s`` the geometric mean of the call
  dimensions), so the FLOP-optimal variant is not always time-optimal —
  the exact phenomenon the paper's execution-time experiment exercises;
* zero-FLOP data-movement kernels (transpose/copy) are charged at memory
  bandwidth.

The machine is a pure function of the call: noise-free and reproducible.

Every kernel-speed model subclasses :class:`KernelTimeModel`, which holds
the one pricing loop: a variant costs the sum of ``time_call`` over its
steps, then its fix-ups, at the FLOPs of :func:`step_call`/:func:`fixup_call`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

#: Fraction of peak FLOP/s each kernel reaches asymptotically.
DEFAULT_KERNEL_EFFICIENCY: dict[str, float] = {
    "GEMM": 1.00,
    "SYMM": 0.85,
    "TRMM": 0.80,
    "SYSYMM": 0.80,
    "TRSYMM": 0.75,
    "TRTRMM": 0.70,
    "TRSM": 0.72,
    "TRSYSV": 0.65,
    "TRTRSV": 0.60,
    "GEGESV": 0.55,
    "GESYSV": 0.50,
    "GETRSV": 0.50,
    "SYGESV": 0.45,
    "SYSYSV": 0.45,
    "SYTRSV": 0.45,
    "POGESV": 0.60,
    "POSYSV": 0.55,
    "POTRSV": 0.55,
    "GEINV": 0.50,
    "SYINV": 0.45,
    "POINV": 0.55,
    "TRINV": 0.60,
    # Diagonal extension kernels are bandwidth-bound: tiny peak fractions.
    "DIMM": 0.10,
    "DIDIMM": 0.05,
    "DIGESV": 0.10,
    "DISYSV": 0.10,
    "DITRSV": 0.10,
    "DIDISV": 0.05,
    "DIINV": 0.05,
}

#: Half-saturation size per kernel: solves ramp up more slowly than products.
DEFAULT_SATURATION: dict[str, float] = {}
for _name in DEFAULT_KERNEL_EFFICIENCY:
    DEFAULT_SATURATION[_name] = 96.0 if _name.endswith(("SV", "INV")) else 48.0
DEFAULT_SATURATION["TRSM"] = 64.0


def step_call(step, instances: np.ndarray):
    """``(flops, m, k, n)`` of one kernel step over ``(count, n+1)`` sizes.

    ``step`` is anything with ``call_dims`` and a ``cost`` (a variant
    :class:`~repro.compiler.variant.Step`, an Armadillo plan step).
    """
    m = instances[:, step.call_dims[0]]
    k = instances[:, step.call_dims[1]]
    n = instances[:, step.call_dims[2]]
    flops = np.zeros(instances.shape[0])
    for term in step.cost.terms:
        flops += float(term.coeff) * m**term.em * k**term.ek * n**term.en
    return flops, m, k, n


def fixup_call(fixup, instances: np.ndarray):
    """``(flops, d, d, d)`` of one square fix-up over ``(count, n+1)`` sizes."""
    d = instances[:, fixup.dim]
    flops = np.zeros(instances.shape[0])
    for term in fixup.cost.terms:
        flops += float(term.coeff) * d ** (term.em + term.ek + term.en)
    return flops, d, d, d


class KernelTimeModel:
    """A kernel-speed model: subclasses supply :meth:`time_call` only.

    Instances are cost estimators in the dispatcher's protocol —
    ``model(variant, sizes)`` and the batched ``model.cost_many(variant,
    instances)`` — so one object serves the dispatcher, the compiler and
    the experiments.
    """

    def time_call(self, kernel: str, flops, m, k, n):
        """Seconds of one kernel call given its FLOP count and dims."""
        raise NotImplementedError

    def cost_many(self, variant, instances: np.ndarray) -> np.ndarray:
        """Estimated seconds of a variant on ``(count, n+1)`` size vectors."""
        instances = np.asarray(instances, dtype=np.float64)
        total = np.zeros(instances.shape[0])
        for step in variant.steps:
            total += self.time_call(step.kernel.name, *step_call(step, instances))
        for fixup in variant.fixups:
            total += self.time_call(fixup.kernel.name, *fixup_call(fixup, instances))
        return total

    def __call__(self, variant, sizes: Sequence[int]) -> float:
        """Estimated seconds of a variant at one size vector."""
        return float(self.cost_many(variant, np.asarray([sizes], dtype=np.float64))[0])


@dataclass(frozen=True)
class SimulatedMachine(KernelTimeModel):
    """Analytic kernel-time oracle (the reproduction's hardware stand-in)."""

    peak_flops: float = 8.0e11  # ~14 cores x 2.6 GHz x 32 DP FLOP/cycle
    memory_bandwidth: float = 1.0e11  # bytes/s, for zero-FLOP kernels
    kernel_efficiency: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_KERNEL_EFFICIENCY)
    )
    saturation: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SATURATION)
    )

    def _efficiency(self, kernel: str, s: np.ndarray | float):
        frac = self.kernel_efficiency.get(kernel, 0.5)
        half = self.saturation.get(kernel, 96.0)
        return frac * (s / (s + half))

    def performance(self, kernel: str, m, k, n):
        """Sustained FLOP/s of a kernel call with the given dimensions."""
        m = np.asarray(m, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        s = (m * k * n) ** (1.0 / 3.0)
        return self.peak_flops * self._efficiency(kernel, s)

    def time_call(self, kernel: str, flops, m, k, n):
        """Execution time of one kernel call given its FLOP count and dims."""
        flops = np.asarray(flops, dtype=np.float64)
        if kernel in ("TRANSPOSE", "COPY"):
            m = np.asarray(m, dtype=np.float64)
            n = np.asarray(n, dtype=np.float64)
            return 16.0 * m * n / self.memory_bandwidth  # read + write
        return flops / self.performance(kernel, m, k, n)

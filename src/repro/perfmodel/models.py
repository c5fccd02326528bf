"""Grid-interpolation performance models (paper Section VII-B).

The paper constructs per-kernel performance models "by timing each kernel on
a 3D/2D/1D Cartesian grid with six points per axis over the range [50, 1000]
(50, 100, 300, 500, 700, 1000).  For each point, we recorded the performance
(FLOP/s). ... the corresponding model estimates the performance by
interpolating the grid samples.  The FLOP count is then divided by the
estimated performance to obtain the execution time."

We do exactly that against the simulated machine: the grid dimensionality
per kernel follows the kernel's free dimensions (GEMM is 3-D in (m, k, n);
kernels with one square operand are 2-D in (m, n); all-square kernels are
1-D in m), samples record FLOP/s, and estimates interpolate linearly with
clamping at the grid boundary.  The model is deliberately *crude* — exactly
like the paper's — so model-based estimates deviate from the machine's true
times between grid points and outside sampled configurations.

The model set is a :class:`~repro.perfmodel.machine.KernelTimeModel`: its
``time_call`` divides a call's FLOPs by the interpolated rate, and the
shared loop prices whole variants.  The grid is filled from any rate
function, so :mod:`repro.perfmodel.calibration` reuses it for measured
rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from repro.perfmodel.machine import KernelTimeModel, SimulatedMachine

GRID_POINTS = (50.0, 100.0, 300.0, 500.0, 700.0, 1000.0)

#: Free dimensions sampled per kernel: "mkn" (3-D), "mn" (2-D), "m" (1-D).
KERNEL_MODEL_DIMS: dict[str, str] = {
    "GEMM": "mkn",
    "SYMM": "mn",
    "TRMM": "mn",
    "TRSM": "mn",
    "GEGESV": "mn",
    "SYGESV": "mn",
    "POGESV": "mn",
    "SYSYMM": "m",
    "TRSYMM": "m",
    "TRTRMM": "m",
    "GESYSV": "m",
    "GETRSV": "m",
    "SYSYSV": "m",
    "SYTRSV": "m",
    "POSYSV": "m",
    "POTRSV": "m",
    "TRSYSV": "m",
    "TRTRSV": "m",
    "GEINV": "m",
    "SYINV": "m",
    "POINV": "m",
    "TRINV": "m",
    "DIMM": "mn",
    "DIGESV": "mn",
    "DIDIMM": "m",
    "DISYSV": "m",
    "DITRSV": "m",
    "DIDISV": "m",
    "DIINV": "m",
}


@dataclass(frozen=True)
class KernelModel:
    """Interpolated FLOP/s surface for one kernel."""

    kernel: str
    dims: str
    interpolator: RegularGridInterpolator
    #: Sampled range; queries outside it are clamped to the boundary.
    lo: float = GRID_POINTS[0]
    hi: float = GRID_POINTS[-1]

    def performance(self, m, k, n):
        """Estimated FLOP/s for a call with the given dimensions."""
        coords = {"m": m, "k": k, "n": n}
        points = np.stack(
            [np.atleast_1d(np.asarray(coords[d], dtype=np.float64)) for d in self.dims],
            axis=-1,
        )
        return self.interpolator(np.clip(points, self.lo, self.hi))


class PerformanceModelSet(KernelTimeModel):
    """All kernel models sampled from one machine (or real measurements)."""

    def __init__(self, machine: SimulatedMachine, grid: Sequence[float] = GRID_POINTS):
        self._sample(machine, grid, machine.performance, KERNEL_MODEL_DIMS)

    def _sample(self, machine, grid, rate, kernels: Iterable[str]) -> None:
        """One interpolated model per kernel, from ``rate(kernel, m, k, n)``
        (FLOP/s on equally shaped arrays of grid points)."""
        self.machine = machine
        self.grid = tuple(float(g) for g in grid)
        self.models: dict[str, KernelModel] = {}
        axis = np.asarray(self.grid)
        for kernel in kernels:
            dims = KERNEL_MODEL_DIMS[kernel]
            axes = (axis,) * len(dims)
            points = dict(zip(dims, np.meshgrid(*axes, indexing="ij")))
            # A dimension the model does not sample equals m (the
            # coefficient / structured operand is square), as a crude
            # model would fix it.
            m = points["m"]
            perf = rate(kernel, m, points.get("k", m), points.get("n", m))
            interp = RegularGridInterpolator(axes, perf)
            self.models[kernel] = KernelModel(
                kernel, dims, interp, lo=self.grid[0], hi=self.grid[-1]
            )

    def time_call(self, kernel: str, flops, m, k, n):
        """FLOPs over the interpolated rate; data movement at bandwidth."""
        if kernel in ("TRANSPOSE", "COPY"):
            return self.machine.time_call(kernel, flops, m, k, n)
        return flops / self.models[kernel].performance(m, k, n)

"""Performance modelling (paper Section VII-B).

Every kernel-speed model supplies only ``time_call(kernel, flops, m, k, n)
-> seconds``; the shared loop of :class:`~repro.perfmodel.machine.KernelTimeModel`
prices variants with it, as the cost estimator (``model(variant, sizes)``,
``model.cost_many(variant, instances)``) that the dispatcher,
:func:`~repro.compiler.selection.cost_matrix` and the experiments accept.

* :mod:`repro.perfmodel.machine` — the shared pricing loop, and a
  deterministic simulated machine that assigns an execution time to every
  kernel call (the reproduction's substitute for the paper's Xeon Gold
  6132 + OpenBLAS testbed).
* :mod:`repro.perfmodel.models` — per-kernel performance models built by
  sampling FLOP/s on a 6-point-per-axis Cartesian grid over [50, 1000] and
  interpolating, exactly mirroring the paper's methodology.
* :mod:`repro.perfmodel.calibration` — the same grid models filled from
  wall-clock measurements of the reference kernels.
* :mod:`repro.perfmodel.feedback` — per-kernel FLOP/s calibrated from live
  dispatch traffic.
* :mod:`repro.perfmodel.timing` — wall-clock timing helpers for users on
  real hardware.
"""

from repro.perfmodel.machine import KernelTimeModel, SimulatedMachine
from repro.perfmodel.models import PerformanceModelSet

__all__ = ["KernelTimeModel", "SimulatedMachine", "PerformanceModelSet"]

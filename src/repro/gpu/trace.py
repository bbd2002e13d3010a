"""The paper's phase legend.

Figures 11-15 and 17 break the random-sampling run time into the same
phases; every modeled charge is tagged with one of them, and the
per-phase totals live on :class:`repro.gpu.device.SimulatedGPU`.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["PHASES"]

#: The paper's phase legend (Figures 11-15).
PHASES: Tuple[str, ...] = (
    "prng",        # generation of the sampling matrix Omega
    "sampling",    # the initial GEMM  B = Omega A
    "gemm_iter",   # GEMMs inside the power iterations
    "orth_iter",   # orthogonalization inside the power iterations
    "qrcp",        # QRCP of the sampled matrix B        (Step 2)
    "qr",          # QR of the selected columns A P_{1:k} (Step 3)
    "comms",       # inter-GPU / host-device communication
    "other",       # triangular solves/multiplies forming R, misc.
)

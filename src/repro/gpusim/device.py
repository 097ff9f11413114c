"""A whole GPU: device memory, PCIe transfers, kernel launches.

:class:`Device` tracks device-memory occupancy (the C1060's 4GB bounds how
much parsed stream a single run can ship to one GPU — the engine sizes its
runs against this), times host↔device transfers (the pre-processing and
post-processing steps that Section IV.B notes limit multi-GPU indexer
performance), and launches indexing kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.costmodel import GPUSpec, TESLA_C1060
from repro.gpusim.kernel import KernelLaunch, KernelResult

__all__ = ["Device"]


@dataclass
class Device:
    """One simulated GPU."""

    device_id: int = 0
    spec: GPUSpec = TESLA_C1060
    allocated_bytes: int = 0
    #: Running host↔device copy totals — O(1) however many batches ran,
    #: because the device rides in every checkpoint record.
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    transfer_seconds_total: float = 0.0
    kernel_seconds: float = 0.0
    launches: int = 0

    # ------------------------------------------------------------------ #
    # Device memory
    # ------------------------------------------------------------------ #

    def alloc(self, nbytes: int) -> None:
        """Reserve device memory; raises when the 4GB card is full."""
        if self.allocated_bytes + nbytes > self.spec.device_memory_bytes:
            raise MemoryError(
                f"GPU {self.device_id}: allocation of {nbytes} bytes exceeds "
                f"device memory ({self.allocated_bytes} of "
                f"{self.spec.device_memory_bytes} in use)"
            )
        self.allocated_bytes += nbytes

    def free_all(self) -> None:
        """Release run-scoped allocations."""
        self.allocated_bytes = 0

    # ------------------------------------------------------------------ #
    # Transfers
    # ------------------------------------------------------------------ #

    def transfer_to_device(self, nbytes: int) -> float:
        """Pre-processing copy (parsed streams → device); returns seconds."""
        self.alloc(nbytes)
        seconds = self.spec.transfer_seconds(nbytes)
        self.h2d_bytes += nbytes
        self.transfer_seconds_total += seconds
        return seconds

    def transfer_from_device(self, nbytes: int) -> float:
        """Post-processing copy (postings → host); returns seconds."""
        seconds = self.spec.transfer_seconds(nbytes)
        self.d2h_bytes += nbytes
        self.transfer_seconds_total += seconds
        return seconds

    # ------------------------------------------------------------------ #
    # Kernels
    # ------------------------------------------------------------------ #

    def launch(self, cycles: np.ndarray, kernel: KernelLaunch | None = None) -> KernelResult:
        """Run one indexing kernel over the rows of ``cycles`` (an item's
        compute, stall and bus cycles; default grid: the paper's 480
        dynamic blocks)."""
        result = (kernel if kernel is not None else KernelLaunch(self.spec)).run_cycles(cycles)
        self.kernel_seconds += result.elapsed_seconds
        self.launches += 1
        return result

"""Kernel launch: thread blocks, SM scheduling, and latency hiding.

The paper launches its GPU indexer as a grid of thread blocks (32 threads
each) and schedules trie collections onto blocks with a *dynamic
round-robin* queue: "whenever a thread block completes the processing of a
particular trie collection, it starts processing the next available trie
collection".  After sweeping block counts they settle on **480 blocks per
GPU** (16 per SM).

This module reproduces that machinery as a scheduling simulation:

- work items (one per trie collection: its compute, memory-stall and bus
  cycles, a row of the matrix :meth:`KernelLaunch.run_cycles` takes) are
  assigned to blocks either dynamically (earliest-finishing block takes
  the next item) or statically (``item i → block i mod B``, the
  ablation), on columns: the dynamic queue's heap loop reads only each
  item's total, and each block's sums are ``np.bincount``s in item
  order.  :class:`WorkItem` tuples are for callers that build items one
  by one (:meth:`KernelLaunch.run`); the GPU indexer launches its cycle
  matrix and makes them only when they are read;
- blocks map round-robin onto the 30 SMs; an SM issues its resident
  blocks' compute serially but overlaps their memory stalls — the
  latency-hiding discount grows with resident blocks per SM, capped by
  hardware residency (8 blocks/SM on the C1060);
- each block pays a fixed scheduling overhead, and the whole launch pays a
  fixed kernel-launch cost, so the block-count sweep is U-shaped with an
  interior optimum like the paper's 480.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.gpusim.costmodel import GPUSpec, TESLA_C1060

__all__ = ["WorkItem", "KernelLaunch", "KernelResult"]


class WorkItem(NamedTuple):
    """One trie collection's worth of warp work, in raw cycles."""

    key: object
    compute_cycles: float
    memory_stall_cycles: float
    bus_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.memory_stall_cycles + self.bus_cycles


@dataclass
class KernelResult:
    """Outcome of one simulated kernel launch."""

    elapsed_seconds: float
    elapsed_cycles: float
    num_blocks: int
    resident_blocks_per_sm: int
    block_cycles: list[float] = field(default_factory=list)
    sm_cycles: list[float] = field(default_factory=list)
    items_per_block: list[int] = field(default_factory=list)

    @property
    def load_imbalance(self) -> float:
        """max/mean over per-SM cycles (1.0 = perfectly balanced)."""
        busy = [c for c in self.sm_cycles if c > 0]
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean else 1.0


class KernelLaunch:
    """Simulates one GPU indexer kernel over a set of trie collections."""

    def __init__(
        self,
        spec: GPUSpec = TESLA_C1060,
        num_blocks: int = 480,
        schedule: str = "dynamic",
    ) -> None:
        if num_blocks < 1:
            raise ValueError(f"need at least one thread block, got {num_blocks}")
        if schedule not in ("dynamic", "static"):
            raise ValueError(f"schedule must be 'dynamic' or 'static', got {schedule!r}")
        self.spec = spec
        self.num_blocks = num_blocks
        self.schedule = schedule

    # ------------------------------------------------------------------ #

    def run(self, items: list[WorkItem]) -> KernelResult:
        """Simulate the launch of ``items``: :meth:`run_cycles` on their cycles."""
        return self.run_cycles(np.array([item[1:] for item in items], dtype=float).reshape(-1, 3))

    def run_cycles(self, cycles: np.ndarray) -> KernelResult:
        """Simulate the launch of one item per row of ``cycles`` — its
        compute, memory-stall and bus cycles; returns elapsed time and
        balance stats."""
        spec, nb = self.spec, self.num_blocks
        compute, stall, bus = np.asarray(cycles, dtype=float).reshape(-1, 3).T
        if self.schedule == "static":
            # The ablation: collection i is pinned to block i mod B before
            # launch, whatever its size.
            block = np.arange(len(compute)) % nb
        else:
            # Dynamic round-robin: earliest-finishing block pops the queue.
            # Block ids are unique, so the minimum is too (a tie in finish
            # time goes to the lower id), and replacing it in place
            # schedules exactly what a pop and a push would.  (Sorted, the
            # initial list is already a heap.)
            heap = [(0.0, b) for b in range(nb)]
            chosen: list[int] = []
            take = chosen.append
            # ``total_cycles``, summed in its order: the same floats.
            for total in (compute + stall + bus).tolist():
                finish, b = heap[0]
                take(b)
                heapq.heapreplace(heap, (finish + total, b))
            block = np.array(chosen, dtype=np.intp)

        # Per-block sums: ``bincount`` adds each bin's weights one by one,
        # in item order, so these are the floats a per-item loop adds up.
        def per_block(weights: np.ndarray) -> np.ndarray:
            return np.bincount(block, weights=weights, minlength=nb)

        # Hardware residency: how many of an SM's blocks overlap stalls.
        blocks_per_sm = -(-nb // spec.num_sms)
        resident = max(1, min(spec.max_blocks_per_sm, blocks_per_sm))
        block_cycles = (
            per_block(compute) + per_block(bus) + per_block(stall) / resident
            + spec.block_overhead_cycles
        )
        # Blocks map round-robin onto SMs; an SM's elapsed time is the sum
        # of its blocks' effective cycles (issue slots are serial) — idle
        # blocks still pay their overhead — with a fill/drain factor that
        # shrinks as the backlog per SM grows.
        sm_cycles = (np.bincount(
            np.arange(nb) % spec.num_sms, weights=block_cycles, minlength=spec.num_sms
        ) * (1.0 + 0.5 / max(1.0, nb / spec.num_sms))).tolist()

        elapsed_cycles = max(sm_cycles) + spec.kernel_launch_cycles
        return KernelResult(
            elapsed_seconds=spec.seconds(elapsed_cycles),
            elapsed_cycles=elapsed_cycles,
            num_blocks=nb,
            resident_blocks_per_sm=resident,
            block_cycles=block_cycles.tolist(),
            sm_cycles=sm_cycles,
            items_per_block=np.bincount(block, minlength=nb).tolist(),
        )

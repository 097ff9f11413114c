"""Kernel launch: thread blocks, SM scheduling, and latency hiding.

The paper launches its GPU indexer as a grid of thread blocks (32 threads
each) and schedules trie collections onto blocks with a *dynamic
round-robin* queue: "whenever a thread block completes the processing of a
particular trie collection, it starts processing the next available trie
collection".  After sweeping block counts they settle on **480 blocks per
GPU** (16 per SM).

This module reproduces that machinery as a scheduling simulation:

- work items (one per trie collection, carrying the warp cycle counters
  measured by :class:`~repro.gpusim.warp.WarpExecutor`) are assigned to
  blocks either dynamically (earliest-finishing block takes the next item)
  or statically (``item i → block i mod B``, the ablation);
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

from repro.gpusim.costmodel import GPUSpec, TESLA_C1060

__all__ = ["WorkItem", "KernelLaunch", "KernelResult"]


class WorkItem(NamedTuple):
    """One trie collection's worth of warp work, in raw cycles.

    A tuple, not a frozen dataclass: the GPU indexer makes one per
    collection per batch, and this is the cheap immutable record.
    """

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

    def _assign(self, items: list[WorkItem]) -> tuple[list[float], list[float], list[float], list[int]]:
        """Distribute items over blocks; returns per-block cycle sums.

        Returns ``(compute, stall, bus, item_count)`` per block.
        """
        nb = self.num_blocks
        compute = [0.0] * nb
        stall = [0.0] * nb
        bus = [0.0] * nb
        count = [0] * nb
        if self.schedule == "static":
            # The ablation: collection i is pinned to block i mod B before
            # launch, whatever its size.
            for i, item in enumerate(items):
                b = i % nb
                compute[b] += item.compute_cycles
                stall[b] += item.memory_stall_cycles
                bus[b] += item.bus_cycles
                count[b] += 1
        else:
            # Dynamic round-robin: earliest-finishing block pops the queue.
            # Block ids are unique, so the minimum is too, and replacing
            # it in place schedules exactly what a pop and a push would.
            # (Sorted, the initial list is already a heap.)
            heap = [(0.0, b) for b in range(nb)]
            for _, c, s, u in items:
                finish, b = heap[0]
                compute[b] += c
                stall[b] += s
                bus[b] += u
                count[b] += 1
                # ``total_cycles``, summed in its order: the same float.
                heapq.heapreplace(heap, (finish + (c + s + u), b))
        return compute, stall, bus, count

    def run(self, items: list[WorkItem]) -> KernelResult:
        """Simulate the launch; returns elapsed time and balance stats."""
        spec = self.spec
        compute, stall, bus, count = self._assign(items)

        # Hardware residency: how many of an SM's blocks overlap stalls.
        blocks_per_sm = -(-self.num_blocks // spec.num_sms)
        resident = max(1, min(spec.max_blocks_per_sm, blocks_per_sm))

        block_cycles = [
            c + b + s / resident + spec.block_overhead_cycles
            for c, s, b in zip(compute, stall, bus)
        ]
        # Blocks map round-robin onto SMs; an SM's elapsed time is the sum
        # of its blocks' effective cycles (issue slots are serial) — idle
        # blocks still pay their overhead — with a fill/drain factor that
        # shrinks as the backlog per SM grows.
        sm_cycles = [0.0] * spec.num_sms
        for b, cycles in enumerate(block_cycles):
            sm_cycles[b % spec.num_sms] += cycles
        fill_drain = 1.0 + 0.5 / max(1.0, self.num_blocks / spec.num_sms)
        sm_cycles = [c * fill_drain for c in sm_cycles]

        elapsed_cycles = max(sm_cycles) + spec.kernel_launch_cycles
        return KernelResult(
            elapsed_seconds=spec.seconds(elapsed_cycles),
            elapsed_cycles=elapsed_cycles,
            num_blocks=self.num_blocks,
            resident_blocks_per_sm=resident,
            block_cycles=block_cycles,
            sm_cycles=sm_cycles,
            items_per_block=count,
        )

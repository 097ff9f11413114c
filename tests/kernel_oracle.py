"""The per-item kernel schedule that :class:`repro.gpusim.kernel.KernelLaunch`
replaced: kept verbatim as the oracle of the column schedule.

:class:`ParentKernelLaunch` sums every block's compute / stall / bus cycles
and item count in Python lists, one item at a time, inside the heap loop
(dynamic) or the ``i mod B`` loop (static); the per-block and per-SM
roll-up is the parent's too.  ``tests/test_kernel_oracle.py`` holds the
column schedule to it, ``repr`` for ``repr``.
"""

from __future__ import annotations

import heapq

from repro.gpusim.costmodel import GPUSpec, TESLA_C1060
from repro.gpusim.kernel import KernelResult, WorkItem

__all__ = ["ParentKernelLaunch"]


class ParentKernelLaunch:
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

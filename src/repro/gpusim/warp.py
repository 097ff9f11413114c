"""Warp-level execution and cycle accounting for the GPU indexer.

The paper runs one warp (32 threads) per thread block and one thread block
per trie collection at a time.  :class:`WarpExecutor` is the accounting
surface that the GPU B-tree algorithm drives; every primitive records both
*compute* cycles (always serialized on the SM's cores) and *memory stall*
cycles (hidden when other blocks are resident — the kernel scheduler
applies the occupancy discount).

Primitives and their charges (cycles, derived from
:class:`~repro.gpusim.costmodel.GPUSpec`):

==============================  =============================================
``load_node``                    one coalesced 512B stream: 8 transactions →
                                 1 latency stall + bus occupancy
``load_string_chunk``            same pattern for 512B term-string chunks
``parallel_compare``             1 SIMD step (all 31 keys at once) but a
                                 4-byte cache compare is 4 char steps
``reduce``                       log₂32 = 5 SIMD steps
``fetch_full_string``            an *uncoalesced* device read: per-line
                                 latency with no neighbours to share it
``shift``                        1 SIMD step (parallel right-shift inside
                                 the node) + node write-back occupancy
``split``                        two node writes + parent update
==============================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dictionary.layout import DEVICE_CHUNK_BYTES, NODE_SIZE_BYTES
from repro.gpusim.costmodel import GPUSpec, TESLA_C1060
from repro.gpusim.memory import coalesced_transactions
from repro.gpusim.reduction import REDUCTION_STEPS

__all__ = ["WarpExecutor", "WarpCounters"]

#: Cycles per SIMD instruction step for a full warp on 8 SPs: a 32-thread
#: warp issues over 4 clock cycles on compute-capability-1.x hardware.
CYCLES_PER_WARP_STEP = 4


@dataclass
class WarpCounters:
    """Raw event counts recorded by a warp executor."""

    compute_cycles: float = 0.0
    memory_stall_cycles: float = 0.0
    bus_cycles: float = 0.0
    node_loads: int = 0
    node_writebacks: int = 0
    string_chunk_loads: int = 0
    full_string_fetches: int = 0
    parallel_compares: int = 0
    reductions: int = 0
    shifts: int = 0
    splits: int = 0
    divergent_branches: int = 0

    def merge(self, other: "WarpCounters", times: int = 1) -> None:
        """Fold ``other`` in ``times`` times over (every charge is linear)."""
        self.compute_cycles += other.compute_cycles * times
        self.memory_stall_cycles += other.memory_stall_cycles * times
        self.bus_cycles += other.bus_cycles * times
        self.node_loads += other.node_loads * times
        self.node_writebacks += other.node_writebacks * times
        self.string_chunk_loads += other.string_chunk_loads * times
        self.full_string_fetches += other.full_string_fetches * times
        self.parallel_compares += other.parallel_compares * times
        self.reductions += other.reductions * times
        self.shifts += other.shifts * times
        self.splits += other.splits * times
        self.divergent_branches += other.divergent_branches * times

    @property
    def total_cycles(self) -> float:
        """Un-hidden sequential cycles (stall fully exposed)."""
        return self.compute_cycles + self.memory_stall_cycles + self.bus_cycles


class WarpExecutor:
    """Charges cycles for the warp B-tree algorithm's primitives."""

    def __init__(self, spec: GPUSpec = TESLA_C1060) -> None:
        self.spec = spec
        self.counters = WarpCounters()

    # ------------------------------------------------------------------ #
    # Memory movement
    # ------------------------------------------------------------------ #

    def _charge_stream(self, nbytes: int, count: int = 1) -> None:
        transactions = coalesced_transactions(0, nbytes)
        stall, bus = self.spec.memory_cycles(transactions)
        self.counters.memory_stall_cycles += stall * count
        self.counters.bus_cycles += bus * count

    def load_node(self, node_bytes: int = NODE_SIZE_BYTES, count: int = 1) -> None:
        """Move B-tree node(s) into shared memory (coalesced)."""
        self.counters.node_loads += count
        self._charge_stream(node_bytes, count)

    def writeback_node(self, node_bytes: int = NODE_SIZE_BYTES, count: int = 1) -> None:
        """Write modified node(s) back to device memory (coalesced)."""
        self.counters.node_writebacks += count
        self._charge_stream(node_bytes, count)

    def load_string_chunk(self, chunk_bytes: int = DEVICE_CHUNK_BYTES, count: int = 1) -> None:
        """Stage 512B term-string chunk(s) into shared memory."""
        self.counters.string_chunk_loads += count
        self._charge_stream(chunk_bytes, count)

    def fetch_full_string(self, nbytes: int, count: int = 1) -> None:
        """Dereference term-string pointer(s) (uncoalesced, cache ties).

        Only one lane knows the pointer, so there is nothing to coalesce:
        each touched line pays the full latency.
        """
        self.counters.full_string_fetches += count
        lines = coalesced_transactions(0, max(1, nbytes))
        stall, bus = self.spec.memory_cycles(1)
        self.counters.memory_stall_cycles += stall * lines * count
        self.counters.bus_cycles += bus * lines * count

    # ------------------------------------------------------------------ #
    # Compute steps
    # ------------------------------------------------------------------ #

    def parallel_compare(self, cache_bytes: int = 4, count: int = 1) -> None:
        """All lanes compare the query against their key's cache bytes."""
        self.counters.parallel_compares += count
        self.counters.compute_cycles += CYCLES_PER_WARP_STEP * cache_bytes * count

    def reduce(self, count: int = 1) -> None:
        """Tree reduction to the winning lane (Harris [11])."""
        self.counters.reductions += count
        self.counters.compute_cycles += CYCLES_PER_WARP_STEP * REDUCTION_STEPS * count

    def shift(self, lanes_moved: int, count: int = 1) -> None:
        """Parallel right-shift to open an insert slot (1 step)."""
        self.counters.shifts += count
        self.counters.compute_cycles += CYCLES_PER_WARP_STEP * count
        # A modified node must eventually be written back; charged by the
        # caller via writeback_node so splits don't double-count.
        del lanes_moved  # all lanes move in the same step

    def split(self, count: int = 1) -> None:
        """Split full node(s): new sibling + median move + parent insert."""
        self.counters.splits += count
        # Copy half the node out and update the parent: two coalesced
        # writes plus a few SIMD steps of bookkeeping.
        self._charge_stream(NODE_SIZE_BYTES, 2 * count)
        self.counters.compute_cycles += CYCLES_PER_WARP_STEP * 8 * count

    def diverge(self) -> None:
        """A data-dependent branch serializes the warp's two paths."""
        self.counters.divergent_branches += 1
        self.counters.compute_cycles += CYCLES_PER_WARP_STEP * 2

    def scalar_op(self, steps: int = 1) -> None:
        """Bookkeeping executed by lane 0 only (still a warp issue slot)."""
        self.counters.compute_cycles += CYCLES_PER_WARP_STEP * steps

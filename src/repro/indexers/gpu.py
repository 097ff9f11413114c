"""The GPU indexer (Section III.D.2), running on the SIMT simulator.

One thread block (one 32-thread warp) builds one trie collection's B-tree
at a time:

1. term strings are staged from device memory into shared memory in
   coalesced 512-byte chunks (Fig 6 layout);
2. each node on the root-to-leaf path is loaded into shared memory with a
   coalesced 512-byte stream (the degree-16 node exists *because* 31 keys
   match the warp);
3. all 31 key comparisons happen in one SIMD step against the 4-byte
   caches, followed by a log₂32-step parallel reduction (Fig 7) to find
   the slot — a cache tie forces an uncoalesced full-string fetch;
4. inserts shift larger keys right in parallel and write the node back;
   preemptive splits copy half the node into a new sibling.

The shared ``BTree`` finds each slot as a binary search would (bisecting
the caches); the warp's all-keys compare and reduction gives the same
slot and runs literally in
:func:`~repro.gpusim.reduction.warp_find_slot` and
:meth:`~repro.dictionary.node_codec.DeviceTreeImage.search`.

Cycles are charged per batch from B-tree op deltas: every
:class:`~repro.gpusim.warp.WarpExecutor` charge is linear in its event
count, so the cost of *one* of each event is derived once per
:class:`~repro.gpusim.costmodel.GPUSpec` by driving the executor's own
primitives (``_unit_costs``), the collections' cycles are their six
event counts times those unit costs (one integer matrix product), and
``warp_counters`` is folded once from the batch's summed counts.

The batch's ``(collections, 3)`` cycle matrix (compute, stall, bus) is
the launch: a simulated kernel (dynamic round-robin over 480 blocks,
scheduled on its columns, :meth:`~repro.gpusim.kernel.KernelLaunch.run_cycles`)
turns it into elapsed seconds, and PCIe transfers for input streams and
output postings are timed by the :class:`~repro.gpusim.device.Device` —
the pre/post-processing serialization the paper calls out as the limit on
multi-GPU scaling.  The batch's modeled seconds are the rows' totals
added left to right, and a :class:`~repro.gpusim.kernel.WorkItem` per
collection is built only when :attr:`GPUBatchReport.work_items` is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.costmodel import GPUSpec
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelResult, WorkItem
from repro.gpusim.warp import WarpCounters, WarpExecutor
from repro.dictionary.layout import DEVICE_CHUNK_BYTES
from repro.indexers.base import BaseIndexer, IndexerReport, _added_in_order
from repro.obs import runtime as obs
from repro.parsing.regroup import ParsedBatch

__all__ = ["GPUIndexer", "GPUBatchReport"]

#: Estimated device-side bytes per posting entry shipped back to the host.
_POSTING_BYTES = 8
#: Average suffix bytes fetched on a cache tie (full-string dereference).
_AVG_FETCH_BYTES = 8


@dataclass
class GPUBatchReport:
    """One batch's GPU-side outcome.

    ``collections`` are the launch's trie collections and ``cycles`` their
    compute, stall and bus cycles, a row each.
    """

    report: IndexerReport
    kernel: KernelResult | None = None
    h2d_seconds: float = 0.0
    d2h_seconds: float = 0.0
    collections: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    cycles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    @property
    def work_items(self) -> list[WorkItem]:
        """The launch as one :class:`WorkItem` per collection (built here)."""
        return list(map(WorkItem, self.collections.tolist(), *self.cycles.T.tolist()))

    @property
    def total_seconds(self) -> float:
        kernel_s = self.kernel.elapsed_seconds if self.kernel else 0.0
        return kernel_s + self.h2d_seconds + self.d2h_seconds


class GPUIndexer(BaseIndexer):
    """One GPU's indexer: a grid of warp thread blocks."""

    kind = "gpu"

    def __init__(
        self,
        indexer_id,
        shard,
        device: Device | None = None,
        num_blocks: int = 480,
        schedule: str = "dynamic",
    ) -> None:
        super().__init__(indexer_id, shard)
        self.device = device if device is not None else Device(device_id=indexer_id)
        self.grid = KernelLaunch(self.device.spec, num_blocks, schedule)
        self.warp_counters = WarpCounters()

    @property
    def lane(self) -> str:
        """GPU lanes key on the device ordinal, not the shard id."""
        return f"gpu-{self.device.device_id}"

    # ------------------------------------------------------------------ #
    # Functional indexing + cycle charging
    # ------------------------------------------------------------------ #

    def index_batch(self, batch: ParsedBatch, doc_offset: int) -> GPUBatchReport:
        """Consume owned collections; simulate transfers + kernel launch.

        Telemetry comes from :func:`repro.obs.runtime.current` per call —
        indexers are pickled into the resume checkpoint and must not hold
        a tracer (see the CPU indexer).
        """
        if not batch.regrouped:
            raise ValueError(
                "the GPU indexer requires regrouped parser output: one thread "
                "block processes one trie collection at a time"
            )
        with obs.tracer().span(
            "index_batch", cat="index", lane=self.lane, file=batch.sequence,
        ) as tags:
            out = self._index_batch_traced(batch, doc_offset)
            tags["tokens"] = out.report.tokens
            tags["collections"] = out.report.collections
        self._emit_metrics(out)
        return out

    def _index_batch_traced(self, batch: ParsedBatch, doc_offset: int) -> GPUBatchReport:
        rows = self._owned_rows(batch.order)
        tokens, chars = batch.tokens[rows], batch.chars[rows]

        # Pre-processing: ship this batch's owned streams to device memory
        # in the Fig 6 length-prefixed layout (+ a docID header per entry),
        # sized from the parser's per-collection counts.  The device-memory
        # check fires here, before any tree is touched.
        h2d_bytes = int((chars + tokens + 8 * batch.documents[rows]).sum())
        self.device.free_all()
        h2d_seconds = self.device.transfer_to_device(h2d_bytes) if h2d_bytes else 0.0

        report, _, grown = self._index_rows(batch, rows, doc_offset)

        # Every charge is linear in its event count: a collection's cycles
        # are its event counts times the unit costs, and the batch's summed
        # counts give the totals of charging collection by collection.
        spec = self.device.spec
        units, unit_cycles = _unit_costs(spec)
        counts = np.column_stack((
            # Term strings (+ length prefixes) stage through shared
            # memory in 512B coalesced chunks.
            -(-(chars + tokens) // DEVICE_CHUNK_BYTES),
            grown.node_visits, grown.full_string_fetches, grown.inserts, grown.splits,
            tokens,
        ))
        cycles = (counts @ unit_cycles).astype(float)
        compute, stall, bus = cycles.T
        # ``spec.seconds(item.total_cycles)`` per collection, in order.
        report.modeled_seconds += _added_in_order((compute + stall + bus) / spec.clock_hz)
        for unit, count in zip(units, counts.sum(axis=0).tolist()):
            self.warp_counters.merge(unit, count)

        kernel = self.device.launch(cycles, self.grid) if len(cycles) else None
        # Post-processing: postings generated this batch flow back to the
        # host for the run writer.
        d2h_bytes = report.tokens * _POSTING_BYTES
        d2h_seconds = self.device.transfer_from_device(d2h_bytes) if d2h_bytes else 0.0

        self.total.merge(report)
        return GPUBatchReport(
            report=report,
            kernel=kernel,
            h2d_seconds=h2d_seconds,
            d2h_seconds=d2h_seconds,
            collections=batch.order[rows],
            cycles=cycles,
        )

    def _emit_metrics(self, out: GPUBatchReport) -> None:
        """Deterministic per-batch counters/gauges (simulated quantities)."""
        report = out.report
        reg = obs.metrics()
        reg.count("index.gpu.tokens", report.tokens)
        reg.count("index.gpu.new_terms", report.new_terms)
        reg.count("btree.node_visits", report.btree.node_visits)
        reg.count("btree.node_splits", report.btree.splits)
        reg.count("btree.full_string_fetches", report.btree.full_string_fetches)
        reg.count("gpu.work_items", len(out.cycles))
        if out.kernel is not None:
            dev = self.device.device_id
            reg.count("gpu.kernel_launches")
            reg.count("gpu.elapsed_cycles", out.kernel.elapsed_cycles)
            # Simulated occupancy: how many of this launch's blocks were
            # resident per SM, and how unevenly work spread over blocks.
            reg.set_gauge(
                f"gpu.{dev}.resident_blocks_per_sm",
                out.kernel.resident_blocks_per_sm,
            )
            reg.set_gauge(f"gpu.{dev}.load_imbalance", out.kernel.load_imbalance)


@functools.lru_cache(maxsize=None)
def _unit_costs(spec: GPUSpec) -> tuple[tuple[WarpCounters, ...], np.ndarray]:
    """What one of each charged event costs on ``spec`` (shared: read-only).

    In the order a collection's charges are laid out: a staged 512B string
    chunk, a node visit, a cache tie, an insert, a split, a token.  Returns
    the six unit counters and their (compute, stall, bus) cycles as an
    integer matrix — every cycle charge is a whole number, so counts times
    units is exact.
    """
    chunk, visit, tie, insert, split, token = (WarpExecutor(spec) for _ in range(6))
    chunk.load_string_chunk()
    # Per node visit: coalesced node load + one SIMD compare step against
    # the 4-byte caches + the Fig 7 reduction.
    visit.load_node()
    visit.parallel_compare()
    visit.reduce()
    # Cache ties dereference the full string (uncoalesced).
    tie.fetch_full_string(_AVG_FETCH_BYTES)
    # Inserts shift larger keys right and dirty the node.
    insert.shift(0)
    insert.writeback_node()
    split.split()
    # Scalar bookkeeping: doc-ID handling, postings append per token.
    token.scalar_op(steps=2)
    units = tuple(w.counters for w in (chunk, visit, tie, insert, split, token))
    cycles = [(u.compute_cycles, u.memory_stall_cycles, u.bus_cycles) for u in units]
    return units, np.array(cycles, dtype=np.int64)

"""Warp cost accounting, kernel scheduling, and the device model."""

from __future__ import annotations

import heapq
import random

import numpy as np
import pytest

from repro.gpusim.costmodel import TESLA_C1060, GPUSpec
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, WorkItem
from repro.gpusim.warp import CYCLES_PER_WARP_STEP, WarpExecutor
from tests.kernel_oracle import ParentKernelLaunch


class TestSpec:
    def test_c1060_parameters(self):
        spec = TESLA_C1060
        assert spec.num_sms == 30
        assert spec.cores_per_sm == 8
        assert spec.warp_size == 32
        assert spec.shared_mem_bytes == 16 * 1024
        assert spec.device_memory_bytes == 4 * 1024**3
        assert 400 <= spec.mem_latency_cycles <= 600
        assert spec.coalesced_line_bytes == 64  # 16 words

    def test_node_load_is_8_transactions(self):
        assert TESLA_C1060.node_load_transactions == 8

    def test_seconds_conversion(self):
        assert TESLA_C1060.seconds(TESLA_C1060.clock_hz) == pytest.approx(1.0)

    def test_transfer_includes_latency(self):
        t = TESLA_C1060.transfer_seconds(1)
        assert t >= TESLA_C1060.pcie_latency_s
        assert TESLA_C1060.transfer_seconds(0) == 0.0


class TestWarpExecutor:
    def test_node_load_charges_stall_and_bus(self):
        w = WarpExecutor()
        w.load_node()
        assert w.counters.node_loads == 1
        assert w.counters.memory_stall_cycles == TESLA_C1060.mem_latency_cycles
        assert w.counters.bus_cycles > 0

    def test_bulk_counts_equal_repeated_calls(self):
        a, b = WarpExecutor(), WarpExecutor()
        for _ in range(10):
            a.load_node()
            a.parallel_compare()
            a.reduce()
            a.shift(0)
            a.split()
        b.load_node(count=10)
        b.parallel_compare(count=10)
        b.reduce(count=10)
        b.shift(0, count=10)
        b.split(count=10)
        assert a.counters == b.counters

    def test_compute_step_costs(self):
        w = WarpExecutor()
        w.parallel_compare(cache_bytes=4)
        assert w.counters.compute_cycles == 4 * CYCLES_PER_WARP_STEP
        w.reduce()
        assert w.counters.compute_cycles == (4 + 5) * CYCLES_PER_WARP_STEP

    def test_uncoalesced_fetch_costlier_than_node_load(self):
        coalesced, scattered = WarpExecutor(), WarpExecutor()
        coalesced.load_node(512)
        scattered.fetch_full_string(512)
        assert (
            scattered.counters.memory_stall_cycles
            > coalesced.counters.memory_stall_cycles
        )

    def test_merge(self):
        a, b = WarpExecutor(), WarpExecutor()
        a.load_node()
        b.split()
        a.counters.merge(b.counters)
        assert a.counters.splits == 1 and a.counters.node_loads == 1


class TestKernelLaunch:
    def _items(self, n=500, seed=0):
        rng = random.Random(seed)
        return [
            WorkItem(
                key=i,
                compute_cycles=rng.expovariate(1 / 3e4),
                memory_stall_cycles=rng.expovariate(1 / 3e5),
            )
            for i in range(n)
        ]

    def test_more_blocks_hide_latency(self):
        items = self._items()
        t30 = KernelLaunch(num_blocks=30).run(items).elapsed_seconds
        t240 = KernelLaunch(num_blocks=240).run(items).elapsed_seconds
        assert t240 < t30 / 2  # resident blocks overlap stalls

    def test_block_sweep_is_u_shaped(self):
        items = self._items(2000)
        times = {
            nb: KernelLaunch(num_blocks=nb).run(items).elapsed_seconds
            for nb in [30, 240, 480, 7680]
        }
        assert times[480] < times[30]
        assert times[480] < times[7680]  # per-block overhead wins eventually

    def test_dynamic_beats_static_on_skewed_items(self):
        # Adversarial for static pre-assignment: big collections recur at
        # the block-count period, so `i mod B` piles them on one block
        # while the dynamic queue spreads them.
        items = [
            WorkItem(
                key=i,
                compute_cycles=1e3,
                memory_stall_cycles=5e6 if i % 64 == 0 else 1e3,
            )
            for i in range(1000)
        ]
        dyn = KernelLaunch(num_blocks=64, schedule="dynamic").run(items)
        stat = KernelLaunch(num_blocks=64, schedule="static").run(items)
        assert dyn.elapsed_seconds < stat.elapsed_seconds
        assert dyn.load_imbalance <= stat.load_imbalance

    def test_all_items_assigned(self):
        items = self._items(123)
        result = KernelLaunch(num_blocks=16).run(items)
        assert sum(result.items_per_block) == 123

    def test_resident_blocks_capped(self):
        result = KernelLaunch(num_blocks=480).run(self._items(10))
        assert result.resident_blocks_per_sm == TESLA_C1060.max_blocks_per_sm

    def test_empty_launch(self):
        result = KernelLaunch(num_blocks=480).run([])
        assert result.elapsed_seconds > 0  # launch + block overhead only
        assert result.load_imbalance >= 1.0

    @pytest.mark.parametrize("num_blocks", [1, 7, 30, 480])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dynamic_schedule_matches_pop_push_loop(self, num_blocks, seed):
        # The schedule as a heappop + heappush per item, reading
        # ``total_cycles`` and summing each block's cycles as it goes (the
        # per-item oracle's roll-up): the column schedule must give the
        # same result, bit for bit.  Cycles drawn from a few decimals tie block finish
        # times (the unique block id breaks them) and would not tie if the
        # three terms were added to the finish time one by one.
        rng = random.Random(seed)
        cycles = (0.1, 0.2, 0.3, 0.7)
        items = [
            WorkItem(i, rng.choice(cycles), rng.choice(cycles), rng.choice(cycles))
            for i in range(300)
        ] + self._items(200, seed)

        class PopPush(ParentKernelLaunch):
            def _assign(self, items):
                nb = self.num_blocks
                compute, stall, bus, count = [0.0] * nb, [0.0] * nb, [0.0] * nb, [0] * nb
                heap = [(0.0, b) for b in range(nb)]
                heapq.heapify(heap)
                for item in items:
                    finish, b = heapq.heappop(heap)
                    compute[b] += item.compute_cycles
                    stall[b] += item.memory_stall_cycles
                    bus[b] += item.bus_cycles
                    count[b] += 1
                    heapq.heappush(heap, (finish + item.total_cycles, b))
                return compute, stall, bus, count

        expected = KernelLaunch(num_blocks=num_blocks).run(items)
        assert PopPush(num_blocks=num_blocks).run(items) == expected

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            KernelLaunch(num_blocks=0)
        with pytest.raises(ValueError):
            KernelLaunch(schedule="magic")


class TestDevice:
    def test_memory_bounds(self):
        dev = Device(spec=GPUSpec(device_memory_bytes=1000))
        dev.alloc(800)
        with pytest.raises(MemoryError):
            dev.alloc(300)
        dev.free_all()
        dev.alloc(1000)

    def test_transfer_accounting(self):
        dev = Device()
        t1 = dev.transfer_to_device(1 << 20)
        t2 = dev.transfer_from_device(1 << 10)
        assert dev.transfer_seconds_total == t1 + t2
        assert (dev.h2d_bytes, dev.d2h_bytes) == (1 << 20, 1 << 10)

    def test_launch_accumulates_time(self):
        dev = Device()
        dev.launch(np.array([[1e6, 0.0, 0.0]]))  # one item: compute, stall, bus
        dev.launch(np.array([[1e6, 0.0, 0.0]]))
        assert dev.launches == 2
        assert dev.kernel_seconds > 0

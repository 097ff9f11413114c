"""The discrete-event simulator: effects, resources, stores, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Get, Put, Request, Simulator, Timeout
from repro.sim.resources import Resource, Store


class TestTimeouts:
    def test_clock_advances(self):
        sim = Simulator()
        times = []

        def proc():
            yield Timeout(1.5)
            times.append(sim.now)
            yield Timeout(2.0)
            times.append(sim.now)

        sim.add_process(proc(), "p")
        end = sim.run()
        assert times == [1.5, 3.5]
        assert end == 3.5

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1)

    def test_until_horizon(self):
        sim = Simulator()

        def proc():
            yield Timeout(100.0)

        sim.add_process(proc(), "slow")
        assert sim.run(until=10.0) == 10.0
        assert sim.run() == 100.0  # resumable past the horizon

    def test_process_result(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            return "done"

        p = sim.add_process(proc(), "p")
        sim.run()
        assert p.finished and p.result == "done" and p.finish_time == 1.0

    def test_unknown_effect_rejected(self):
        sim = Simulator()

        def proc():
            yield "not an effect"

        sim.add_process(proc(), "bad")
        with pytest.raises(TypeError):
            sim.run()


class TestResources:
    def test_mutex_serializes(self):
        sim = Simulator()
        disk = Resource("disk", capacity=1)
        grants = []

        def proc(name):
            yield Request(disk)
            grants.append((sim.now, name, "acq"))
            yield Timeout(1.0)
            disk.release()

        sim.add_process(proc("a"), "a")
        sim.add_process(proc("b"), "b")
        sim.run()
        assert [(t, n) for t, n, _ in grants] == [(0.0, "a"), (1.0, "b")]
        assert disk.total_wait_s == 1.0
        assert disk.grants == 2

    def test_fifo_order(self):
        sim = Simulator()
        res = Resource("r", capacity=1)
        order = []

        def holder():
            yield Request(res)
            yield Timeout(5.0)
            res.release()

        def waiter(name, delay):
            yield Timeout(delay)
            yield Request(res)
            order.append(name)
            res.release()

        sim.add_process(holder(), "h")
        sim.add_process(waiter("late", 2.0), "late")
        sim.add_process(waiter("early", 1.0), "early")
        sim.run()
        assert order == ["early", "late"]

    def test_capacity_two(self):
        sim = Simulator()
        res = Resource("r", capacity=2)
        concurrent = []

        def proc():
            yield Request(res)
            concurrent.append(res.in_use)
            yield Timeout(1.0)
            res.release()

        for i in range(3):
            sim.add_process(proc(), f"p{i}")
        sim.run()
        assert max(concurrent) == 2

    def test_release_idle_rejected(self):
        with pytest.raises(RuntimeError):
            Resource("r").release()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource("r", capacity=0)


class TestStores:
    def test_put_get_fifo(self):
        sim = Simulator()
        store = Store("s", capacity=10)
        got = []

        def producer():
            for i in range(5):
                yield Put(store, i)
                yield Timeout(1.0)

        def consumer():
            for _ in range(5):
                item = yield Get(store)
                got.append(item)

        sim.add_process(producer(), "prod")
        sim.add_process(consumer(), "cons")
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_bounded_buffer_backpressure(self):
        sim = Simulator()
        store = Store("s", capacity=1)
        put_times = []

        def producer():
            for i in range(3):
                yield Put(store, i)
                put_times.append(sim.now)

        def consumer():
            for _ in range(3):
                yield Get(store)
                yield Timeout(2.0)

        sim.add_process(producer(), "prod")
        sim.add_process(consumer(), "cons")
        sim.run()
        # First two puts immediate (one handed to consumer, one buffered);
        # the third blocks until the consumer frees a slot at t=2.
        assert put_times == [0.0, 0.0, 2.0]
        assert store.producer_blocked_s == pytest.approx(2.0)

    def test_consumer_blocks_until_put(self):
        sim = Simulator()
        store = Store("s")
        got_at = []

        def producer():
            yield Timeout(3.0)
            yield Put(store, "x")

        def consumer():
            item = yield Get(store)
            got_at.append((sim.now, item))

        sim.add_process(consumer(), "cons")
        sim.add_process(producer(), "prod")
        sim.run()
        assert got_at == [(3.0, "x")]
        assert store.consumer_blocked_s == pytest.approx(3.0)

    def test_deadlock_detected(self):
        sim = Simulator()
        store = Store("s")

        def consumer():
            yield Get(store)  # nobody will ever put

        sim.add_process(consumer(), "stuck")
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Store("s", capacity=0)


class TestDeterminism:
    @settings(max_examples=20)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=4),
    )
    def test_identical_runs(self, delays, nprocs):
        """Same program → same timeline, twice."""

        def build():
            sim = Simulator()
            res = Resource("r", capacity=1)
            store = Store("s", capacity=2)
            log = []

            def worker(wid):
                for d in delays:
                    yield Request(res)
                    yield Timeout(d)
                    res.release()
                    yield Put(store, (wid, d))

            def sink():
                for _ in range(len(delays) * nprocs):
                    item = yield Get(store)
                    log.append((sim.now, item))

            for w in range(nprocs):
                sim.add_process(worker(w), f"w{w}")
            sim.add_process(sink(), "sink")
            end = sim.run()
            return end, log

        assert build() == build()

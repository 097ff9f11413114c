"""The SPSC shared-memory ring: framing, liveness, and leak hygiene.

No build uses the ring any more (``repro.core.shm_ring``'s docstring);
the frozen benchmark harness still drives it, so the three properties
that drive leans on stay pinned until the module goes (ROADMAP item
5(v)): frames roundtrip exactly (including frames larger than the ring,
which stream through in chunks), a timed-out ``get_frame`` loses no
bytes (partial frames resume), and every created segment is registered
so sweeps and orphan scans can find it.
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory

import pytest

from repro.core.shm_ring import (
    SHM_PREFIX,
    RingTimeout,
    ShmRing,
    forget_inherited_segments,
    list_repro_segments,
    orphan_segments,
    sweep_created_segments,
)
from repro.obs.runtime import Telemetry, session


@pytest.fixture
def ring():
    r = ShmRing.create("test", capacity=256)
    yield r
    r.unlink()


class TestFraming:
    def test_small_frame_roundtrip(self, ring):
        ring.put_frame(b"hello")
        assert ring.get_frame() == b"hello"

    def test_empty_frame(self, ring):
        ring.put_frame(b"")
        assert ring.get_frame() == b""

    def test_fifo_order(self, ring):
        for i in range(10):
            ring.put_frame(f"msg-{i}".encode())
        for i in range(10):
            assert ring.get_frame() == f"msg-{i}".encode()

    def test_frame_larger_than_capacity_streams_through(self, ring):
        """A 64 KiB frame through a 256-byte ring: chunked, exact."""
        big = bytes(range(256)) * 256
        consumer_got = []

        def consume():
            consumer_got.append(ring.get_frame())

        t = threading.Thread(target=consume)
        t.start()
        ring.put_frame(big)  # blocks until the consumer drains chunks
        t.join(timeout=30)
        assert not t.is_alive()
        assert consumer_got == [big]

    def test_wraparound_many_frames(self, ring):
        """Total bytes ≫ capacity exercises the circular arithmetic."""
        attached = ShmRing.attach(ring.spec())
        try:
            payloads = [bytes([i % 251]) * (i % 97) for i in range(300)]

            def produce():
                for p in payloads:
                    ring.put_frame(p)

            t = threading.Thread(target=produce)
            t.start()
            for p in payloads:
                assert attached.get_frame(timeout=30) == p
            t.join(timeout=30)
        finally:
            attached.close()


class TestTimeouts:
    def test_get_times_out_to_none(self, ring):
        assert ring.get_frame(timeout=0.05) is None

    def test_partial_frame_survives_timeout(self, ring):
        """Bytes received before a timeout resume on the next call."""
        # Write only the first chunk of a frame bigger than the ring:
        # the consumer times out mid-frame, then the producer finishes.
        big = b"x" * 600
        t = threading.Thread(target=ring.put_frame, args=(big,))
        t.start()
        pieces = None
        deadline = 100
        while pieces is None and deadline:
            pieces = ring.get_frame(timeout=0.01)
            deadline -= 1
        t.join(timeout=30)
        assert pieces == big

    def test_put_times_out_when_full(self, ring):
        ring.put_frame(b"y" * 200)  # fills most of the 256-byte ring
        with pytest.raises(RingTimeout):
            ring.put_frame(b"z" * 200, timeout=0.05)

    def test_on_wait_callback_runs_while_polling(self, ring):
        calls = []
        ring.get_frame(timeout=0.05, on_wait=lambda: calls.append(1))
        assert calls


class TestHeartbeats:
    def test_beats_are_independent_counters(self, ring):
        assert ring.beats("producer") == 0
        assert ring.beats("consumer") == 0
        ring.beat("producer")
        ring.beat("producer")
        ring.beat("consumer")
        assert ring.beats("producer") == 2
        assert ring.beats("consumer") == 1

    def test_beats_visible_across_attach(self, ring):
        attached = ShmRing.attach(ring.spec())
        try:
            attached.beat("producer")
            assert ring.beats("producer") == 1
        finally:
            attached.close()


class TestSegmentHygiene:
    def test_created_segment_is_listed_then_unlinked(self):
        r = ShmRing.create("hygiene", capacity=64)
        assert r.name in list_repro_segments()
        r.unlink()
        assert r.name not in list_repro_segments()

    def test_sweep_reclaims_unclosed_segment(self):
        r = ShmRing.create("leak", capacity=64)
        name = r.name
        swept = sweep_created_segments()
        assert name in swept
        assert name not in list_repro_segments()
        assert sweep_created_segments() == []  # idempotent

    def test_forget_inherited_makes_sweep_a_noop(self):
        """What a forked worker does: disown, never unlink."""
        r = ShmRing.create("inherit", capacity=64)
        try:
            forget_inherited_segments()
            assert sweep_created_segments() == []
            assert r.name in list_repro_segments()  # segment untouched
        finally:
            # Re-acquire ownership path: unlink directly.
            r.unlink()

    def test_orphan_scan_flags_dead_pid(self):
        fake = f"{SHM_PREFIX}_999999999_0_ghost"
        seg = shared_memory.SharedMemory(name=fake, create=True, size=64)
        try:
            assert fake in orphan_segments()
        finally:
            seg.close()
            seg.unlink()

    def test_live_pid_segment_is_not_an_orphan(self):
        r = ShmRing.create("alive", capacity=64)
        try:
            assert r.name not in orphan_segments()
        finally:
            r.unlink()

    def test_malformed_repro_name_counts_as_orphan(self):
        """A ``repro_*`` segment with no parsable creator pid cannot be
        proven live, so the scan must flag it."""
        fake = "repro_malformed_no_pid_here"
        seg = shared_memory.SharedMemory(name=fake, create=True, size=64)
        try:
            assert fake in list_repro_segments()
            assert fake in orphan_segments()
        finally:
            seg.close()
            seg.unlink()

    def test_non_repro_segments_are_invisible(self):
        """Foreign shared memory is never listed, flagged, or swept."""
        foreign = "unrelated_app_segment"
        seg = shared_memory.SharedMemory(name=foreign, create=True, size=64)
        try:
            assert foreign not in list_repro_segments()
            assert foreign not in orphan_segments()
            assert foreign not in sweep_created_segments()
            # Still attachable afterwards: the sweep really left it alone.
            probe = shared_memory.SharedMemory(name=foreign)
            probe.close()
        finally:
            seg.close()
            seg.unlink()

    def test_sweep_after_forget_only_reclaims_new_segments(self):
        """A forked worker forgets inherited segments, then creates
        nothing of its own — but if it *did* create one, a later sweep
        must reclaim only that one."""
        inherited = ShmRing.create("inherited", capacity=64)
        try:
            forget_inherited_segments()
            own = ShmRing.create("own", capacity=64)
            swept = sweep_created_segments()
            assert swept == [own.name]
            assert inherited.name in list_repro_segments()
        finally:
            inherited.unlink()


class TestRingTelemetry:
    """The ``shm.ring.*`` metrics: present when armed, invisible when not.

    The hard property is *byte identity*: telemetry observes ring state
    but never touches ring bytes, so an identical operation sequence
    leaves an identical segment whether or not a session is installed.
    """

    @staticmethod
    def _drive(r: ShmRing) -> None:
        r.put_frame(b"alpha")
        r.put_frame(b"beta--beta")
        assert r.get_frame() == b"alpha"

    def test_ring_bytes_identical_with_and_without_telemetry(self):
        plain = ShmRing.create("plain", capacity=256)
        try:
            self._drive(plain)
            plain_bytes = bytes(plain._buf)
        finally:
            plain.unlink()
        with session(Telemetry.create()):
            observed = ShmRing.create("observed", capacity=256)
            try:
                self._drive(observed)
                observed_bytes = bytes(observed._buf)
            finally:
                observed.unlink()
        assert observed_bytes == plain_bytes

    def test_disabled_telemetry_resolves_to_no_registry(self):
        from repro.core.shm_ring import _ring_metrics

        assert _ring_metrics() is None

    def test_put_records_frame_size_and_occupancy(self):
        with session(Telemetry.create()) as t:
            r = ShmRing.create("sized", capacity=256)
            try:
                self._drive(r)
            finally:
                r.unlink()
            snap = t.metrics.snapshot()
        hists = snap["histograms"]
        assert "shm.ring.frame_bytes" in hists
        assert "shm.ring.occupancy_bytes" in hists
        # Two puts, no waits on an uncontended ring.
        assert "shm.ring.producer_wait_polls" not in snap["counters"]

    def test_timed_out_get_flushes_consumer_wait_counters(self):
        with session(Telemetry.create()) as t:
            r = ShmRing.create("waited", capacity=256)
            try:
                assert r.get_frame(timeout=0.05) is None
            finally:
                r.unlink()
            counters = t.metrics.snapshot()["counters"]
        assert counters["shm.ring.consumer_wait_polls"] >= 1
        assert counters["shm.ring.consumer_wait_s"] > 0

    def test_timed_out_put_flushes_producer_wait_counters(self):
        with session(Telemetry.create()) as t:
            r = ShmRing.create("full", capacity=256)
            try:
                r.put_frame(b"y" * 200)
                with pytest.raises(RingTimeout):
                    r.put_frame(b"z" * 200, timeout=0.05)
            finally:
                r.unlink()
            counters = t.metrics.snapshot()["counters"]
        assert counters["shm.ring.producer_wait_polls"] >= 1
        assert counters["shm.ring.producer_wait_s"] > 0

    # Frames chosen so the third put wraps the head/tail boundary on a
    # 32-byte ring: 12+4 then 8+4 bytes fill to offset 28; after both
    # are consumed, the 20+4-byte frame starts at pos 28 and wraps.
    @staticmethod
    def _drive_wrapping(r: ShmRing) -> None:
        r.put_frame(b"a" * 12)
        r.put_frame(b"b" * 8)
        assert r.get_frame() == b"a" * 12
        assert r.get_frame() == b"b" * 8
        r.put_frame(b"c" * 20)
        assert r.get_frame() == b"c" * 20

    def test_histograms_across_wraparound(self):
        with session(Telemetry.create()) as t:
            r = ShmRing.create("wrapped", capacity=32)
            try:
                self._drive_wrapping(r)
            finally:
                r.unlink()
            snap = t.metrics.snapshot()
        frame_hist = snap["histograms"]["shm.ring.frame_bytes"]
        occ_hist = snap["histograms"]["shm.ring.occupancy_bytes"]
        assert frame_hist["count"] == 3
        assert occ_hist["count"] == 3
        # Payload sizes survive the wrap: 12 + 8 + 20.
        assert frame_hist["sum"] == 40
        # Occupancy at each put: 0, 16 (first frame unread), 0.
        assert occ_hist["sum"] == 16

    def test_ring_bytes_identical_across_wraparound_with_telemetry(self):
        plain = ShmRing.create("plain-wrap", capacity=32)
        try:
            self._drive_wrapping(plain)
            plain_bytes = bytes(plain._buf)
        finally:
            plain.unlink()
        with session(Telemetry.create()):
            observed = ShmRing.create("obs-wrap", capacity=32)
            try:
                self._drive_wrapping(observed)
                observed_bytes = bytes(observed._buf)
            finally:
                observed.unlink()
        assert observed_bytes == plain_bytes

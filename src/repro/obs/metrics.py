"""The metrics registry: counters, gauges, fixed-bucket histograms.

Three instrument kinds, mirroring the usual production trio:

- :class:`Counter` — monotonically increasing totals (docs parsed,
  tokens emitted, B-tree node splits, retry counts);
- :class:`Gauge` — last-write-wins values (dictionary term count,
  string-heap bytes, simulated warp occupancy);
- :class:`Histogram` — fixed-bucket distributions (per-file bytes,
  postings per run).  Buckets are *upper bounds*: ``counts[i]`` counts
  observations ``v <= buckets[i]``; the final slot is the overflow.

Everything recorded here must be **seed-deterministic**: identical
seeded builds produce identical registry contents.  Wall-clock durations
never enter the registry — they travel in the separate ``timings``
section of ``run.metrics.json`` (see :mod:`repro.obs.schema`), which the
determinism test explicitly excludes.

The :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.delta`
pair is the benchmark-facing API: snapshot before and after a region,
diff the two, and assert on exactly the work that region did.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BYTE_BUCKETS",
]

#: Default histogram geometry: powers of four from 4 B to ~1 GiB.  A
#: coarse exponential ladder keeps bucket counts stable across corpus
#: scales while still separating "tiny header" from "1 GB container".
DEFAULT_BYTE_BUCKETS: tuple[int, ...] = tuple(4 ** k for k in range(1, 16))


class Counter:
    """A monotonically increasing total.

    ``inc`` takes the instrument's own lock: ``value += amount`` is a
    read-modify-write that would lose updates if two threads hit the
    same counter between bytecodes.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (by {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A fixed-bucket distribution with an overflow slot.

    ``buckets`` are sorted upper bounds; ``counts`` has one extra slot
    for observations above the last bound.  Bucketing uses ``<=`` on the
    bound (bisect-left over bounds), so an observation exactly on a
    bound lands in that bound's bucket.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "_lock")

    def __init__(self, name: str, buckets: Iterable[int | float] | None = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BYTE_BUCKETS
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} buckets must be sorted: {bounds}")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} buckets must be distinct: {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total: int | float = 0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: int | float) -> None:
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # bisect_left over the upper bounds
            mid = (lo + hi) // 2
            if self.buckets[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        with self._lock:
            self.counts[lo] += 1
            self.total += value
            self.count += 1

    def bucket_for(self, value: int | float) -> int:
        """Index of the bucket ``observe(value)`` would increment."""
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is bound to exactly one instrument kind for the registry's
    lifetime; asking for the same name as a different kind is a bug and
    raises immediately.  Creation is lock-protected, and every instrument
    carries its own lock around its read-modify-write, so threads can
    record concurrently without losing updates.  Locks make the *totals* exact;
    determinism additionally requires the recorded values themselves be
    seed-deterministic (see the module docstring).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Instrument access
    # ------------------------------------------------------------------ #

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already a {other_kind}, cannot "
                    f"re-register as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.get(name)
                if c is None:
                    self._check_unique(name, "counter")
                    c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.get(name)
                if g is None:
                    self._check_unique(name, "gauge")
                    g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, buckets: Iterable[int | float] | None = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.get(name)
                if h is None:
                    self._check_unique(name, "histogram")
                    h = self._histograms[name] = Histogram(name, buckets)
        return h

    # Convenience one-liners for call sites that touch a metric once.
    def count(self, name: str, amount: int | float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: int | float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: int | float,
                buckets: Iterable[int | float] | None = None) -> None:
        self.histogram(name, buckets).observe(value)

    # ------------------------------------------------------------------ #
    # Snapshot / delta — the benchmark-facing assertion API
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A deep, immutable-enough copy of every instrument's state."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum": h.total,
                    }
                    for n, h in sorted(self._histograms.items())
                },
            }

    @staticmethod
    def delta(
        before: Mapping[str, dict[str, object]],
        after: Mapping[str, dict[str, object]],
    ) -> dict[str, dict[str, object]]:
        """What changed between two snapshots.

        Counters diff numerically; gauges report the new value when it
        changed; histograms diff per-bucket counts.  Metrics absent from
        ``before`` diff against zero, so a delta over a freshly created
        region reads as that region's absolute work.  A metric that
        newly *appeared* is reported even at zero: the multiprocess
        backend replays deltas into the engine registry, and a
        zero-valued counter (``btree.node_splits`` on a split-free
        build) must still materialize there for the metrics file to be
        backend-independent.
        """
        out: dict[str, dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
        b_counters = before.get("counters", {})
        for name, value in after.get("counters", {}).items():
            diff = value - b_counters.get(name, 0)
            if diff or name not in b_counters:
                out["counters"][name] = diff
        b_gauges = before.get("gauges", {})
        for name, value in after.get("gauges", {}).items():
            if name not in b_gauges or b_gauges[name] != value:
                out["gauges"][name] = value
        b_hists = before.get("histograms", {})
        for name, h in after.get("histograms", {}).items():
            prev = b_hists.get(
                name, {"counts": [0] * len(h["counts"]), "count": 0, "sum": 0}
            )
            counts = [a - b for a, b in zip(h["counts"], prev["counts"])]
            if any(counts) or name not in b_hists:
                out["histograms"][name] = {
                    "buckets": list(h["buckets"]),
                    "counts": counts,
                    "count": h["count"] - prev["count"],
                    "sum": h["sum"] - prev["sum"],
                }
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: int | float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: int | float) -> None:
        return None


class NullRegistry(MetricsRegistry):
    """The disabled registry: instruments exist but discard writes.

    Callers keep their unconditional ``metrics.count(...)`` call sites;
    a disabled build pays one dict lookup per touch and stores nothing.
    """

    enabled = False

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = _NullCounter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = _NullGauge(name)
        return g

    def histogram(
        self, name: str, buckets: Iterable[int | float] | None = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = _NullHistogram(name, buckets)
        return h

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

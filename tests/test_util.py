"""RNG derivation, timers, and report formatting."""

from __future__ import annotations

import pytest

from repro.util.fmt import fmt_bytes, fmt_count, fmt_mbps, fmt_seconds, render_table
from repro.util.rng import derive_seed, make_rng
from repro.util.timing import Stopwatch, Timer


class TestRng:
    def test_default_seed_deterministic(self):
        assert make_rng().random() == make_rng().random()

    def test_explicit_seed(self):
        assert make_rng(42).random() == make_rng(42).random()
        assert make_rng(42).random() != make_rng(43).random()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "vocab", 3) == derive_seed(1, "vocab", 3)

    def test_derive_seed_distinct_labels(self):
        seeds = {
            derive_seed(1, "vocab", 0),
            derive_seed(1, "vocab", 1),
            derive_seed(1, "sampler", 0),
            derive_seed(2, "vocab", 0),
        }
        assert len(seeds) == 4

    def test_derive_seed_in_range(self):
        s = derive_seed(10**18, "x" * 100)
        assert 0 <= s < 2**63


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0

    def test_stopwatch_charge_and_total(self):
        w = Stopwatch()
        w.charge("a", 1.5)
        w.charge("a", 0.5)
        w.charge("b", 1.0)
        assert w.get("a") == pytest.approx(2.0)
        assert w.total() == pytest.approx(3.0)
        assert w.get("missing") == 0.0

    def test_stopwatch_negative_rejected(self):
        with pytest.raises(ValueError):
            Stopwatch().charge("x", -1.0)

    def test_stopwatch_measure_context(self):
        w = Stopwatch()
        with w.measure("block"):
            sum(range(100))
        assert w.get("block") > 0.0


class TestFmt:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512B"
        assert fmt_bytes(1536) == "1.50KB"
        assert fmt_bytes(230 * 1024**3) == "230.00GB"

    def test_fmt_count(self):
        assert fmt_count(50_220_423) == "50,220,423"

    def test_fmt_mbps(self):
        assert fmt_mbps(1024 * 1024 * 100, 2.0) == "50.00 MB/s"
        assert fmt_mbps(1, 0) == "inf MB/s"

    def test_fmt_seconds(self):
        assert fmt_seconds(5541.6245) == "5541.62"

    def test_render_table_aligns(self):
        text = render_table(["a", "long header"], [[1, 2], ["xyz", "w"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]

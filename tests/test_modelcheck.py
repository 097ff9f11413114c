"""Tests for the bounded protocol model checker (``repro lint --protocol``).

Two layers: the explorer itself (:mod:`repro.lint.modelcheck`) against a
toy model, and the two shipped protocol models
(:mod:`repro.lint.protocol`) — the correct variants must pass an
exhaustive exploration, and every seeded *bug knob* (the exact mistakes
the checker exists to prevent) must be caught with a counterexample
trace and the right invariant family.
"""

from __future__ import annotations

import pytest

from repro.lint.modelcheck import explore
from repro.lint.protocol import (
    INVARIANT_FAMILIES,
    RingProtocolModel,
    SegmentProtocolModel,
    default_models,
    verify_protocol,
)


# ---------------------------------------------------------------------- #
# The explorer, on a toy model
# ---------------------------------------------------------------------- #


class _Counter:
    """Counts 0..limit; optionally violates, optionally deadlocks."""

    name = "counter"

    def __init__(self, limit=3, violate_at=None, deadlock_at=None):
        self.limit = limit
        self.violate_at = violate_at
        self.deadlock_at = deadlock_at

    def initial_states(self):
        return [0]

    def actions(self, s):
        if s == self.deadlock_at:
            return []
        if s < self.limit:
            return [("inc", s + 1)]
        return []

    def invariants(self):
        def check(s):
            if self.violate_at is not None and s == self.violate_at:
                return f"hit forbidden value {s}"
            return None

        return [("no-forbidden-value", check)]

    def is_terminal(self, s):
        return s == self.limit


class TestExplorer:
    def test_clean_model_explores_every_state(self):
        result = explore(_Counter(limit=4))
        assert result.ok
        assert result.complete
        assert result.states == 5
        assert result.transitions == 4
        assert result.terminal_states == 1
        assert result.violations == []
        assert result.deadlocks == []

    def test_violation_carries_a_minimal_trace(self):
        result = explore(_Counter(limit=4, violate_at=2))
        assert not result.ok
        v = result.violations[0]
        assert v.invariant == "no-forbidden-value"
        assert "forbidden" in v.detail
        assert v.trace == ("inc", "inc")
        assert "no-forbidden-value" in v.render()

    def test_nonterminal_dead_end_is_a_bounded_wait_deadlock(self):
        result = explore(_Counter(limit=4, deadlock_at=2))
        assert not result.ok
        assert result.deadlocks
        assert result.violations == []

    def test_state_budget_marks_exploration_incomplete(self):
        result = explore(_Counter(limit=100), max_states=10)
        assert not result.complete
        assert result.states == 10


# ---------------------------------------------------------------------- #
# The shipped models, correct variants
# ---------------------------------------------------------------------- #


class TestCorrectProtocols:
    def test_ring_model_passes_exhaustively(self):
        result = explore(RingProtocolModel())
        assert result.ok, [v.render() for v in result.violations]
        assert result.complete
        assert result.states > 100  # a real interleaving space, not a toy
        assert result.terminal_states > 0

    def test_segment_model_passes_exhaustively(self):
        result = explore(SegmentProtocolModel())
        assert result.ok, [v.render() for v in result.violations]
        assert result.complete

    def test_verify_protocol_reports_all_families(self):
        reports = verify_protocol()
        assert [r.name for r in reports] == ["spsc-ring", "segment-ownership"]
        assert all(r.ok for r in reports)
        covered = set()
        for r in reports:
            assert all(r.families.values()), (r.name, r.families)
            covered |= set(r.families)
        # The acceptance contract: every advertised family is actually
        # checked by some model, plus liveness.
        assert set(INVARIANT_FAMILIES) <= covered
        assert "bounded-wait" in covered

    def test_report_to_dict_is_json_shaped(self):
        report = verify_protocol()[0]
        d = report.to_dict()
        assert d["model"] == "spsc-ring"
        assert d["complete"] is True
        assert d["states"] > 0
        assert isinstance(d["families"], dict)
        assert d["violations"] == []

    def test_ring_model_covers_crashes_on_both_roles(self):
        """The default exploration includes at least one producer and one
        consumer crash (the acceptance floor for --protocol)."""
        model = RingProtocolModel()
        assert model.producer_crashes >= 1
        assert model.consumer_crashes >= 1
        assert model.capacity >= 2 * model.frame_len
        labels = set()
        frontier = list(model.initial_states())
        seen = set(frontier)
        while frontier:
            s = frontier.pop()
            for label, succ in model.actions(s):
                labels.add(label)
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        assert "crash.producer" in labels
        assert "crash.consumer" in labels


# ---------------------------------------------------------------------- #
# Seeded mutations: the checker must catch the exact bugs it models
# ---------------------------------------------------------------------- #


_MUTATIONS = [
    (RingProtocolModel(bug="publish-before-copy"), "torn-frame"),
    (RingProtocolModel(bug="overwrite-unread"), "torn-frame"),
    (RingProtocolModel(bug="consumer-early-publish"), "torn-frame"),
    (RingProtocolModel(bug="nonmonotonic-heartbeat"), "heartbeat-monotonicity"),
    (SegmentProtocolModel(bug="no-forget-inherited"), "double-unlink"),
    (SegmentProtocolModel(bug="unlink-without-forget"), "double-unlink"),
]


class TestSeededMutations:
    @pytest.mark.parametrize(
        "model,family", _MUTATIONS,
        ids=[f"{m.name}-{m.bug}" for m, _ in _MUTATIONS],
    )
    def test_mutant_is_caught_with_the_right_family(self, model, family):
        result = explore(model)
        assert not result.ok
        families = {v.invariant for v in result.violations}
        if not families:
            # Liveness-only failures surface as deadlocks.
            assert result.deadlocks
        else:
            assert family in families, families
        if result.violations:
            # Counterexamples are replayable: a non-empty action trace.
            assert result.violations[0].trace

    def test_default_models_are_the_correct_variants(self):
        for model in default_models():
            assert getattr(model, "bug", None) is None

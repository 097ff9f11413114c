"""Section III.E: sampling, popularity, and the CPU/GPU binding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexers.assignment import (
    PopularityPolicy,
    WorkAssignment,
    build_assignment,
    sample_collection,
)

token_counts = st.dictionaries(
    st.integers(min_value=0, max_value=17612),
    st.integers(min_value=1, max_value=10_000),
    min_size=1,
    max_size=300,
)


class TestSampling:
    def test_sample_counts_by_collection(self, tiny_collection):
        counts = sample_collection(tiny_collection, sample_fraction=0.3)
        assert counts
        assert all(tok > 0 for tok in counts.values())
        full = sample_collection(tiny_collection, sample_fraction=1.0)
        assert sum(full.values()) > sum(counts.values())

    def test_invalid_fraction(self, tiny_collection):
        with pytest.raises(ValueError):
            sample_collection(tiny_collection, sample_fraction=0.0)

    def test_max_files_limits_io(self, tiny_collection):
        limited = sample_collection(tiny_collection, sample_fraction=1.0, max_files=1)
        full = sample_collection(tiny_collection, sample_fraction=1.0)
        assert sum(limited.values()) < sum(full.values())


class TestPopularityPolicy:
    def test_head_collections_selected(self):
        counts = {i: 1000 // (i + 1) for i in range(100)}
        popular, unpopular = PopularityPolicy(max_popular=5, token_coverage=1.0).classify(counts)
        assert popular == [0, 1, 2, 3, 4]
        assert len(unpopular) == 95

    def test_coverage_stops_early(self):
        counts = {0: 900, 1: 50, 2: 25, 3: 25}
        popular, _ = PopularityPolicy(max_popular=10, token_coverage=0.5).classify(counts)
        assert popular == [0]

    def test_deterministic_tie_break(self):
        counts = {5: 10, 3: 10, 8: 10}
        p1, _ = PopularityPolicy(max_popular=2, token_coverage=1.0).classify(counts)
        p2, _ = PopularityPolicy(max_popular=2, token_coverage=1.0).classify(counts)
        assert p1 == p2 == [3, 5]


class TestBuildAssignment:
    def test_paper_example_mod_n2(self):
        """The paper's worked example: unpopular (0, 13, 27, 175, 384,
        5810, 10041, 17316) over two GPUs."""
        unpopular = [0, 13, 27, 175, 384, 5810, 10041, 17316]
        counts = {c: 1 for c in unpopular}
        counts[1] = 10**9  # one clearly popular collection
        assign = build_assignment(
            counts, num_cpu_indexers=1, num_gpus=2,
            policy=PopularityPolicy(max_popular=1, token_coverage=0.99),
        )
        assert assign.gpu_sets[0] == {0, 384, 5810, 17316}
        assert assign.gpu_sets[1] == {13, 27, 175, 10041}

    def test_cpu_sets_token_balanced(self):
        counts = {i: 100 - i for i in range(100)}
        assign = build_assignment(
            counts, num_cpu_indexers=4, num_gpus=1,
            policy=PopularityPolicy(max_popular=100, token_coverage=0.9),
        )
        loads = [sum(counts[c] for c in s) for s in assign.cpu_sets]
        assert max(loads) - min(loads) <= max(counts.values())

    def test_no_gpus_everything_on_cpus(self):
        counts = {i: i + 1 for i in range(50)}
        assign = build_assignment(counts, num_cpu_indexers=3, num_gpus=0)
        assert not assign.gpu_sets
        covered = set().union(*assign.cpu_sets)
        assert covered == set(counts)

    def test_no_cpus_everything_on_gpus(self):
        counts = {i: i + 1 for i in range(50)}
        assign = build_assignment(counts, num_cpu_indexers=0, num_gpus=2)
        assert not assign.cpu_sets
        for cidx in counts:
            assert cidx in assign.gpu_sets[cidx % 2]

    def test_no_indexers_rejected(self):
        with pytest.raises(ValueError):
            build_assignment({1: 1}, num_cpu_indexers=0, num_gpus=0)

    def test_owner_lookup_and_bind_unseen(self):
        counts = {10: 100, 11: 1}
        assign = build_assignment(
            counts, num_cpu_indexers=1, num_gpus=2,
            policy=PopularityPolicy(max_popular=1, token_coverage=0.5),
        )
        assert assign.owner_of(10) == ("cpu", 0)
        # 999 was never sampled: routed by the unpopular rule and recorded.
        kind, idx = assign.bind_unseen(999)
        assert (kind, idx) == ("gpu", 999 % 2)
        assert 999 in assign.gpu_sets[idx]

    def test_gpu_failover_moves_no_bound_collection(self):
        """The engine keeps a table of the collections it has routed
        (``split_batch``); a failover may re-route unseen collections only,
        or that table would go stale."""
        assign = build_assignment({i: 50 - i for i in range(40)}, num_cpu_indexers=1, num_gpus=3)
        bound = {cidx: assign.bind_unseen(cidx) for cidx in [*range(40), 1001, 1002, 1003]}
        assert {"cpu", "gpu"} == {kind for kind, _ in bound.values()}
        assign.mark_gpu_failed(1)
        assert {cidx: assign.owner_of(cidx) for cidx in bound} == bound
        assert {cidx: assign.bind_unseen(cidx) for cidx in bound} == bound
        assert ("gpu", 1) in bound.values()  # collections stay on the failed slot
        # ... while a collection first seen afterwards avoids it.
        assert all(assign.bind_unseen(cidx)[1] != 1 for cidx in range(2000, 2012))

    @settings(max_examples=40)
    @given(token_counts, st.integers(1, 4), st.integers(0, 3))
    def test_binding_is_a_partition(self, counts, n_cpu, n_gpu):
        """Every sampled collection is owned by exactly one indexer."""
        assign = build_assignment(counts, n_cpu, n_gpu)
        all_sets = assign.cpu_sets + assign.gpu_sets
        union: set[int] = set()
        total = 0
        for s in all_sets:
            union |= s
            total += len(s)
        assert union == set(counts)
        assert total == len(counts)  # pairwise disjoint

    @settings(max_examples=20)
    @given(token_counts)
    def test_lifetime_binding_stable(self, counts):
        assign = build_assignment(counts, 2, 2)
        owners = {c: assign.owner_of(c) for c in counts}
        # Asking again never changes an owner (program-lifetime binding).
        assert {c: assign.owner_of(c) for c in counts} == owners

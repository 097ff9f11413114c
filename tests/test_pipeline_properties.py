"""Property tests over the pipeline simulator: invariants under random
workloads and configurations."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PlatformConfig
from repro.core.pipeline import simulate_full_build, simulate_pipeline
from repro.core.workload import FileWork, GroupWork

MB = 1024 * 1024


@st.composite
def file_works(draw, max_files=12):
    n = draw(st.integers(min_value=1, max_value=max_files))
    works = []
    for k in range(n):
        tokens_pop = draw(st.integers(min_value=0, max_value=2_000_000))
        tokens_unpop = draw(st.integers(min_value=1, max_value=3_000_000))
        unc = draw(st.integers(min_value=1 * MB, max_value=200 * MB))
        works.append(
            FileWork(
                file_index=k,
                compressed_bytes=max(1, unc // 6),
                uncompressed_bytes=unc,
                num_docs=draw(st.integers(min_value=1, max_value=10_000)),
                raw_tokens=int((tokens_pop + tokens_unpop) * 1.5),
                popular=GroupWork(
                    tokens=tokens_pop,
                    node_visits=tokens_pop * draw(st.integers(1, 6)),
                    new_terms=draw(st.integers(0, 10_000)),
                    hot_visit_fraction=0.95,
                    largest_collection_tokens=tokens_pop // 10,
                    visits_per_token=3.0,
                ),
                unpopular=GroupWork(
                    tokens=tokens_unpop,
                    node_visits=tokens_unpop * draw(st.integers(1, 6)),
                    new_terms=draw(st.integers(0, 50_000)),
                    hot_visit_fraction=0.35,
                    largest_collection_tokens=tokens_unpop // 100,
                    visits_per_token=3.0,
                ),
            )
        )
    return works


configs = (
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=4),
    )
    .filter(lambda t: t[1] + t[2] > 0)  # at least one indexer
    .map(
        lambda t: PlatformConfig(
            num_parsers=t[0],
            num_cpu_indexers=t[1],
            num_gpus=t[2],
            buffer_capacity=t[3],
        )
    )
)


class TestPipelineInvariants:
    @settings(max_examples=25)
    @given(file_works(), configs)
    def test_accounting_identities(self, works, config):
        r = simulate_pipeline(works, config)
        # Per-file indexing times sum to the stage's indexing total.
        assert sum(r.per_file_indexing_s) == r.indexing_total_s
        assert len(r.per_file_indexing_s) == len(works)
        # Stage wall ≥ busy time; waits are the difference.
        assert r.indexer_finish_s >= r.sum_of_three_s - 1e-9
        assert abs(r.indexer_wait_s - (r.indexer_finish_s - r.sum_of_three_s)) < 1e-6
        # The pipeline cannot finish before its slowest stage.
        assert r.pipeline_s >= r.parser_finish_s - 1e-9
        assert r.pipeline_s >= r.indexer_finish_s - 1e-9
        # Disk is exclusive: busy time ≤ wall and ≥ any single read.
        assert r.disk_busy_s <= r.pipeline_s + 1e-9

    @settings(max_examples=15)
    @given(file_works())
    def test_parse_only_never_slower_than_full(self, works):
        cfg = PlatformConfig(num_parsers=4, num_cpu_indexers=2, num_gpus=0)
        full = simulate_pipeline(works, cfg)
        parse_only = simulate_pipeline(works, cfg, parse_only=True)
        # Without back-pressure from indexers, parsers finish no later.
        assert parse_only.parser_finish_s <= full.parser_finish_s + 1e-9

    @settings(max_examples=15)
    @given(file_works(), configs)
    def test_full_build_totals(self, works, config):
        b = simulate_full_build(works, config)
        assert b.total_s >= b.pipeline.pipeline_s
        assert b.total_terms == sum(
            w.popular.new_terms + w.unpopular.new_terms for w in works
        )
        assert b.throughput_mbps >= 0

    @settings(max_examples=10)
    @given(file_works())
    def test_more_indexers_never_slower(self, works):
        one = simulate_pipeline(works, PlatformConfig(num_cpu_indexers=1, num_gpus=0))
        two = simulate_pipeline(works, PlatformConfig(num_cpu_indexers=2, num_gpus=0))
        assert two.indexing_total_s <= one.indexing_total_s + 1e-9

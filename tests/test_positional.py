"""The positional-index extension: codec, lists, engine, end-to-end."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.parsing.parser import Parser
from repro.postings.compression import VarBytePositionalCodec, get_codec
from repro.postings.lists import PostingsList
from repro.postings.merge import merge_index
from repro.postings.reader import PostingsReader
from tests.parsed_stream_oracles import as_nested

positional_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),  # doc gap
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    ),
    max_size=25,
).map(
    lambda entries: [
        (
            sum(g for g, _ in entries[: i + 1]) - 1,
            len(pgaps),
            tuple(sum(pgaps[: j + 1]) - 1 for j in range(len(pgaps))),
        )
        for i, (_, pgaps) in enumerate(entries)
    ]
)


class TestPositionalCodec:
    def test_round_trip(self):
        codec = VarBytePositionalCodec()
        pl = [(0, 2, (3, 17)), (5, 1, (0,)), (100, 3, (1, 2, 99))]
        assert codec.decode(codec.encode(pl)) == pl

    def test_empty(self):
        codec = VarBytePositionalCodec()
        assert codec.decode(codec.encode([])) == []

    def test_tf_position_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VarBytePositionalCodec().encode([(0, 2, (3,))])

    def test_unsorted_positions_rejected(self):
        with pytest.raises(ValueError):
            VarBytePositionalCodec().encode([(0, 2, (5, 3))])

    def test_registry_flags(self):
        assert get_codec("varbyte-pos").positional
        assert not get_codec("varbyte").positional

    @settings(max_examples=50)
    @given(positional_lists)
    def test_round_trip_random(self, postings):
        codec = VarBytePositionalCodec()
        assert codec.decode(codec.encode(postings)) == postings


class TestPositionalLists:
    def test_occurrences_with_positions(self):
        pl = PostingsList()
        pl.add_occurrence(3, position=0)
        pl.add_occurrence(3, position=7)
        pl.add_occurrence(9, position=2)
        assert pl.positional_postings() == [(3, 2, (0, 7)), (9, 1, (2,))]
        assert pl.postings() == [(3, 2), (9, 1)]
        assert pl.is_positional

    def test_mixing_modes_rejected(self):
        pl = PostingsList()
        pl.add_occurrence(1, position=0)
        with pytest.raises(ValueError):
            pl.add_occurrence(2)  # missing position
        pl2 = PostingsList()
        pl2.add_occurrence(1)
        with pytest.raises(ValueError):
            pl2.add_occurrence(2, position=0)

    def test_positions_must_increase_within_doc(self):
        pl = PostingsList()
        pl.add_occurrence(1, position=5)
        with pytest.raises(ValueError):
            pl.add_occurrence(1, position=5)

    def test_add_posting_with_positions(self):
        pl = PostingsList()
        pl.add_posting(4, 2, positions=[1, 8])
        assert pl.positional_postings() == [(4, 2, (1, 8))]
        with pytest.raises(ValueError):
            pl.add_posting(9, 2, positions=[3])  # tf mismatch

    def test_plain_list_has_no_positions(self):
        pl = PostingsList()
        pl.add_occurrence(1)
        assert not pl.is_positional
        with pytest.raises(ValueError):
            pl.positional_postings()


class TestPositionalParser:
    def test_positions_are_emitted_ordinals(self):
        parser = Parser(strip_html=False, positional=True)
        batch, _ = parser.parse_texts(["zebra apple zebra binder"])
        assert batch.positions is not None
        trie = parser.trie
        z = trie.trie_index("zebra")
        suffix = trie.split("zebra").suffix.encode()
        # zebra at emitted positions 0 and 2: the positions column holds
        # the pre-sort ordinals, row for row with the sorted tokens.
        collections, positions = as_nested(batch)
        zi = collections[z].index((0, [suffix, suffix]))
        assert positions[z][zi] == [0, 2]
        start, end = batch.spans[list(batch.collections).index(z)].tolist()
        assert batch.positions[start:end].tolist() == [0, 2]
        assert sorted(batch.positions.tolist()) == [0, 1, 2, 3]

    def test_positional_requires_regroup(self):
        with pytest.raises(ValueError):
            Parser(regroup=False, positional=True)


class TestPositionalEngine:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory, tiny_collection):
        out = str(tmp_path_factory.mktemp("posidx"))
        cfg = PlatformConfig(
            num_parsers=3, num_cpu_indexers=2, num_gpus=1,
            sample_fraction=0.2, positional=True,
        )
        result = IndexingEngine(cfg).build(tiny_collection, out)
        return result, out

    def test_codec_autoselected(self):
        assert PlatformConfig(positional=True).codec == "varbyte-pos"
        with pytest.raises(ValueError):
            PlatformConfig(positional=True, codec="gamma")

    def test_plain_postings_match_nonpositional_build(
        self, built, reference_index
    ):
        _, out = built
        reader = PostingsReader(out)
        assert reader.is_positional
        for term, expected in reference_index.items():
            assert reader.postings(term) == expected, term

    def test_positions_consistent_with_tf(self, built):
        _, out = built
        reader = PostingsReader(out)
        for term in list(reader.vocabulary())[:200]:
            for doc, tf, positions in reader.positional_postings(term):
                assert len(positions) == tf
                assert list(positions) == sorted(set(positions))

    def test_each_position_used_once_per_doc(self, built):
        """Across all terms, a document's emitted positions are distinct."""
        _, out = built
        reader = PostingsReader(out)
        seen: dict[int, set[int]] = {}
        for term in reader.vocabulary():
            for doc, _, positions in reader.positional_postings(term):
                bucket = seen.setdefault(doc, set())
                for p in positions:
                    assert p not in bucket, (term, doc, p)
                    bucket.add(p)
        # Positions are dense ordinals 0..n-1 per document.
        for doc, bucket in seen.items():
            assert bucket == set(range(len(bucket)))

    def test_merge_keeps_positions(self, built, tmp_path):
        _, out = built
        merged_dir = str(tmp_path / "merged")
        merge_index(out, merged_dir)
        merged = PostingsReader(merged_dir)
        assert merged.is_positional
        original = PostingsReader(out)
        term = next(iter(original.vocabulary()))
        assert merged.positional_postings(term) == original.positional_postings(term)

    def test_nonpositional_reader_rejects_position_query(self, tmp_path, tiny_collection):
        out = str(tmp_path / "plain")
        IndexingEngine(
            PlatformConfig(num_parsers=2, num_cpu_indexers=1, num_gpus=0,
                           sample_fraction=0.2)
        ).build(tiny_collection, out)
        reader = PostingsReader(out)
        assert not reader.is_positional
        with pytest.raises(ValueError):
            reader.positional_postings("anything")

"""The positional-index extension: codec, lists, engine, end-to-end."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.parsing.parser import Parser
from repro.postings.compression import VarBytePositionalCodec, get_codec
from repro.postings.lists import PostingsAccumulator, RunPostings
from repro.postings.merge import merge_index
from repro.postings.output import RunWriter
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
        acc = PostingsAccumulator()
        acc.add_occurrence(1, 3, position=0)
        acc.add_occurrence(1, 3, position=7)
        acc.add_occurrence(1, 9, position=2)
        pl = acc.lists[1]
        assert pl.positional_postings() == [(3, 2, (0, 7)), (9, 1, (2,))]
        assert pl.postings() == [(3, 2), (9, 1)]
        assert pl.is_positional

    def test_mixing_modes_rejected(self):
        """One mode a run: a plain occurrence of any term in a positional
        run is refused, and the other way round."""
        for first, second in [(0, None), (None, 0)]:
            acc = PostingsAccumulator()
            acc.add_occurrence(1, 1, position=first)
            acc.lists
            acc.add_occurrence(2, 2, position=second)
            with pytest.raises(ValueError):
                acc.lists

    def test_positions_must_increase_within_doc(self):
        acc = PostingsAccumulator()
        acc.add_occurrence(1, 1, position=5)
        acc.add_occurrence(1, 1, position=5)
        with pytest.raises(ValueError):
            acc.lists

    def test_add_posting_with_positions(self, tmp_path):
        run = RunPostings(*(np.array(c) for c in ([1], [1], [4], [2], [1, 8])))
        assert run[1].positional_postings() == [(4, 2, (1, 8))]
        short = RunPostings(*(np.array(c) for c in ([1], [1], [9], [2], [3])))  # tf mismatch
        with pytest.raises(ValueError):
            RunWriter(str(tmp_path), codec=VarBytePositionalCodec()).write_run(0, short)

    def test_plain_list_has_no_positions(self):
        acc = PostingsAccumulator()
        acc.add_occurrence(1, 1)
        pl = acc.lists[1]
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


#: Recorded at the parent of the version-2 dictionary format, before any
#: source file changed: the run files, ``runs.map`` and ``doctable.tsv`` a
#: positional build writes when each run holds three files, so postings
#: and positions cross batch seams.
_PINNED_POSITIONAL_DIGEST = "80211590d1cab534177c852c009a71acd27385172e0fd3007f950bdf44db5716"
#: The same build's ``dictionary.bin`` (``RPRODIC2``).
_PINNED_DICTIONARY_DIGEST = "80e39d3c4b7979ff79ef3503eb80b4638d1cf4714d5a588f4726d1e56749eff7"


@pytest.fixture(scope="module")
def multi_batch_positional_index(tmp_path_factory, tiny_collection):
    out = str(tmp_path_factory.mktemp("pinned") / "idx")
    IndexingEngine(
        PlatformConfig(num_parsers=3, num_cpu_indexers=2, num_gpus=1, sample_fraction=0.2,
                       positional=True, files_per_run=3, telemetry=False)
    ).build(tiny_collection, out)
    names = sorted(n for n in os.listdir(out) if n != "build.manifest")
    assert names == ["dictionary.bin", "doctable.tsv", "run_00000.post", "run_00001.post",
                     "runs.map"]
    return out


def _digest(out, names):
    sha = hashlib.sha256()
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            sha.update(name.encode("ascii") + b"\0" + fh.read())
    return sha.hexdigest()


def test_multi_batch_positional_index_is_pinned(multi_batch_positional_index):
    names = ["doctable.tsv", "run_00000.post", "run_00001.post", "runs.map"]
    assert _digest(multi_batch_positional_index, names) == _PINNED_POSITIONAL_DIGEST


def test_multi_batch_positional_dictionary_is_pinned(multi_batch_positional_index):
    assert _digest(multi_batch_positional_index, ["dictionary.bin"]) == _PINNED_DICTIONARY_DIGEST

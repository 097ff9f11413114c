"""The full parser pipeline (Steps 1–5, Fig 3)."""

from __future__ import annotations

from repro.parsing.parser import Parser
from tests.parsed_stream_oracles import as_ungrouped


class TestParseTexts:
    def test_basic_metrics(self):
        parser = Parser(strip_html=False)
        batch, metrics = parser.parse_texts(["the parallel indexers run quickly"])
        assert metrics.num_docs == 1
        assert metrics.tokens_raw == 5
        # "the" is a stop word; the rest survive.
        assert metrics.tokens_stopped >= 1
        assert metrics.tokens_emitted + metrics.tokens_stopped == metrics.tokens_raw
        assert batch.total_tokens == metrics.tokens_emitted

    def test_stemming_applied_before_split(self):
        parser = Parser(strip_html=False)
        batch, _ = parser.parse_texts(["parallelization parallelism"])
        # Both stem to "parallel" → same trie collection, same suffix.
        trie = parser.trie
        split = trie.split("parallel")
        assert batch.collections[split.index][0][1] == [split.suffix.encode()] * 2

    def test_trie_split_uses_stemmed_head(self):
        # "ties" stems to "ti" (2 letters): collection changes from the
        # raw token's full-prefix bucket to the short bucket.
        parser = Parser(strip_html=False)
        batch, _ = parser.parse_texts(["ties"])
        trie = parser.trie
        assert list(batch.collections) == [trie.trie_index("ti")]

    def test_regroup_disabled_keeps_document_order(self):
        parser = Parser(strip_html=False, regroup=False)
        batch, _ = parser.parse_texts(["zebra apple zebra"])
        assert not batch.regrouped and batch.spans is None
        suffixes = [s for _, toks in as_ungrouped(batch) for _, s in toks]
        trie = parser.trie
        z = trie.split("zebra").suffix.encode()
        a = trie.split("appl").suffix.encode()  # apple stems to appl
        assert suffixes == [z, a, z]

    def test_regroup_toggle_same_multiset(self):
        text = ["the quick brown foxes jumped over lazy dogs repeatedly"] * 3
        on, _ = Parser(strip_html=False, regroup=True).parse_texts(text)
        off, _ = Parser(strip_html=False, regroup=False).parse_texts(text)
        grouped = sorted(
            (c, d, s)
            for c, streams in on.collections.items()
            for d, sufs in streams
            for s in sufs
        )
        ungrouped = sorted(
            (c, d, s) for d, toks in as_ungrouped(off) for c, s in toks
        )
        assert grouped == ungrouped
        assert on.tokens_per_collection == off.tokens_per_collection

    def test_one_str_object_per_vocabulary_word(self):
        """A lower-case form keys the token cache by its own object.

        Storing a fresh ``.lower()`` copy next to the scanned form kept
        every vocabulary string twice (+5 % ``peak_rss_mb`` on
        ``web_serial``).  Nothing else holds the words: the parser stems
        through the unmemoised algorithm.
        """
        parser = Parser(strip_html=False)
        cache = parser._token_cache
        # Built at run time, so neither object is an interned literal.
        lower, upper = "".join(["zeb", "ra"]), "".join(["ZEB", "RA"])
        cache[lower]
        (key,) = [k for k in cache if k == "zebra"]
        assert key is lower
        # A mixed-case form is one more key onto the same entry, resolved
        # (and stemmed) once.
        misses = cache.misses
        assert cache[upper] == cache["zebra"] and cache.misses == misses
        parser.parse_texts(["parallel Parallel indexers ZEBRA zebra"])
        assert sorted(cache) == ["Parallel", "ZEBRA", "indexers", "parallel", "zebra"]
        assert cache["Parallel"] == cache["parallel"]
        assert not hasattr(parser, "stemmer")

    def test_counts_come_from_the_columns(self):
        """Over-length tokens are not raw tokens; stop words are."""
        parser = Parser(strip_html=False)
        batch, metrics = parser.parse_texts(["the " + "x" * 65 + " zebra", "", "zebra"])
        assert (metrics.tokens_raw, metrics.tokens_stopped, metrics.tokens_emitted) == (3, 1, 2)
        assert metrics.suffix_chars == batch.total_chars == 2 * len(batch.entry_suffix[0])
        assert metrics.collections_touched == 1 and batch.documents.tolist() == [2]

    def test_stem_cache_misses_decline(self):
        parser = Parser(strip_html=False)
        _, m1 = parser.parse_texts(["reusing vocabulary words repeatedly"])
        _, m2 = parser.parse_texts(["reusing vocabulary words repeatedly"])
        assert m2.stem_cache_misses == 0
        assert m1.stem_cache_misses > 0

    def test_stem_cache_misses_pinned(self, tiny_collection, tiny_text_collection):
        """One stem per distinct lower-case form under the length limit,
        counted by the parser: the literals are the memoised stemmer's."""
        for collection, strip_html, expected in (
            (tiny_collection, True, [419, 269, 170, 136, 226, 190]),
            (tiny_text_collection, False, [464, 257, 159, 128, 248, 165]),
        ):
            parser = Parser(strip_html=strip_html)
            misses = [
                parser.parse_file(path, sequence=i).metrics.stem_cache_misses
                for i, path in enumerate(collection.files)
            ]
            assert misses == expected


class TestParseFile:
    def test_file_metrics(self, tiny_collection):
        parser = Parser()
        parsed = parser.parse_file(tiny_collection.files[0], sequence=0)
        m = parsed.metrics
        assert m.compressed_bytes > 0
        assert m.uncompressed_bytes > m.compressed_bytes / 20
        assert m.num_docs == 10
        assert len(parsed.doc_table) == 10
        assert parsed.batch.source_file == tiny_collection.files[0]

    def test_doc_table_has_locations(self, tiny_collection):
        parsed = Parser().parse_file(tiny_collection.files[0])
        offsets = [e.offset for e in parsed.doc_table]
        assert offsets == sorted(offsets)
        assert all(e.source_file for e in parsed.doc_table)
        assert [e.local_doc_id for e in parsed.doc_table] == list(range(10))

    def test_deterministic(self, tiny_collection):
        b1, _ = Parser().parse_texts(["alpha beta"]), None
        a = Parser().parse_file(tiny_collection.files[0]).batch
        b = Parser().parse_file(tiny_collection.files[0]).batch
        assert a.tokens_per_collection == b.tokens_per_collection

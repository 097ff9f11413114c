"""The complete parser of Fig 3: Steps 1–5 over one file block.

One :class:`Parser` object corresponds to one parser thread of the paper.
``parse_file`` executes the whole sequence — read & decompress, tokenize
(with trie indices as a byproduct), Porter-stem, drop stop words, regroup
by trie collection — and returns a :class:`ParsedFile` bundling the output
buffer (:class:`~repro.parsing.regroup.ParsedBatch`), the document table,
and the :class:`ParseMetrics` the discrete-event simulator charges time
against.

Note on the trie split: the tokenizer computes a provisional index during
its scan (the paper's "byproduct"), but stemming can rewrite a term's head
(e.g. ``ies`` → ``i``), so the definitive split is taken on the *stemmed*
term — the dictionary must see the final form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dictionary.trie import TrieTable
from repro.obs import runtime as obs
from repro.parsing.docio import DocTableEntry, load_collection_file
from repro.parsing.porter import PorterStemmer
from repro.parsing.regroup import DocTokens, ParsedBatch, regroup
from repro.parsing.stopwords import StopWordFilter
from repro.parsing.tokenizer import Tokenizer

__all__ = ["Parser", "ParsedFile", "ParseMetrics"]


@dataclass
class ParseMetrics:
    """Work counters for one parsed file (DES cost-model inputs)."""

    compressed_bytes: int = 0
    uncompressed_bytes: int = 0
    num_docs: int = 0
    chars_scanned: int = 0
    tokens_raw: int = 0
    tokens_stopped: int = 0  # removed as stop words
    tokens_emitted: int = 0  # survive into the parsed stream
    suffix_chars: int = 0
    stem_cache_misses: int = 0
    collections_touched: int = 0

    def merge(self, other: "ParseMetrics") -> None:
        self.compressed_bytes += other.compressed_bytes
        self.uncompressed_bytes += other.uncompressed_bytes
        self.num_docs += other.num_docs
        self.chars_scanned += other.chars_scanned
        self.tokens_raw += other.tokens_raw
        self.tokens_stopped += other.tokens_stopped
        self.tokens_emitted += other.tokens_emitted
        self.suffix_chars += other.suffix_chars
        self.stem_cache_misses += other.stem_cache_misses
        self.collections_touched += other.collections_touched


@dataclass
class ParsedFile:
    """Everything a parser hands downstream for one file."""

    batch: ParsedBatch
    doc_table: list[DocTableEntry] = field(default_factory=list)
    metrics: ParseMetrics = field(default_factory=ParseMetrics)


class Parser:
    """One parser thread (Fig 3).

    Parameters
    ----------
    parser_id:
        Position in the parser array; stamped on every output buffer so
        indexers can consume buffers in round-robin parser order.
    trie:
        Shared :class:`TrieTable`.
    strip_html:
        Forwarded to the tokenizer (on for web crawls, off for the
        pre-cleaned Wikipedia collection).
    regroup:
        Step 5 toggle; disabling reproduces the ~15× ablation.
    """

    def __init__(
        self,
        parser_id: int = 0,
        trie: TrieTable | None = None,
        strip_html: bool = True,
        regroup: bool = True,
        positional: bool = False,
        stemmer: PorterStemmer | None = None,
        stop_filter: StopWordFilter | None = None,
    ) -> None:
        self.parser_id = parser_id
        self.trie = trie if trie is not None else TrieTable()
        self.tokenizer = Tokenizer(trie=self.trie, strip_html=strip_html)
        self.stemmer = stemmer if stemmer is not None else PorterStemmer()
        self.stop_filter = stop_filter if stop_filter is not None else StopWordFilter()
        self.regroup_enabled = regroup
        self.positional = positional
        #: Stable trace-lane identity for this parser *object*.  Worker
        #: threads set it once at creation (e.g. ``parser-w0``) so their
        #: spans never interleave on a lane, even though ``parser_id`` is
        #: restamped per file for round-robin batch accounting.  ``None``
        #: falls back to the ``parser-<id>`` lane (serial builds).
        self.lane_override: str | None = None
        if positional and not regroup:
            raise ValueError("positional parsing requires regrouping")
        # Token-level memo over the whole stem→stop→split tail: Zipf
        # streams repeat tokens heavily, so the per-token pipeline runs
        # once per *distinct* surface form.  ``None`` marks a stop word.
        self._token_cache: dict[str, tuple[int, bytes] | None] = {}

    # ------------------------------------------------------------------ #

    def parse_texts(
        self, texts: list[str], source_file: str = "<memory>", sequence: int = 0
    ) -> tuple[ParsedBatch, ParseMetrics]:
        """Steps 2–5 over already-loaded document texts."""
        metrics = ParseMetrics(num_docs=len(texts))
        chars0 = self.tokenizer.chars_scanned
        misses0 = self.stemmer.misses

        split = self.trie.split
        stem = self.stemmer.stem
        is_stop = self.stop_filter.is_stop
        cache = self._token_cache

        doc_streams: list[DocTokens] = []
        for local_doc_id, text in enumerate(texts):
            doc_tokens: list[tuple[int, bytes]] = []
            for token in self.tokenizer.tokens(text):
                metrics.tokens_raw += 1
                try:
                    entry = cache[token]
                except KeyError:
                    term = stem(token)
                    if not term or is_stop(term):
                        entry = None
                    else:
                        s = split(term)
                        entry = (s.index, s.suffix.encode("utf-8"))
                    cache[token] = entry
                if entry is None:
                    metrics.tokens_stopped += 1
                    continue
                doc_tokens.append(entry)
                metrics.tokens_emitted += 1
                metrics.suffix_chars += len(entry[1])
            doc_streams.append((local_doc_id, doc_tokens))

        metrics.chars_scanned = self.tokenizer.chars_scanned - chars0
        metrics.stem_cache_misses = self.stemmer.misses - misses0

        batch = ParsedBatch(
            parser_id=self.parser_id, sequence=sequence, source_file=source_file
        )
        batch.num_docs = len(texts)
        if self.regroup_enabled:
            with obs.tracer().span(
                "regroup", cat="parse", lane=self._lane(), docs=len(texts)
            ):
                (
                    batch.collections,
                    batch.tokens_per_collection,
                    batch.chars_per_collection,
                    batch.positions,
                ) = regroup(doc_streams, with_positions=self.positional)
        else:
            batch.ungrouped = doc_streams
            # Token/char accounting still keyed by collection for sampling.
            for _, doc_tokens in doc_streams:
                for cidx, suffix in doc_tokens:
                    batch.tokens_per_collection[cidx] = (
                        batch.tokens_per_collection.get(cidx, 0) + 1
                    )
                    batch.chars_per_collection[cidx] = (
                        batch.chars_per_collection.get(cidx, 0) + len(suffix)
                    )
        metrics.collections_touched = len(batch.tokens_per_collection)
        return batch, metrics

    def _lane(self) -> str:
        """Trace lane for this parser thread (one timeline row each).

        Negative ids are the sampling pre-pass's throwaway parsers.
        """
        if self.lane_override is not None:
            return self.lane_override
        return f"parser-{self.parser_id}" if self.parser_id >= 0 else "sampler"

    def parse_file(self, path: str, sequence: int = 0) -> ParsedFile:
        """Steps 1–5 over a container file on disk."""
        tracer = obs.tracer()
        lane = self._lane()
        with tracer.span(
            "parse_file", cat="parse", lane=lane, file=sequence,
            parser=self.parser_id, cp=f"parse:{sequence}",
        ) as tags:
            with tracer.span("read", cat="parse", lane=lane):
                loaded = load_collection_file(path)
            batch, metrics = self.parse_texts(
                loaded.texts, source_file=loaded.path, sequence=sequence
            )
            metrics.compressed_bytes = loaded.compressed_bytes
            metrics.uncompressed_bytes = loaded.uncompressed_bytes
            batch.compressed_bytes = loaded.compressed_bytes
            batch.uncompressed_bytes = loaded.uncompressed_bytes
            tags["docs"] = metrics.num_docs
            tags["tokens"] = metrics.tokens_emitted
            tags["bytes"] = metrics.uncompressed_bytes
        reg = obs.metrics()
        reg.count("parse.files")
        reg.count("parse.docs", metrics.num_docs)
        reg.count("parse.tokens_raw", metrics.tokens_raw)
        reg.count("parse.tokens_stopped", metrics.tokens_stopped)
        reg.count("parse.tokens_emitted", metrics.tokens_emitted)
        reg.count("parse.compressed_bytes", metrics.compressed_bytes)
        reg.count("parse.uncompressed_bytes", metrics.uncompressed_bytes)
        return ParsedFile(batch=batch, doc_table=loaded.doc_table, metrics=metrics)

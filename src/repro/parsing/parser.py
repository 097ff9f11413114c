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

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.dictionary.trie import TrieTable
from repro.obs import runtime as obs
from repro.parsing.docio import DocTableEntry, load_collection_file
from repro.parsing.porter import porter_stem
from repro.parsing.regroup import ParsedBatch, collection_ranks, regroup, tiled_spans
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


_STOP_WORD, _TOO_LONG = -1, -2  # token-cache sentinels


class _TokenCache(dict):  # type: ignore[type-arg]
    """Surface form → entry id, resolved the first time a form is seen.

    A new lower-case form is checked against the byte limit, stemmed,
    checked against the stop list and trie-split in ``__missing__``'s one
    frame; a new cased form looks up its lower case (one more frame when
    that is new too).  So each distinct lower-case form is stemmed once:
    ``misses`` (the parser's ``stem_cache_misses``) counts the distinct
    forms under the limit, in whatever order they come; only the entry
    numbering follows first-seen order.  An entry id indexes the parser's
    ``(collection, suffix)`` tables; the sentinels emit nothing.
    """

    def __init__(self, parser: "Parser") -> None:
        super().__init__()
        self.misses = 0
        # Bound once: the tail runs for every new form of a build.
        self._limit = parser.tokenizer.max_token_bytes
        self._stop_words = StopWordFilter().stemmed
        self._split = parser.trie.split
        self._append_cidx = parser._entry_cidx.append
        self._suffixes = parser._entry_suffix

    def __missing__(self, form: str) -> int:
        token = form.lower()
        if token != form:
            # A cased form keys its lower case's entry.  A lower-case form
            # keys itself: a fresh ``.lower()`` copy would store the
            # vocabulary twice.
            entry = self[form] = self[token]
            return entry
        limit = self._limit
        if len(form) * 4 > limit and len(form.encode("utf-8")) > limit:
            entry = _TOO_LONG
        else:
            self.misses += 1
            term = porter_stem(form)
            if not term or term in self._stop_words:
                entry = _STOP_WORD
            else:
                index, suffix, _ = self._split(term)
                self._append_cidx(index)
                suffixes = self._suffixes
                suffixes.append(suffix.encode("utf-8"))
                entry = len(suffixes) - 1
        self[form] = entry
        return entry


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
    ) -> None:
        self.parser_id = parser_id
        self.trie = trie if trie is not None else TrieTable()
        self.tokenizer = Tokenizer(trie=self.trie, strip_html=strip_html)
        self.regroup_enabled = regroup
        self.positional = positional
        #: Stable trace-lane identity for this parser *object*.  The
        #: multiprocess backend's parse worker sets it once at start-up
        #: (``parser-0``) so its spans stay on one lane, even though
        #: ``parser_id`` is restamped per file for round-robin batch
        #: accounting.  ``None`` falls back to the ``parser-<id>`` lane
        #: (serial builds).
        self.lane_override: str | None = None
        if positional and not regroup:
            raise ValueError("positional parsing requires regrouping")
        #: Entry id → collection index / suffix bytes, for every form this
        #: parser has resolved; a batch carries the rows it uses.
        self._entry_cidx = array("i")
        self._entry_suffix: list[bytes] = []
        self._token_cache = _TokenCache(self)

    # ------------------------------------------------------------------ #

    def parse_texts(
        self, texts: list[str], source_file: str = "<memory>", sequence: int = 0
    ) -> tuple[ParsedBatch, ParseMetrics]:
        """Steps 2–5 over already-loaded document texts."""
        tokenizer = self.tokenizer
        chars0 = tokenizer.chars_scanned
        cache = self._token_cache
        misses0 = cache.misses

        resolve = cache.__getitem__
        stream: list[int] = []
        forms_per_doc: list[int] = []
        for text in texts:
            forms = tokenizer.surface_forms(text)
            forms_per_doc.append(len(forms))
            stream += map(resolve, forms)
        resolved = np.fromiter(stream, dtype=np.int32, count=len(stream))
        emitted = resolved >= 0
        docs = np.repeat(np.arange(len(texts), dtype=np.int32), forms_per_doc)[emitted]

        # Batch-local entry table: the rows of the parser's table this
        # stream uses, and the stream renumbered onto them.  Parser entry
        # ids are dense in ``[0, len(table))``: a presence mask lists the
        # used rows in order, and its running count renumbers the stream.
        entries = resolved[emitted]
        present = np.zeros(len(self._entry_suffix), dtype=bool)
        present[entries] = True
        used = np.flatnonzero(present)
        ids = (np.cumsum(present, dtype=np.int32) - 1)[entries]
        batch = ParsedBatch(
            parser_id=self.parser_id, sequence=sequence, source_file=source_file,
            num_docs=len(texts),
            entry_cidx=np.frombuffer(self._entry_cidx, dtype=np.int32)[used],
            entry_suffix=[self._entry_suffix[i] for i in used.tolist()],
        )
        self._assemble(batch, ids, docs)

        stopped = int(np.count_nonzero(resolved == _STOP_WORD))
        metrics = ParseMetrics(
            num_docs=len(texts),
            chars_scanned=tokenizer.chars_scanned - chars0,
            tokens_raw=len(ids) + stopped,
            tokens_stopped=stopped,
            tokens_emitted=len(ids),
            suffix_chars=batch.total_chars,
            stem_cache_misses=cache.misses - misses0,
            collections_touched=len(batch.order),
        )
        return batch, metrics

    def _assemble(self, batch: ParsedBatch, ids: np.ndarray, docs: np.ndarray) -> None:
        """Step 5: fill ``batch``'s token columns and collection table from
        ``ids`` / ``docs``, the emitted stream in document order over the
        entry table ``batch`` already carries.  Counts are ``bincount``s,
        never per-token bumps; ranking and regrouping each take one radix
        sort over the tokens (``collection_ranks``, ``regroup``)."""
        lengths = np.fromiter(map(len, batch.entry_suffix), np.int64, len(batch.entry_suffix))
        batch.order, rank = collection_ranks(ids, batch.entry_cidx)
        k = len(batch.order)
        batch.tokens = np.bincount(rank, minlength=k)
        batch.chars = np.bincount(rank, weights=lengths[ids], minlength=k).astype(np.int64)
        if self.positional:
            per_doc = np.bincount(docs, minlength=batch.num_docs)
            first = np.cumsum(per_doc) - per_doc
            batch.positions = (np.arange(len(ids)) - first[docs]).astype(np.int32)
        if self.regroup_enabled:
            with obs.tracer().span(
                "regroup", cat="parse", lane=self._lane(), docs=batch.num_docs
            ):
                perm, _ = regroup(rank, batch.order)
            ids, docs = ids[perm], docs[perm]
            if batch.positions is not None:
                batch.positions = batch.positions[perm]
            batch.spans = tiled_spans(batch.tokens)
            starts = batch.spans[:, 0]
            # A token opens a (collection, document) group where a span
            # starts or the document changes.  (Not ``np.unique`` over
            # int64 pair keys: numpy's 64-bit sort kernels cost ≈ 1.5 MB
            # resident the first time they run.)
            opens = np.ones(len(ids), dtype=np.int64)
            opens[1:] = docs[1:] != docs[:-1]
            opens[starts] = 1
            batch.documents = np.add.reduceat(opens, starts)
        else:
            batch.spans = None
            batch.documents = np.zeros(k, dtype=np.int64)
        batch.ids, batch.docs = ids, docs

    def _lane(self) -> str:
        """Trace lane for this parser (one timeline row each).

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
            parser=self.parser_id,
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

"""The parsed streams the parser's Step 5 replaced, kept as test oracles.

PR 22 made the parsed stream columnar (``repro.parsing.regroup``).  The
parent's ``regroup`` and the parent's ``Parser.parse_texts`` /
``Tokenizer.tokens`` loop live on here *verbatim* (PR 19's pattern) so the
columns can be checked against what they replaced: same collections in the
same order, same per-collection counts, same ``ParseMetrics``.

The first columnar parser — ``np.unique`` renumbering, ``first_seen`` /
``regroup`` by comparison sorts, a token cache over a memoised stemmer —
is :class:`ParentParser`, also verbatim.  Step 5 is now linear in the
tokens (dense renumbering, radix sorts, an inline miss path); its batches
must equal the old parser's column for column.

The builders turn the old literal shapes into columnar batches for the
codec and indexer tests.
"""

from __future__ import annotations

import dataclasses
import re
from array import array
from typing import Iterable

import numpy as np

from repro.dictionary.trie import TrieTable
from repro.obs import runtime as obs
from repro.parsing.parser import _STOP_WORD, _TOO_LONG, ParseMetrics, Parser
from repro.parsing.porter import PorterStemmer
from repro.parsing.regroup import ParsedBatch, tiled_spans
from repro.parsing.stopwords import StopWordFilter
from repro.parsing.tokenizer import strip_markup

DocTokens = tuple[int, list[tuple[int, bytes]]]


# --------------------------------------------------------------------------- #
# Verbatim from the parent (32d1e4c)
# --------------------------------------------------------------------------- #


def old_regroup(docs: Iterable[DocTokens], with_positions: bool = False):
    """``repro.parsing.regroup.regroup`` as it was before PR 22."""
    collections: dict[int, list[tuple[int, list[bytes]]]] = {}
    tokens: dict[int, int] = {}
    chars: dict[int, int] = {}
    positions: dict[int, list[list[int]]] | None = {} if with_positions else None
    for doc_id, doc_tokens in docs:
        per_doc: dict[int, list[bytes]] = {}
        per_doc_pos: dict[int, list[int]] = {}
        for ordinal, (cidx, suffix) in enumerate(doc_tokens):
            per_doc.setdefault(cidx, []).append(suffix)
            if with_positions:
                per_doc_pos.setdefault(cidx, []).append(ordinal)
        for cidx, suffixes in per_doc.items():
            collections.setdefault(cidx, []).append((doc_id, suffixes))
            tokens[cidx] = tokens.get(cidx, 0) + len(suffixes)
            chars[cidx] = chars.get(cidx, 0) + sum(len(s) for s in suffixes)
            if positions is not None:
                positions.setdefault(cidx, []).append(per_doc_pos[cidx])
    return collections, tokens, chars, positions


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class OldParser:
    """``Parser.parse_texts`` + ``Tokenizer.tokens`` as they were before PR 22."""

    def __init__(self, strip_html: bool = True, max_token_bytes: int = 64) -> None:
        self.trie = TrieTable()
        self.strip_html = strip_html
        self.max_token_bytes = min(max_token_bytes, 255)
        self.chars_scanned = 0
        self.stemmer = PorterStemmer()
        self.stop_filter = StopWordFilter()
        self._token_cache: dict[str, tuple[int, bytes] | None] = {}

    def tokens(self, text: str):
        if self.strip_html:
            text = strip_markup(text)
        self.chars_scanned += len(text)
        for match in _TOKEN_RE.finditer(text):
            token = match.group().lower()
            if len(token.encode("utf-8")) > self.max_token_bytes:
                continue
            yield token

    def parse_texts(self, texts: list[str]) -> tuple[list[DocTokens], ParseMetrics]:
        metrics = ParseMetrics(num_docs=len(texts))
        chars0 = self.chars_scanned
        misses0 = self.stemmer.misses

        split = self.trie.split
        stem = self.stemmer.stem
        is_stop = self.stop_filter.is_stop
        cache = self._token_cache

        doc_streams: list[DocTokens] = []
        for local_doc_id, text in enumerate(texts):
            doc_tokens: list[tuple[int, bytes]] = []
            for token in self.tokens(text):
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

        metrics.chars_scanned = self.chars_scanned - chars0
        metrics.stem_cache_misses = self.stemmer.misses - misses0
        return doc_streams, metrics


# --------------------------------------------------------------------------- #
# The comparison-sort columnar Step 5, verbatim (28ffab6)
# --------------------------------------------------------------------------- #


def first_seen(cidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in order of first occurrence, and each element's rank in it."""
    uniq, first, inverse = np.unique(cidx, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[by_first] = np.arange(len(uniq))
    return uniq[by_first], rank[inverse]


def regroup(cidx: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Regroup a token stream by collection: one stable sort.

    ``cidx`` holds each token's collection index, documents back to back.
    Returns ``(perm, tokens_per_collection)``: ``perm`` makes every
    collection contiguous, collections in first-seen order (the dict's
    order); within a collection documents and a document's tokens keep
    their order, so the indexer's append-only postings stay docID-sorted
    and term frequencies exact.  Self-contained (it ranks the collections
    itself) so the step can be timed on its own.
    """
    order, rank = first_seen(cidx)
    perm = np.argsort(rank, kind="stable")
    return perm, dict(zip(order.tolist(), np.bincount(rank, minlength=len(order)).tolist()))


class _TokenCache(dict):  # type: ignore[type-arg]
    """Surface form → entry id, resolved the first time a form is seen.

    The lower-case → length limit → stem → stop → trie-split tail runs
    once per *distinct* token, in first-seen order (``stem_cache_misses``
    depends on it).  An entry id indexes the parser's ``(collection,
    suffix)`` tables; the sentinels emit nothing.
    """

    def __init__(self, parser: "Parser") -> None:
        super().__init__()
        # Bound once: the tail runs for every new form of a build.
        self._too_long = parser.tokenizer.too_long
        self._stem = parser.stemmer.stem
        self._is_stop = parser.stop_filter.is_stop
        self._split = parser.trie.split
        self._append_cidx = parser._entry_cidx.append
        self._suffixes = parser._entry_suffix

    def __missing__(self, form: str) -> int:
        token = form.lower()
        if token == form:
            # One ``str`` object keys this cache and the stemmer's: a fresh
            # ``.lower()`` copy would store the vocabulary twice.
            token = form
        entry = self.get(token)
        if entry is None:
            entry = self[token] = self._resolve(token)
        self[form] = entry
        return entry

    def _resolve(self, token: str) -> int:
        if self._too_long(token):
            return _TOO_LONG
        term = self._stem(token)
        if not term or self._is_stop(term):
            return _STOP_WORD
        index, suffix, _ = self._split(term)
        self._append_cidx(index)
        self._suffixes.append(suffix.encode("utf-8"))
        return len(self._suffixes) - 1


class ParentParser(Parser):
    """``Parser`` with the parent's token cache, ``parse_texts`` and
    ``_assemble`` (and through them its ``first_seen`` / ``regroup``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stemmer = PorterStemmer()
        self.stop_filter = StopWordFilter()
        self._token_cache = _TokenCache(self)

    def parse_texts(
        self, texts: list[str], source_file: str = "<memory>", sequence: int = 0
    ) -> tuple[ParsedBatch, ParseMetrics]:
        """Steps 2–5 over already-loaded document texts."""
        tokenizer = self.tokenizer
        chars0 = tokenizer.chars_scanned
        misses0 = self.stemmer.misses

        resolve = self._token_cache.__getitem__
        stream = array("i")
        forms_per_doc: list[int] = []
        for text in texts:
            forms = tokenizer.surface_forms(text)
            forms_per_doc.append(len(forms))
            stream.extend(map(resolve, forms))
        resolved = np.frombuffer(stream, dtype=np.int32)
        emitted = resolved >= 0
        docs = np.repeat(np.arange(len(texts), dtype=np.int32), forms_per_doc)[emitted]

        # Batch-local entry table: the rows of the parser's table this
        # stream uses, and the stream renumbered onto them.
        used, ids = np.unique(resolved[emitted], return_inverse=True)
        batch = ParsedBatch(
            parser_id=self.parser_id, sequence=sequence, source_file=source_file,
            num_docs=len(texts),
            entry_cidx=np.frombuffer(self._entry_cidx, dtype=np.int32)[used],
            entry_suffix=[self._entry_suffix[i] for i in used.tolist()],
        )
        self._assemble(batch, ids.astype(np.int32), docs)

        stopped = int(np.count_nonzero(resolved == _STOP_WORD))
        metrics = ParseMetrics(
            num_docs=len(texts),
            chars_scanned=tokenizer.chars_scanned - chars0,
            tokens_raw=len(ids) + stopped,
            tokens_stopped=stopped,
            tokens_emitted=len(ids),
            suffix_chars=batch.total_chars,
            stem_cache_misses=self.stemmer.misses - misses0,
            collections_touched=len(batch.order),
        )
        return batch, metrics

    def _assemble(self, batch: ParsedBatch, ids: np.ndarray, docs: np.ndarray) -> None:
        """Step 5: fill ``batch``'s token columns and collection table from
        ``ids`` / ``docs``, the emitted stream in document order over the
        entry table ``batch`` already carries.  Counts are ``bincount``s,
        never per-token bumps; regrouping is one stable sort of the columns."""
        cidx = batch.entry_cidx[ids]
        lengths = np.fromiter(map(len, batch.entry_suffix), np.int64, len(batch.entry_suffix))
        batch.order, rank = first_seen(cidx)
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
                perm, _ = regroup(cidx)
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


# --------------------------------------------------------------------------- #
# Old literals → columns
# --------------------------------------------------------------------------- #


def _entry_table(pairs: Iterable[tuple[int, bytes]]) -> dict[tuple[int, bytes], int]:
    table: dict[tuple[int, bytes], int] = {}
    for pair in pairs:
        table.setdefault(pair, len(table))
    return table


def _with_entries(table: dict[tuple[int, bytes], int], **meta) -> ParsedBatch:
    meta = {"parser_id": 0, "sequence": 0, "source_file": "f", **meta}
    return ParsedBatch(
        entry_cidx=np.array([cidx for cidx, _ in table], dtype=np.int32),
        entry_suffix=[suffix for _, suffix in table],
        **meta,
    )


def stream_columns(docs: list[DocTokens], **meta) -> tuple[ParsedBatch, np.ndarray, np.ndarray]:
    """What ``Parser._assemble`` takes: a batch holding the entry table,
    and the document-order ``ids`` / ``docs`` columns of ``docs``."""
    table = _entry_table(pair for _, toks in docs for pair in toks)
    meta.setdefault("num_docs", max((d for d, _ in docs), default=-1) + 1)
    ids = np.array([table[pair] for _, toks in docs for pair in toks], dtype=np.int32)
    doc_col = np.array([d for d, toks in docs for _ in toks], dtype=np.int32)
    return _with_entries(table, **meta), ids, doc_col


def batch_from_collections(
    collections: dict[int, list[tuple[int, list[bytes]]]],
    positions: dict[int, list[list[int]]] | None = None,
    **meta,
) -> ParsedBatch:
    """A regrouped batch holding exactly the old ``collections`` literal."""
    table = _entry_table(
        (cidx, s) for cidx, stream in collections.items() for _, sufs in stream for s in sufs
    )
    rows = [
        (cidx, doc, suffix)
        for cidx, stream in collections.items() for doc, sufs in stream for suffix in sufs
    ]
    meta.setdefault("num_docs", max((doc for _, doc, _ in rows), default=-1) + 1)
    batch = _with_entries(table, **meta)
    batch.ids = np.array([table[cidx, s] for cidx, _, s in rows], dtype=np.int32)
    batch.docs = np.array([doc for _, doc, _ in rows], dtype=np.int32)
    if positions is not None:
        batch.positions = np.array(
            [p for cidx in collections for per_doc in positions[cidx] for p in per_doc],
            dtype=np.int32,
        )
    k = len(collections)
    batch.order = np.fromiter(collections, np.int32, k)
    batch.tokens = np.array(
        [sum(len(sufs) for _, sufs in stream) for stream in collections.values()], dtype=np.int64
    ).reshape(k)
    batch.chars = np.array(
        [sum(len(s) for _, sufs in stream for s in sufs) for stream in collections.values()],
        dtype=np.int64,
    ).reshape(k)
    batch.documents = np.array([len(stream) for stream in collections.values()], np.int64).reshape(k)
    batch.spans = tiled_spans(batch.tokens)
    return batch


def as_nested(batch: ParsedBatch):
    """``(collections, positions)`` of a regrouped batch in the old shape."""
    collections = {cidx: stream for cidx, stream in batch.collections.items()}
    if batch.positions is None:
        return collections, None
    positions: dict[int, list[list[int]]] = {}
    for (cidx, stream), (start, _end) in zip(collections.items(), batch.spans.tolist()):
        per_doc = []
        for _, suffixes in stream:
            per_doc.append(batch.positions[start : start + len(suffixes)].tolist())
            start += len(suffixes)
        positions[cidx] = per_doc
    return collections, positions


def as_ungrouped(batch: ParsedBatch) -> list[DocTokens]:
    """The old ``ParsedBatch.ungrouped`` of a document-order batch."""
    pairs = list(zip(batch.entry_cidx.tolist(), batch.entry_suffix))
    out: list[DocTokens] = [(doc, []) for doc in range(batch.num_docs)]
    for entry, doc in zip(batch.ids.tolist(), batch.docs.tolist()):
        out[doc][1].append(pairs[entry])
    return out


def assert_same_batch(a: ParsedBatch, b: ParsedBatch) -> None:
    """Field-by-field equality, dtypes included (``==`` on arrays is elementwise)."""
    for f in dataclasses.fields(ParsedBatch):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray), f.name
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name

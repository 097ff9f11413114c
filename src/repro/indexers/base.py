"""Shared indexer machinery.

Every indexer — CPU thread or GPU kernel — does the same functional job
(Fig 4): for each trie collection it owns, insert each term suffix into
the collection's B-tree and append the occurrence to the term's postings
list, using the global document ID (local ID + the offset the pipeline
assigns when the buffer is consumed).

The insert is one walk per batch (:func:`_walk`).  Fig 7 searches a
B-tree node by comparing all of its keys at once; the walk does the
same for a whole batch of one-leaf trees: every occurrence's key count,
rank and cache tie range come from numpy arrays, and its binary
search's probes from one lockstep replay (:func:`_leaf_spans`).  A
tree that may split in the batch takes the token-by-token descent,
:meth:`~repro.dictionary.btree.BTree._descend`.

:class:`IndexerReport` carries the Table V accounting (tokens, terms,
characters routed to this indexer) plus the B-tree work deltas the cost
models consume.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.dictionary.btree import NODES, TERMS, BTree, BTreeNode, BTreeStats, Forest
from repro.dictionary.dictionary import DictionaryShard
from repro.dictionary.layout import MAX_TERM_BYTES, STRING_CACHE_BYTES as _CACHE_BYTES
from repro.parsing.regroup import ParsedBatch
from repro.postings.lists import PostingsAccumulator, RunPostings

__all__ = ["BaseIndexer", "IndexerReport"]


@dataclass
class IndexerReport:
    """Work performed by one indexer over one batch (or accumulated)."""

    tokens: int = 0
    new_terms: int = 0
    characters: int = 0
    documents: int = 0
    collections: int = 0
    btree: BTreeStats = field(default_factory=BTreeStats)
    #: Modeled execution time in simulated seconds (filled by cost models).
    modeled_seconds: float = 0.0

    def merge(self, other: "IndexerReport") -> None:
        self.tokens += other.tokens
        self.new_terms += other.new_terms
        self.characters += other.characters
        self.documents += other.documents
        self.collections += other.collections
        self.btree.merge(other.btree)
        self.modeled_seconds += other.modeled_seconds


_NCOUNTERS = len(BTreeStats.__dataclass_fields__)
_INSERTS = list(BTreeStats.__dataclass_fields__).index("inserts")
#: A span's record: its tree's heap growth, then the ten counters.
_RECORD = 1 + _NCOUNTERS
_row = attrgetter("row")


def _added_in_order(values: np.ndarray) -> float:
    """``values`` added left to right, as a ``+=`` loop over them would:
    ``cumsum`` accumulates in order (``np.sum`` and, from Python 3.12,
    ``sum()`` do not), so the total is the same float."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _walk(
    forest: Forest, trees: list[BTree], rows: np.ndarray, offsets: np.ndarray, ends: np.ndarray,
    ids: np.ndarray, suffixes: list[bytes],
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Insert every token's suffix into its span's tree; count the work.

    Span ``i`` inserts ``ids[offsets[i]:ends[i]]`` (entries of the table
    ``suffixes``) into ``trees[i]``, a tree of ``forest`` at table row
    ``rows[i]``; an entry is one collection's suffix, so only spans of that
    collection's tree hold it.  A span whose tree is one leaf that stays
    under ``max_keys``, and occurs in no other span, descends with the
    call's others at once (:func:`_leaf_spans`).  Every other span goes
    through :meth:`~repro.dictionary.btree.BTree._descend`, token by
    token.  There a descent that finds its suffix and splits no node is
    a pure function of (tree, suffix): while the tree has gained neither
    a term nor a node since an entry's last descent, its next occurrence
    is charged that descent's counts without descending (an entry that
    occurs once in the call, or a span of one token, records nothing); a
    descent that inserts or splits forgets every recorded descent of the
    tree.  One pass over
    the spans, in order, allocates term ids, appends heap strings and
    lists mutated entries, the one-leaf spans' between the others'.
    Term ids, the mutation log and every counter come out as if each
    token had gone through :meth:`~repro.dictionary.btree.BTree.insert`.

    Returns entry id → term id; each span's record, a row each: the
    bytes its new terms added to the heap (Fig 6 length bytes included),
    then its ten counters in :class:`BTreeStats` field order; and the
    entries whose descent inserted or split, in walk order (the mutation
    log's).
    """
    leaves = _leaf_spans(forest, trees, rows, offsets, ends, ids, suffixes)
    slow = range(len(trees)) if leaves is None else np.flatnonzero(~leaves.fast).tolist()
    if slow:
        # Where a recorded descent can be charged again: the entries that
        # occur more than once in these spans, and the spans that hold one.
        sizes = ends - offsets
        occurs = np.bincount(
            ids if leaves is None else ids[(~leaves.fast).repeat(sizes)], minlength=len(suffixes))
        repeats = np.zeros(len(ids) + 1, dtype=np.int32)
        np.cumsum(occurs[ids] > 1, out=repeats[1:])
        has_repeats = ((repeats[ends] > repeats[offsets]) & (sizes > 1)).tolist()
        repeated = set((occurs > 1).nonzero()[0].tolist())
    #: entry → term id, of the entries the token-by-token spans insert.
    entry_term: dict[int, int] = {}
    grown: list[int] = []
    mutated: list[int] = []
    #: Per run of one-leaf spans that insert: its first new term, that
    #: term's id and its heap pointer.
    runs: list[tuple[int, int, int]] = []
    flushed = 0
    view, starts, stops = memoryview(ids), offsets.tolist(), ends.tolist()
    for span in [*slow, len(trees)]:
        if leaves is not None and leaves.before[span] > flushed:
            # The new terms of the one-leaf spans since the last span here.
            new = leaves.created[flushed : leaves.before[span]]
            runs.append((flushed, forest._alloc_ids(len(new)), forest.store.byte_size))
            forest.store.extend_packed(
                leaves.packed[leaves.packed_at[flushed] : leaves.packed_at[flushed + len(new)]],
                len(new))
            mutated += new
            flushed += len(new)
        if span == len(trees):
            break
        tree, start, end = trees[span], starts[span], stops[span]
        descend = tree._descend
        inserts = depth_sum = comparisons = fetches = splits = shifts = added = 0
        if has_repeats[span]:
            #: entry → (depth, comparisons, fetches) of its recorded descent.
            recorded: dict[int, tuple[int, int, int]] = {}
            for entry in view[start:end]:
                counts = recorded.get(entry)
                if counts is not None:
                    depth, probes, fetched = counts
                    depth_sum += depth
                    comparisons += probes
                    fetches += fetched
                    continue
                entry_term[entry], created, depth, probes, fetched, split, shifted = descend(
                    suffixes[entry], True
                )
                inserts += created
                depth_sum += depth
                comparisons += probes
                fetches += fetched
                shifts += shifted
                if created or split:
                    splits += split
                    recorded.clear()
                    mutated.append(entry)
                    if created:
                        added += len(suffixes[entry])
                elif entry in repeated:
                    recorded[entry] = (depth, probes, fetched)
        else:
            for entry in view[start:end]:
                entry_term[entry], created, depth, probes, fetched, split, shifted = descend(
                    suffixes[entry], True
                )
                inserts += created
                depth_sum += depth
                comparisons += probes
                fetches += fetched
                splits += split
                shifts += shifted
                if created or split:
                    mutated.append(entry)
                    if created:
                        added += len(suffixes[entry])
        # Every token is one insert or one duplicate hit (the walk makes no
        # search), and each visits one node more than its depth.
        tokens = end - start
        grown += (
            added + inserts, 0, inserts, tokens - inserts, depth_sum + tokens, comparisons,
            comparisons - fetches, fetches, splits, shifts, depth_sum,
        )
    records = np.zeros((len(trees), _RECORD), dtype=np.int64)
    records[slow] = np.array(grown, dtype=np.int64).reshape(-1, _RECORD)
    terms = np.zeros(len(suffixes), dtype=np.int64)
    terms[list(entry_term)] = list(entry_term.values())
    if leaves is not None:
        records[leaves.fast] = leaves.records
        leaves.write(forest, runs, terms)
    return terms, records, mutated


def _replay(keys: np.ndarray, rank: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Node binary searches in lockstep: the slots each one probes.

    Search ``i`` runs over a node of ``keys[i]`` keys, ``rank[i]`` of
    which sort before its suffix; ``found[i]`` says the node holds it.  A
    probe moves right of a smaller key and left of a larger one whatever
    settles it (the cache or the full string), so the path follows from
    the rank alone: :meth:`~repro.dictionary.btree.BTree._descend`'s
    replay, on arrays.  Returns each search's probed slots as the bits
    of one ``uint64`` (a node of fewer than 64 keys).
    """
    lo, hi = np.zeros_like(keys), keys.copy()
    past = rank + found  # the first key after the suffix
    probed = np.zeros(len(keys), dtype=np.uint64)
    active = lo < hi
    while active.any():
        slot = (lo + hi) >> 1
        probed[active] |= np.uint64(1) << slot[active].astype(np.uint64)
        right = active & (slot < rank)
        left = active & (slot >= past)
        lo = np.where(right, slot + 1, lo)
        hi = np.where(left, slot, hi)
        active = (right | left) & (lo < hi)
    return probed


#: Every search :func:`_replay` can be asked for — a node of ``keys``
#: below 64, a ``rank`` up to 64, ``found`` — at ``(keys × 65 + rank) × 2
#: + found``: its probed slots, and how many.
_PROBED = _replay(*np.unravel_index(np.arange(64 * 65 * 2), (64, 65, 2)))
_PROBES = np.bitwise_count(_PROBED)


def _probes(
    nkeys: np.ndarray, slot: np.ndarray, found: np.ndarray, below: np.ndarray,
    above: np.ndarray, size: np.ndarray, cached: bool, where: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The comparisons and full-string fetches of node binary searches:
    over ``nkeys`` keys, ``slot`` of them before the suffix (``found`` in
    the node or not), the keys ``[below, above)`` tying its cache, a
    suffix of ``size`` bytes; zeros where ``where`` is false."""
    if where is not None:
        nkeys, slot, below, above = nkeys * where, slot * where, below * where, above * where
        found = found & where
    search = (nkeys * 65 + slot) * 2 + found
    comparisons = _PROBES[search]
    if not cached:
        return comparisons, comparisons  # the tie range is the whole node
    # The probes that tie the query's cache, as bits of their slots; a
    # short query's tie is a hit.
    one = np.uint64(1)
    tied = np.left_shift(one, above.astype(np.uint64))
    tied -= np.left_shift(one, below.astype(np.uint64))
    tied &= _PROBED[search]
    return comparisons, np.bitwise_count(tied) * (size >= _CACHE_BYTES)


def _strings(rows: np.ndarray, width: int) -> np.ndarray:
    """``uint8`` rows as byte strings of ``width``, zero-padded: with no
    NUL in term bytes, string order is byte order."""
    matrix = np.zeros((len(rows), width), dtype=np.uint8)
    matrix[:, : rows.shape[1]] = rows
    return matrix.view(f"S{width}").ravel()


@dataclass
class _LeafSpans:
    """The one-leaf spans of a walk, descended: what :func:`_walk` needs
    of them, and what :meth:`write` stores once their terms have ids."""

    #: Whether each span of the walk was descended here.
    fast: np.ndarray
    #: Their records, a row each (:func:`_walk`'s layout).
    records: np.ndarray
    #: Their entries that insert a term, in walk order ...
    created: list[int]
    #: ... and how many of those lie before each span of the walk (and,
    #: last, in all).
    before: list[int]
    #: The new key each of those inserts, and its Fig 6 size (length byte
    #: included); how many new keys there are.
    creates: np.ndarray
    sizes: np.ndarray
    new_keys: int
    #: Their Fig 6 heap records, back to back, and where each begins (and,
    #: last, the end).
    packed: bytes
    packed_at: list[int]
    #: The entries that hit a held key, and its term id.
    hits: np.ndarray
    hit_terms: np.ndarray
    #: The entries of new keys, and their key.
    adding: np.ndarray
    adding_keys: np.ndarray
    #: The new keys in leaf order (spans ascend, suffixes ascend): their
    #: numbers, leaves, the leaves' table rows, how many held keys and how
    #: many keys in all sort before each, and their caches (the 4 bytes as
    #: big-endian integers).
    added: np.ndarray
    leaves: list[BTreeNode]
    rows: np.ndarray
    held_at: np.ndarray
    slots: list[int]
    caches: np.ndarray

    def write(
        self, forest: Forest, runs: list[tuple[int, int, int]], entry_term: np.ndarray
    ) -> None:
        """Number the new terms as :func:`_walk` allocated them (``runs``),
        insert them into their leaves and the forest's leaf columns, and
        set the spans' entries' ids."""
        firsts, term_ids, pointers = np.array(runs, dtype=np.int64).reshape(-1, 3).T
        per_run = np.diff(np.append(firsts, len(self.sizes)))
        heap_at = np.cumsum(self.sizes) - self.sizes
        new_term = np.zeros(self.new_keys, dtype=np.int64)
        new_ptr = np.zeros(self.new_keys, dtype=np.int64)
        new_term[self.creates] = np.arange(len(self.creates)) + np.repeat(term_ids - firsts, per_run)
        new_ptr[self.creates] = heap_at + np.repeat(pointers - heap_at[firsts], per_run)
        entry_term[self.hits] = self.hit_terms
        entry_term[self.adding] = new_term[self.adding_keys]
        string_ptrs, term_ids = new_ptr[self.added], new_term[self.added]
        # In leaf order, each new key's slot already holds every smaller key.
        for leaf, slot, cache, string_ptr, term_id in zip(
            self.leaves, self.slots, self.caches.view(f"V{_CACHE_BYTES}").tolist(),
            string_ptrs.tolist(), term_ids.tolist(),
        ):
            leaf.caches.insert(slot, cache)
            leaf.string_ptrs.insert(slot, string_ptr)
            leaf.postings_ptrs.insert(slot, term_id)
        forest.add_leaf_keys(self.rows, self.held_at, self.caches, string_ptrs, term_ids)


def _leaf_spans(
    forest: Forest, trees: list[BTree], rows: np.ndarray, offsets: np.ndarray, ends: np.ndarray,
    ids: np.ndarray, suffixes: list[bytes],
) -> _LeafSpans | None:
    """Descend every span of a walk that cannot split, at once.

    A span qualifies when its tree's root is a leaf, no other span of the
    walk has its tree, and the leaf stays under ``max_keys`` to the end
    of the span.  Then an occurrence's descent depends only on the keys
    its leaf holds at that moment: those it held at the start plus the
    span's earlier inserts.  Each used entry is placed once against its
    leaf's keys: its ``(span, cache)``, one integer, finds the held keys
    it ties (the held keys are in that order already: spans ascend and a
    leaf's keys ascend), and a byte-string compare with each of those
    finds or places it (term bytes hold no NUL, so zero-padded
    fixed-width order is byte order).  The held keys are read from the
    forest's leaf columns
    (:meth:`~repro.dictionary.btree.Forest.leaf_keys`) by index: every
    cache of the spans' leaves, and a string pointer and term id only
    where a suffix ties or hits that key.  The distinct new suffixes are
    sorted and numbered, and each entry also counts the new keys of its
    span that sort before it and before / up to its cache.  The new keys
    present before an occurrence are then one ``uint64`` bit per new key:
    one per earlier first occurrence of a new suffix (a ``cumsum`` within
    the span).  Popcounts of that mask, added to the held counts, give
    the leaf's key count, the occurrence's rank and its cache's tie
    range, and :func:`_replay` its probes.  A span that gains no key
    holds the same keys throughout, so there an entry's probes are
    counted once and weighted by its occurrences.  ``None`` when no span
    qualifies.
    """
    sizes = ends - offsets
    # A tree of one node is a leaf, and its terms are its keys.
    counts = forest.counts
    candidate = (counts[rows, NODES] == 1) & (np.bincount(rows)[rows] == 1) & (sizes > 0)
    spans = candidate.nonzero()[0]
    if not len(spans):
        return None
    # Their tokens, back to back, and the entries they use, span by span.
    span_size = sizes[spans]
    token_span = np.arange(len(spans), dtype=np.int32).repeat(span_size)
    tokens = (offsets[spans] - (span_size.cumsum(dtype=np.int32) - span_size)).repeat(span_size)
    tokens += np.arange(len(tokens), dtype=tokens.dtype)
    token_entry = ids[tokens]
    del tokens
    entry_span = np.full(len(suffixes), -1)
    entry_span[token_entry] = token_span
    used = (entry_span >= 0).nonzero()[0]
    used = used[entry_span[used].astype(np.min_scalar_type(len(spans))).argsort(kind="stable")]
    fresh = list(map(suffixes.__getitem__, used.tolist()))
    strings = np.array(fresh, dtype=bytes)
    if strings.itemsize > MAX_TERM_BYTES or b"\x00" in b"".join(fresh):
        # A suffix the tree refuses (too long, or with a NUL): the walk
        # goes token by token, and raises where a descent would.
        return None
    # With no NUL, a string's length is its suffix's.
    fresh_len = np.strings.str_len(strings)
    # The suffixes as rows of whole words: the first is the cache.
    width = -(-max(strings.itemsize, _CACHE_BYTES) // 4) * 4
    fresh_bytes = strings.astype(f"S{width}").view(np.uint8).reshape(len(used), width)
    fresh_span = entry_span[used]
    fresh_cache = fresh_bytes.view(">u4")[:, 0]
    fresh_sc = (fresh_span.astype(np.uint64) << np.uint64(32)) | fresh_cache
    # The held keys, span by span: their places in the forest's leaf
    # columns (a root is read only where its row lags its tree).
    span_rows = rows[spans]
    starts = forest.leaf_keys(
        span_rows, lambda picks: [trees[span].root for span in spans[picks].tolist()])
    held = counts[span_rows, TERMS]
    held_start = held.cumsum() - held
    held_index = (starts - held_start).repeat(held)
    held_index += np.arange(len(held_index))
    held_sc = (np.arange(len(spans), dtype=np.uint64).repeat(held) << np.uint64(32)) | (
        forest.leaf_cache[held_index])

    # A used suffix lies among the held keys of its cache: compared in
    # full with each of those, it is found or placed.  A suffix under four
    # bytes that ties a key is that key.
    lo = held_sc.searchsorted(fresh_sc)
    hi = held_sc.searchsorted(fresh_sc, "right")
    short = fresh_len < _CACHE_BYTES
    compared = np.where(short, 0, hi - lo)
    pair = np.arange(len(used)).repeat(compared)
    tied = np.arange(len(pair)) + (lo - (compared.cumsum() - compared)).repeat(compared)
    base = held_start[fresh_span]
    held_bytes = forest.store.padded(forest.leaf_string_ptr[held_index[tied]])
    width = max(width, held_bytes.shape[1])
    held_strings = _strings(held_bytes, width)
    fresh_strings = _strings(fresh_bytes, width)
    at = lo + np.bincount(pair, held_strings < fresh_strings[pair], len(used)).astype(np.intp)
    found = np.bincount(pair, held_strings == fresh_strings[pair], len(used)) > 0
    found |= short & (hi > lo)
    at -= base
    lo -= base
    hi -= base

    # The distinct new suffixes, in (span, suffix) order, numbered.
    absent = (~found).nonzero()[0]
    order = absent[_strings(
        np.hstack((fresh_span[absent].astype(">u4").view(np.uint8).reshape(-1, 4),
                   fresh_bytes[absent])), 4 + width,
    ).argsort(kind="stable")]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (fresh_sc[order[1:]] != fresh_sc[order[:-1]]) | (
        fresh_strings[order[1:]] != fresh_strings[order[:-1]])
    new_entry = order[first]
    nkeys_new = len(new_entry)
    key_new = np.full(len(used), nkeys_new)  # past the last: a held key
    key_new[order] = first.cumsum() - 1
    new_span = fresh_span[new_entry]
    new_count = np.bincount(new_span, minlength=len(spans))
    new_start = new_count.cumsum() - new_count
    new_rank = np.arange(nkeys_new) - new_start[new_span]
    # A leaf that would reach ``max_keys`` may split: the walk descends it.
    fits = held + new_count < min(forest.max_keys, 64)
    if not fits.any():
        return None
    # Each entry against its span's new keys: how many sort before its
    # suffix (a new one: its rank), and before / up to its cache.
    new_base = new_start[fresh_span]
    new_sc = fresh_sc[new_entry]
    below_new = new_sc.searchsorted(fresh_sc) - new_base
    above_new = new_sc.searchsorted(fresh_sc, "right") - new_base
    span_at = (fresh_span.astype(np.uint64) << np.uint64(32)) | at.astype(np.uint64)
    before_new = span_at[new_entry].searchsorted(span_at, "right") - new_base
    before_new[order] = new_rank[key_new[order]]
    # What placing the entries took is not needed past here: dropped, the
    # walk's working set stays within a batch's columns.
    del fresh, strings, fresh_sc, held_sc, held_index, compared, pair, tied, base, held_bytes
    del held_strings, fresh_strings, absent, order, first, new_sc, new_base, span_at

    # A fitting span that gains no key holds the same keys throughout: an
    # occurrence's probes are its entry's, counted once per entry.
    cached = forest.use_string_cache
    entry_at = np.empty(len(suffixes), dtype=np.int32)
    entry_at[used] = np.arange(len(used), dtype=np.int32)
    row = entry_at[token_entry]
    steady = (fits & (new_count == 0))[fresh_span]
    comparisons, fetches = _probes(
        held[fresh_span], at, found, lo, hi, fresh_len, cached, steady)
    weight = np.bincount(row, minlength=len(used)) * steady
    # Per candidate span: inserts, heap bytes, probes, fetches, shifts.
    totals = np.zeros((5, len(spans)), dtype=np.int64)
    totals[2] = np.bincount(fresh_span, weight * comparisons, len(spans))
    totals[3] = np.bincount(fresh_span, weight * fetches, len(spans))

    # The occurrences of the spans that gain keys, in walk order, each
    # with its entry's row.
    growing = fits & (new_count > 0)
    keep = growing[token_span].nonzero()[0]
    token_span, token_entry, row = token_span[keep], token_entry[keep], row[keep]
    # A fitting leaf holds fewer than 64 keys: its counts fit ``int16``.
    table = np.stack((
        at, lo, hi, before_new, below_new, above_new, held[fresh_span], fresh_len,
        np.append(new_rank, 0)[key_new],
    ), axis=1, dtype=np.int16)[row]
    key = key_new[row]
    del row
    count = len(table)
    size = table[:, 7]
    first_seen = np.full(nkeys_new + 1, count)
    np.minimum.at(first_seen, key, np.arange(count))
    inserts = (first_seen[key] == np.arange(count)) & (key < nkeys_new)
    one = np.uint64(1)
    new_bits = np.where(inserts, one << table[:, 8].astype(np.uint64), np.uint64(0))
    earlier = new_bits.cumsum() - new_bits  # modulo 2**64: differences hold
    opens = np.ones(count, dtype=bool)
    opens[1:] = token_span[1:] != token_span[:-1]
    span_of = opens.cumsum(dtype=np.int32) - 1
    present = earlier - earlier[opens.nonzero()[0]][span_of]
    del new_bits, earlier
    # Held keys, plus the present new keys before the suffix, its cache
    # and past its cache (masks made in place: a column each).
    below_mask = table[:, 3:6].astype(np.uint64)
    np.left_shift(one, below_mask, out=below_mask)
    below_mask -= one
    below_mask &= present[:, None]
    slot, below, above = (table[:, :3] + np.bitwise_count(below_mask)).T
    del below_mask
    nkeys = table[:, 6] + np.bitwise_count(present)
    comparisons, fetches = _probes(nkeys, slot, ~inserts, below, above, size, cached)
    inserted = token_span[inserts]
    totals[0] = np.bincount(inserted, minlength=len(spans))
    totals[1] = np.bincount(inserted, size[inserts] + 1, len(spans))
    totals[2] += np.bincount(token_span, comparisons, len(spans)).astype(np.int64)
    totals[3] += np.bincount(token_span, fetches, len(spans)).astype(np.int64)
    totals[4] = np.bincount(inserted, (nkeys - slot)[inserts], len(spans))
    new_terms, heap, probes, fetched, shifts = totals[:, fits]
    visits = span_size[fits]
    zero = np.zeros_like(new_terms)
    kept = spans[fits]
    fast = np.zeros(len(trees), dtype=bool)
    fast[kept] = True
    before = np.zeros(len(trees) + 1, dtype=np.int64)
    before[kept + 1] = new_terms
    # The new terms' heap records: a length byte, then the suffix.
    records_size = size[inserts] + 1
    layout = np.hstack((
        size[inserts].astype(np.uint8)[:, None], fresh_bytes[entry_at[token_entry[inserts]]]))
    packed = layout[np.arange(layout.shape[1]) < records_size[:, None]].tobytes()
    in_fit = fits[fresh_span]
    hits = (found & in_fit).nonzero()[0]
    adding = (~found & in_fit).nonzero()[0]
    added = fits[new_span].nonzero()[0]
    return _LeafSpans(
        fast=fast,
        records=np.column_stack((
            heap, zero, new_terms, visits - new_terms, visits, probes, probes - fetched,
            fetched, zero, shifts, zero,
        )),
        created=token_entry[inserts].tolist(),
        before=before.cumsum().tolist(),
        creates=key[inserts],
        sizes=records_size,
        new_keys=nkeys_new,
        packed=packed,
        packed_at=[0, *records_size.cumsum().tolist()],
        hits=used[hits],
        hit_terms=forest.leaf_term[starts[fresh_span[hits]] + at[hits]],
        adding=used[adding],
        adding_keys=key_new[adding],
        added=added,
        leaves=[trees[span].root for span in spans[new_span[added]].tolist()],
        rows=span_rows[new_span[added]],
        held_at=at[new_entry[added]],
        slots=(at[new_entry] + new_rank)[added].tolist(),
        caches=fresh_cache[new_entry[added]],
    )


class BaseIndexer:
    """Common stream-consumption logic for CPU and GPU indexers.

    Parameters
    ----------
    indexer_id:
        Unique across the engine; also the dictionary shard id, which
        partitions the term-id space.
    shard:
        The exclusive dictionary shard this indexer owns.

    Thread contract
    ---------------
    ``index_batch`` is safe to run concurrently *across* indexers — each
    owns a disjoint dictionary shard and postings accumulator, and
    telemetry instruments are internally locked — but one indexer's
    batches must be consumed by a single thread at a time, in file order
    (the accumulator requires non-decreasing document IDs per term).
    Both execution backends index inline on the engine thread.
    """

    kind = "base"

    def __init__(self, indexer_id: int, shard: DictionaryShard) -> None:
        self.indexer_id = indexer_id
        self.shard = shard
        self.accumulator = PostingsAccumulator()
        self.total = IndexerReport()

    @property
    def lane(self) -> str:
        """Stable trace-lane identity for this indexer's batch spans.

        One lane per indexer, so a timeline shows each indexer's
        ``index_batch`` spans on a row of its own.
        """
        return f"{self.kind}-{self.indexer_id}"

    # ------------------------------------------------------------------ #

    def owns(self, collection_index: int) -> bool:
        return self.shard.owned is None or collection_index in self.shard.owned

    def _owned_rows(self, collections: np.ndarray) -> np.ndarray:
        """Where ``collections`` (trie collection indices) names one this
        indexer consumes: rows of a batch's collection table (``order``)
        or, ungrouped, tokens."""
        owned = self.shard.owned
        if owned is None:
            return np.arange(len(collections))
        return np.flatnonzero(np.isin(collections, np.fromiter(owned, np.int32, len(owned))))

    def _index_rows(
        self, batch: ParsedBatch, rows: np.ndarray, doc_offset: int
    ) -> tuple[IndexerReport, np.ndarray, BTreeStats]:
        """Consume the collections ``rows``, in order.

        This is the inner loop of Fig 4: every suffix is inserted into the
        collection's B-tree (getting the postings pointer, :func:`_walk`)
        and the occurrences appended under the *global* document ID, one
        chunk of postings columns per batch
        (:meth:`~repro.postings.lists.PostingsAccumulator.add_batch`).
        When the parser supplied positions, each occurrence also records
        its in-document token position.

        Returns the batch's one report (tokens, characters and documents
        are the parser's per-collection counts), the shard's table rows of
        the trees touched and a :class:`BTreeStats` whose fields are
        *arrays*, one element per collection: how far each tree's counters
        moved.  A collection has its own tree and its own span, so that is
        the walk's per-span record; the batch's records are added into the
        table at once (:meth:`~repro.dictionary.btree.Forest.fold`), and
        the walk's mutated entries are logged at once.  No tree's counters
        are read.
        """
        assert batch.spans is not None
        if batch.positions is not None and len(batch.positions) != len(batch.ids):
            raise ValueError("positions column is not aligned with the token columns")
        owned = batch.order[rows].tolist()
        planted = self.shard.trees
        # A collection's first batch creates its tree: the batch's new
        # trees are planted at once.
        self.shard.plant([cidx for cidx in owned if cidx not in planted])
        trees = list(map(planted.__getitem__, owned))

        # The owned tokens, back to back in row order.  (int32 throughout:
        # a batch's columns are; the temporaries stay half the size.)
        starts, ends = batch.spans[rows].T.astype(np.int32)
        lengths = ends - starts
        tiled = np.cumsum(lengths, dtype=np.int32)
        offsets = tiled - lengths
        take = np.repeat(starts - offsets, lengths)
        take += np.arange(len(take), dtype=np.int32)
        ids = batch.ids[take]
        tree_rows = np.fromiter(map(_row, trees), dtype=np.intp, count=len(trees))
        entry_term, records, mutated = _walk(
            self.shard, trees, tree_rows, offsets, tiled, ids, batch.entry_suffix)
        self.accumulator.add_batch(
            entry_term,
            ids,
            batch.docs[take] + doc_offset,
            None if batch.positions is None else batch.positions[take],
        )
        grown = self._record(tree_rows, records, mutated, batch)
        total = grown.sum(axis=0).tolist()
        report = IndexerReport(
            tokens=int(batch.tokens[rows].sum()),
            # A tree gains a term exactly when it counts an insert.
            new_terms=total[_INSERTS],
            characters=int(batch.chars[rows].sum()),
            documents=int(batch.documents[rows].sum()),
            collections=len(rows),
            btree=BTreeStats(*total),
        )
        return report, tree_rows, BTreeStats(*grown.T)

    def _record(
        self, tree_rows: np.ndarray, grown: np.ndarray, mutated: list[int], batch: ParsedBatch
    ) -> np.ndarray:
        """Add the walk's span records ``grown`` into the shard's table rows
        ``tree_rows`` and log its mutated entries; returns the spans' ten
        counters, a row each."""
        shard = self.shard
        shard.fold(tree_rows, grown)
        if mutated:
            shard.log_mutations(
                batch.entry_cidx[mutated].tolist(), map(batch.entry_suffix.__getitem__, mutated)
            )
        return grown[:, 1:]

    def index_batch(self, batch: ParsedBatch, doc_offset: int) -> IndexerReport:
        """Consume all owned collections of one parsed buffer."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def drain_postings(self) -> RunPostings:
        """End-of-run handoff of accumulated postings (Fig 8)."""
        return self.accumulator.drain()

    def without_forest(self) -> "BaseIndexer":
        """A shallow copy around :meth:`DictionaryShard.without_forest`.

        The indexer's small state — totals, device counters, the shard's
        identity and id cursor — without the dictionary: what a
        checkpoint record pickles.  The forest travels as mutation logs.
        """
        stub = copy.copy(self)
        stub.shard = self.shard.without_forest()
        return stub

"""Shared plumbing for the baseline indexers.

All baselines consume the same parsed document stream — ``(global doc ID,
[stemmed terms in order])`` — produced by the very parser the engine uses,
so index differences can only come from the indexing algorithms
themselves.  The common output form is a plain ``{term: [(doc, tf), …]}``
map, which the tests compare across every implementation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.corpus.collection import Collection
from repro.parsing.parser import Parser

__all__ = ["parsed_documents", "count_tf", "Index"]

Index = dict[str, list[tuple[int, int]]]


def parsed_documents(
    collection: Collection, strip_html: bool = True
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(global doc id, [terms])`` in collection order.

    Uses the engine's parser with regrouping *disabled* so terms stay in
    document order — the natural input shape for the classical baselines.
    """
    parser = Parser(parser_id=0, strip_html=strip_html, regroup=False)
    trie = parser.trie
    doc_offset = 0
    for seq, path in enumerate(collection.files):
        parsed = parser.parse_file(path, sequence=seq)
        batch = parsed.batch
        # One reconstruction per distinct entry; empty documents included.
        entry_terms = [
            trie.reconstruct(cidx, suffix.decode("utf-8"))
            for cidx, suffix in zip(batch.entry_cidx.tolist(), batch.entry_suffix)
        ]
        terms = [entry_terms[i] for i in batch.ids.tolist()]
        ends = np.cumsum(np.bincount(batch.docs, minlength=batch.num_docs)).tolist()
        for local_doc, (start, end) in enumerate(zip([0, *ends], ends)):
            yield doc_offset + local_doc, terms[start:end]
        doc_offset += parsed.batch.num_docs


def count_tf(terms: list[str]) -> dict[str, int]:
    """Term frequencies within one document."""
    tf: dict[str, int] = {}
    for term in terms:
        tf[term] = tf.get(term, 0) + 1
    return tf

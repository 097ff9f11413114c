#!/usr/bin/env python
"""A search engine on top of the inverted files.

Builds a *positional* index (the Ivory-style extension of §IV.D) over a
synthetic news-crawl collection and serves Boolean, TF-IDF-ranked, and
phrase queries from the run files — including the paper's range-narrowed
retrieval ("faster search when narrowed down to a range of document
IDs") and document display through the persisted doc table.

Run:  python examples/search_engine.py [workdir]
"""

from __future__ import annotations

import os
import sys

from repro import DocTable, IndexingEngine, PlatformConfig, SearchEngine, congress_mini
from repro.corpus.warc import read_packed_file


def main(workdir: str = "./search_data") -> None:
    collection = congress_mini(workdir, scale=0.4)
    out_dir = os.path.join(workdir, "index")
    result = IndexingEngine(
        PlatformConfig(sample_fraction=0.05, positional=True)
    ).build(collection, out_dir)
    print(f"indexed {result.document_count} documents, {result.term_count:,} terms "
          f"(positional)\n")

    engine = SearchEngine(out_dir, num_docs=result.document_count)
    doc_table = DocTable.load(out_dir)

    # Pick real mid-frequency content terms (boilerplate is in every
    # document and has no idf; numbers are noise).
    vocab = engine.reader.vocabulary()
    n = result.document_count
    samples = [
        t
        for t in sorted(vocab, key=lambda t: -engine.reader.document_frequency(t))
        if t.isalpha()
        and len(t) >= 5
        and n // 20 < engine.reader.document_frequency(t) < n // 2
    ][:3]
    query = " ".join(samples)
    print(f"query: {query!r}")

    hits = engine.boolean_and(query)
    print(f"boolean AND: {len(hits)} documents {hits[:10]}")
    print(f"boolean OR:  {len(engine.boolean_or(query))} documents")

    print("TF-IDF top 5:")
    for hit in engine.ranked(query, k=5):
        row = doc_table.lookup(hit.doc_id)
        print(f"  doc {hit.doc_id:5d}  score {hit.score:.3f}  {row.uri}")

    # Phrase search over a real surface 2-gram from a document.  Query
    # words must be *surface* forms — the engine normalizes them exactly
    # like the indexing pipeline, and stemming is not idempotent, so
    # feeding already-stemmed terms back in would double-stem.
    from repro.parsing.tokenizer import split_tokens, strip_markup
    from repro.search.query import normalize_query

    first_doc = read_packed_file(collection.files[0])[0]
    surface = split_tokens(strip_markup(first_doc.text).lower())
    phrase = next(
        f"{a} {b}"
        for a, b in zip(surface, surface[1:])
        if len(normalize_query(f"{a} {b}")) == 2  # both survive stop filtering
    )
    print(f"\nphrase query {phrase!r}:")
    docs = engine.phrase(phrase)
    freq = engine.phrase_frequency(phrase)
    print(f"  {len(docs)} documents; occurrence counts: "
          f"{dict(list(freq.items())[:5])}")

    # Range narrowing fetches only overlapping run files.
    lo, hi = 0, result.document_count // 2
    fetches_before = engine.reader.partial_fetches
    top = engine.ranked_in_range(query, lo, hi, k=3)
    print(f"\nrestricted to docs {lo}..{hi}: top={[(h.doc_id, round(h.score, 2)) for h in top]} "
          f"({engine.reader.partial_fetches - fetches_before} partial fetches, "
          f"{engine.reader.run_count()} runs total)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "./search_data")

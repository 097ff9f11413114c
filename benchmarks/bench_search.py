"""Extension — query latency over the run-file output format (§III.F).

Times the retrieval paths the output format was designed for: dictionary
lookup → postings fetch, Boolean intersection, TF-IDF ranking, and the
docID-range-narrowed variant that touches only overlapping run files.
"""

from __future__ import annotations

from conftest import report

from repro.search.query import SearchEngine
from repro.util.fmt import render_table
from repro.util.timing import Timer


def _query_terms(engine: SearchEngine, n: int = 8) -> list[str]:
    """Mid-frequency alphabetic terms (non-trivial but selective)."""
    vocab = engine.reader.vocabulary()
    lo, hi = engine.num_docs // 20, engine.num_docs // 2
    return [
        t
        for t in sorted(vocab, key=lambda t: -engine.reader.document_frequency(t))
        if t.isalpha() and lo < engine.reader.document_frequency(t) < hi
    ][:n]


def test_query_latency(benchmark, engine_result):
    engine = SearchEngine(engine_result.output_dir, num_docs=engine_result.document_count)
    terms = _query_terms(engine)
    assert len(terms) >= 4
    query = " ".join(terms[:3])

    def ranked():
        return engine.ranked(query, k=10)

    hits = benchmark(ranked)
    assert hits

    # One-shot latency comparison across the retrieval modes.
    timings = {}
    with Timer() as t:
        single = engine.reader.postings(terms[0])
    timings["single-term postings fetch"] = (t.elapsed, len(single))
    with Timer() as t:
        docs = engine.boolean_and(query)
    timings["boolean AND (3 terms)"] = (t.elapsed, len(docs))
    with Timer() as t:
        docs = engine.boolean_or(query)
    timings["boolean OR (3 terms)"] = (t.elapsed, len(docs))
    with Timer() as t:
        top = engine.ranked(query, k=10)
    timings["TF-IDF top-10 (3 terms)"] = (t.elapsed, len(top))
    lo, hi = 0, engine.num_docs // 4
    fetches0 = engine.reader.partial_fetches
    with Timer() as t:
        top = engine.ranked_in_range(query, lo, hi, k=10)
    narrowed_fetches = engine.reader.partial_fetches - fetches0
    timings[f"range-narrowed top-10 (docs {lo}..{hi})"] = (t.elapsed, len(top))

    rows = [
        [name, f"{seconds * 1e3:.3f}", results]
        for name, (seconds, results) in timings.items()
    ]
    rows.append(
        ["runs touched by the narrowed query",
         f"{narrowed_fetches} of {engine.reader.run_count() * 3}", ""]
    )
    report("search_latency", render_table(["Operation", "ms", "results"], rows))

"""Query processing over the engine's inverted files.

The paper's output format is designed for retrieval — dictionary lookup →
postings pointer → partial lists per run (§III.F) — and this package puts
a small but complete query layer on top:

- :class:`~repro.search.query.SearchEngine` — Boolean conjunction /
  disjunction / negation, TF-IDF ranking, and docID-range-restricted
  variants that exploit the run-per-file layout;
- phrase queries over *positional* indexes (built with
  ``PlatformConfig(positional=True)``), the extension the paper's §IV.D
  comparison with Ivory's positional postings motivates.

Query terms go through exactly the indexing pipeline's normalization
(lower-case → byte-length limit → Porter stem → stop-word filter), so a
query matches what the index stores.
"""

from repro.search.query import QueryResult, SearchEngine, normalize_query

__all__ = ["SearchEngine", "QueryResult", "normalize_query"]

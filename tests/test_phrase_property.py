"""Property test: phrase search agrees with a naive token-stream scan."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PlatformConfig
from repro.core.engine import IndexingEngine
from repro.corpus.collection import Collection
from repro.corpus.warc import write_packed_file
from repro.search.query import SearchEngine, normalize_query

# A tiny closed vocabulary of content words (no stop words, stable stems).
VOCAB = ["zebra", "quartz", "fjord", "glyph", "crypt", "nymph"]

documents = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12),
    min_size=1,
    max_size=6,
)
phrases = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3)


def _naive_phrase_docs(docs: list[list[str]], phrase: list[str]) -> list[int]:
    """Ground truth: scan each normalized token stream for the n-gram."""
    normalized_phrase = normalize_query(" ".join(phrase))
    hits = []
    for doc_id, words in enumerate(docs):
        stream = normalize_query(" ".join(words))
        n = len(normalized_phrase)
        if any(
            stream[i : i + n] == normalized_phrase
            for i in range(len(stream) - n + 1)
        ):
            hits.append(doc_id)
    return hits


@settings(
    max_examples=10,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(docs=documents, phrase=phrases)
def test_phrase_equals_naive_scan(tmp_path_factory, docs, phrase):
    root = tmp_path_factory.mktemp("phrase")
    texts = [(f"u://{i}", " ".join(words)) for i, words in enumerate(docs)]
    path = str(root / "f.warc")
    comp, uncomp = write_packed_file(path, texts, compress=False)
    coll = Collection(
        name="p", directory=str(root), files=[path], file_segments=["m"],
        compressed_bytes=comp, uncompressed_bytes=uncomp, num_docs=len(docs),
    )
    coll.save_manifest()
    out = str(root / "idx")
    IndexingEngine(
        PlatformConfig(num_parsers=1, num_cpu_indexers=1, num_gpus=0,
                       sample_fraction=1.0, strip_html=False, positional=True)
    ).build(coll, out)
    engine = SearchEngine(out, num_docs=len(docs))
    assert engine.phrase(" ".join(phrase)) == _naive_phrase_docs(docs, phrase)

"""Ablation B — trie height 2 vs 3 vs 4 (§III.B.1).

"The height of three for the trie seems to work best since a smaller
height will lead to a wide variety of trie collections, some very large
and some very small ... A larger value for the trie height will generate
many small trie collections, which will be again hard to manage."

For each height we parse the mini ClueWeb sample and report: number of
non-empty collections, the largest collection's token share (the GPU
serial floor), the Gini-style imbalance across collections, and the
mean suffix length left after the strip.  Every span of every parsed
batch must hold only its own collection's tokens: at height 4 collection
indices pass 65,535, so this is the routine check of Step 5's ranking and
regrouping at heights 1-4.
"""

from __future__ import annotations

from conftest import report

from repro.dictionary.trie import TrieTable
from repro.parsing.parser import Parser
from repro.util.fmt import render_table


def _profile(collection, height: int, n_files: int = 4):
    trie = TrieTable(height=height)
    parser = Parser(trie=trie)
    counts: dict[int, int] = {}
    chars = 0
    tokens = 0
    for seq, path in enumerate(collection.files[:n_files]):
        parsed = parser.parse_file(path, sequence=seq)
        batch = parsed.batch
        for cidx, (start, end) in zip(batch.order.tolist(), batch.spans.tolist()):
            assert (batch.entry_cidx[batch.ids[start:end]] == cidx).all(), (height, cidx)
        for cidx, tok in parsed.batch.tokens_per_collection.items():
            counts[cidx] = counts.get(cidx, 0) + tok
        for cidx, ch in parsed.batch.chars_per_collection.items():
            chars += ch
        tokens += parsed.batch.total_tokens
    total = sum(counts.values())
    largest = max(counts.values()) / total
    # Imbalance: share of tokens in the top 1% of non-empty collections.
    ranked = sorted(counts.values(), reverse=True)
    top1pct = sum(ranked[: max(1, len(ranked) // 100)]) / total
    return {
        "height": height,
        "possible": trie.num_collections,
        "nonempty": len(counts),
        "largest_share": largest,
        "top1pct_share": top1pct,
        "mean_suffix_chars": chars / tokens,
    }


def test_trie_height_ablation(benchmark, cw_mini):
    profiles = benchmark.pedantic(
        lambda: [_profile(cw_mini, h) for h in (1, 2, 3, 4)], rounds=1, iterations=1
    )
    rows = [
        [
            p["height"],
            p["possible"],
            p["nonempty"],
            f"{p['largest_share']:.1%}",
            f"{p['top1pct_share']:.1%}",
            f"{p['mean_suffix_chars']:.2f}",
        ]
        for p in profiles
    ]
    report(
        "ablation_trie_height",
        render_table(
            ["Height", "Possible collections", "Non-empty",
             "Largest collection", "Top-1% share", "Mean suffix chars"],
            rows,
        ),
    )
    by_h = {p["height"]: p for p in profiles}
    # Smaller heights → lumpier collections (worse load balance).
    assert by_h[1]["largest_share"] > by_h[2]["largest_share"] > by_h[3]["largest_share"]
    # Larger heights → collection explosion ("many small trie collections").
    assert by_h[4]["possible"] > 25 * by_h[3]["possible"]
    # Deeper strips shorten stored suffixes (string-comparison win).
    assert by_h[3]["mean_suffix_chars"] < by_h[1]["mean_suffix_chars"]

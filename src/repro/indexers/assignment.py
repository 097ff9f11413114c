"""Load balancing between CPU and GPU indexers (Section III.E).

The paper's procedure:

1. **Sample** the collection — "we extract a sample from the document
   collection, e.g. 1MB out of every 1GB, and run several tests on the
   sample to determine membership" — yielding per-trie-collection token
   counts.
2. **Popular collections** (those dominated by the most frequent terms;
   "there are relatively very few popular trie collections (around one
   hundred)") go to the CPU indexers, split into ``N₁`` sets "such that
   each contains almost the same number of tokens" (greedy LPT here).
3. **Unpopular collections** go to the GPUs by ``TC_i → GPU (i mod N₂)``
   — reproduced literally, including the paper's worked example.
4. The binding is for the program lifetime: "once a trie collection is
   assigned to a particular indexer, it is bound with this indexer
   through the program lifetime".

Collections never seen in the sample still need owners at run time; they
are routed by the same unpopular rule (they are, by construction of the
sample, rare).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.corpus.collection import Collection
from repro.parsing.parser import Parser
from repro.robustness.policy import RobustnessReport
from repro.robustness.retry import RetryPolicy, retry_call

__all__ = [
    "sample_collection",
    "PopularityPolicy",
    "WorkAssignment",
    "build_assignment",
]


def sample_collection(
    collection: Collection,
    sample_fraction: float = 0.001,
    min_docs_per_file: int = 1,
    strip_html: bool = True,
    max_files: int | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "strict",
    report: RobustnessReport | None = None,
) -> dict[int, int]:
    """Parse a small sample and return tokens per trie collection.

    The paper samples ~1MB per 1GB (fraction 0.001).  We take the leading
    ``fraction`` of documents from each file — cheap, deterministic, and
    stratified across the collection like the paper's per-GB scheme.

    ``retry`` wraps each container read in the backoff policy; with
    ``on_error != "strict"``, a permanently unreadable file simply does
    not contribute to the sample (the build loop applies the full skip /
    quarantine policy when it reaches the file).  Retry counts land on
    ``report`` when one is supplied.
    """
    if not 0 < sample_fraction <= 1:
        raise ValueError(f"sample fraction must be in (0, 1], got {sample_fraction}")
    parser = Parser(parser_id=-1, strip_html=strip_html)
    counts: dict[int, int] = {}
    files = collection.files[:max_files] if max_files else collection.files
    for path in files:
        from repro.parsing.docio import load_collection_file

        try:
            if retry is not None:
                loaded, outcome = retry_call(
                    lambda p=path: load_collection_file(p), retry, path
                )
                if report is not None:
                    report.merge_outcome(outcome.retries, outcome.backoff_s)
            else:
                loaded = load_collection_file(path)
        except (ValueError, OSError, RuntimeError) as exc:
            from repro.robustness.errors import FatalFault

            if isinstance(exc, FatalFault) or on_error == "strict":
                raise
            continue  # skipped from the sample only; the build decides later
        n = max(min_docs_per_file, int(len(loaded.texts) * sample_fraction))
        batch, _ = parser.parse_texts(loaded.texts[:n], source_file=path)
        for cidx, tok in batch.tokens_per_collection.items():
            counts[cidx] = counts.get(cidx, 0) + tok
    return counts


@dataclass(frozen=True)
class PopularityPolicy:
    """How sampled token counts become the popular set.

    ``max_popular`` caps the set near the paper's "around one hundred";
    ``token_coverage`` stops adding collections once the popular set
    covers this fraction of sampled tokens (popular collections are the
    Zipf head, which concentrates mass).
    """

    max_popular: int = 128
    token_coverage: float = 0.5

    def classify(self, sampled_tokens: dict[int, int]) -> tuple[list[int], list[int]]:
        """Returns ``(popular, unpopular)`` collection-index lists."""
        total = sum(sampled_tokens.values())
        ranked = sorted(sampled_tokens, key=lambda c: (-sampled_tokens[c], c))
        popular: list[int] = []
        covered = 0
        for cidx in ranked:
            if len(popular) >= self.max_popular:
                break
            if total and covered / total >= self.token_coverage:
                break
            popular.append(cidx)
            covered += sampled_tokens[cidx]
        popular_set = set(popular)
        unpopular = sorted(c for c in sampled_tokens if c not in popular_set)
        return sorted(popular), unpopular


@dataclass
class WorkAssignment:
    """The lifetime binding of trie collections to indexers."""

    cpu_sets: list[set[int]] = field(default_factory=list)
    gpu_sets: list[set[int]] = field(default_factory=list)
    popular: list[int] = field(default_factory=list)
    unpopular: list[int] = field(default_factory=list)
    sampled_tokens: dict[int, int] = field(default_factory=dict)
    #: GPU ordinals that died mid-build (their slot now holds a CPU
    #: fallback indexer); unseen collections route around them.
    failed_gpus: set[int] = field(default_factory=set)

    def owner_of(self, cidx: int) -> tuple[str, int]:
        """``("cpu", i)`` or ``("gpu", j)`` for any collection index.

        Sampled collections use their recorded binding; unseen ones follow
        the default routing rule (GPU ``i mod N₂`` when GPUs exist, else
        CPU ``i mod N₁``).
        """
        for i, s in enumerate(self.cpu_sets):
            if cidx in s:
                return ("cpu", i)
        for j, s in enumerate(self.gpu_sets):
            if cidx in s:
                return ("gpu", j)
        if self.gpu_sets:
            alive = [
                j for j in range(len(self.gpu_sets)) if j not in self.failed_gpus
            ]
            if alive:
                return ("gpu", alive[cidx % len(alive)])
            # Every GPU failed over: the slots all hold CPU fallbacks, so
            # the original routing rule is safe again.
            return ("gpu", cidx % len(self.gpu_sets))
        if self.cpu_sets:
            return ("cpu", cidx % len(self.cpu_sets))
        raise ValueError("assignment has neither CPU nor GPU indexers")

    def bind_unseen(self, cidx: int) -> tuple[str, int]:
        """Route and *record* a collection not present in the sample."""
        kind, idx = self.owner_of(cidx)
        (self.cpu_sets if kind == "cpu" else self.gpu_sets)[idx].add(cidx)
        return kind, idx

    def mark_gpu_failed(self, ordinal: int) -> None:
        """Stop routing *unseen* collections to a dead GPU.

        Collections already bound to the GPU keep their ``("gpu", j)``
        owner — the engine replaces that slot with a CPU fallback indexer
        adopting the same dictionary shard, so term ids stay identical.
        """
        if not 0 <= ordinal < len(self.gpu_sets):
            raise IndexError(f"no GPU ordinal {ordinal} (have {len(self.gpu_sets)})")
        self.failed_gpus.add(ordinal)


def _split_balanced(collections: list[int], weights: dict[int, int], n_sets: int) -> list[set[int]]:
    """Greedy LPT: heaviest collection → currently lightest set."""
    sets: list[set[int]] = [set() for _ in range(n_sets)]
    if not n_sets:
        return sets
    heap: list[tuple[int, int]] = [(0, i) for i in range(n_sets)]
    heapq.heapify(heap)
    for cidx in sorted(collections, key=lambda c: (-weights.get(c, 0), c)):
        load, i = heapq.heappop(heap)
        sets[i].add(cidx)
        heapq.heappush(heap, (load + weights.get(cidx, 0), i))
    return sets


def build_assignment(
    sampled_tokens: dict[int, int],
    num_cpu_indexers: int,
    num_gpus: int,
    policy: PopularityPolicy | None = None,
) -> WorkAssignment:
    """Produce the Section III.E binding from sampled token counts.

    With no GPUs every collection is a "CPU collection" and the popular
    split degenerates to balancing everything across the CPU indexers
    (the paper's scenarios (ii)/(iii)).  With no CPU indexers everything
    goes to the GPUs by ``i mod N₂`` (scenario (i)).
    """
    if num_cpu_indexers < 0 or num_gpus < 0:
        raise ValueError("indexer counts must be non-negative")
    if num_cpu_indexers == 0 and num_gpus == 0:
        raise ValueError("need at least one indexer")
    policy = policy if policy is not None else PopularityPolicy()

    if num_gpus == 0:
        all_collections = sorted(sampled_tokens)
        popular, unpopular = policy.classify(sampled_tokens)
        return WorkAssignment(
            cpu_sets=_split_balanced(all_collections, sampled_tokens, num_cpu_indexers),
            gpu_sets=[],
            popular=popular,
            unpopular=unpopular,
            sampled_tokens=dict(sampled_tokens),
        )

    if num_cpu_indexers == 0:
        popular, unpopular = policy.classify(sampled_tokens)
        gpu_sets: list[set[int]] = [set() for _ in range(num_gpus)]
        for cidx in sampled_tokens:
            gpu_sets[cidx % num_gpus].add(cidx)
        return WorkAssignment(
            cpu_sets=[],
            gpu_sets=gpu_sets,
            popular=popular,
            unpopular=unpopular,
            sampled_tokens=dict(sampled_tokens),
        )

    popular, unpopular = policy.classify(sampled_tokens)
    cpu_sets = _split_balanced(popular, sampled_tokens, num_cpu_indexers)
    gpu_sets = [set() for _ in range(num_gpus)]
    for cidx in unpopular:
        gpu_sets[cidx % num_gpus].add(cidx)
    return WorkAssignment(
        cpu_sets=cpu_sets,
        gpu_sets=gpu_sets,
        popular=popular,
        unpopular=unpopular,
        sampled_tokens=dict(sampled_tokens),
    )

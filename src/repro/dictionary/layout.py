"""The paper's binary-layout constants (Tables I and II), in one place.

Every hard number the reproduction's correctness hangs on lives here and
nowhere else: the 512-byte degree-16 B-tree node of Table II, the
17,613-entry trie index space of Table I, the 4-byte string caches, and
the Fig 6 string-heap limits.  Modules that need a layout value import it
from this module; re-typing one of these numbers as a literal elsewhere
in ``src/`` is a lint error (rule ``RPR001`` — see
``docs/STATIC_ANALYSIS.md``), because a silently diverging copy is
exactly the kind of defect a reviewer cannot catch by eye and the GPU
byte-format tests only catch after the fact.

This module must stay dependency-free (stdlib only): it is imported by
the dictionary, the GPU simulator, the engine configuration *and* the
lint pack's own self-checks.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_DEGREE",
    "MAX_KEYS_PER_NODE",
    "NODE_SIZE_BYTES",
    "NODE_ALIGN_BYTES",
    "POINTER_BYTES",
    "STRING_CACHE_BYTES",
    "DEVICE_CHUNK_BYTES",
    "MAX_TERM_BYTES",
    "TRIE_HEIGHT",
    "TRIE_TAIL_BASE",
    "MAX_TRIE_HEIGHT",
    "NUM_TRIE_COLLECTIONS",
    "node_layout",
]

# ---------------------------------------------------------------------- #
# Table II — the B-tree node
# ---------------------------------------------------------------------- #

#: Paper's B-tree minimum degree ``t``: chosen so one node's 2t−1 = 31
#: keys are compared by a single 32-lane CUDA warp.
DEFAULT_DEGREE = 16

#: Keys per node at the paper degree (2t − 1 = 31).
MAX_KEYS_PER_NODE = 2 * DEFAULT_DEGREE - 1

#: Width of every node field — device pointers are 4-byte ``u32``.
POINTER_BYTES = 4

#: The per-key string cache holds the first four bytes of the term.
STRING_CACHE_BYTES = 4

#: Nodes are padded to a multiple of one coalesced 16-word line.
NODE_ALIGN_BYTES = 64

#: The coalesced-transfer granularity of the GPU staging path: B-tree
#: nodes and Fig 6 string-heap chunks both move in 512-byte streams.
DEVICE_CHUNK_BYTES = 512

#: Fig 6: a one-byte length prefix bounds terms to 255 bytes.
MAX_TERM_BYTES = 255


def node_layout(degree: int = DEFAULT_DEGREE) -> dict[str, int]:
    """Byte sizes of every Table II field for a given B-tree degree.

    For the paper's degree of 16 the totals reproduce Table II exactly,
    including the 4 padding bytes that round the node to 512 bytes (eight
    coalesced 64-byte lines).
    """
    max_keys = 2 * degree - 1
    fields = {
        "valid_term_number": POINTER_BYTES,
        "term_string_pointers": max_keys * POINTER_BYTES,
        "leaf_indicator": POINTER_BYTES,
        "postings_pointers": max_keys * POINTER_BYTES,
        "child_pointers": (max_keys + 1) * POINTER_BYTES,
        "string_caches": max_keys * STRING_CACHE_BYTES,
    }
    raw = sum(fields.values())
    fields["padding"] = (-raw) % NODE_ALIGN_BYTES
    fields["total"] = raw + fields["padding"]
    return fields


#: Table II's bottom line for the paper degree: 512 bytes per node.
NODE_SIZE_BYTES = node_layout(DEFAULT_DEGREE)["total"]
assert NODE_SIZE_BYTES == 8 * NODE_ALIGN_BYTES  # eight coalesced lines

# ---------------------------------------------------------------------- #
# Table I — the trie index space
# ---------------------------------------------------------------------- #

#: Paper's fixed trie height ``h``.
TRIE_HEIGHT = 3

#: First index of the full-prefix tail category: one special collection,
#: ten pure-number collections, twenty-six short/special collections.
TRIE_TAIL_BASE = 1 + 10 + 26

#: Tallest supported trie: every collection index of a height-13 table
#: (up to 37 + 26**13 < 2**63) fits a signed 64-bit integer, which the
#: dictionary file's column codec requires.
MAX_TRIE_HEIGHT = 13

#: Total collections for the paper height: 1 + 10 + 26 + 26³ = 17,613.
NUM_TRIE_COLLECTIONS = TRIE_TAIL_BASE + 26**TRIE_HEIGHT

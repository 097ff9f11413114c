"""The paper's hybrid trie + B-tree dictionary (Section III.B).

The dictionary is the central coordination structure of the indexing system:

- :mod:`repro.dictionary.trie` — the height-3 trie of Table I, implemented
  (exactly as the paper does) as a flat lookup *table* mapping the first
  letters of a term to one of 17,613 *trie collections*.  The shared prefix
  captured by the trie is stripped from stored terms.
- :mod:`repro.dictionary.string_store` — the term-string heap of Fig 6:
  each string is stored with its length in the first byte and addressed by
  integer pointers, exactly how the CUDA indexer expects term strings laid
  out in device memory.
- :mod:`repro.dictionary.btree` — the degree-16 B-tree whose 512-byte node
  layout (Table II) embeds a 4-byte string cache per key so that most
  comparisons never dereference the string pointer, and the forest whose
  one heap and one counter table the trees share.
- :mod:`repro.dictionary.dictionary` — the forest of per-collection B-trees
  a shard owns plus combine/serialize steps ("Dictionary Combine" and
  "Dictionary Write" rows of Table VI).
"""

from repro.dictionary.btree import BTree, BTreeNode, BTreeStats, NODE_SIZE_BYTES
from repro.dictionary.dictionary import Dictionary, DictionaryShard
from repro.dictionary.node_codec import DeviceTreeImage, pack_node, unpack_node
from repro.dictionary.serialize import load_dictionary, save_dictionary
from repro.dictionary.string_store import StringStore
from repro.dictionary.trie import (
    NUM_TRIE_COLLECTIONS,
    TrieCategory,
    TrieTable,
)

__all__ = [
    "TrieTable",
    "TrieCategory",
    "NUM_TRIE_COLLECTIONS",
    "StringStore",
    "BTree",
    "BTreeNode",
    "BTreeStats",
    "NODE_SIZE_BYTES",
    "Dictionary",
    "DictionaryShard",
    "DeviceTreeImage",
    "pack_node",
    "unpack_node",
    "save_dictionary",
    "load_dictionary",
]

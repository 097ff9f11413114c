"""The parser pipeline of Fig 3 (Section III.C).

Each parser executes five steps over one file block:

1. **Read & decompress** — :mod:`repro.parsing.docio` reads a packed
   collection file, inflates it, assigns local document IDs and records the
   ``<document ID, location>`` table.
2. **Tokenization** — :mod:`repro.parsing.tokenizer` splits documents into
   tokens; the trie-collection index is computed as a byproduct of the same
   scan, which is why the paper's Step-5 regrouping costs ~5%.
3. **Porter stemming** — :mod:`repro.parsing.porter`, the full 1980
   algorithm, run once per distinct form: Zipf-distributed tokens repeat
   heavily, and the parser's token cache memoizes every form, stemming the
   new forms of a file together as columns.
4. **Stop-word removal** — :mod:`repro.parsing.stopwords`.
5. **Regrouping** — :mod:`repro.parsing.regroup` rearranges terms so that
   terms with the same trie index are contiguous and strips the prefix the
   trie captures; this is the paper's cache-locality trick worth ~15× for
   a serial indexer.

:class:`repro.parsing.parser.Parser` chains the steps and emits
:class:`~repro.parsing.regroup.ParsedBatch` objects plus the work metrics
the discrete-event simulator charges time for.
"""

from repro.parsing.parser import ParseMetrics, ParsedFile, Parser
from repro.parsing.porter import PorterStemmer, stem
from repro.parsing.regroup import ParsedBatch, regroup
from repro.parsing.stopwords import STOP_WORDS, StopWordFilter
from repro.parsing.tokenizer import Tokenizer, strip_markup

__all__ = [
    "Tokenizer",
    "strip_markup",
    "PorterStemmer",
    "stem",
    "STOP_WORDS",
    "StopWordFilter",
    "ParsedBatch",
    "regroup",
    "Parser",
    "ParsedFile",
    "ParseMetrics",
]

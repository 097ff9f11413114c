"""Stop-word removal (Step 4 of Fig 3).

"Removal of stop words consists of eliminating common terms, such as 'the',
'to', 'and', etc."  The list below is the classic English function-word
list (a superset of the SMART short list).  Because the paper applies the
Porter stemmer *before* stop-word removal, the filter matches against the
stemmed forms of the list (e.g. ``this`` stems to ``thi``), which the
constructor precomputes.
"""

from __future__ import annotations

from repro.parsing.porter import PorterStemmer

__all__ = ["STOP_WORDS", "StopWordFilter"]

#: Unstemmed English stop words.
STOP_WORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he he'd he'll
    he's her here here's hers herself him himself his how how's i i'd i'll
    i'm i've if in into is isn't it it's its itself let's me more most
    mustn't my myself no nor not of off on once only or other ought our ours
    ourselves out over own same shan't she she'd she'll she's should
    shouldn't so some such than that that's the their theirs them themselves
    then there there's these they they'd they'll they're they've this those
    through to too under until up very was wasn't we we'd we'll we're we've
    were weren't what what's when when's where where's which while who who's
    whom why why's with won't would wouldn't you you'd you'll you're you've
    your yours yourself yourselves
    """.split()
)


class StopWordFilter:
    """Membership test against the stemmed stop-word set.

    The tokenizer never emits apostrophes (tokens are alphanumeric runs),
    so contractions in the source list are also folded to their
    apostrophe-free fragments (``aren't`` → ``aren``, ``t``).
    """

    def __init__(self, words: frozenset[str] = STOP_WORDS) -> None:
        stemmer = PorterStemmer()
        stemmed: set[str] = set()
        for word in words:
            for fragment in word.replace("'", " ").split():
                stemmed.add(fragment)
                stemmed.add(stemmer.stem(fragment))
        #: The stemmed stop words (the parser tests membership inline).
        self.stemmed = frozenset(stemmed)

    def is_stop(self, stemmed_token: str) -> bool:
        """True if a stemmed token should be dropped."""
        return stemmed_token in self.stemmed

    def __contains__(self, stemmed_token: str) -> bool:
        return self.is_stop(stemmed_token)

    def __len__(self) -> int:
        return len(self.stemmed)

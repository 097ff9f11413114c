"""The Table I trie-collection index table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dictionary.trie import NUM_TRIE_COLLECTIONS, TrieCategory, TrieTable


@pytest.fixture(scope="module")
def trie():
    return TrieTable()


class TestPaperExamples:
    """Every worked example in Table I."""

    @pytest.mark.parametrize(
        "term,index",
        [
            ("-80", 0),
            ("3d", 0),
            ("01", 1),
            ("0195", 1),
            ("9", 10),
            ("954", 10),
            ("a", 11),
            ("at", 11),
            ("act", 11),
            ("z", 36),
            ("zoo", 36),
            ("zoé", 36),
            ("aaat", 37),
            ("aabomycin", 38),
            ("zzzy", 17612),
        ],
    )
    def test_examples(self, trie, term, index):
        assert trie.trie_index(term) == index

    def test_collection_count(self, trie):
        assert trie.num_collections == NUM_TRIE_COLLECTIONS == 17613

    def test_application_example(self, trie):
        # Section III.B.2: "application" keeps "lication" after the strip;
        # "lica" would sit in the node cache.
        split = trie.split("application")
        assert split.suffix == "lication"
        assert trie.prefix_for(split.index) == "app"


class TestCategories:
    def test_special_unicode_first_char(self, trie):
        assert trie.split("česky").category is TrieCategory.SPECIAL

    def test_digit_prefix_mixed_is_special(self, trie):
        assert trie.split("3d").category is TrieCategory.SPECIAL

    def test_pure_numbers_by_first_digit(self, trie):
        for d in range(10):
            assert trie.trie_index(f"{d}42") == 1 + d

    def test_short_terms_bucket_by_first_letter(self, trie):
        for i, c in enumerate("abcdefghijklmnopqrstuvwxyz"):
            assert trie.trie_index(c + "ab") == 11 + i

    def test_special_char_inside_prefix_window(self, trie):
        # 4+ letters but a non-[a-z] char within the first 3.
        assert trie.split("zoéx").category is TrieCategory.SHORT_OR_SPECIAL
        assert trie.trie_index("zoéx") == 36

    def test_special_char_after_prefix_window_is_full(self, trie):
        split = trie.split("abcé")
        assert split.category is TrieCategory.FULL_PREFIX
        assert split.suffix == "é"

    def test_full_prefix_rank_arithmetic(self, trie):
        assert trie.trie_index("aaaa") == 37
        assert trie.trie_index("aaba") == 37 + 1
        assert trie.trie_index("abaa") == 37 + 26
        assert trie.trie_index("baaa") == 37 + 676

    def test_empty_term_rejected(self, trie):
        with pytest.raises(ValueError):
            trie.split("")

    def test_category_of_matches_ranges(self, trie):
        for category, (lo, hi) in trie.category_ranges().items():
            assert trie.category_of(lo) is category
            assert trie.category_of(hi) is category

    def test_index_bounds_checked(self, trie):
        with pytest.raises(IndexError):
            trie.prefix_for(-1)
        with pytest.raises(IndexError):
            trie.prefix_for(trie.num_collections)


class TestInverse:
    def test_prefix_lengths_by_category(self, trie):
        assert trie.prefix_for(0) == ""
        assert trie.prefix_for(1) == "0"
        assert trie.prefix_for(11) == "a"
        assert trie.prefix_for(37) == "aaa"
        assert trie.prefix_for(17612) == "zzz"

    @given(
        st.text(
            alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-é"),
            min_size=1,
            max_size=12,
        )
    )
    def test_split_reconstruct_bijective(self, term):
        trie = TrieTable()
        split = trie.split(term)
        assert trie.reconstruct(split.index, split.suffix) == term

    @given(st.integers(min_value=0, max_value=NUM_TRIE_COLLECTIONS - 1))
    def test_prefix_for_maps_back(self, index):
        trie = TrieTable()
        prefix = trie.prefix_for(index)
        if index >= 37:
            # The tail category's prefix alone re-derives the index when a
            # 4th letter is appended.
            assert trie.trie_index(prefix + "x") == index


class TestHeights:
    """The §III.B.1 ablation dimension."""

    @pytest.mark.parametrize("height,expected", [(1, 63), (2, 713), (3, 17613), (4, 457_013)])
    def test_collection_counts(self, height, expected):
        assert TrieTable(height=height).num_collections == expected

    def test_height_changes_strip_depth(self):
        t2, t4 = TrieTable(height=2), TrieTable(height=4)
        assert t2.split("application").suffix == "plication"
        assert t4.split("application").suffix == "ication"

    def test_short_threshold_follows_height(self):
        t2 = TrieTable(height=2)
        assert t2.split("ab").category is TrieCategory.SHORT_OR_SPECIAL
        assert t2.split("abc").category is TrieCategory.FULL_PREFIX

    def test_invalid_height(self):
        with pytest.raises(ValueError):
            TrieTable(height=0)
        # 26**14 collection indices would not fit a 64-bit integer.
        with pytest.raises(ValueError):
            TrieTable(height=14)
        assert TrieTable(height=13).num_collections < 2**63

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_prefix_columns_equal_prefix_for(self, height):
        trie = TrieTable(height=height)
        indices = np.arange(trie.num_collections)
        prefixes, lengths = trie.prefix_columns(indices)
        for index, row, length in zip(indices.tolist(), prefixes, lengths.tolist()):
            assert not row[: height - length].any()
            assert bytes(row[height - length :]).decode("ascii") == trie.prefix_for(index)
        with pytest.raises(IndexError):
            trie.prefix_columns(np.array([trie.num_collections]))

    @given(
        st.integers(min_value=1, max_value=4),
        st.text(
            alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz013é"),
            min_size=1,
            max_size=10,
        ),
    )
    def test_bijective_at_all_heights(self, height, term):
        trie = TrieTable(height=height)
        split = trie.split(term)
        assert trie.reconstruct(split.index, split.suffix) == term
        assert 0 <= split.index < trie.num_collections

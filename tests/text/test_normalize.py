"""Unit tests for the text normalization and similarity layer.

One canonical folding path feeds both index maintenance and query
evaluation, so these pins are load-bearing for every battery above
them: diacritic folding (NFKD + combining-mark strip), casefolding
with multi-character expansions (ß→ss), punctuation-to-space collapse,
and the edge cases a library catalog actually contains -- empty
titles, whitespace-only, sub-trigram shorts.
"""

import importlib
import random
import sys
import unicodedata

import pytest

from repro.fixtures.corpus import corpus_rows
from repro.text import (
    GRAM,
    contains_match,
    is_similar,
    normalize,
    required_overlap,
    similarity,
    token_sort,
    trigram_jaccard,
    trigrams,
)

# The module, which ``repro.text``'s ``normalize`` (the function) hides.
normalize_module = importlib.import_module("repro.text.normalize")


class TestNormalize:
    def test_diacritics_fold_to_ascii(self):
        assert normalize("Prélude") == "prelude"
        assert normalize("Dvořák") == "dvorak"
        assert normalize("Saint-Saëns") == "saint saens"

    def test_casefold_handles_multichar_expansions(self):
        assert normalize("Straße") == "strasse"

    def test_punctuation_collapses_to_single_spaces(self):
        assert normalize("Nocturne, Op. 9 -- No. 2!") == "nocturne op 9 no 2"

    def test_empty_whitespace_and_punctuation_only(self):
        assert normalize("") == ""
        assert normalize("   ") == ""
        assert normalize("!!!...***") == ""
        assert normalize(None) == ""

    def test_composed_and_decomposed_forms_agree(self):
        composed = "Prélude"          # é as one codepoint
        decomposed = "Prélude"       # e + combining acute
        assert normalize(composed) == normalize(decomposed)

    def test_token_sort_orders_words(self):
        assert token_sort("In C Major: Prélude") == "c in major prelude"
        assert token_sort("Prélude in C major") == "c in major prelude"


def _fold_per_character(text):
    """The fold as the module docstring states it, one character at a
    time: the reference both of ``normalize``'s paths must equal."""
    out = []
    last_space = True
    for ch in unicodedata.normalize("NFKD", text):
        if unicodedata.combining(ch):
            continue
        for folded in ch.casefold():
            if folded.isalnum():
                out.append(folded)
                last_space = False
            elif not last_space:
                out.append(" ")
                last_space = True
    if out and out[-1] == " ":
        out.pop()
    return "".join(out)


class TestFoldEquivalence:
    """``normalize`` takes ASCII values through ``lower`` and one regex,
    everything else through NFKD, a translate, ``casefold`` and one
    regex; the per-character loop is the reference.  Same output."""

    ASCII = [chr(code) for code in range(128)]  # controls, DEL, \x1c-\x1f
    # Casefold expansions, a ligature, dotted capital I, full-width
    # digits, and combining marks with nothing to combine with.
    BEYOND = list("éßﬁİÉŉ１２９") + ["\u0301", "\u0308", "\u00a0", "\u2014"]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_strings(self, seed):
        rng = random.Random(seed)
        ascii_only = 0
        for _ in range(3000):
            alphabet = self.ASCII if rng.random() < 0.5 else (
                self.ASCII + self.BEYOND * 4
            )
            text = "".join(rng.choices(alphabet, k=rng.randrange(0, 24)))
            ascii_only += text.isascii()
            assert normalize(text) == _fold_per_character(text), repr(text)
        assert 1000 < ascii_only < 2900  # both paths were taken

    def test_every_code_point(self, monkeypatch):
        # A table of its own, which every code point fills, let go after.
        monkeypatch.setattr(
            normalize_module, "_DROP_COMBINING",
            type(normalize_module._DROP_COMBINING)(),
        )
        differ = [
            hex(code) for code in range(sys.maxunicode + 1)
            if normalize(chr(code)) != _fold_per_character(chr(code))
        ]
        assert differ == []

    def test_200k_seeded_random_strings(self):
        rng = random.Random(20_000)
        marks = [chr(code) for code in range(0x300, 0x370)]
        pools = [self.ASCII, self.BEYOND, marks]
        differ = []
        for _ in range(200_000):
            text = "".join(
                rng.choice(pools[pick]) if pick < 3
                else chr(rng.randrange(0x80, sys.maxunicode + 1))
                for pick in rng.choices(range(4), k=rng.randrange(0, 16))
            )
            if normalize(text) != _fold_per_character(text):
                differ.append(text)
        assert differ == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_corpus_title(self, seed):
        titles = [row["title"] for row in corpus_rows(5000, seed)]
        assert any(not title.isascii() for title in titles)
        for title in titles:
            assert normalize(title) == _fold_per_character(title), title


class TestTrigrams:
    def test_gram_width(self):
        assert GRAM == 3

    def test_short_strings_yield_no_grams(self):
        assert trigrams("") == set()
        assert trigrams("ab") == set()
        assert trigrams("!!") == set()

    def test_grams_are_over_the_normalized_form(self):
        assert trigrams("Pré") == {"pre"}
        assert trigrams("abcd") == {"abc", "bcd"}


class TestPredicates:
    def test_contains_match_is_fold_insensitive(self):
        assert contains_match("Prélude in C", "prelude")
        assert contains_match("prelude no. 4", "Prélude")
        assert not contains_match("Nocturne", "prelude")

    def test_none_value_never_matches(self):
        assert not contains_match(None, "prelude")

    def test_empty_query_matches_everything(self):
        assert contains_match("anything", "")
        assert contains_match("", "")

    def test_is_similar_thresholds(self):
        assert is_similar("Prélude in C", "prelude in c", 1.0)
        assert is_similar("Prélude in C Major", "prelude in c", 0.4)
        assert not is_similar("Nocturne", "prelude", 0.2)

    def test_is_similar_on_gramless_pairs(self):
        # Both sides gram-free: similar iff normalized forms are equal.
        assert is_similar("!!", "??", 1.0) is True
        assert is_similar("ab", "ab", 1.0) is True
        assert is_similar("ab", "cd", 0.1) is False


class TestSimilarityScalar:
    def test_identical_after_folding_scores_one(self):
        assert similarity("Prélude in C", "prelude in c") == 1.0

    def test_token_reorder_scores_high(self):
        assert similarity("In C Major: Prélude", "Prélude in C Major") > 0.8

    def test_disjoint_scores_low(self):
        assert similarity("Goldberg Variations", "zzz qqq") < 0.2

    def test_none_scores_zero(self):
        assert similarity(None, "prelude") == 0.0


class TestRequiredOverlap:
    def test_count_bound_is_sound(self):
        # |Q∩R| >= t*|Q| whenever J(Q,R) >= t; the bound must never
        # exceed the true minimum intersection size.
        for count in range(1, 40):
            for threshold in (0.1, 0.3, 0.5, 0.75, 0.9, 1.0):
                required = required_overlap(count, threshold)
                assert 1 <= required <= count
                # Soundness: an intersection of exactly `required` can
                # reach the threshold (required >= t*count would prune
                # a reachable row if strictly greater than ceil).
                assert required - 1 < threshold * count + 1e-9

    def test_zero_threshold_disables_pruning(self):
        assert required_overlap(10, 0.0) == 0
        assert required_overlap(0, 0.5) == 0

    def test_jaccard_threshold_agreement(self):
        # For random-ish gram sets, candidates_similar's count bound
        # must admit every pair the exact predicate accepts.
        pairs = [
            ("prelude in c major", "prelude in c"),
            ("nocturne op 9 no 2", "nocturne no 2"),
            ("goldberg variations aria", "aria"),
        ]
        for a, b in pairs:
            jac = trigram_jaccard(a, b)
            overlap = len(trigrams(a) & trigrams(b))
            assert overlap >= required_overlap(len(trigrams(a)), jac)

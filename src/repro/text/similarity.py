"""Similarity scoring and the two indexable text predicates.

Two layers live here, deliberately separated:

* **Predicates** the planner can push down to the trigram index.
  ``contains_match`` is normalized substring containment (the QUEL
  ``matches`` gate) and ``is_similar`` is trigram-set Jaccard against a
  threshold (the QUEL ``similar_to`` gate).  Both have *provable*
  candidate bounds over posting lists — see ``required_overlap`` — so
  index retrieval is always a superset of the true matches and a
  post-verification pass restores exactness.

* **Scoring** for ranking: ``similarity`` blends trigram Jaccard with
  edit-distance ratios over both the raw normalized strings and their
  token-sorted forms (the SoulSync ``MusicMatchingEngine`` idiom for
  edition/variant matching: "Symphony No. 5 (Remastered 2011)" should
  score high against "symphony no 5").  The blend has no clean posting
  bound, so it is exposed as a scalar QUEL function rather than a
  pushdown gate.
"""

import math
import threading
from difflib import SequenceMatcher

from .normalize import grams_of, normalize, token_sort, trigrams

__all__ = [
    "SimilarityScorer",
    "contains_match",
    "edit_ratio",
    "is_similar",
    "match_predicate",
    "required_overlap",
    "similar_predicate",
    "similarity",
    "trigram_jaccard",
]


def trigram_jaccard(a, b):
    """Jaccard similarity of the trigram sets of two strings.

    Both-empty (e.g. two sub-trigram strings) counts as identical when
    the normalized forms agree, else 0 — short strings carry no gram
    evidence either way, so equality is the only defensible signal.
    """
    ga, gb = trigrams(a), trigrams(b)
    if not ga and not gb:
        return 1.0 if normalize(a) == normalize(b) else 0.0
    union = len(ga | gb)
    return len(ga & gb) / union if union else 0.0


def edit_ratio(a, b):
    """Edit-distance similarity in [0, 1] over normalized forms."""
    na, nb = normalize(a), normalize(b)
    if not na and not nb:
        return 1.0
    return SequenceMatcher(None, na, nb).ratio()


def similarity(a, b):
    """Blended match confidence in [0, 1].

    Averages trigram Jaccard with the better of the two edit ratios
    (raw vs token-sorted), so both local typos and word reordering are
    forgiven without either dominating.  Symmetric in its arguments.
    """
    if a is None or b is None:
        return 0.0
    jac = trigram_jaccard(a, b)
    raw = edit_ratio(a, b)
    sorted_ratio = SequenceMatcher(None, token_sort(a), token_sort(b)).ratio()
    return (jac + max(raw, sorted_ratio)) / 2.0


class SimilarityScorer:
    """:func:`similarity` with the query side folded at construction.

    ``similarity(value, query)`` re-derives the query's normalized
    form, trigram set, and token-sorted form on every call — per *row*
    in a ranked retrieve.  A scorer folds those once and normalizes the
    row value once per call (the plain function folds it four times,
    through ``trigrams``/``normalize``/``edit_ratio``/``token_sort``).
    The two edit ratios run on matchers that keep the query side as
    ``seq2`` -- difflib indexes ``seq2`` once and only ``set_seq1``
    changes per row -- one pair per thread, because a compiled
    statement, and so its scorer, is shared by every session of the
    database.  Neither runs when one folded string contains the other:
    the edit half is then decided by the two lengths.  ``scorer(value)``
    returns bit-identical floats to ``similarity(value, query)``: same
    operations, same operand order.  :meth:`score` is the same blend for
    a caller that has folded the row already and may hold its Jaccard
    half, read off a trigram index's counts without a gram set.
    """

    __slots__ = ("query", "grams", "_norm", "_token_sorted", "_local")

    def __init__(self, query):
        self.query = query
        self._norm = normalize(query)
        self.grams = grams_of(self._norm)
        self._token_sorted = " ".join(sorted(self._norm.split()))
        self._local = threading.local()

    def _matchers(self):
        """This thread's (raw, token-sorted) matchers, built on first use."""
        try:
            return self._local.matchers
        except AttributeError:
            matchers = self._local.matchers = (
                SequenceMatcher(None, "", self._norm),
                SequenceMatcher(None, "", self._token_sorted),
            )
            return matchers

    def __call__(self, value):
        if value is None or self.query is None:
            return 0.0
        return self.score(normalize(value))

    def jaccard(self, overlap, row_gram_count):
        """The Jaccard half for a row of *row_gram_count* distinct grams
        sharing *overlap* of them with the query (which has some, so the
        row has at least *overlap*): the union is exactly ``|Q| + |R| -
        overlap``, so these are the integers :meth:`score` divides and
        this is the float it gets."""
        return overlap / (len(self.grams) + row_gram_count - overlap)

    def score(self, folded, jaccard=None):
        """The blend for a row value already folded by ``normalize``.
        *jaccard* is the row's Jaccard half when the caller holds it
        (:meth:`jaccard` of the counts a trigram index keeps), else it is
        taken from the row's gram set."""
        if jaccard is None:
            value_grams = grams_of(folded)
            if not value_grams and not self.grams:
                jaccard = 1.0 if folded == self._norm else 0.0
            else:
                union = len(value_grams | self.grams)
                jaccard = len(value_grams & self.grams) / union if union else 0.0
        short, long = sorted((folded, self._norm), key=len)
        if short in long and len(self._norm) < 200:
            # One matching block, the shorter string whole (below 200
            # characters difflib sets none of the query's aside as
            # junk): ``_calculate_ratio``'s own expression, and the cap
            # of any ratio over these lengths, the token-sorted one's too.
            length = len(short) + len(long)
            return (jaccard + (2.0 * len(short) / length if length else 1.0)) / 2.0
        raw_matcher, sorted_matcher = self._matchers()
        raw_matcher.set_seq1(folded)
        sorted_matcher.set_seq1(" ".join(sorted(folded.split())))
        return (jaccard + max(raw_matcher.ratio(), sorted_matcher.ratio())) / 2.0

    def bound_with(self, overlap, row_gram_count):
        """Highest score a row of *row_gram_count* grams sharing
        *overlap* of them with the query can reach.  Division and
        averaging are monotone in IEEE floats, so it stays sound
        against the exact score; it falls as the count grows, so a row
        of just *overlap* grams has the bound of every row sharing
        that many.  No grams, no bound.  The two halves of the blend:

        * the union is exactly ``|Q| + |R| - overlap``, so the Jaccard
          half is *exact* (row grams and stored grams come from the
          same normalization pipeline);
        * a row with |R| distinct grams is at least ``|R| + 2`` chars
          long, and ``SequenceMatcher.ratio() <= 2*min(a,b)/(a+b)``
          (token-sorting permutes, so both edit forms share lengths),
          which caps the edit half for rows longer than the query.

        Long rows that merely *contain* the query fall well below a
        close match's real score, which is the pruning the streaming
        top-k path lives on.
        """
        if not self.grams:
            return 1.0
        union = len(self.grams) + row_gram_count - overlap
        jac = overlap / union if union > 0 else 1.0
        qlen = len(self._norm)
        row_min_len = row_gram_count + 2 if row_gram_count else 0
        if row_min_len > qlen:
            edit = (2.0 * qlen) / (qlen + row_min_len)
        else:
            edit = 1.0
        return (jac + edit) / 2.0


def match_predicate(query):
    """:func:`contains_match` of a value already folded by ``normalize``,
    the query folded once."""
    needle = normalize(query)
    return lambda folded: needle in folded


def similar_predicate(query, threshold):
    """:func:`is_similar` of a value already folded by ``normalize``,
    the query's gram set folded once."""
    query_norm = normalize(query)
    query_grams = grams_of(query_norm)

    def predicate(folded):
        value_grams = grams_of(folded)
        if not value_grams and not query_grams:
            return (1.0 if folded == query_norm else 0.0) >= threshold
        union = len(value_grams | query_grams)
        jac = len(value_grams & query_grams) / union if union else 0.0
        return jac >= threshold

    return predicate


def contains_match(value, query):
    """The exact ``matches`` predicate: normalized containment.

    ``None`` values match nothing; an empty normalized query matches
    every non-null string (vacuous containment).
    """
    if value is None:
        return False
    return normalize(query) in normalize(value)


def is_similar(value, query, threshold):
    """The exact ``similar_to`` predicate: trigram Jaccard >= threshold."""
    if value is None:
        return False
    return trigram_jaccard(value, query) >= threshold


def required_overlap(query_gram_count, threshold):
    """Minimum shared trigrams a row can have and still pass ``is_similar``.

    With query gram set ``Q`` and row gram set ``R``, Jaccard ``J =
    |Q∩R| / |Q∪R|`` and ``|Q∪R| >= |Q|``, so ``J >= t`` forces ``|Q∩R|
    >= t·|Q|``.  The ceiling is taken with a small epsilon *down* so
    float fuzz can only ever weaken the bound (more candidates), never
    strengthen it past soundness.  Thresholds <= 0 yield 0: the index
    cannot prune, the caller must scan.
    """
    if threshold <= 0.0 or query_gram_count <= 0:
        return 0
    return max(1, math.ceil(threshold * query_gram_count - 1e-9))

"""Text normalization for catalog search.

Catalog strings arrive messy: ``"Prélude — No. 1 (BWV 846)"`` and
``"prelude no 1 bwv 846"`` should be the same title.  Every string that
enters the trigram index — and every query that probes it — passes
through one canonical pipeline so that index maintenance and predicate
evaluation can never disagree:

1. Unicode NFKD decomposition, then combining marks are dropped
   (``é`` → ``e``, ``ü`` → ``u``); compatibility forms fold too
   (``ﬁ`` → ``fi``, fullwidth digits → ASCII).
2. ``str.casefold()`` (stronger than ``lower()``: ``ß`` → ``ss``).
3. Every non-alphanumeric character becomes a space (punctuation,
   dashes, apostrophes — ``"don't"`` → ``"don t"``).
4. Whitespace collapses to single spaces and is stripped at the ends.

The result is either the empty string (nothing searchable survived) or
a space-separated sequence of lowercase alphanumeric tokens.

``trigrams`` slices the normalized form into overlapping 3-grams
*without* padding.  Unpadded grams keep one invariant the `matches`
pushdown depends on: every trigram of a substring is a trigram of the
containing string, so posting-list intersection over the query's grams
can never drop a true containment match.
"""

import re
import unicodedata

__all__ = ["grams_of", "normalize", "token_sort", "trigrams", "GRAM"]

GRAM = 3

_ASCII_SEPARATORS = re.compile("[^a-z0-9]+")


def normalize(text):
    """Fold *text* to canonical lowercase-alphanumeric-and-spaces form.

    ``None`` folds to the empty string so callers can treat missing
    attributes uniformly ("no text, matches nothing").
    """
    if text is None:
        return ""
    text = str(text)
    if text.isascii():
        # On ASCII, NFKD and combining() are the identity, casefold is
        # lower() and isalnum is [a-z0-9]: the loop below, in three calls.
        return _ASCII_SEPARATORS.sub(" ", text.lower()).strip()
    decomposed = unicodedata.normalize("NFKD", text)
    out = []
    last_space = True
    for ch in decomposed:
        if unicodedata.combining(ch):
            continue
        ch = ch.casefold()
        # casefold can expand one char to several ("ß" -> "ss").
        for folded in ch:
            if folded.isalnum():
                out.append(folded)
                last_space = False
            elif not last_space:
                out.append(" ")
                last_space = True
    if out and out[-1] == " ":
        out.pop()
    return "".join(out)


def token_sort(text):
    """Normalize, then sort the tokens — word-order-insensitive form.

    ``"Goldberg Variations"`` and ``"Variations, Goldberg"`` token-sort
    to the same string; the similarity blend compares both raw and
    token-sorted forms and keeps the better score.
    """
    return " ".join(sorted(normalize(text).split()))


def trigrams(text):
    """Set of overlapping 3-grams of the *normalized* form of text.

    Strings whose normalized form is shorter than 3 characters have no
    trigrams (empty set); the planner falls back to a residual filter
    for such queries rather than pretending the index can help.
    """
    return grams_of(normalize(text))


def grams_of(folded):
    """Trigram set of an *already-normalized* string.

    Split out of :func:`trigrams` so callers that hold the normalized
    form (the constant-folded similarity scorer, which normalizes each
    row value exactly once) don't re-fold it per derived feature.
    """
    if len(folded) < GRAM:
        return set()
    return {folded[i : i + GRAM] for i in range(len(folded) - GRAM + 1)}

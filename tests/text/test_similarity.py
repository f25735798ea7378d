"""``SimilarityScorer``: the folded form of ``similarity``.

The scorer keeps the query side of both edit ratios in matchers it
reuses row after row; its floats must stay bit-identical to the plain
function's (the top-k battery compares scores exactly), and, because a
compiled statement shares one scorer between every session of a
database, concurrent scoring must not mix rows up.  Where one folded
string contains the other the scorer takes the edit half from the two
lengths and runs neither matcher: the pairs below are built to land on
that identity and on each of its edges.
"""

import random
import sys
import threading

import pytest

from repro.fixtures.corpus import corpus_rows
from repro.text import SimilarityScorer, normalize, similarity

TITLES = [row["title"] for row in corpus_rows(400, 11)] + [
    "", "ab", "!!!...***", "In C Major: Prélude", "x" * 260 + " no 7",
]
QUERIES = ["prelude no. 7", "Nocturne Op. 9 No. 2", "", "ab", "é" * 210]


def test_scorer_floats_are_bit_identical_to_similarity():
    for query in QUERIES:
        scorer = SimilarityScorer(query)
        for title in TITLES + [query]:
            assert scorer(title) == similarity(title, query), (query, title)
            assert scorer(title) == scorer(title)  # the same row twice
    assert SimilarityScorer("prelude")(None) == 0.0


#: Folds longer (ß, ﬁ), to nothing (combining marks, punctuation), to
#: spaces; repeated tokens come from the small alphabet.
_ALPHABET = "aab no7  ßﬁÉ\u0301.-"


def _text(rng, length):
    return "".join(rng.choice(_ALPHABET) for _ in range(length))


def _long_query(rng, length):
    """Words whose folded form is exactly *length* characters: either
    side of the 200 at which difflib sets popular characters aside."""
    text = ""
    while len(text) < length:
        text += rng.choice(["prelude", "no", "a", "fugue", "in", "7"]) + " "
    text = text[:length].rstrip()
    text += "x" * (length - len(text))
    assert len(normalize(text)) == length
    return text


@pytest.mark.parametrize("seed", range(6))
def test_scorer_equals_similarity_where_one_string_contains_the_other(seed):
    rng = random.Random(seed)
    queries = [_text(rng, n) for n in (0, 1, 2, 3, 7, 16, 30)]
    queries += ["no no no", "Straße", "ß"]
    queries.append(_long_query(rng, (199, 200, 260)[seed % 3]))
    decided = 0
    for query in queries:
        scorer = SimilarityScorer(query)
        folded = normalize(query)
        cut = sorted(rng.randrange(len(query) + 1) for _ in range(2))
        tokens = query.split()
        rng.shuffle(tokens)
        values = [
            query, "", "ab", "!!", folded,
            _text(rng, 5) + query + _text(rng, 9),     # contains the query
            "x " + query, query + " 28",
            query[cut[0]:cut[1]], folded[:2], folded[2:],   # is contained
            " ".join(tokens), query + " " + query,     # same tokens, again
            _text(rng, 12), _text(rng, 40),
        ]
        for value in values:
            assert scorer(value) == similarity(value, query), (query, value)
            short, long = sorted((normalize(value), folded), key=len)
            decided += short in long and len(folded) < 200
    assert decided > len(queries) * 5


def test_one_scorer_shared_by_threads_scores_every_row_as_alone():
    scorer = SimilarityScorer("prelude no. 7 in a major")
    expected = [scorer(title) for title in TITLES]
    results = {}

    def score(worker):
        titles = TITLES[worker:] + TITLES[:worker]
        results[worker] = (titles, [scorer(title) for title in titles])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    by_title = dict(zip(TITLES, expected))
    for titles, scores in results.values():
        assert scores == [by_title[title] for title in titles]

"""``SimilarityScorer``: the folded form of ``similarity``.

The scorer keeps the query side of both edit ratios in matchers it
reuses row after row; its floats must stay bit-identical to the plain
function's (the top-k battery compares scores exactly), and, because a
compiled statement shares one scorer between every session of a
database, concurrent scoring must not mix rows up.
"""

import sys
import threading

from repro.fixtures.corpus import corpus_rows
from repro.text import SimilarityScorer, similarity

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

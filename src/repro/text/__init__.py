"""Catalog text search: normalization, similarity, trigram indexing.

See DESIGN.md §4k for the index layout, WAL records, normalization
rules, the planner pushdown contract, and the streaming top-k path.
"""

from .index import TrigramIndex
from .normalize import GRAM, grams_of, normalize, token_sort, trigrams
from .similarity import (
    SimilarityScorer,
    contains_match,
    edit_ratio,
    is_similar,
    match_predicate,
    required_overlap,
    similar_predicate,
    similarity,
    trigram_jaccard,
)

__all__ = [
    "GRAM",
    "SimilarityScorer",
    "TrigramIndex",
    "contains_match",
    "edit_ratio",
    "grams_of",
    "is_similar",
    "match_predicate",
    "normalize",
    "required_overlap",
    "similar_predicate",
    "similarity",
    "token_sort",
    "trigram_jaccard",
    "trigrams",
]

"""Similarity kernels and the weighted-sum resolve/match function."""

from .batch import BatchMatcher
from .edit_distance import (
    dp_cell_counters,
    edit_similarity,
    edit_similarity_at_least,
    levenshtein,
    reset_dp_cell_counters,
)
from .jaro import jaro, jaro_winkler
from .matchers import (
    AttributeRule,
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
    clear_similarity_cache,
    linkage_matcher,
    people_matcher,
    similarity_cache_counters,
)
from .tokens import jaccard, qgram_jaccard, qgrams, token_jaccard, word_tokens

__all__ = [
    "levenshtein",
    "edit_similarity",
    "edit_similarity_at_least",
    "jaro",
    "jaro_winkler",
    "AttributeRule",
    "WeightedMatcher",
    "citeseer_matcher",
    "books_matcher",
    "people_matcher",
    "linkage_matcher",
    "word_tokens",
    "qgrams",
    "jaccard",
    "token_jaccard",
    "qgram_jaccard",
    "similarity_cache_counters",
    "clear_similarity_cache",
    "dp_cell_counters",
    "reset_dp_cell_counters",
    "BatchMatcher",
]

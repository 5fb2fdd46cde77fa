"""Vocabulary fitting and sparse feature vectors over preprocessed text.

A document is its sequence of stems (textprep.TokenTable.stems). Feature
vectors are plain {index: weight} dicts in first-occurrence order; zero
weights are never stored and out-of-vocabulary tokens are silently dropped.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import StressKitError

FeatureVector = dict[int, float]


class Vocabulary:
    """Token -> index map with per-token document frequencies.

    Indices are assigned by sorting tokens lexicographically, so fitting
    the same corpus twice yields identical maps on any platform.
    """

    def __init__(self, tokens: tuple[str, ...], doc_freq: tuple[int, ...], n_docs: int):
        self.tokens, self.doc_freq, self.n_docs = tokens, doc_freq, n_docs

    def __eq__(self, other):
        return type(other) is Vocabulary and (self.tokens, self.doc_freq, self.n_docs) == (
            other.tokens, other.doc_freq, other.n_docs)

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {token: i for i, token in enumerate(self.tokens)}

    @cached_property
    def idf(self) -> tuple[float, ...]:
        """Smoothed inverse document frequency per index: ln((1+N)/(1+df)) + 1."""
        return tuple(math.log((1 + self.n_docs) / (1 + df)) + 1.0 for df in self.doc_freq)

    @property
    def size(self) -> int:
        return len(self.tokens)


def fit_vocabulary(
    docs: Sequence[Sequence[str]],
    min_df: int = 1,
    max_size: int | None = None,
) -> Vocabulary:
    """Collect every token appearing in at least min_df documents.

    With max_size set, the most document-frequent tokens are kept (ties
    broken lexicographically) before the final lexicographic indexing.
    """
    if not docs:
        raise StressKitError("cannot fit a vocabulary on an empty corpus")
    df: dict[str, int] = {}
    for doc in docs:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    kept = [t for t, d in df.items() if d >= min_df]
    if max_size is not None and len(kept) > max_size:
        kept.sort(key=lambda t: (-df[t], t))
        kept = kept[:max_size]
    kept.sort()
    return Vocabulary(
        tokens=tuple(kept),
        doc_freq=tuple(df[t] for t in kept),
        n_docs=len(docs),
    )


def vector(tokens: Iterable[str], vocab: Vocabulary, kind: str) -> FeatureVector:
    """Counts of the in-vocabulary tokens; for "tfidf", each count times its idf."""
    counts: FeatureVector = {}
    index = vocab.index
    for token in tokens:
        i = index.get(token)
        if i is not None:
            counts[i] = counts.get(i, 0.0) + 1.0
    if kind == "bow":
        return counts
    if kind == "tfidf":
        idf = vocab.idf
        return {i: tf * idf[i] for i, tf in counts.items()}
    raise ValueError(f"unknown feature kind: {kind!r}")


def vectorize(doc: str, vocab: Vocabulary, kind: str) -> FeatureVector:
    """`vector` over a whitespace-joined document."""
    return vector(doc.split(), vocab, kind)

"""Vocabulary fitting and sparse feature vectors over preprocessed text.

Documents are whitespace-joined preprocessed strings (see textprep).
Feature vectors are plain {index: weight} dicts; zero weights are never
stored and out-of-vocabulary tokens are silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import StressKitError

FeatureVector = dict[int, float]


class EmptyCorpus(StressKitError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """Token -> index map with per-token document frequencies.

    Indices are assigned by sorting tokens lexicographically, so fitting
    the same corpus twice yields identical maps on any platform.
    """

    tokens: tuple[str, ...]
    doc_freq: tuple[int, ...]
    n_docs: int

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
    docs: Sequence[str],
    min_df: int = 1,
    max_size: int | None = None,
) -> Vocabulary:
    """Collect every token appearing in at least min_df documents.

    With max_size set, the most document-frequent tokens are kept (ties
    broken lexicographically) before the final lexicographic indexing.
    """
    if not docs:
        raise EmptyCorpus("cannot fit a vocabulary on an empty corpus")
    df: dict[str, int] = {}
    for doc in docs:
        for token in set(doc.split()):
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


def vectorize_bow(doc: str, vocab: Vocabulary) -> FeatureVector:
    vec: FeatureVector = {}
    index = vocab.index
    for token in doc.split():
        i = index.get(token)
        if i is not None:
            vec[i] = vec.get(i, 0.0) + 1.0
    return vec


def tfidf_weights(counts: FeatureVector, vocab: Vocabulary) -> FeatureVector:
    """Term counts to tf-idf weights, in the same order."""
    idf = vocab.idf
    return {i: tf * idf[i] for i, tf in counts.items()}


def vectorize_tfidf(doc: str, vocab: Vocabulary) -> FeatureVector:
    return tfidf_weights(vectorize_bow(doc, vocab), vocab)


def vectorize(doc: str, vocab: Vocabulary, kind: str) -> FeatureVector:
    if kind == "bow":
        return vectorize_bow(doc, vocab)
    if kind == "tfidf":
        return vectorize_tfidf(doc, vocab)
    raise ValueError(f"unknown feature kind: {kind!r}")

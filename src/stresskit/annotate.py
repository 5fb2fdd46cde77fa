"""Aggregation of multi-annotator stress scores on the 11-point [-5, +5]
scale: outlier judgments, annotator exclusion, weighted consensus,
Fleiss's kappa, and pairwise annotator correlation.

A judgment is an outlier when its absolute deviation from the mean of the
OTHER annotators' scores for that item exceeds the population standard
deviation of all scores for the item. Annotator weights participate only
in the consensus mean, never in outlier detection.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from .errors import StressKitError, open_text

if TYPE_CHECKING:  # numpy loads only in the three functions that compute with it
    import numpy as np

log = logging.getLogger(__name__)

SCORE_MIN, SCORE_MAX = -5, 5

# Annotator pairs sharing fewer items than this get no correlation.
MIN_OVERLAP = 3


class TooFewScores(StressKitError):
    pass


class AllExcluded(StressKitError):
    pass


class EmptyItem(StressKitError):
    pass


class NoValidItems(StressKitError):
    pass


class BadScore(StressKitError):
    pass


@dataclass(frozen=True)
class AnnotationMatrix:
    item_ids: tuple[str, ...]
    texts: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    weights: tuple[float, ...]
    scores: tuple[tuple[int | None, ...], ...]  # [item][annotator], None = missing

    def __post_init__(self):
        for weight in self.weights:
            if not (math.isfinite(weight) and weight > 0):
                raise ValueError(f"annotator weight must be finite and positive, got {weight}")
        for row in self.scores:
            for score in row:
                if score is not None and not (SCORE_MIN <= score <= SCORE_MAX):
                    raise ValueError(f"score {score} outside [{SCORE_MIN}, {SCORE_MAX}]")

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_annotators(self) -> int:
        return len(self.annotator_ids)


@dataclass(frozen=True)
class ConsensusResult:
    item_ids: tuple[str, ...]
    means: tuple[float, ...]
    labels: tuple[int, ...]       # 1 = stressed (weighted mean < 0)
    n_scores: tuple[int, ...]
    kept: AnnotationMatrix  # the annotators whose scores formed the consensus
    excluded: tuple[tuple[str, float], ...] = ()  # (annotator id, outlier rate)


def detect_outliers(matrix: AnnotationMatrix) -> list[list[bool]]:
    """Flag judgment (i, j) iff |A(i,j) - mean(other scores for j)| >
    population std of all scores for j. Strict inequality, so unanimous
    items never flag."""
    import numpy as np
    flags = [[False] * matrix.n_annotators for _ in range(matrix.n_items)]
    for j in range(matrix.n_items):
        row = matrix.scores[j]
        present = [(i, s) for i, s in enumerate(row) if s is not None]
        if len(present) < 2:
            raise TooFewScores(
                f"item {matrix.item_ids[j]!r} has {len(present)} score(s); need at least 2"
            )
        values = np.array([s for _, s in present], dtype=float)
        std = float(values.std())  # population std
        total = values.sum()
        for i, s in present:
            loo_mean = (total - s) / (len(present) - 1)
            if abs(s - loo_mean) > std:
                flags[j][i] = True
    return flags


def outlier_rates(matrix: AnnotationMatrix, flags: Sequence[Sequence[bool]]) -> dict[str, float]:
    """Flagged fraction per annotator over their present judgments."""
    rates = {}
    for i, annotator in enumerate(matrix.annotator_ids):
        present = sum(1 for j in range(matrix.n_items) if matrix.scores[j][i] is not None)
        flagged = sum(1 for j in range(matrix.n_items) if flags[j][i])
        rates[annotator] = flagged / present if present else 0.0
    return rates


def exclude_annotators(
    matrix: AnnotationMatrix,
    rates: Mapping[str, float],
    threshold: float = 0.40,
) -> AnnotationMatrix:
    """Remove every annotator whose outlier rate (from outlier_rates) is
    >= threshold.

    Removal is simultaneous: the given rates are used as they are, with no
    recascading."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    keep = [i for i, a in enumerate(matrix.annotator_ids) if rates[a] < threshold]
    if not keep:
        raise AllExcluded("every annotator is at or above the outlier threshold")
    return AnnotationMatrix(
        item_ids=matrix.item_ids,
        texts=matrix.texts,
        annotator_ids=tuple(matrix.annotator_ids[i] for i in keep),
        weights=tuple(matrix.weights[i] for i in keep),
        scores=tuple(tuple(row[i] for i in keep) for row in matrix.scores),
    )


def weighted_consensus(matrix: AnnotationMatrix) -> ConsensusResult:
    """Per-item weighted mean; binary label 1 (stressed) iff mean < 0."""
    means, labels, counts = [], [], []
    for j in range(matrix.n_items):
        num = den = 0.0
        n = 0
        for i, score in enumerate(matrix.scores[j]):
            if score is None:
                continue
            num += matrix.weights[i] * score
            den += matrix.weights[i]
            n += 1
        if n == 0:
            raise EmptyItem(f"item {matrix.item_ids[j]!r} has no scores")
        mean = num / den
        means.append(mean)
        labels.append(1 if mean < 0 else 0)
        counts.append(n)
    return ConsensusResult(
        item_ids=matrix.item_ids,
        means=tuple(means),
        labels=tuple(labels),
        n_scores=tuple(counts),
        kept=matrix,
    )


def aggregate(matrix: AnnotationMatrix, threshold: float = 0.40) -> ConsensusResult:
    """Full pipeline: outlier flags, annotator exclusion, weighted consensus."""
    flags = detect_outliers(matrix)
    rates = outlier_rates(matrix, flags)
    surviving = exclude_annotators(matrix, rates, threshold)
    removed = tuple(
        (a, rates[a]) for a in matrix.annotator_ids if a not in surviving.annotator_ids
    )
    return replace(weighted_consensus(surviving), excluded=removed)


def fleiss_kappa(
    ratings: Sequence[Sequence[Hashable | None]],
    categories: Sequence[Hashable],
) -> float:
    """Standard Fleiss kappa over items x raters categorical assignments.

    Items must all carry the same number n >= 2 of ratings; items that do
    not are dropped with a warning (n is the most common rating count).
    Returns 1.0 when expected agreement is 1 (all ratings in one category).
    """
    import numpy as np
    counts_per_item = [sum(1 for r in row if r is not None) for row in ratings]
    eligible = [c for c in counts_per_item if c >= 2]
    if not eligible:
        raise NoValidItems("no item carries at least 2 ratings")
    n = max(sorted(set(eligible)), key=lambda c: (eligible.count(c), c))
    kept_rows = [row for row, c in zip(ratings, counts_per_item) if c == n]
    dropped = len(ratings) - len(kept_rows)
    if dropped:
        log.warning("fleiss_kappa: dropped %d item(s) not rated by exactly %d raters", dropped, n)
    if not kept_rows:
        raise NoValidItems("no items with a common rater count remain")
    cat_index = {c: k for k, c in enumerate(categories)}
    table = np.zeros((len(kept_rows), len(categories)))
    for r, row in enumerate(kept_rows):
        for rating in row:
            if rating is None:
                continue
            if rating not in cat_index:
                raise ValueError(f"rating {rating!r} not in categories {list(categories)}")
            table[r, cat_index[rating]] += 1
    p_item = (np.square(table).sum(axis=1) - n) / (n * (n - 1))
    p_bar = float(p_item.mean())
    p_cat = table.sum(axis=0) / table.sum()
    p_exp = float(np.square(p_cat).sum())
    if math.isclose(p_exp, 1.0):
        return 1.0  # degenerate marginals: a single category everywhere
    return (p_bar - p_exp) / (1.0 - p_exp)


def annotator_correlation(matrix: AnnotationMatrix) -> np.ndarray:
    """Pairwise Pearson correlation over jointly present scores.

    Pairs sharing fewer than MIN_OVERLAP items (or with zero variance) are
    reported as NaN rather than failing. Diagonal is 1."""
    import numpy as np
    k = matrix.n_annotators
    out = np.full((k, k), np.nan)
    columns = [
        np.array(
            [row[i] if row[i] is not None else np.nan for row in matrix.scores], dtype=float
        )
        for i in range(k)
    ]
    for a in range(k):
        out[a, a] = 1.0
        for b in range(a + 1, k):
            joint = ~np.isnan(columns[a]) & ~np.isnan(columns[b])
            if joint.sum() < MIN_OVERLAP:
                log.warning(
                    "annotators %s and %s share only %d item(s); correlation omitted",
                    matrix.annotator_ids[a], matrix.annotator_ids[b], int(joint.sum()),
                )
                continue
            xa, xb = columns[a][joint], columns[b][joint]
            if xa.std() == 0 or xb.std() == 0:
                continue
            out[a, b] = out[b, a] = float(np.corrcoef(xa, xb)[0, 1])
    return out


def binarize_scores(matrix: AnnotationMatrix) -> list[list[int | None]]:
    """Per-annotator binary stress labels: score < 0 -> 1 (stressed)."""
    return [
        [None if s is None else (1 if s < 0 else 0) for s in row]
        for row in matrix.scores
    ]


def load_annotations(
    path: str | Path,
    weights: Mapping[str, float] | None = None,
) -> AnnotationMatrix:
    """CSV with header item_id,text,<annotator>...; blank cell = missing."""
    with open_text(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise BadScore(f"{path}: empty annotation file") from None
        if len(header) < 3 or header[0] != "item_id" or header[1] != "text":
            raise BadScore(f"{path}: header must start with item_id,text followed by annotators")
        annotators = tuple(header[2:])
        repeated = [a for i, a in enumerate(annotators) if a in annotators[:i]]
        if repeated:
            raise BadScore(f"{path}: annotator {repeated[0]!r} appears more than once in the header")
        item_ids, texts, scores = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise BadScore(f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}")
            item_ids.append(row[0])
            texts.append(row[1])
            parsed: list[int | None] = []
            for annotator, cell in zip(annotators, row[2:]):
                cell = cell.strip()
                if not cell:
                    parsed.append(None)
                    continue
                try:
                    value = int(cell)
                except ValueError:
                    raise BadScore(
                        f"{path}: row {rownum}: score {cell!r} for {annotator!r} is not an integer"
                    ) from None
                if not SCORE_MIN <= value <= SCORE_MAX:
                    raise BadScore(
                        f"{path}: row {rownum}: score {value} outside [{SCORE_MIN}, {SCORE_MAX}]"
                    )
                parsed.append(value)
            scores.append(tuple(parsed))
    weights = dict(weights or {})
    return AnnotationMatrix(
        item_ids=tuple(item_ids),
        texts=tuple(texts),
        annotator_ids=annotators,
        weights=tuple(float(weights.get(a, 1.0)) for a in annotators),
        scores=tuple(scores),
    )


def load_weights(path: str | Path) -> dict[str, float]:
    """Sidecar CSV annotator_id,weight; absent annotators default to 1.0.
    Every weight must be a finite number greater than 0."""
    weights = {}
    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"annotator_id", "weight"} <= set(reader.fieldnames):
            raise BadScore(f"{path}: weights file needs header annotator_id,weight")
        for rownum, row in enumerate(reader, start=2):
            try:
                weight = float(row["weight"])
            except (TypeError, ValueError):
                weight = math.nan
            if not (math.isfinite(weight) and weight > 0):
                raise BadScore(
                    f"{path}: row {rownum}: bad weight {row.get('weight')!r} "
                    "(must be a finite number > 0)"
                )
            weights[row["annotator_id"]] = weight
    return weights

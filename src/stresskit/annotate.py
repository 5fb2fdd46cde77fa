"""Aggregation of multi-annotator stress scores on the 11-point [-5, +5]
scale: outlier judgments, annotator exclusion, weighted consensus,
Fleiss's kappa, and pairwise annotator correlation.

A judgment is an outlier when its absolute deviation from the mean of the
OTHER annotators' scores for that item exceeds the population standard
deviation of all scores for the item. Annotator weights participate only
in the consensus mean, never in outlier detection.

The scores are one float array of integers, items x annotators, NaN = missing;
outliers and correlations count in exact int64 tallies. Consensus sums are
Python's sum over annotator columns (numpy's row sums pair terms from 8 up).
"""

from __future__ import annotations

import csv
import logging
import math
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .corpus import cell, located, open_rows
from .errors import StressKitError, open_text

if TYPE_CHECKING:  # numpy loads only in the functions that compute with it
    import numpy as np

log = logging.getLogger(__name__)

SCORE_MIN, SCORE_MAX = -5, 5

# Annotator pairs sharing fewer items than this get no correlation.
MIN_OVERLAP = 3

# The eleven canonical score cells and the blank one, as they parse.
_CELLS = {str(v): float(v) for v in range(SCORE_MIN, SCORE_MAX + 1)} | {"": math.nan}


class AnnotationMatrix:
    def __init__(self, item_ids: tuple[str, ...], annotator_ids: tuple[str, ...],
                 weights: tuple[float, ...], scores: np.ndarray):
        """scores: integers as float [item, annotator], NaN = missing; int-or-None rows convert."""
        import numpy as np
        for weight in weights:
            if not (math.isfinite(weight) and weight > 0):
                raise ValueError(f"annotator weight must be finite and positive, got {weight}")
        self.item_ids, self.annotator_ids, self.weights = item_ids, annotator_ids, weights
        self.n_items, self.n_annotators = len(item_ids), len(annotator_ids)
        scores = np.array(scores, dtype=float)  # a copy: the caller's array stays writable
        if scores.shape != (self.n_items, self.n_annotators):
            raise ValueError(f"scores of shape {scores.shape} for "
                             f"{self.n_items} items x {self.n_annotators} annotators")
        given = scores[~np.isnan(scores)]  # integers: the outlier rule and r count in them
        bad = given[(given != np.trunc(given)) | (given < SCORE_MIN) | (given > SCORE_MAX)]
        if bad.size:
            raise ValueError(f"score {bad[0]:g} is not an integer in [{SCORE_MIN}, {SCORE_MAX}]")
        scores.flags.writeable = False
        self.scores = scores


class ConsensusResult(NamedTuple):
    item_ids: tuple[str, ...]
    means: tuple[float, ...]
    labels: tuple[int, ...]       # 1 = stressed (weighted mean < 0)
    n_scores: tuple[int, ...]
    kept: AnnotationMatrix  # the annotators whose scores formed the consensus
    excluded: tuple[tuple[str, float], ...] = ()  # (annotator id, outlier rate)


def detect_outliers(matrix: AnnotationMatrix) -> np.ndarray:
    """Flag judgment [j, i] iff |A(j,i) - mean(other scores for j)| >
    population std of all scores for j. Strict inequality, so unanimous
    items never flag. Returns a bool array shaped like the scores."""
    import numpy as np
    present = ~np.isnan(matrix.scores)
    n = present.sum(axis=1)
    short = np.flatnonzero(n < 2)
    if short.size:
        j = short[0]
        raise StressKitError(f"item {matrix.item_ids[j]!r} has {n[j]} score(s); need at least 2")
    x = np.where(present, matrix.scores, 0).astype(np.int64)
    n, t, q = n[:, None], x.sum(axis=1)[:, None], (x * x).sum(axis=1)[:, None]
    # the rule squared and multiplied through by n^2 (n - 1)^2; t = sum(x), q = sum(x * x)
    return present & (n * n * (n * x - t) ** 2 > (n - 1) ** 2 * (n * q - t * t))


def outlier_rates(matrix: AnnotationMatrix, flags: Sequence[Sequence[bool]]) -> dict[str, float]:
    """Flagged fraction per annotator over their present judgments."""
    import numpy as np
    present = (~np.isnan(matrix.scores)).sum(axis=0).tolist()
    flagged = np.asarray(flags, dtype=bool).reshape(matrix.scores.shape).sum(axis=0).tolist()
    return {annotator: f / p if p else 0.0
            for annotator, f, p in zip(matrix.annotator_ids, flagged, present)}


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
        raise StressKitError("every annotator is at or above the outlier threshold")
    return AnnotationMatrix(
        item_ids=matrix.item_ids,
        annotator_ids=tuple(matrix.annotator_ids[i] for i in keep),
        weights=tuple(matrix.weights[i] for i in keep),
        scores=matrix.scores[:, keep],
    )


def weighted_consensus(matrix: AnnotationMatrix) -> ConsensusResult:
    """Per-item weighted mean; binary label 1 (stressed) iff mean < 0."""
    import numpy as np
    present = ~np.isnan(matrix.scores)
    counts = present.sum(axis=1)
    short = np.flatnonzero(counts == 0)
    if short.size:
        raise StressKitError(f"item {matrix.item_ids[short[0]]!r} has no scores")
    filled = np.where(present, matrix.scores, 0.0)
    num = sum(w * column for w, column in zip(matrix.weights, filled.T))
    den = sum(w * column for w, column in zip(matrix.weights, present.T))
    means = num / den
    return ConsensusResult(
        item_ids=matrix.item_ids,
        means=tuple(means.tolist()),
        labels=tuple((means < 0).astype(int).tolist()),
        n_scores=tuple(counts.tolist()),
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
    return weighted_consensus(surviving)._replace(excluded=removed)


def fleiss_kappa(
    ratings: Sequence[Sequence[float | None]] | np.ndarray,
    categories: Sequence[float],
) -> float:
    """Standard Fleiss kappa over items x raters numeric category
    assignments, None or NaN for a missing rating.

    Items must all carry the same number n >= 2 of ratings; items that do
    not are dropped with a warning (n is the most common rating count).
    Returns 1.0 when expected agreement is 1 (all ratings in one category).
    """
    import numpy as np
    ratings = np.atleast_2d(np.asarray(ratings, dtype=float))
    counts_per_item = (~np.isnan(ratings)).sum(axis=1)
    eligible = counts_per_item[counts_per_item >= 2]
    if not eligible.size:
        raise StressKitError("no item carries at least 2 ratings")
    tally = np.bincount(eligible)
    n = len(tally) - 1 - int(np.argmax(tally[::-1]))  # most common count; ties to the larger
    kept = ratings[counts_per_item == n]
    dropped = len(ratings) - len(kept)
    if dropped:
        log.warning("fleiss_kappa: dropped %d item(s) not rated by exactly %d raters", dropped, n)
    matches = kept[:, :, None] == np.asarray(categories, dtype=float)
    unknown = ~np.isnan(kept) & ~matches.any(axis=2)
    if unknown.any():
        raise ValueError(f"rating {kept[unknown][0]:g} not in categories {list(categories)}")
    table = matches.sum(axis=1).astype(float)
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
    present = ~np.isnan(matrix.scores)
    x, p = np.where(present, matrix.scores, 0).astype(np.int64), present.astype(np.int64)
    # [a, b] over the items both a and b scored: their count, sum(a), sum(a * a), sum(a * b)
    n, sums, squares, products = p.T @ p, x.T @ p, (x * x).T @ p, x.T @ x
    for a, b in zip(*np.nonzero(np.triu(n < MIN_OVERLAP, 1))):
        log.warning("annotators %s and %s share only %d item(s); correlation omitted",
                    matrix.annotator_ids[a], matrix.annotator_ids[b], n[a, b])
    spread = n * squares - sums * sums  # n^2 times a's variance over those items
    out = np.divide(n * products - sums * sums.T, np.sqrt(spread * spread.T.astype(float)),
                    out=np.full(n.shape, np.nan),
                    where=(n >= MIN_OVERLAP) & (spread > 0) & (spread.T > 0))
    np.fill_diagonal(out, 1.0)
    return out


def binarize_scores(matrix: AnnotationMatrix) -> np.ndarray:
    """Per-annotator binary stress labels: score < 0 -> 1.0 (stressed),
    0.0 otherwise, NaN where the score is missing."""
    import numpy as np
    return np.where(np.isnan(matrix.scores), np.nan, matrix.scores < 0)


def _parse_cell(annotator: str, cell: str) -> float:
    """Any score cell not in _CELLS (spaces, "+3", "03", other digits), as int() reads it."""
    cell = cell.strip()
    if not cell:
        return math.nan
    try:
        value = int(cell)
    except ValueError:
        raise StressKitError(f"score {cell!r} for {annotator!r} is not an integer") from None
    if not SCORE_MIN <= value <= SCORE_MAX:
        raise StressKitError(f"score {value} for {annotator!r} outside [{SCORE_MIN}, {SCORE_MAX}]")
    return float(value)


def load_annotations(
    path: str | Path,
    weights: Mapping[str, float] | None = None,
) -> AnnotationMatrix:
    """CSV with header item_id,text,<annotator>...; blank cell = missing.
    The text column is not read; every id in `weights` names a column."""
    import numpy as np
    with open_text(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise StressKitError(f"{path}: empty annotation file") from None
        if len(header) < 3 or header[0] != "item_id" or header[1] != "text":
            raise StressKitError(
                f"{path}: header must start with item_id,text followed by annotators")
        annotators = tuple(header[2:])
        repeated = [a for i, a in enumerate(annotators) if a in annotators[:i]]
        if repeated:
            raise StressKitError(
                f"{path}: annotator {repeated[0]!r} appears more than once in the header")
        unknown = [a for a in weights or {} if a not in annotators]
        if unknown:
            raise StressKitError(
                f"{path}: weights name annotator {unknown[0]!r}, which has no column")
        item_ids, values, seen = [], [], set()  # values: every score, row by row
        cell_value = _CELLS.get
        with located(path, reader):
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise StressKitError(f"expected {len(header)} cells, got {len(row)}")
                if row[0] in seen:
                    raise StressKitError(f"item {row[0]!r} appears more than once")
                seen.add(row[0])
                item_ids.append(row[0])
                parsed = list(map(cell_value, row[2:]))
                if None in parsed:
                    parsed = [_parse_cell(a, cell) if value is None else value
                              for a, cell, value in zip(annotators, row[2:], parsed)]
                values.extend(parsed)
    weights = dict(weights or {})
    return AnnotationMatrix(
        item_ids=tuple(item_ids),
        annotator_ids=annotators,
        weights=tuple(float(weights.get(a, 1.0)) for a in annotators),
        scores=np.array(values, dtype=float).reshape(len(item_ids), len(annotators)),
    )


def load_weights(path: str | Path) -> dict[str, float]:
    """Sidecar CSV annotator_id,weight; absent annotators default to 1.0.
    An id is matched exactly as the sheet header spells it, so it is not
    stripped, and it is listed once. Every weight must be a finite number
    greater than 0."""
    weights = {}
    with open_rows(path, ("annotator_id", "weight")) as reader:
        for row in reader:
            annotator, raw = row["annotator_id"] or "", cell(row, "weight")
            try:
                weight = float(raw)
            except ValueError:
                weight = math.nan
            if not (math.isfinite(weight) and weight > 0):
                raise StressKitError(f"bad weight {raw!r} (must be a finite number > 0)")
            if annotator in weights:
                raise StressKitError(f"annotator {annotator!r} is listed twice")
            weights[annotator] = weight
    return weights

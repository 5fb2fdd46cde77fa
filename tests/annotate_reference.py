"""Annotation aggregation as per-item Python loops over rows of scores,
`None` for a missing one: the outlier rule, outlier rates, exclusion,
weighted consensus, the Fleiss count table and kappa, and annotator
correlation.

`stresskit.annotate` holds a sheet only as one byte column per annotator,
which its loader fills, and computes kappa from those columns' tallies.
This module keeps the per-item row form as an oracle: test_annotate.py
checks that both give identical flags, rates, labels, counts, kappa,
correlations and bit-identical means. The outlier rule here keeps its
float form (numpy's population std), so it checks the exact integer rule
independently, and kappa is computed in exact fractions, rounded once.

The tests write sheets as rows, so this module also turns rows into an
`AnnotationMatrix` (matrix_from_rows), a matrix back into rows (rows_of),
and rows of binary ratings into kappa's tallies (kappa_tallies).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from stresskit.annotate import MIN_OVERLAP, SCORE_MIN, AnnotationMatrix
from stresskit.errors import StressKitError

Row = tuple[int | None, ...]  # one item's scores in annotator order, None = missing


def matrix_from_rows(rows, weights=None, annotators=None, item_ids=None) -> AnnotationMatrix:
    """The AnnotationMatrix of one row of scores per item. Annotators default
    to a0, a1, ..., items to item0, item1, ... and weights to 1.0."""
    k = len(annotators or rows[0])
    codes = [bytes(0 if row[i] is None else row[i] - SCORE_MIN + 1 for row in rows)
             for i in range(k)]
    return AnnotationMatrix(tuple(item_ids or (f"item{j}" for j in range(len(rows)))),
                            tuple(annotators or (f"a{i}" for i in range(k))),
                            tuple(weights or (1.0,) * k), codes)


def rows_of(matrix: AnnotationMatrix) -> tuple[Row, ...]:
    """The matrix's scores, one row per item."""
    return tuple(zip(*([None if c == 0 else c + SCORE_MIN - 1 for c in column]
                       for column in matrix.codes)))


def kappa_tallies(ratings) -> Counter:
    """Items per (ratings given, of which 1s), from one row of 0, 1 or None
    per item: what stresskit.annotate.binarize_scores counts from a matrix."""
    return Counter((len(row) - row.count(None), row.count(1)) for row in ratings)


class Sheet(NamedTuple):
    item_ids: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    weights: tuple[float, ...]
    scores: tuple[Row, ...]  # [item][annotator]


def detect_outliers(sheet: Sheet) -> list[list[bool]]:
    flags = [[False] * len(sheet.annotator_ids) for _ in sheet.item_ids]
    for j, row in enumerate(sheet.scores):
        present = [(i, s) for i, s in enumerate(row) if s is not None]
        if len(present) < 2:
            raise StressKitError(
                f"item {sheet.item_ids[j]!r} has {len(present)} score(s); need at least 2"
            )
        values = np.array([s for _, s in present], dtype=float)
        std = float(values.std())  # population std
        total = values.sum()
        for i, s in present:
            loo_mean = (total - s) / (len(present) - 1)
            if abs(s - loo_mean) > std:
                flags[j][i] = True
    return flags


def outlier_rates(sheet: Sheet, flags: list[list[bool]]) -> dict[str, float]:
    rates = {}
    for i, annotator in enumerate(sheet.annotator_ids):
        present = sum(1 for row in sheet.scores if row[i] is not None)
        flagged = sum(1 for row in flags if row[i])
        rates[annotator] = flagged / present if present else 0.0
    return rates


def exclude_annotators(sheet: Sheet, rates: dict[str, float], threshold: float) -> Sheet:
    keep = [i for i, a in enumerate(sheet.annotator_ids) if rates[a] < threshold]
    if not keep:
        raise StressKitError("every annotator is at or above the outlier threshold")
    return Sheet(
        item_ids=sheet.item_ids,
        annotator_ids=tuple(sheet.annotator_ids[i] for i in keep),
        weights=tuple(sheet.weights[i] for i in keep),
        scores=tuple(tuple(row[i] for i in keep) for row in sheet.scores),
    )


def weighted_consensus(sheet: Sheet) -> tuple[list[float], list[int], list[int]]:
    """(means, labels, n_scores) per item."""
    means, labels, counts = [], [], []
    for j, row in enumerate(sheet.scores):
        num = den = 0.0
        n = 0
        for i, score in enumerate(row):
            if score is None:
                continue
            num += sheet.weights[i] * score
            den += sheet.weights[i]
            n += 1
        if n == 0:
            raise StressKitError(f"item {sheet.item_ids[j]!r} has no scores")
        mean = num / den
        means.append(mean)
        labels.append(1 if mean < 0 else 0)
        counts.append(n)
    return means, labels, counts


def binarize_scores(sheet: Sheet) -> list[list[int | None]]:
    return [[None if s is None else (1 if s < 0 else 0) for s in row] for row in sheet.scores]


def fleiss_kappa(ratings: list[list[int | None]]) -> float:
    """Fleiss kappa over items x raters binary ratings, None for a missing one."""
    counts_per_item = [sum(1 for r in row if r is not None) for row in ratings]
    eligible = [c for c in counts_per_item if c >= 2]
    if not eligible:
        raise StressKitError("no item carries at least 2 ratings")
    n = max(sorted(set(eligible)), key=lambda c: (eligible.count(c), c))
    table = [[sum(1 for r in row if r == category) for category in (0, 1)]
             for row, c in zip(ratings, counts_per_item) if c == n]
    p_bar = sum(Fraction(sum(t * t for t in counts) - n, n * (n - 1))
                for counts in table) / len(table)
    p_cat = [Fraction(sum(counts[k] for counts in table), n * len(table)) for k in (0, 1)]
    p_exp = sum(p * p for p in p_cat)
    if p_exp == 1:
        return 1.0
    return float((p_bar - p_exp) / (1 - p_exp))


def annotator_correlation(sheet: Sheet) -> list[list[float | None]]:
    """Pearson's r from each pair's tallies in Python ints, finished with the
    same three float operations as stresskit.annotate: one multiply, one
    square root and one division. None where a pair gets no correlation."""
    k = len(sheet.annotator_ids)
    out = [[1.0 if a == b else None for b in range(k)] for a in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            pairs = [(row[a], row[b]) for row in sheet.scores
                     if row[a] is not None and row[b] is not None]
            n = len(pairs)
            if n < MIN_OVERLAP:
                continue
            sa, sb = sum(x for x, _ in pairs), sum(y for _, y in pairs)
            spread_a = n * sum(x * x for x, _ in pairs) - sa * sa
            spread_b = n * sum(y * y for _, y in pairs) - sb * sb
            if spread_a == 0 or spread_b == 0:
                continue
            covariance = n * sum(x * y for x, y in pairs) - sa * sb
            out[a][b] = out[b][a] = covariance / math.sqrt(float(spread_a) * float(spread_b))
    return out

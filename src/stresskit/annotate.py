"""Aggregation of multi-annotator stress scores on the 11-point [-5, +5]
scale: outlier judgments, annotator exclusion, weighted consensus,
Fleiss's kappa, and pairwise annotator correlation.

A judgment is an outlier when its absolute deviation from the mean of the
OTHER annotators' scores for that item exceeds the population standard
deviation of all scores for the item. Annotator weights participate only
in the consensus mean, never in outlier detection.

A sheet has one form: per annotator, one bytes object of a byte per item, 0
if missing, s - SCORE_MIN + 1 for the score s. The loader writes each cell's
byte, and every statistic, kappa's tallies included, reads whole columns in
plain Python. No step builds a per-item row or depends on rows repeating.
"""

from __future__ import annotations

import csv
import logging
import math
import sys
from array import array
from collections import Counter
from itertools import repeat
from operator import add, attrgetter, contains, lt, truediv
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import cell, located, open_rows
from .errors import StressKitError, open_text

log = logging.getLogger(__name__)

SCORE_MIN, SCORE_MAX = -5, 5

# Annotator pairs sharing fewer items than this get no correlation.
MIN_OVERLAP = 3

_SCORES = range(SCORE_MIN, SCORE_MAX + 1)
_CODES = {None: 0} | {s: s - SCORE_MIN + 1 for s in _SCORES}  # a score's byte
_CELL_CODES = {"": 0} | {str(s): _CODES[s] for s in _SCORES}  # the canonical cells' bytes
_VALID = bytes(_CODES.values())  # every byte a column may hold


def _table(value: Callable[[int], int]) -> bytes:
    """The bytes.translate table taking each score's byte to value(score), any other to 0."""
    return bytes([0, *map(value, _SCORES)]).ljust(256, b"\0")


_PRESENT = _table(lambda s: 1)
_SHIFTED = _table(lambda s: s - SCORE_MIN)
_SQUARES = _table(lambda s: s * s)
_STRESSED = _table(lambda s: int(s < 0))  # a score's binary stress label
# _DIGITS[s] translates bytes to the binary digit 1 where the score is s, 0 elsewhere.
_DIGITS = {s: b"0" * _CODES[s] + b"1" + b"0" * (255 - _CODES[s]) for s in _SCORES}


class AnnotationMatrix:
    def __init__(self, item_ids: tuple[str, ...], annotator_ids: tuple[str, ...],
                 weights: tuple[float, ...], codes: Iterable[bytes]):
        """codes: per annotator, a byte per item (see above); each is kept as bytes."""
        for weight in weights:
            if not (math.isfinite(weight) and weight > 0):
                raise ValueError(f"annotator weight must be finite and positive, got {weight}")
        self.item_ids, self.annotator_ids, self.weights = item_ids, annotator_ids, weights
        self.n_items, self.n_annotators = len(item_ids), len(annotator_ids)
        if self.n_annotators >= 1 << 16:  # _item_sums counts an item's scores in 16 bits
            raise ValueError(f"{self.n_annotators} annotators; at most {(1 << 16) - 1}")
        self.codes: tuple[bytes, ...] = tuple(map(bytes, codes))  # per annotator
        if len(self.codes) != self.n_annotators or any(
                len(c) != self.n_items or c.translate(None, _VALID) for c in self.codes):
            raise ValueError(f"{len(self.codes)} columns; need {self.n_annotators} of "
                             f"{self.n_items} bytes, each in 0-{len(_VALID) - 1}")


def _item_sums(codes: Sequence[bytes], tables: Sequence[bytes], size: int) -> list[int]:
    """For each of `size` items, the sum over annotators of tables[0][byte] +
    (tables[1][byte] << 24) + (tables[2][byte] << 48). Each annotator's bytes
    become one int of an 8-byte field per item, the tables' bytes 3 bytes
    apart in it, so adding the ints adds all the sums (each under 2^24, 2^24
    and 2^16) at once."""
    total = 0
    for column in codes:
        fields = bytearray(8 * size)
        for offset, table in zip((0, 3, 6), tables):
            fields[offset::8] = column.translate(table)
        total += int.from_bytes(fields, "little")
    sums = array("Q", total.to_bytes(8 * size, "little"))
    if sys.byteorder == "big":
        sums.byteswap()
    return sums.tolist()


class ConsensusResult(NamedTuple):
    item_ids: tuple[str, ...]
    means: tuple[float, ...]
    labels: tuple[int, ...]       # 1 = stressed (weighted mean < 0)
    n_scores: tuple[int, ...]
    kept: AnnotationMatrix  # the annotators whose scores formed the consensus
    excluded: tuple[tuple[str, float], ...] = ()  # (annotator id, outlier rate)


def detect_outliers(matrix: AnnotationMatrix) -> list[list[bool]]:
    """Flag judgment [j, i] iff |A(j,i) - mean(other scores for j)| >
    population std of all scores for j. Strict inequality, so unanimous
    items never flag. Returns one list of flags per annotator, in item order."""
    # per item: its sum of squares q, its sum t less n * SCORE_MIN, and its count n
    sums = _item_sums(matrix.codes, (_SQUARES, _SHIFTED, _PRESENT), matrix.n_items)
    if sums and min(sums) < 2 << 48:
        j = next(j for j, key in enumerate(sums) if key < 2 << 48)
        raise StressKitError(
            f"item {matrix.item_ids[j]!r} has {sums[j] >> 48} score(s); need at least 2")
    flagged = {}  # an item's sums -> the bytes of the scores the rule flags in it
    for key in set(sums):
        q, n = key & 0xFFFFFF, key >> 48
        t = (key >> 24 & 0xFFFFFF) + n * SCORE_MIN
        # the rule squared and multiplied through by n^2 (n - 1)^2
        bound = (n - 1) ** 2 * (n * q - t * t)
        flagged[key] = frozenset(_CODES[s] for s in _SCORES if n * n * (n * s - t) ** 2 > bound)
    items = list(map(flagged.__getitem__, sums))
    return [list(map(contains, items, column)) for column in matrix.codes]


def outlier_rates(matrix: AnnotationMatrix,
                  flags: Sequence[Sequence[bool]]) -> dict[str, float]:
    """Flagged fraction per annotator over their present judgments, from one
    list of flags per annotator (as detect_outliers gives them)."""
    return {annotator: f / p if p else 0.0 for annotator, f, p in zip(
        matrix.annotator_ids, map(sum, flags),
        (matrix.n_items - column.count(0) for column in matrix.codes))}


def exclude_annotators(matrix: AnnotationMatrix, rates: Mapping[str, float],
                       threshold: float = 0.40) -> AnnotationMatrix:
    """Remove every annotator whose outlier rate (from outlier_rates) is >=
    threshold, all at once: the given rates are used as they are, with no
    recascading."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    keep = [i for i, a in enumerate(matrix.annotator_ids) if rates[a] < threshold]
    if not keep:
        raise StressKitError("every annotator is at or above the outlier threshold")
    return AnnotationMatrix(matrix.item_ids, tuple(matrix.annotator_ids[i] for i in keep),
                            tuple(matrix.weights[i] for i in keep),
                            [matrix.codes[i] for i in keep])


def weighted_consensus(matrix: AnnotationMatrix) -> ConsensusResult:
    """Per-item weighted mean; binary label 1 (stressed) iff mean < 0."""
    counts = _item_sums(matrix.codes, (_PRESENT,), matrix.n_items)
    if counts and min(counts) == 0:
        raise StressKitError(f"item {matrix.item_ids[counts.index(0)]!r} has no scores")
    # per item, its weighted sum of scores (real part) and the sum of its scores' weights
    # (imaginary part), added from 0 in annotator order, a missing score adding 0
    sums = [0j] * matrix.n_items
    for weight, column in zip(matrix.weights, matrix.codes):
        term = (0j, *(complex(weight * s, weight) for s in _SCORES))
        sums = list(map(add, sums, map(term.__getitem__, column)))
    means = tuple(map(truediv, map(attrgetter("real"), sums), map(attrgetter("imag"), sums)))
    return ConsensusResult(matrix.item_ids, means, tuple(map(int, map(lt, means, repeat(0)))),
                           tuple(counts), matrix)


def aggregate(matrix: AnnotationMatrix, threshold: float = 0.40) -> ConsensusResult:
    """Full pipeline: outlier flags, annotator exclusion, weighted consensus."""
    flags = detect_outliers(matrix)
    rates = outlier_rates(matrix, flags)
    surviving = exclude_annotators(matrix, rates, threshold)
    removed = tuple((a, rates[a]) for a in matrix.annotator_ids
                    if a not in surviving.annotator_ids)
    return weighted_consensus(surviving)._replace(excluded=removed)


def fleiss_kappa(tallies: Mapping[tuple[int, int], int]) -> float:
    """Standard Fleiss kappa over binary ratings, from items per (ratings
    given, of which 1s), as binarize_scores counts them.

    Items must all carry the same number n >= 2 of ratings; items that do
    not are dropped with a warning (n is the most common rating count).
    Returns 1.0 when expected agreement is 1 (all ratings in one category).
    """
    eligible = Counter()  # rating count -> items
    for (given, _), count in tallies.items():
        eligible[given] += count
    # the most common count of 2 or more; ties to the larger
    n = max((c for c in eligible if c >= 2), key=lambda c: (eligible[c], c), default=0)
    if not n:
        raise StressKitError("no item carries at least 2 ratings")
    kept = [(k, count) for (given, k), count in tallies.items() if given == n]
    items, ones = eligible[n], sum(k * count for k, count in kept)  # over the kept items
    squares = sum((k * k + (n - k) * (n - k)) * count for k, count in kept)  # of the tallies
    dropped = sum(eligible.values()) - items
    if dropped:
        log.warning("fleiss_kappa: dropped %d item(s) not rated by exactly %d raters", dropped, n)
    total, zeros = items * n, items * n - ones
    if not ones or not zeros:
        return 1.0  # degenerate marginals: a single category everywhere
    # (p_bar - p_exp) / (1 - p_exp), where p_bar = (squares - total) / (total (n - 1)) and
    # p_exp = (ones^2 + zeros^2) / total^2, multiplied through: rounded once, exactly
    return (((squares - total) * total - (ones * ones + zeros * zeros) * (n - 1))
            / (2 * ones * zeros * (n - 1)))


def annotator_correlation(matrix: AnnotationMatrix) -> list[list[float | None]]:
    """Pairwise Pearson correlation over jointly present scores.

    Pairs sharing fewer than MIN_OVERLAP items (or with zero variance) are
    reported as None rather than failing. Diagonal is 1."""
    # Per annotator and score, the items given that score as the bits of one
    # int: a pair's count of items scored (x, y) is the bit count of an AND.
    masks = [[(s, int(b"0" + column.translate(digits), 2)) for s, digits in _DIGITS.items()]
             for column in matrix.codes]
    k = matrix.n_annotators
    out = [[1.0 if a == b else None for b in range(k)] for a in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            # over the items both a and b scored: their count, sums, sums of squares, sum(a * b)
            n, sum_a, sum_b, squares_a, squares_b, products = map(sum, zip(*(
                (c, c * x, c * y, c * x * x, c * y * y, c * x * y)
                for x, items_a in masks[a] for y, items_b in masks[b]
                for c in [(items_a & items_b).bit_count()])))
            if n < MIN_OVERLAP:
                log.warning("annotators %s and %s share only %d item(s); correlation omitted",
                            matrix.annotator_ids[a], matrix.annotator_ids[b], n)
                continue
            spread_a = n * squares_a - sum_a * sum_a  # n^2 var(a)
            spread_b = n * squares_b - sum_b * sum_b
            if spread_a > 0 and spread_b > 0:
                out[a][b] = out[b][a] = ((n * products - sum_a * sum_b)
                                         / math.sqrt(float(spread_a) * float(spread_b)))
    return out


def binarize_scores(matrix: AnnotationMatrix) -> Counter[tuple[int, int]]:
    """Items per (labels given, of which stressed): each present score is
    the binary label 1 (stressed) if it is < 0, 0 otherwise."""
    sums = _item_sums(matrix.codes, (_STRESSED, _PRESENT), matrix.n_items)
    return Counter({(key >> 24, key & 0xFFFFFF): items for key, items in Counter(sums).items()})


def _parse_cell(annotator: str, cell: str) -> int | None:
    """A score cell as int() reads it (spaces, "+3", "03", other digits); blank is None."""
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = int(cell)
    except ValueError:
        raise StressKitError(f"score {cell!r} for {annotator!r} is not an integer") from None
    if not SCORE_MIN <= value <= SCORE_MAX:
        raise StressKitError(f"score {value} for {annotator!r} outside [{SCORE_MIN}, {SCORE_MAX}]")
    return value


def load_annotations(
    path: str | Path,
    weights: Mapping[str, float] | None = None,
) -> AnnotationMatrix:
    """CSV with header item_id,text,<annotator>...; blank cell = missing.
    The text column is not read; every id in `weights` names a column."""
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
        item_ids, cells, seen = [], bytearray(), set()  # cells: every row's bytes in turn
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
                try:
                    cells += bytes(map(_CELL_CODES.__getitem__, row[2:]))
                except KeyError:  # a cell not in _CELL_CODES
                    cells += bytes(map(_CODES.__getitem__, map(_parse_cell, annotators, row[2:])))
    weights, k = dict(weights or {}), len(annotators)
    return AnnotationMatrix(tuple(item_ids), annotators,
                            tuple(float(weights.get(a, 1.0)) for a in annotators),
                            [cells[i::k] for i in range(k)])


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

"""Confusion-matrix construction and the four classification metrics.

The positive class is 1 (stressed). Zero-denominator metrics are reported
as 0.0 rather than raising, so reports on tiny groups never crash.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import StressKitError


class ConfusionMatrix(NamedTuple):
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class MetricsReport(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float
    matrix: ConfusionMatrix


def confusion(predicted: Sequence[int], actual: Sequence[int]) -> ConfusionMatrix:
    if len(predicted) != len(actual):
        raise StressKitError(f"{len(predicted)} predictions vs {len(actual)} labels")
    if not predicted:
        raise StressKitError("no prediction/label pairs")
    tp = fp = tn = fn = 0
    for p, a in zip(predicted, actual):
        if p == 1 and a == 1:
            tp += 1
        elif p == 1 and a == 0:
            fp += 1
        elif p == 0 and a == 0:
            tn += 1
        elif p == 0 and a == 1:
            fn += 1
        else:
            raise ValueError(f"labels must be 0 or 1, got pair ({p!r}, {a!r})")
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def metrics(matrix: ConfusionMatrix) -> MetricsReport:
    if matrix.total <= 0:
        raise StressKitError("confusion matrix has no counts")
    precision = matrix.tp / (matrix.tp + matrix.fp) if matrix.tp + matrix.fp else 0.0
    recall = matrix.tp / (matrix.tp + matrix.fn) if matrix.tp + matrix.fn else 0.0
    return MetricsReport(
        accuracy=(matrix.tp + matrix.tn) / matrix.total,
        precision=precision,
        recall=recall,
        f1=2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        matrix=matrix,
    )


def render_table(rows: list[tuple[str, str, MetricsReport]]) -> str:
    """Plain-text results table: one row per (features, classifier) pair."""
    header = ("Features", "ML", "Accuracy,%", "Precision", "Recall", "F score")
    body = [
        (
            feats,
            clf,
            f"{100 * rep.accuracy:.2f}",
            f"{rep.precision:.2f}",
            f"{rep.recall:.2f}",
            f"{rep.f1:.2f}",
        )
        for feats, clf, rep in rows
    ]
    widths = [max(len(str(r[i])) for r in [header, *body]) for i in range(len(header))]
    lines = []
    for row in [header, *body]:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)

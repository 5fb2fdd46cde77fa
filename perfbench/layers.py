"""Per-layer metrics from the spans tracer.py writes.

Each metric names the end-to-end metric and workloads it should move
(`moves`), so a later change can say in advance which numbers it expects
to change. A metric for a layer that a workload does not run reads 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Spans:
    """One command's spans: name, parent id, start and end, in start order."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as handle:
            header = json.load(handle)
        self.names: list[str] = header["names"]
        self.counters: dict[str, float] = header["counters"]
        n = header["n_spans"]
        with open(path + ".bin", "rb") as handle:
            self.name_id = np.fromfile(handle, dtype=np.int64, count=n)
            self.parent = np.fromfile(handle, dtype=np.int64, count=n)
            self.start = np.fromfile(handle, dtype=np.float64, count=n)
            self.end = np.fromfile(handle, dtype=np.float64, count=n)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        self.parent_name = np.full(n, -1)
        self.parent_name[has_parent] = self.name_id[self.parent[has_parent]]
        covered = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                              minlength=n)
        # A span's self time is its duration minus what its children cover.
        # Spans come from one call stack, so children lie inside their parent
        # and never overlap each other; nesting_errors() checks that.
        self.self_time = self.duration - covered

    def __len__(self) -> int:
        return len(self.start)

    def nesting_errors(self) -> int:
        """Spans that leave their parent's interval or overlap a sibling."""
        child = np.flatnonzero(self.parent >= 0)
        p = self.parent[child]
        outside = (self.start[child] < self.start[p]) | (self.end[child] > self.end[p])
        order = child[np.lexsort((self.start[child], p))]
        same = self.parent[order[1:]] == self.parent[order[:-1]]
        overlap = same & (self.start[order[1:]] < self.end[order[:-1]])
        return int(outside.sum() + overlap.sum())

    def _ids(self, names: set[str]) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if n in names], dtype=np.int64)

    def layer_time(self, names: set[str]) -> float:
        """Total duration of spans in `names` not nested in another of them."""
        ids = self._ids(names)
        outermost = np.isin(self.name_id, ids) & ~np.isin(self.parent_name, ids)
        return float(self.duration[outermost].sum())

    def calls(self, name: str) -> int:
        return int(np.isin(self.name_id, self._ids({name})).sum())

    def self_by_name(self) -> dict[str, float]:
        totals = np.bincount(self.name_id, weights=self.self_time, minlength=len(self.names))
        return dict(zip(self.names, totals.tolist()))


@dataclass
class Traced:
    """What one traced command contributes to its workload's metrics."""

    spans: Spans
    docs: int            # input documents of the command
    classifier: str      # train's --classifier, "" for other commands
    wall: float          # traced process wall time
    untraced_wall: float
    untraced_cpu: float


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str
    compute: Callable[[list[Traced]], float]


def _time(*names: str):
    wanted = set(names)
    return lambda runs: sum(r.spans.layer_time(wanted) for r in runs)


def _calls(name: str):
    return lambda runs: float(sum(r.spans.calls(name) for r in runs))


def _counter(key: str, combine=sum):
    return lambda runs: float(combine([r.spans.counters.get(key, 0) for r in runs]))


def _ratio(num, den):
    def compute(runs):
        d = den(runs)
        return num(runs) / d if d else 0.0
    return compute


def _complement(num, den):
    """1 - num/den, or 0 when den is 0 (the layer did not run)."""
    def compute(runs):
        d = den(runs)
        return 1 - num(runs) / d if d else 0.0
    return compute


def _accuracy(kind: str):
    def compute(runs):
        values = [r.spans.counters.get("evaluate.accuracy", 0.0)
                  for r in runs if r.classifier == kind]
        return float(values[0]) if values else 0.0
    return compute


def _cli_self(runs):
    return sum(float(r.spans.self_time[0]) for r in runs)


def _accounted(runs):
    return sum(float(r.spans.self_time.sum()) for r in runs) / sum(r.wall for r in runs)


_docs = lambda runs: float(sum(r.docs for r in runs))  # noqa: E731
_stem_calls = _calls("porter.stem_word")
_stems_distinct = _counter("porter.distinct_inputs")

ON_ANALYZE_TRAIN = "docs_per_s on analyze and train; peak_rss_mb on predict-cold"
ON_ANALYZE = "docs_per_s on analyze"
ON_TRAIN_COLD = "docs_per_s on train and predict-cold"
ON_TRAIN = "docs_per_s on train only; no change on the others"
ON_PREDICT = "docs_per_s on analyze and predict-cold"
ON_SETUP = "setup_s on analyze and predict-cold"
ON_ANNOTATE = "docs_per_s on annotate"
GUARD = "quality guard on train; should not move"

METRICS = [
    Metric("porter.stem_s", "s", "lower", ON_ANALYZE_TRAIN, _time("porter.stem_word")),
    Metric("porter.stem_calls", "count", "lower", ON_ANALYZE_TRAIN, _stem_calls),
    Metric("porter.distinct_inputs", "count", "lower", ON_ANALYZE_TRAIN, _stems_distinct),
    Metric("porter.repeat_share", "share", "lower", ON_ANALYZE_TRAIN,
           _complement(_stems_distinct, _stem_calls)),
    Metric("textprep.preprocess_s", "s", "lower", ON_ANALYZE, _time("textprep.preprocess")),
    Metric("textprep.preprocess_calls_per_doc", "count", "lower", ON_ANALYZE,
           _ratio(_calls("textprep.preprocess"), _docs)),
    Metric("textprep.strip_s", "s", "lower", ON_ANALYZE,
           _time("textprep.strip_noncharacters")),
    Metric("textprep.tokens_per_doc", "count", "lower", ON_ANALYZE,
           _ratio(_counter("textprep.tokens"), _calls("textprep.tokenize"))),
    Metric("features.fit_vocabulary_s", "s", "lower", ON_TRAIN_COLD,
           _time("features.fit_vocabulary")),
    Metric("features.vectorize_s", "s", "lower", ON_TRAIN_COLD, _time("features.vectorize")),
    Metric("features.vocab_size", "count", "lower", ON_TRAIN_COLD,
           _counter("features.vocab_size", max)),
    Metric("features.oov_share", "share", "lower", ON_TRAIN_COLD,
           _complement(_counter("features.in_vocab_tokens"), _counter("features.doc_tokens"))),
    Metric("classify.train_logistic_s", "s", "lower", ON_TRAIN,
           _time("classify.train_logistic")),
    Metric("classify.train_nb_s", "s", "lower", ON_TRAIN, _time("classify.train_naive_bayes")),
    Metric("classify.train_svm_s", "s", "lower", ON_TRAIN, _time("classify.train_svm")),
    Metric("classify.lr_halvings", "count", "lower", ON_TRAIN,
           _counter("classify.lr_halvings")),
    Metric("classify.predict_s", "s", "lower", ON_PREDICT, _time("classify.predict")),
    Metric("classify.predict_calls", "count", "lower", ON_PREDICT,
           _calls("classify.predict")),
    Metric("classify.load_model_s", "s", "lower", ON_SETUP, _time("classify.load_model")),
    Metric("classify.save_model_s", "s", "lower", ON_SETUP, _time("classify.save_model")),
    Metric("classify.model_bytes", "bytes", "lower", ON_SETUP,
           _counter("classify.model_bytes")),
    Metric("evaluate.accuracy.logistic", "share", "higher", GUARD, _accuracy("logistic")),
    Metric("evaluate.accuracy.nb", "share", "higher", GUARD, _accuracy("nb")),
    Metric("evaluate.accuracy.svm", "share", "higher", GUARD, _accuracy("svm")),
    Metric("emotion.score_s", "s", "lower", ON_ANALYZE, _time("emotion.score_emotions")),
    Metric("emotion.texts_scored", "count", "lower", ON_ANALYZE,
           _calls("emotion.score_emotions")),
    Metric("emotion.hit_share", "share", "higher", ON_ANALYZE,
           _ratio(_counter("emotion.texts_with_hits"), _calls("emotion.score_emotions"))),
    Metric("report.classify_corpus_s", "s", "lower", ON_ANALYZE,
           _time("report.classify_corpus")),
    Metric("report.build_report_s", "s", "lower", ON_ANALYZE, _time("report.build_report")),
    Metric("report.top_words_s", "s", "lower", ON_ANALYZE, _time("report.top_words")),
    Metric("report.emit_s", "s", "lower", ON_ANALYZE, _time("report.emit_report")),
    Metric("report.stressed_share", "share", "lower", ON_ANALYZE,
           _ratio(_counter("report.stressed"), _counter("report.classified"))),
    Metric("corpus.load_s", "s", "lower", "docs_per_s on all workloads, and fail_ratio",
           _time("corpus.load_labeled_with_summary", "corpus.load_labeled",
                 "corpus.load_posts_with_summary", "corpus.iter_post_rows")),
    Metric("corpus.rows_read", "count", "higher", "docs_per_s on all workloads, and fail_ratio",
           _counter("corpus.rows_read")),
    Metric("corpus.rows_skipped", "count", "lower", "docs_per_s on all workloads, and fail_ratio",
           _counter("corpus.rows_skipped")),
    Metric("annotate.load_s", "s", "lower", ON_ANNOTATE,
           _time("annotate.load_annotations", "annotate.load_weights")),
    Metric("annotate.detect_outliers_s", "s", "lower", ON_ANNOTATE,
           _time("annotate.detect_outliers")),
    Metric("annotate.consensus_s", "s", "lower", ON_ANNOTATE,
           _time("annotate.weighted_consensus")),
    Metric("annotate.kappa_s", "s", "lower", ON_ANNOTATE,
           _time("annotate.binarize_scores", "annotate.fleiss_kappa")),
    Metric("annotate.correlation_s", "s", "lower", ON_ANNOTATE,
           _time("annotate.annotator_correlation")),
    Metric("annotate.excluded_annotators", "count", "lower", ON_ANNOTATE,
           _counter("annotate.excluded_annotators")),
    Metric("cli.import_s", "s", "lower", "setup_s on every workload", _time("cli.import")),
    Metric("cli.self_s", "s", "lower", "docs_per_s on predict-cold", _cli_self),
    Metric("cli.cpu_s", "s", "lower", "docs_per_s on predict-cold",
           lambda runs: sum(r.untraced_cpu for r in runs)),
    Metric("cli.trace_overhead_share", "share", "lower", "docs_per_s on predict-cold",
           lambda runs: sum(r.wall for r in runs) / sum(r.untraced_wall for r in runs) - 1),
    Metric("trace.accounted_share", "share", "higher", "none: span self times over traced wall",
           _accounted),
]


def compute(runs: list[Traced]) -> dict[str, float]:
    return {m.name: m.compute(runs) for m in METRICS}

"""Run one stresskit CLI command in this process, with a span around each
call into a layer.

Usage: python3 tracer.py SPANS_OUT -- <stresskit arguments>

Spans are recorded from this file only: after importing the package, the
public functions listed in LAYERS are replaced, by module attribute, with
wrappers that time each call. Every module binding of a function is
replaced, so a name imported with `from .features import vectorize` is
traced too. Spans stay in memory (name id, parent id, start, end) and are
written to SPANS_OUT when the command returns, never into the command's
own outputs. Counters that describe the input are taken after a span
closes, so their cost lands in the parent's self time and in the measured
tracing overhead, not in the layer's time.
"""

import time

_perf = time.perf_counter
START = _perf()

import array  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# (module, function) pairs wrapped in a span. Porter's step functions and
# textprep.lowercase are left out: they run inside stem_word and
# preprocess_stages, and a span each would multiply the tracing cost.
LAYERS = {
    "porter": ["stem_word"],
    "textprep": ["preprocess", "preprocess_stages", "strip_noncharacters", "tokenize",
                 "remove_stopwords", "stem", "default_stopwords"],
    "features": ["fit_vocabulary", "vectorize"],
    "classify": ["train_logistic", "train_naive_bayes", "train_svm", "predict",
                 "save_model", "load_model"],
    "evaluate": ["confusion", "metrics"],
    "emotion": ["score_emotions", "default_lexicon"],
    "report": ["classify_corpus", "build_report", "top_words", "emit_report",
               "load_group_map", "stress_summary", "monthly_distribution", "upvote_stats",
               "emotion_summary"],
    "corpus": ["load_labeled_with_summary", "load_labeled", "load_posts_with_summary",
               "iter_post_rows"],
    "annotate": ["load_annotations", "load_weights", "detect_outliers", "outlier_rates",
                 "exclude_annotators", "weighted_consensus", "binarize_scores",
                 "fleiss_kappa", "annotator_correlation"],
}
GENERATORS = {"corpus.iter_post_rows"}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.stem_inputs: set[str] = set()

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        nid = self._nid(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        def traced_generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                start.append(0.0)
                end.append(0.0)
                stack.append(sid)
                t0 = _perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = _perf()
                    stack.pop()
                    start[sid] = t0
                    end[sid] = t1
                if after is not None:
                    after(args, kwargs, item)
                yield item

        return traced_generator if name in GENERATORS else traced

    def dump(self, path: str) -> None:
        self.counters["porter.distinct_inputs"] = len(self.stem_inputs)
        with open(path + ".bin", "wb") as handle:
            for array_ in (self.name_id, self.parent, self.start, self.end):
                array_.tofile(handle)
        header = {
            "names": self.names,
            "n_spans": len(self.start),
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def _hooks(rec: Recorder) -> dict:
    """Counters taken after selected layer calls, keyed by span name."""

    def stem(args, kwargs, result):
        rec.stem_inputs.add(args[0])

    def tokenize(args, kwargs, result):
        rec.count("textprep.tokens", len(result))

    def vectorize(args, kwargs, result):
        doc, vocab = args[0], args[1]
        index = vocab.index
        tokens = doc.split()
        rec.count("features.doc_tokens", len(tokens))
        rec.count("features.in_vocab_tokens", sum(1 for t in tokens if t in index))
        rec.counters["features.vocab_size"] = vocab.size

    def fit_vocabulary(args, kwargs, result):
        rec.counters["features.vocab_size"] = result.size

    def train_logistic(args, kwargs, result):
        halvings, lr = 0, result.hyper.learning_rate
        while lr > result.effective_learning_rate:
            lr /= 2.0
            halvings += 1
        rec.count("classify.lr_halvings", halvings)

    def model_file(args, kwargs, result):
        rec.count("classify.model_bytes", os.path.getsize(args[1] if len(args) > 1 else args[0]))

    def metrics(args, kwargs, result):
        rec.counters["evaluate.accuracy"] = result.accuracy

    def score_emotions(args, kwargs, result):
        rec.count("emotion.texts_with_hits", 1 if result.total_hits else 0)

    def classify_corpus(args, kwargs, result):
        rec.count("report.classified", len(result))
        rec.count("report.stressed", sum(item.label for item in result))

    def post_row(args, kwargs, item):
        rec.count("corpus.rows_read")
        if item[2] is None:
            rec.count("corpus.rows_skipped")

    def labeled_summary(args, kwargs, result):
        summary = result[1]
        rec.count("corpus.rows_read", summary.rows_read)
        rec.count("corpus.rows_skipped", summary.rows_skipped)

    def exclude(args, kwargs, result):
        rec.count("annotate.excluded_annotators", args[0].n_annotators - result.n_annotators)

    return {
        "porter.stem_word": stem,
        "textprep.tokenize": tokenize,
        "features.vectorize": vectorize,
        "features.fit_vocabulary": fit_vocabulary,
        "classify.train_logistic": train_logistic,
        "classify.save_model": model_file,
        "classify.load_model": model_file,
        "evaluate.metrics": metrics,
        "emotion.score_emotions": score_emotions,
        "report.classify_corpus": classify_corpus,
        "corpus.iter_post_rows": post_row,
        "corpus.load_labeled_with_summary": labeled_summary,
        "annotate.exclude_annotators": exclude,
    }


def install(rec: Recorder) -> None:
    hooks = _hooks(rec)
    modules = [m for n, m in sys.modules.items() if n.startswith("stresskit") and m is not None]
    for module_name, functions in LAYERS.items():
        module = sys.modules[f"stresskit.{module_name}"]
        for fn_name in functions:
            name = f"{module_name}.{fn_name}"
            original = getattr(module, fn_name)
            wrapped = rec.wrap(name, original, hooks.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS_OUT -- <stresskit arguments>", file=sys.stderr)
        return 64
    spans_out, argv = sys.argv[1], sys.argv[3:]
    rec = Recorder()
    root = rec.open("cli")
    rec.start[root] = START
    imported = rec.open("cli.import")
    rec.start[imported] = _perf()
    from stresskit import cli

    rec.end[imported] = _perf()
    rec.stack.pop()
    install(rec)
    try:
        code = cli.main(argv)
    finally:
        rec.end[root] = _perf()
        rec.stack.pop()
    sys.stdout.flush()
    rec.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())

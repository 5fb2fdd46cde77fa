"""Command-line entry point: train, predict, analyze, annotate, emotions,
stats. Each command loads only the package modules it reads.

Exit codes are a stable contract: 0 success, 2 data error, 64 usage error.
All randomness is seeded via --seed (default 42) and recorded in outputs.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import logging
import math
import os
import sys
import time
import warnings

from .errors import StressKitError, atomic_outputs, output_directory

# The package modules but this one and errors, registered in sys.modules and on the
# package unexecuted (`from . import name` then binds it); each runs on first access.
LAZY_MODULES = ("annotate", "classify", "corpus", "emotion", "evaluate", "features", "porter",
                "report", "textprep")


def _register_lazily() -> None:
    for name in LAZY_MODULES:
        qualified = f"{__package__}.{name}"
        if qualified not in sys.modules:  # one imported already is bound as it is
            spec = importlib.util.find_spec(qualified)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            sys.modules[qualified] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[qualified])
        setattr(sys.modules[__package__], name, sys.modules[qualified])


_register_lazily()
from . import annotate, classify, corpus, emotion, evaluate, report, textprep  # noqa: E402

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64


class Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _threshold(text: str) -> float:
    value = _finite_float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("threshold must be in (0, 1]")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be greater than 0")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _nonnegative_int(text: str, least: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:  # worded as argparse words a bad `type=int` value
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError("must be a positive integer" if least
                                         else "must not be negative")
    return value


def _positive_int(text: str) -> int:
    return _nonnegative_int(text, least=1)


def build_parser() -> Parser:
    parser = Parser(prog="stresskit", description=__doc__)
    # Each subcommand takes only the shared options its handler reads.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_nonnegative_int, default=42, help="RNG seed (default 42)")
    loading = argparse.ArgumentParser(add_help=False)
    loading.add_argument("--stopwords", metavar="FILE",
                         help="stopword list (default: vendored 179-word English list)")
    loading.add_argument("--summary", action="store_true",
                         help="print the load summary as a JSON object")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p = sub.add_parser("train", parents=[seeded, loading],
                       help="train a classifier on a labeled CSV")
    p.add_argument("train_csv")
    p.add_argument("--classifier", choices=("logistic", "nb", "svm"), default="logistic")
    p.add_argument("--features", choices=("bow", "tfidf"), default="bow")
    p.add_argument("--model-out", default="model.json")
    p.add_argument("--eval", dest="eval_csv", help="held-out labeled CSV to evaluate on")
    p.add_argument("--lr", type=_positive_float, default=0.1, help="logistic learning rate")
    p.add_argument("--epochs", type=_positive_int, default=500, help="logistic epochs")
    p.add_argument("--l2", type=_nonnegative_float, default=1e-4, help="logistic L2 strength")
    p.add_argument("--alpha", type=_positive_float, default=1.0, help="naive bayes smoothing")
    p.add_argument("--lam", type=_positive_float, default=1e-4, help="svm regularization")
    p.add_argument("--svm-epochs", type=_positive_int, default=10,
                   help="svm passes over the data")
    p.add_argument("--min-df", type=_positive_int, default=1)
    p.add_argument("--max-vocab", type=_positive_int, default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", parents=[loading], help="classify a posts CSV")
    p.add_argument("model")
    p.add_argument("posts_csv")
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("analyze", parents=[seeded, loading],
                       help="classify a posts CSV and emit the stress report")
    p.add_argument("model")
    p.add_argument("posts_csv")
    p.add_argument("--format", choices=("json", "csv", "both"), default="both",
                   help="report output format")
    p.add_argument("--mapping", help="community,group CSV (default: built-in academic mapping)")
    p.add_argument("--lexicon", help="emotion lexicon TSV (default: vendored)")
    p.add_argument("--out-dir", default="reports")
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("annotate", help="aggregate an annotation sheet into consensus labels")
    p.add_argument("annotations_csv")
    p.add_argument("--weights", help="annotator_id,weight CSV (default: all 1.0)")
    p.add_argument("--threshold", type=_threshold, default=0.40,
                   help="annotator outlier-rate exclusion threshold (default 0.40)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=cmd_annotate)

    p = sub.add_parser("emotions", help="emotion-profile a CSV of texts or posts")
    p.add_argument("input_csv")
    p.add_argument("--lexicon", help="emotion lexicon TSV (default: vendored)")
    p.add_argument("--out", default="emotions.csv")
    p.set_defaults(handler=cmd_emotions)

    p = sub.add_parser("stats", parents=[loading], help="corpus statistics for a posts CSV")
    p.add_argument("posts_csv")
    p.set_defaults(handler=cmd_stats)

    return parser


def _token_table(args) -> textprep.TokenTable:
    """The run's preprocessing, from --stopwords or the vendored list."""
    return textprep.TokenTable(textprep.load_stopwords(args.stopwords) if args.stopwords
                               else textprep.default_stopwords())


def _lexicon(args) -> emotion.EmotionLexicon:
    if args.lexicon:
        return emotion.load_lexicon(args.lexicon)
    return emotion.default_lexicon()


def cmd_train(args) -> int:
    table = _token_table(args)  # one for the training and the eval rows
    examples, summary = corpus.load_labeled_with_summary(args.train_csv)
    if args.summary:
        print(summary.to_json())
    held_out = None
    if args.eval_csv:  # read before training, so a bad file leaves no model behind
        held_out = corpus.load_labeled(args.eval_csv)
        if not held_out:
            raise StressKitError(f"{args.eval_csv}: no labeled rows with text to evaluate on")
    hyper = {
        "logistic": classify.LogisticHyper(
            learning_rate=args.lr, epochs=args.epochs, l2=args.l2, seed=args.seed),
        "nb": classify.NaiveBayesHyper(alpha=args.alpha),
        "svm": classify.SvmHyper(lam=args.lam, epochs=args.svm_epochs, seed=args.seed),
    }[args.classifier]
    docs = [table.stems(textprep.surface_tokens(ex.text)) for ex in examples]
    started = time.perf_counter()
    model = classify.train(docs, [ex.label for ex in examples], hyper,
                           feature_kind=args.features, min_df=args.min_df,
                           max_size=args.max_vocab, fingerprint=table.fingerprint())
    elapsed = time.perf_counter() - started
    with atomic_outputs(args.model_out) as [partial]:
        classify.save_model(model, partial)
    print(f"trained {args.classifier} ({args.features}) on {len(examples)} examples, "
          f"vocabulary {model.vocabulary.size}, {elapsed:.1f}s -> {args.model_out}")
    if held_out is not None:
        predicted = [
            classify.predict_stems(model, table.stems(textprep.surface_tokens(ex.text))).label
            for ex in held_out]
        rep = evaluate.metrics(evaluate.confusion(predicted, [ex.label for ex in held_out]))
        feature_name = "BoW" if args.features == "bow" else "TF-IDF"
        clf_name = {"logistic": "Logistic Regression", "nb": "Naive Bayes", "svm": "SVM"}
        print(evaluate.render_table([(feature_name, clf_name[args.classifier], rep)]))
        matrix = rep.matrix
        print(f"confusion: TP={matrix.tp} FP={matrix.fp} TN={matrix.tn} FN={matrix.fn}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = classify.load_model(args.model)
    table = _token_table(args)
    classify.check_fingerprint(model, table)
    summary = corpus.LoadSummary()
    with corpus.open_rows(args.posts_csv, corpus.POST_COLUMNS) as reader, \
            atomic_outputs(args.out) as [partial], \
            open(partial, "w", newline="", encoding="utf-8") as handle:
        fieldnames = reader.fieldnames
        writer = csv.writer(handle)
        writer.writerow([*fieldnames, "label", "probability"])
        for _, raw, record in corpus.iter_post_rows(reader, args.posts_csv, summary):
            cells = [raw.get(f, "") for f in fieldnames]
            if record is None:
                writer.writerow([*cells, "", ""])
            else:
                pred = classify.predict_stems(
                    model, table.stems(textprep.surface_tokens(record.text)))
                writer.writerow([*cells, pred.label, repr(pred.score)])
    if args.summary:
        print(summary.to_json())
    print(f"wrote {args.out} ({summary.rows_kept} classified, {summary.rows_skipped} skipped)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    with output_directory(args.out_dir) as outdir:
        group_map = (report.load_group_map(args.mapping) if args.mapping
                     else dict(report.DEFAULT_GROUP_MAP))
        lexicon = _lexicon(args)
        model = classify.load_model(args.model)
        table = _token_table(args)
        classify.check_fingerprint(model, table)
        summary = corpus.LoadSummary()
        with corpus.open_rows(args.posts_csv, corpus.POST_COLUMNS) as reader:
            rows = corpus.iter_post_rows(reader, args.posts_csv, summary)
            posts = (rec for _, _, rec in rows if rec is not None)
            result = report.build_report(
                report.classified_posts(model, posts, table, lexicon=lexicon), group_map,
                table=table, lexicon=lexicon, top_n=args.top_n, model_kind=model.kind,
                model_fingerprint=model.pipeline_fingerprint, seed=args.seed)
        if args.summary:
            print(summary.to_json())
        written = report.emit_report(result, args.format, outdir)
    print(f"{'group':<24}{'total':>8}{'stressed':>10}{'stressed%':>11}{'not%':>8}")
    for g in result["groups"]:
        print(f"{g['name']:<24}{g['total']:>8}{g['stressed']:>10}{g['stressed_pct']:>11.1f}"
              f"{g['not_stressed_pct']:>8.1f}")
    print(f"mean stress level: {result['overall']['mean_stress_pct']}%")
    print("wrote: " + ", ".join(str(p) for p in written))
    return EXIT_OK


def cmd_annotate(args) -> int:
    with output_directory(args.out_dir) as outdir:
        weights = annotate.load_weights(args.weights) if args.weights else None
        matrix = annotate.load_annotations(args.annotations_csv, weights)
        consensus = annotate.aggregate(matrix, args.threshold)
        excluded = [{"annotator": a, "rate": rate} for a, rate in consensus.excluded]
        kappa = annotate.fleiss_kappa(annotate.binarize_scores(consensus.kept))
        correlations = annotate.annotator_correlation(matrix)
        consensus_path, summary_path = outdir / "consensus.csv", outdir / "annotation_summary.json"
        summary = {
            "excluded": excluded,
            "kappa": kappa,
            "correlations": {
                "annotators": list(matrix.annotator_ids),
                "matrix": correlations,
            },
            "metadata": {
                "threshold": args.threshold,
                "kappa_basis": "binarized (score < 0 -> stressed)",
                "weights_in_outlier_rule": False,
            },
        }
        with atomic_outputs(consensus_path, summary_path) as [consensus_partial, summary_partial]:
            with open(consensus_partial, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["item_id", "weighted_mean", "label", "n_scores"])
                writer.writerows(zip(consensus.item_ids, map(repr, consensus.means),
                                     consensus.labels, consensus.n_scores))
            summary_partial.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"items: {matrix.n_items}, annotators kept: {consensus.kept.n_annotators}/"
          f"{matrix.n_annotators}, kappa: {kappa:.4f}")
    for entry in excluded:
        print(f"excluded: {entry['annotator']} (outlier rate {entry['rate']:.0%})")
    print(f"wrote: {consensus_path}, {summary_path}")
    return EXIT_OK


def cmd_emotions(args) -> int:
    lexicon = _lexicon(args)
    affects = ("anger", "fear", "sadness", "disgust", "surprise")
    with corpus.open_rows(args.input_csv, ("text",)) as reader, \
            atomic_outputs(args.out) as [partial], \
            open(partial, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", *affects, "prevailing"])
        for rownum, row in enumerate(reader, start=2):
            profile = emotion.score_emotions(textprep.surface_tokens(corpus.post_text(row)),
                                             lexicon)
            prevailing = emotion.prevailing_emotion(profile)
            writer.writerow([corpus.cell(row, "id") or str(rownum - 1),
                             *(repr(profile.get(a)) for a in affects), prevailing or ""])
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    table = _token_table(args)
    summary = corpus.LoadSummary()
    with corpus.open_rows(args.posts_csv, corpus.POST_COLUMNS) as reader:
        rows = corpus.iter_post_rows(reader, args.posts_csv, summary)
        stats = corpus.corpus_stats((rec for _, _, rec in rows if rec is not None), table)
    if args.summary:
        print(summary.to_json())
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    # Before numpy loads: OpenBLAS would start a thread pool that the small
    # array work here never uses. A value the user set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.handler(args)
        except (StressKitError, OSError) as exc:
            if isinstance(exc, OSError) and exc.filename is not None:
                exc = f"{exc.filename}: {exc.strerror}"  # as an input's error reads
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

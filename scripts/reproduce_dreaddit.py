#!/usr/bin/env python3
"""Reproduce the headline Dreaddit numbers with the from-scratch pipeline.

The Dreaddit corpus is not redistributable with this repository. Download
dreaddit-train.csv and dreaddit-test.csv (3,553 labeled posts in total)
and place them under data/dreaddit/, or point DREADDIT_DIR at them:

    DREADDIT_DIR=/path/to/dreaddit python scripts/reproduce_dreaddit.py

Trains BoW + {logistic regression, naive bayes, svm} on the train split
through `classify.train`, the path `stresskit train --eval` takes with its
default options, and prints the metrics table for the test split.
Reference points: logistic 77.78% accuracy / 0.79 F1, naive bayes 71.31%,
svm 69.90%.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from stresskit import classify, corpus, evaluate, textprep


def locate() -> tuple[Path, Path]:
    base = Path(os.environ.get("DREADDIT_DIR", Path(__file__).resolve().parent.parent / "data" / "dreaddit"))
    train, test = base / "dreaddit-train.csv", base / "dreaddit-test.csv"
    if not train.exists() or not test.exists():
        sys.exit(
            f"Dreaddit files not found under {base}.\n"
            "Place dreaddit-train.csv and dreaddit-test.csv there or set DREADDIT_DIR."
        )
    return train, test


def main() -> None:
    train_path, test_path = locate()
    train = corpus.load_labeled(train_path)
    test = corpus.load_labeled(test_path)
    print(f"train: {len(train)} examples, test: {len(test)} examples")

    started = time.perf_counter()
    table = textprep.TokenTable(textprep.default_stopwords())  # as `stresskit train --eval` does
    train_docs = [table.stems(textprep.surface_tokens(ex.text)) for ex in train]
    test_docs = [table.stems(textprep.surface_tokens(ex.text)) for ex in test]
    labels, actual = [ex.label for ex in train], [ex.label for ex in test]

    rows = []
    for name, hyper in (("Logistic Regression", classify.LogisticHyper()),
                        ("Naive Bayes", classify.NaiveBayesHyper()),
                        ("SVM", classify.SvmHyper())):
        model = classify.train(train_docs, labels, hyper, fingerprint=table.fingerprint())
        predicted = [classify.predict_stems(model, doc).label for doc in test_docs]
        rows.append(("BoW", name, evaluate.metrics(evaluate.confusion(predicted, actual))))
    print(f"vocabulary: {model.vocabulary.size} tokens")
    print(evaluate.render_table(rows))
    print(f"total time: {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()

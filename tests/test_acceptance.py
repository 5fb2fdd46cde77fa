"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criteria 1 and 2 evaluate the real Dreaddit benchmark and therefore need
the corpus on disk (data/dreaddit/ or $DREADDIT_DIR); they fail with
instructions when it is absent rather than silently passing. Everything
else runs self-contained on bundled fixtures and computed oracles.
"""

import csv
import json
import math
import os
import random
import sys
import time
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from stresskit import (annotate, classify, cli, corpus, emotion, evaluate, porter, report,
                       textprep)

from annotate_reference import kappa_tallies, matrix_from_rows
from conftest import FIXTURES, REPO_ROOT, load_script

DREADDIT_DIR = Path(os.environ.get("DREADDIT_DIR", REPO_ROOT / "data" / "dreaddit"))

MISSING_DREADDIT = (
    f"Dreaddit corpus not found under {DREADDIT_DIR}. Download dreaddit-train.csv and "
    "dreaddit-test.csv (the public 3,553-post labeled split), place them there or set "
    "DREADDIT_DIR, then rerun. This benchmark cannot run without the corpus and is "
    "reported as FAILED, not skipped, so its absence stays visible."
)


def outcome(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def dreaddit_pipeline(stopwords, *hypers):
    """One test-split metrics report per hyper, each model trained on the
    train split by classify.train."""
    train = corpus.load_labeled(DREADDIT_DIR / "dreaddit-train.csv")
    test = corpus.load_labeled(DREADDIT_DIR / "dreaddit-test.csv")
    assert len(train) == 2838, f"expected 2838 training rows, got {len(train)}"
    assert len(test) == 715, f"expected 715 test rows, got {len(test)}"
    table = textprep.TokenTable(stopwords)  # as `stresskit train --eval` reads text
    train_docs = [table.stems(textprep.surface_tokens(ex.text)) for ex in train]
    test_docs = [table.stems(textprep.surface_tokens(ex.text)) for ex in test]
    actual = [ex.label for ex in test]
    reports = []
    for hyper in hypers:
        model = classify.train(train_docs, [ex.label for ex in train], hyper)
        # independent distinct-token recount over the same preprocessed corpus
        assert model.vocabulary.size == len({t for doc in train_docs for t in doc})
        predicted = [classify.predict_stems(model, doc).label for doc in test_docs]
        reports.append(evaluate.metrics(evaluate.confusion(predicted, actual)))
    return reports


@pytest.mark.dreaddit
def test_criterion_1_dreaddit_logistic_reproduction(stopwords):
    if not (DREADDIT_DIR / "dreaddit-train.csv").exists():
        outcome(1, False, "Dreaddit corpus unavailable")
        pytest.fail(MISSING_DREADDIT)
    started = time.perf_counter()
    [rep] = dreaddit_pipeline(stopwords, classify.LogisticHyper())
    elapsed = time.perf_counter() - started
    accuracy_pct = 100 * rep.accuracy
    ok = abs(accuracy_pct - 77.78) <= 3.0 and abs(rep.f1 - 0.79) <= 0.05 and elapsed < 180
    outcome(1, ok, f"logistic accuracy {accuracy_pct:.2f}% (target 77.78 +/- 3.0), "
                   f"F1 {rep.f1:.4f} (target 0.79 +/- 0.05), {elapsed:.0f}s")
    assert abs(accuracy_pct - 77.78) <= 3.0
    assert abs(rep.f1 - 0.79) <= 0.05
    assert elapsed < 180


@pytest.mark.dreaddit
def test_criterion_2_dreaddit_secondary_classifiers(stopwords):
    if not (DREADDIT_DIR / "dreaddit-train.csv").exists():
        outcome(2, False, "Dreaddit corpus unavailable")
        pytest.fail(MISSING_DREADDIT)
    nb, svm = dreaddit_pipeline(stopwords, classify.NaiveBayesHyper(), classify.SvmHyper())
    nb_acc, svm_acc = 100 * nb.accuracy, 100 * svm.accuracy
    ok = abs(nb_acc - 71.31) <= 3.0 and abs(svm_acc - 69.90) <= 4.0
    outcome(2, ok, f"naive bayes {nb_acc:.2f}% (71.31 +/- 3.0), svm {svm_acc:.2f}% (69.90 +/- 4.0)")
    assert abs(nb_acc - 71.31) <= 3.0
    assert abs(svm_acc - 69.90) <= 4.0


def test_criterion_3_metrics_oracle():
    rng = random.Random(123)
    predicted = [rng.randint(0, 1) for _ in range(1000)]
    actual = [rng.randint(0, 1) for _ in range(1000)]
    rep = evaluate.metrics(evaluate.confusion(predicted, actual))
    tp = sum(1 for p, a in zip(predicted, actual) if p == 1 and a == 1)
    fp = sum(1 for p, a in zip(predicted, actual) if p == 1 and a == 0)
    tn = sum(1 for p, a in zip(predicted, actual) if p == 0 and a == 0)
    fn = sum(1 for p, a in zip(predicted, actual) if p == 0 and a == 1)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall)
    accuracy = (tp + tn) / 1000
    worst = max(
        abs(rep.precision - precision),
        abs(rep.recall - recall),
        abs(rep.f1 - f1),
        abs(rep.accuracy - accuracy),
    )
    outcome(3, worst <= 1e-12, f"1000 random pairs, max deviation {worst:.2e} (<= 1e-12)")
    assert (rep.matrix.tp, rep.matrix.fp, rep.matrix.tn, rep.matrix.fn) == (tp, fp, tn, fn)
    assert worst <= 1e-12


def test_criterion_4_logistic_gradient_check():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 12))
        V = int(rng.integers(2, 8))
        examples = []
        for k in range(n):
            vec = {i: float(v) for i, v in enumerate(rng.integers(0, 4, size=V)) if v}
            examples.append((vec, int(k % 2)))
        X, y = classify._assemble(examples, V)
        bias = float(rng.normal())
        coef = rng.normal(size=V)
        l2 = float(rng.uniform(0, 1e-2))

        def loss(bias, coef):  # as train_logistic evaluates it
            return classify.logistic_objective(X.dot(coef) + bias, coef, y, l2)

        gb, gw = classify.logistic_gradient(X.dot(coef) + bias, coef, X, y, l2)
        h = 1e-5
        analytic = np.concatenate(([gb], gw))
        fd = np.empty(V + 1)
        fd[0] = (loss(bias + h, coef) - loss(bias - h, coef)) / (2 * h)
        for i in range(V):
            bump = np.zeros(V)
            bump[i] = h
            fd[i + 1] = (loss(bias, coef + bump) - loss(bias, coef - bump)) / (2 * h)
        rel = float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))))
        worst = max(worst, rel)
    outcome(4, worst < 1e-6, f"20 instances, worst relative gradient error {worst:.2e} (< 1e-6)")
    assert worst < 1e-6


def test_criterion_5_annotation_suite():
    # outlier rule on the hand example
    matrix = matrix_from_rows([(5, 5, -5)], annotators=("a", "b", "c"), item_ids=("i",))
    flags = annotate.detect_outliers(matrix)
    assert flags == [[True], [True], [True]]  # one list per annotator

    # exclusion thresholds at 41% and 39%
    big = matrix_from_rows([(1, 1)] * 100, annotators=("keep", "probe"),
                           item_ids=tuple(f"x{j}" for j in range(100)))
    flags41 = [[False] * 100, [j < 41 for j in range(100)]]
    kept = annotate.exclude_annotators(big, annotate.outlier_rates(big, flags41), 0.40)
    assert kept.annotator_ids == ("keep",)
    flags39 = [[False] * 100, [j < 39 for j in range(100)]]
    kept = annotate.exclude_annotators(big, annotate.outlier_rates(big, flags39), 0.40)
    assert kept.annotator_ids == ("keep", "probe")

    # weighted consensus example
    consensus = annotate.weighted_consensus(
        matrix_from_rows([(-4, 1)], weights=(2.0, 1.0), annotators=("p", "q"), item_ids=("i",))
    )
    assert consensus.means[0] == pytest.approx(-7 / 3, abs=1e-12)
    assert consensus.labels[0] == 1

    # Fleiss kappa: hand table and unanimity
    hand = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]]
    kappa = annotate.fleiss_kappa(kappa_tallies(hand))
    assert abs(kappa - 1 / 3) < 1e-9
    unanimous = [[0, 0, 0], [1, 1, 1], [0, 0, 0]]
    assert annotate.fleiss_kappa(kappa_tallies(unanimous)) == pytest.approx(1.0)
    outcome(5, True, f"outlier flags, 41%/39% exclusion, consensus -7/3, kappa {kappa:.9f}")


def test_criterion_6_preprocessing_oracle():
    from test_porter import (
        REFERENCE_OUT,
        REFERENCE_VOC,
        STEP1A,
        STEP1B,
        STEP1C,
        STEP2,
        STEP3,
        STEP4,
        STEP5A,
        STEP5B,
    )

    steps = [
        (porter.step1a, STEP1A), (porter.step1b, STEP1B), (porter.step1c, STEP1C),
        (porter.step2, STEP2), (porter.step3, STEP3), (porter.step4, STEP4),
        (porter.step5a, STEP5A), (porter.step5b, STEP5B),
    ]
    checked = 0
    for step, pairs in steps:
        for word, expected in pairs:
            assert step(word) == expected, f"{step.__name__}({word!r})"
            checked += 1
    for word, expected in zip(REFERENCE_VOC, REFERENCE_OUT):
        assert porter.stem_word(word) == expected, word
        checked += 1

    rng = random.Random(0)
    pools = [
        (0x20, 0x7E),      # printable ascii
        (0xA0, 0xFF),      # latin-1 supplement
        (0x100, 0x17F),    # latin extended
        (0x370, 0x3FF),    # greek
        (0x4E00, 0x4FFF),  # cjk sample
        (0x1F300, 0x1F64F),  # emoji
    ]

    def random_string():
        n = rng.randint(0, 60)
        chars = []
        for _ in range(n):
            lo, hi = rng.choice(pools)
            chars.append(chr(rng.randint(lo, hi)))
        return "".join(chars)

    for _ in range(10_000):
        text = random_string()
        lowered = textprep.lowercase(text)
        assert textprep.lowercase(lowered) == lowered
        stripped = textprep.strip_noncharacters(text)
        assert textprep.strip_noncharacters(stripped) == stripped
    outcome(6, True, f"{checked} published stemmer pairs exact; idempotence on 10,000 strings")


def test_criterion_7_report_arithmetic(stopwords):
    posts = corpus.load_posts_with_summary(FIXTURES / "posts_100.csv")[0]
    assert len(posts) == 100
    group_map = report.load_group_map(FIXTURES / "communities.csv")
    # known labels: every even-positioned row (file order) is stressed
    lexicon = emotion.default_lexicon()
    classified = [
        report.ClassifiedPost(post=p, label=1 if i % 2 == 0 else 0,
                              tokens=tuple(textprep.preprocess(p.text, stopwords).split()),
                              emotions=emotion.score_emotions(textprep.surface_tokens(p.text),
                                                              lexicon) if i % 2 == 0 else None)
        for i, p in enumerate(posts)
    ]
    whole = report.GroupTally()  # the corpus as one group
    for item in classified:
        whole.add(item)

    # --- stress percentages against a brute-force recount
    summary = {name: report.stress_summary(tally)
               for name, tally in report.tally_groups(classified, group_map).items()}
    brute: dict[str, list[int]] = {}
    for item in classified:
        name = group_map.get(item.post.community, "other")
        total_stressed = brute.setdefault(name, [0, 0])
        total_stressed[0] += 1
        total_stressed[1] += item.label
    for name, (total, stressed) in brute.items():
        assert summary[name]["total"] == total
        assert summary[name]["stressed"] == stressed
        assert summary[name]["stressed_pct"] == round(100 * stressed / total, 1)

    # --- monthly buckets, September first
    order = ["Sep", "Oct", "Nov", "Dec", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug"]
    month_name = {9: "Sep", 10: "Oct", 11: "Nov", 12: "Dec", 1: "Jan", 2: "Feb",
                  3: "Mar", 4: "Apr", 5: "May", 6: "Jun", 7: "Jul", 8: "Aug"}
    series = report.monthly_distribution(whole)
    counted = Counter(month_name[c.post.date.month] for c in classified if c.label == 1)
    assert series["monthly"] == [counted.get(m, 0) for m in order]
    assert sum(series["monthly"]) == 50

    # --- upvote stats: mean/median/std against direct recomputation;
    #     the even class realizes a .5 median under mean-of-two
    stats = report.upvote_stats(whole)
    stressed_scores = sorted(c.post.score for c in classified if c.label == 1)
    not_scores = sorted(c.post.score for c in classified if c.label == 0)
    assert len(stressed_scores) == 50
    mid = (stressed_scores[24] + stressed_scores[25]) / 2
    assert stats["stressed"]["median"] == mid == 0.5
    assert stats["stressed"]["median"] % 1 == 0.5  # genuinely fractional
    assert stats["stressed"]["mean"] == sum(stressed_scores) / 50
    assert stats["stressed"]["std"] == pytest.approx(
        math.sqrt(sum((s - stats["stressed"]["mean"]) ** 2 for s in stressed_scores) / 50),
        abs=1e-12,
    )
    assert stats["not_stressed"]["median"] == (not_scores[24] + not_scores[25]) / 2

    # --- top words against an independent counter
    words = Counter()
    for item in classified:
        if item.label == 1:
            words.update(textprep.preprocess(item.post.text, stopwords).split())
    expected = sorted(words.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert report.top_words(whole, 10) == expected

    # --- whole-percent mean of the reference group percentages
    assert report.mean_stress_pct([29.3, 31.1, 24.8, 30.5]) == 29
    outcome(7, True, "percentages, monthly buckets, upvotes (.5 median), top words all match")


def test_criterion_8_cli_determinism(tmp_path):
    def run_all(workdir: Path) -> None:
        workdir.mkdir()
        model = workdir / "model.json"
        assert cli.main([
            "train", str(FIXTURES / "labeled_train.csv"), "--model-out", str(model)
        ]) == 0
        assert cli.main([
            "analyze", str(model), str(FIXTURES / "posts_100.csv"),
            "--mapping", str(FIXTURES / "communities.csv"),
            "--out-dir", str(workdir / "reports"),
        ]) == 0

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    model_a = (tmp_path / "a" / "model.json").read_bytes()
    model_b = (tmp_path / "b" / "model.json").read_bytes()
    assert model_a == model_b
    for name in ("summary.csv", "monthly.csv", "upvotes.csv", "top_words.csv", "emotions.csv"):
        a = (tmp_path / "a" / "reports" / name).read_bytes()
        b = (tmp_path / "b" / "reports" / name).read_bytes()
        assert a == b, name
    report_a = json.loads((tmp_path / "a" / "reports" / "report.json").read_text())
    report_b = json.loads((tmp_path / "b" / "reports" / "report.json").read_text())
    report_a["metadata"].pop("generated_at")
    report_b["metadata"].pop("generated_at")
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)
    outcome(8, True, "train + analyze byte-identical across runs (timestamp excluded)")


def test_criterion_9_end_to_end_demo(tmp_path, monkeypatch):
    """Corpus-scale reference statistics depend on a particular private
    scrape and annotation sheets and cannot be re-derived at desk scale;
    the documented demo (scripts/run_demo.py) runs the full workflow on the
    bundled synthetic fixtures instead."""
    monkeypatch.setattr(sys, "argv", ["run_demo.py", str(tmp_path)])
    load_script("scripts/run_demo.py").main()  # exits on the first failing command
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    tables = ("report.json", "summary.csv", "monthly.csv", "upvotes.csv", "top_words.csv",
              "emotions.csv")
    assert written == {"model.json", "predictions.csv", "emotion_profiles.csv",
                       "annotation/consensus.csv", "annotation/annotation_summary.json",
                       *(f"reports/{name}" for name in tables)}

    document = json.loads((tmp_path / "reports" / "report.json").read_text())
    assert len(document["groups"]) == 4
    for group in document["groups"]:
        assert 0 <= group["stressed"] <= group["total"]
        assert group["stressed_pct"] + group["not_stressed_pct"] == pytest.approx(100.0, abs=0.1)
        assert len(group["monthly"]) == 12
        assert len(group["top_words"]) <= 10
    annotation = json.loads((tmp_path / "annotation" / "annotation_summary.json").read_text())
    assert -1.0 <= annotation["kappa"] <= 1.0
    with open(tmp_path / "predictions.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 101
    outcome(9, True, "full train/predict/analyze/annotate/emotions workflow on fixtures")


def test_criterion_10_bow_logistic_on_human_annotated_data(tmp_path):
    """The paper's second experiment at fixture scale: a logistic/BoW model
    trained on the labeled corpus predicts the consensus labels that the
    annotation sheet's annotators agree on, from each item's text."""
    model_path = tmp_path / "model.json"
    assert cli.main(["train", str(FIXTURES / "labeled_train.csv"), "--classifier", "logistic",
                     "--features", "bow", "--model-out", str(model_path)]) == 0
    model = classify.load_model(model_path)
    consensus = annotate.aggregate(annotate.load_annotations(FIXTURES / "annotations.csv"))
    with open(FIXTURES / "annotations.csv", newline="", encoding="utf-8") as handle:
        texts = {row["item_id"]: row["text"] for row in csv.DictReader(handle)}
    table = textprep.TokenTable(textprep.default_stopwords())
    predicted = [
        classify.predict_stems(model, table.stems(textprep.surface_tokens(texts[item]))).label
        for item in consensus.item_ids]
    actual = list(consensus.labels)
    recount = Counter(zip(predicted, actual))  # (predicted, actual) pairs counted by hand
    matrix = evaluate.confusion(predicted, actual)
    assert (matrix.tp, matrix.fp, matrix.tn, matrix.fn) == (
        recount[1, 1], recount[1, 0], recount[0, 0], recount[0, 1]) == (9, 0, 10, 1)
    accuracy = evaluate.metrics(matrix).accuracy
    majority = max(actual.count(0), actual.count(1)) / len(actual)
    assert accuracy == pytest.approx(0.95) and majority == 0.5
    outcome(10, True, f"logistic/BoW on {len(actual)} consensus items: accuracy {accuracy:.2f} "
                      f"against a majority share of {majority:.2f}")


# Planted stressed rates per community, one community per group, in the
# paper's order from least to most stressed.
PLANTED_RATES = {"r/csMajors": ("Bachelor students", 0.25),
                 "r/GradSchool": ("Graduate students", 0.30),
                 "r/PhD": ("PhD students", 0.33),
                 "r/Professors": ("Professors", 0.40)}
PLANTED_Z_BOUND = 3.0  # |z| allowed per group, fixed before the first run


def write_planted_posts(path, gen, vocab, per_group, rng):
    """`per_group` posts per community of PLANTED_RATES, exactly round(rate *
    per_group) of them stressed, in shuffled order. Each post is a body
    drawn as gen.write_labeled draws a labeled row's text, so the held-out
    labeled rows measure the classifier on the posts' own distribution."""
    start = datetime(2022, 9, 1, tzinfo=timezone.utc)
    rows = []
    for community, (_, rate) in PLANTED_RATES.items():
        n_stressed = round(rate * per_group)
        for stressed in [True] * n_stressed + [False] * (per_group - n_stressed):
            text = gen.make_text(rng, vocab, stressed, rng.randint(70, 130))[0]
            date = start + timedelta(days=rng.randint(0, 364))
            rows.append([date.isoformat(), "", text, rng.randint(-20, 300), community])
    rng.shuffle(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "title", "text", "score", "community"])
        writer.writerows(rows)


def test_criterion_11_group_shares_recover_planted_rates(tmp_path, capsys):
    """train -> analyze recovers a planted group structure. A logistic/BoW
    model's TPR and FPR, measured by `train --eval` on held-out generated
    rows, predict each group's stressed share in `analyze` as
    p*TPR + (1-p)*FPR for the planted rate p, within PLANTED_Z_BOUND standard
    errors (the group's binomial error plus that of the TPR/FPR estimates),
    and the groups rank as planted."""
    gen = load_script("perfbench/gen.py")
    vocab = gen.Vocabulary()
    rng = random.Random("planted-group-rates")
    train, held_out, posts = (tmp_path / f"{name}.csv" for name in ("train", "held_out", "posts"))
    gen.write_labeled(train, vocab, 1500, rng, gen.TextStats())
    gen.write_labeled(held_out, vocab, 2000, rng, gen.TextStats())
    per_group = 2000
    write_planted_posts(posts, gen, vocab, per_group, rng)
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("community,group\n" + "".join(
        f"{c},{g}\n" for c, (g, _) in PLANTED_RATES.items()), encoding="utf-8")

    model = tmp_path / "model.json"
    assert cli.main(["train", str(train), "--eval", str(held_out),
                     "--model-out", str(model)]) == 0
    confusion = dict(
        (key, int(value)) for key, value in
        (pair.split("=") for pair in capsys.readouterr().out.split("confusion: ")[1].split()))
    n_pos, n_neg = confusion["TP"] + confusion["FN"], confusion["FP"] + confusion["TN"]
    tpr, fpr = confusion["TP"] / n_pos, confusion["FP"] / n_neg
    assert cli.main(["analyze", str(model), str(posts), "--mapping", str(mapping),
                     "--format", "json", "--out-dir", str(tmp_path / "reports")]) == 0
    groups = {g["name"]: g for g in json.loads(
        (tmp_path / "reports" / "report.json").read_text(encoding="utf-8"))["groups"]}

    shares, zs = {}, {}
    for group, p in PLANTED_RATES.values():
        assert groups[group]["total"] == per_group
        observed = groups[group]["stressed"] / per_group
        expected = p * tpr + (1 - p) * fpr
        variance = ((p * tpr * (1 - tpr) + (1 - p) * fpr * (1 - fpr)) / per_group
                    + p * p * tpr * (1 - tpr) / n_pos + (1 - p) ** 2 * fpr * (1 - fpr) / n_neg)
        shares[group], zs[group] = observed, (observed - expected) / math.sqrt(variance)
    detail = ", ".join(f"{g} {shares[g]:.3f} (z {zs[g]:+.2f})" for g in shares)
    assert all(abs(z) <= PLANTED_Z_BOUND for z in zs.values()), detail
    assert sorted(shares, key=shares.get) == list(shares), detail
    outcome(11, True, f"TPR {tpr:.3f}, FPR {fpr:.3f}; {detail}")

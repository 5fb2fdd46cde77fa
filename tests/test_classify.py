import ast
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stresskit import classify, corpus, textprep
from stresskit.classify import (
    MODEL_FORMAT_VERSION,
    LinearModel,
    LogisticHyper,
    NaiveBayesHyper,
    SvmHyper,
    decision_value,
    load_model,
    logistic_gradient,
    logistic_objective,
    naive_bayes_estimate,
    predict,
    save_model,
    sigmoid,
    train_logistic,
    train_naive_bayes,
    train_svm,
)
from stresskit.errors import StressKitError
from stresskit.features import Vocabulary, fit_vocabulary, vector, vectorize

import svm_reference
from conftest import FIXTURES, REPO_ROOT, load_script
from test_corpus import _in_sources


def small_vocab(n=2) -> Vocabulary:
    letters = "abcdefghij"[:n]
    return Vocabulary(tokens=tuple(letters), doc_freq=(1,) * n, n_docs=1)


def logistic(bias, weights, vocab) -> LinearModel:
    return LinearModel("logistic", tuple(map(float, weights)), bias, vocab, "",
                       LogisticHyper())


SEPARABLE = [({0: 1.0}, 1), ({1: 1.0}, 0), ({0: 2.0}, 1), ({1: 2.0}, 0)]


# --------------------------------------------------------- design matrix

def loop_products(examples, n_features, w, r):
    """X . w, X^T . r and each class's column sums as plain loops over the
    examples, adding in item order starting from 0.0."""
    xw = [0.0] * len(examples)
    xtr = [0.0] * n_features
    counts = {0: [0.0] * n_features, 1: [0.0] * n_features}
    for k, (vec, label) in enumerate(examples):
        for i, v in vec.items():
            xw[k] += v * w[i]
            xtr[i] += v * r[k]
            counts[label][i] += v
    return xw, xtr, counts


def test_design_matrix_products_match_a_loop_in_item_order():
    rng = np.random.default_rng(5)
    V = 12  # columns 9-11 and 4 are never used
    examples = [
        ({3: 1e16, 0: 1.0, 5: 1e16}, 1),  # the sum cancels differently in another order
        ({}, 0),
        ({7: 0.1, 2: 0.2, 1: 0.3, 8: 1e-17}, 0),
    ]
    for k in range(20):
        cols = rng.choice([0, 1, 2, 3, 5, 6, 7, 8], size=int(rng.integers(1, 8)), replace=False)
        examples.append(({int(i): float(rng.choice([1.0, 3.0, rng.random(), 1e15]))
                          for i in cols}, k % 2))
    examples.append(({}, 1))
    w = rng.normal(size=V)
    w[3], w[0], w[5] = 1.0, 1.0, -1.0
    r = rng.normal(size=len(examples)) * rng.choice([1.0, 1e-8, 1e8], size=len(examples))
    X, y = classify._assemble(examples, V)
    xw, xtr, counts = loop_products(examples, V, w, r)
    assert X.shape == (len(examples), V)
    assert X.dot(w).tolist() == xw
    assert xw[0] == 0.0  # 1e16 + 1.0 rounds to 1e16 before the -1e16
    assert X.tdot(r).tolist() == xtr
    for c in (0, 1):
        assert X.tdot((y == c).astype(float)).tolist() == counts[c]
    assert y.tolist() == [label for _, label in examples]


@pytest.mark.parametrize("index", [-1, 4])
def test_design_matrix_rejects_out_of_range_feature_indices(index):
    with pytest.raises(StressKitError, match=f"feature index {index} outside vocabulary of 4"):
        classify._assemble([({0: 1.0}, 1), ({index: 1.0}, 0)], 4)


# ---------------------------------------------------------------- logistic

def test_zero_epochs_gives_uninformative_model():
    model = train_logistic(SEPARABLE, LogisticHyper(epochs=0), vocabulary=small_vocab())
    assert model.bias == 0.0
    assert not any(model.weights)
    for x in ({}, {0: 3.0}, {1: 100.0}):
        assert predict(model, x).score == 0.5


def test_separable_toy_reaches_perfect_training_accuracy():
    model = train_logistic(SEPARABLE, vocabulary=small_vocab())
    for x, label in SEPARABLE:
        assert predict(model, x).label == label


def test_single_class_rejected():
    with pytest.raises(StressKitError, match="training data must contain both classes"):
        train_logistic([({0: 1.0}, 1), ({1: 1.0}, 1)], vocabulary=small_vocab())


def test_predict_proba_analytic_points():
    vocab = small_vocab(1)
    zero = logistic(0.0, [0.0], vocab)
    assert predict(zero, {0: 123.0}).score == 0.5
    unit = logistic(0.0, [1.0], vocab)
    assert math.isclose(predict(unit, {0: math.log(3)}).score, 0.75, abs_tol=1e-12)
    saturated = logistic(50.0, [0.0], vocab)
    assert predict(saturated, {}).score >= 1 - 1e-9


def test_decision_rule_tie_goes_to_stressed():
    vocab = small_vocab(1)
    model = logistic(0.0, [0.0], vocab)
    assert predict(model, {}).label == 1  # probability exactly 0.5
    low = logistic(-0.1, [0.0], vocab)
    assert predict(low, {}).label == 0
    high = logistic(0.1, [0.0], vocab)
    assert predict(high, {}).label == 1


def test_decision_rule_uses_the_sign_of_the_decision_value():
    # The sigmoid of -2**-60 rounds to exactly 0.5; the label follows z < 0.
    model = logistic(-(2.0 ** -60), [0.0], small_vocab(1))
    pred = predict(model, {})
    assert pred.score == 0.5
    assert pred.label == 0


def test_dimension_mismatch():
    model = train_logistic(SEPARABLE, LogisticHyper(epochs=1), vocabulary=small_vocab())
    with pytest.raises(StressKitError, match="feature index 7 outside vocabulary of 2"):
        predict(model, {7: 1.0})
    with pytest.raises(StressKitError, match="feature index 5 outside vocabulary of 2"):
        train_logistic([({5: 1.0}, 1), ({0: 1.0}, 0)], vocabulary=small_vocab())


def test_loss_trajectory_non_increasing():
    rng = np.random.default_rng(0)
    examples = [
        ({i: float(v) for i, v in enumerate(rng.integers(0, 4, size=5)) if v}, int(lab))
        for lab in rng.integers(0, 2, size=30)
    ]
    examples[0] = (examples[0][0], 1)
    examples[1] = (examples[1][0], 0)
    vocab = small_vocab(5)
    hyper = LogisticHyper(learning_rate=5.0, epochs=40)  # forces halvings
    model = train_logistic(examples, hyper, vocabulary=vocab)
    assert model.effective_learning_rate < 5.0
    X, y = classify._assemble(examples, 5)
    lr = model.effective_learning_rate
    bias, coef = 0.0, np.zeros(5)
    z = X.dot(coef) + bias
    losses = [logistic_objective(z, coef, y, hyper.l2)]
    for _ in range(hyper.epochs):
        gb, gw = logistic_gradient(z, coef, X, y, hyper.l2)
        bias -= lr * gb
        coef -= lr * gw
        z = X.dot(coef) + bias
        losses.append(logistic_objective(z, coef, y, hyper.l2))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n, V = 8, 5
        examples = []
        for k in range(n):
            vec = {i: float(v) for i, v in enumerate(rng.integers(0, 3, size=V)) if v}
            examples.append((vec, int(k % 2)))
        X, y = classify._assemble(examples, V)
        bias = float(rng.normal())
        coef = rng.normal(size=V)
        l2 = 1e-3

        def loss(bias, coef):  # as train_logistic evaluates it
            return logistic_objective(X.dot(coef) + bias, coef, y, l2)

        gb, gw = logistic_gradient(X.dot(coef) + bias, coef, X, y, l2)
        h = 1e-5
        fd_b = (loss(bias + h, coef) - loss(bias - h, coef)) / (2 * h)
        assert abs(gb - fd_b) / max(1.0, abs(gb)) < 1e-6
        for i in range(V):
            bump = np.zeros(V)
            bump[i] = h
            fd = (loss(bias, coef + bump) - loss(bias, coef - bump)) / (2 * h)
            assert abs(gw[i] - fd) / max(1.0, abs(gw[i])) < 1e-6


def test_training_deterministic():
    a = train_logistic(SEPARABLE, vocabulary=small_vocab())
    b = train_logistic(SEPARABLE, vocabulary=small_vocab())
    assert a.bias == b.bias
    assert a.weights == b.weights


@given(st.floats(min_value=-30, max_value=30), st.floats(min_value=-3, max_value=3))
def test_probability_complement_under_negated_parameters(bias, x):
    vocab = small_vocab(1)
    model = logistic(bias, [1.3], vocab)
    negated = logistic(-bias, [-1.3], vocab)
    assert abs(predict(model, {0: x}).score + predict(negated, {0: x}).score - 1.0) < 1e-12


@given(st.floats(min_value=-700, max_value=700))
def test_sigmoid_symmetry(z):
    assert abs(sigmoid(-z) - (1.0 - sigmoid(z))) < 1e-12


# ------------------------------------------------------------- naive bayes

HAND_CORPUS = [["a", "a"], ["a", "b"], ["a"], ["b", "b"], ["b", "a"], ["b"]]
HAND_LABELS = [0, 0, 0, 1, 1, 1]


def hand_pairs():
    vocab = fit_vocabulary(HAND_CORPUS)
    pairs = [(vector(d, vocab, "bow"), y) for d, y in zip(HAND_CORPUS, HAND_LABELS)]
    return pairs, vocab


def hand_nb():
    pairs, vocab = hand_pairs()
    return train_naive_bayes(pairs, NaiveBayesHyper(alpha=1.0), vocabulary=vocab), vocab


def test_nb_hand_corpus_parameters():
    pairs, vocab = hand_pairs()
    log_prior, log_likelihood = naive_bayes_estimate(pairs, 1.0, vocab)
    a, b = vocab.index["a"], vocab.index["b"]
    # class 0 token counts: a=4, b=1; alpha=1, V=2 -> P(a|0)=5/7, P(b|0)=2/7
    assert math.isclose(math.exp(log_likelihood[0][a]), 5 / 7, abs_tol=1e-12)
    assert math.isclose(math.exp(log_likelihood[0][b]), 2 / 7, abs_tol=1e-12)
    assert math.isclose(math.exp(log_likelihood[1][a]), 2 / 7, abs_tol=1e-12)
    assert math.isclose(math.exp(log_likelihood[1][b]), 5 / 7, abs_tol=1e-12)
    assert math.isclose(math.exp(log_prior[0]), 0.5, abs_tol=1e-12)


def test_nb_hand_corpus_posteriors():
    model, vocab = hand_nb()
    a, b = vocab.index["a"], vocab.index["b"]
    cases = [
        ({a: 1.0}, 2 / 7, 0),
        ({b: 1.0}, 5 / 7, 1),
        ({a: 1.0, b: 1.0}, 0.5, 1),      # exact tie classifies stressed
        ({a: 2.0, b: 1.0}, 2 / 7, 0),
    ]
    for x, p_expected, label in cases:
        pred = predict(model, x)
        assert math.isclose(pred.score, p_expected, abs_tol=1e-12)
        assert pred.label == label


def test_nb_empty_vector_uses_priors():
    vocab = small_vocab(1)
    pairs = [({0: 1.0}, 1), ({0: 1.0}, 1), ({0: 1.0}, 0)]
    model = train_naive_bayes(pairs, vocabulary=vocab)
    assert predict(model, {}).label == 1  # majority prior


def test_nb_smoothing_keeps_unseen_tokens_positive():
    vocab = fit_vocabulary([["t", "u"], ["u"]])
    pairs = [(vector(["t", "u"], vocab, "bow"), 1), (vector(["u"], vocab, "bow"), 0)]
    _, log_likelihood = naive_bayes_estimate(pairs, 1.0, vocab)
    t = vocab.index["t"]
    p1, p0 = math.exp(log_likelihood[1][t]), math.exp(log_likelihood[0][t])
    assert p1 > p0 > 0


def test_nb_mirrored_corpus_is_symmetric():
    vocab = fit_vocabulary([["a", "a", "b"], ["b", "b", "a"]])
    pairs = [(vector(["a", "a", "b"], vocab, "bow"), 0), (vector(["b", "b", "a"], vocab, "bow"), 1)]
    log_prior, log_likelihood = naive_bayes_estimate(pairs, 1.0, vocab)
    a, b = vocab.index["a"], vocab.index["b"]
    assert math.isclose(log_prior[0], log_prior[1])
    assert math.isclose(log_likelihood[0][a], log_likelihood[1][b])
    assert math.isclose(log_likelihood[0][b], log_likelihood[1][a])


def test_nb_likelihoods_are_distributions():
    pairs, vocab = hand_pairs()
    _, log_likelihood = naive_bayes_estimate(pairs, 1.0, vocab)
    for c in (0, 1):
        assert abs(np.exp(log_likelihood[c]).sum() - 1.0) < 1e-9


@given(
    st.dictionaries(st.integers(0, 1), st.floats(min_value=0.25, max_value=4.0), max_size=2),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_nb_scaling_counts_preserves_argmax_with_equal_priors(x, scale):
    model, _ = hand_nb()  # equal priors by construction
    delta = decision_value(model, x)
    assume(delta == 0.0 or abs(delta) > 1e-9)  # away from float-blurred ties
    scaled = {i: v * scale for i, v in x.items()}
    assert predict(model, x).label == predict(model, scaled).label


def test_nb_rejects_bad_alpha_and_single_class():
    vocab = small_vocab()
    with pytest.raises(ValueError):
        train_naive_bayes([({0: 1.0}, 1), ({1: 1.0}, 0)], NaiveBayesHyper(alpha=0.0),
                          vocabulary=vocab)
    with pytest.raises(StressKitError, match="training data must contain both classes"):
        train_naive_bayes([({0: 1.0}, 1)], vocabulary=vocab)


# -------------------------------------------------------------------- svm

def test_svm_separable_toy_zero_hinge():
    model = train_svm(
        SEPARABLE, SvmHyper(lam=0.05, epochs=6000, seed=3), vocabulary=small_vocab()
    )
    for x, label in SEPARABLE:
        y = 2 * label - 1
        assert y * decision_value(model, x) >= 1 - 1e-3


def test_svm_huge_regularization_shrinks_weights():
    model = train_svm(SEPARABLE, SvmHyper(lam=1e6, epochs=3), vocabulary=small_vocab())
    assert math.hypot(*model.weights) < 1e-2


def test_svm_label_flip_negates_decisions():
    hyper = SvmHyper(lam=0.01, epochs=20, seed=11)
    flipped = [(x, 1 - y) for x, y in SEPARABLE]
    a = train_svm(SEPARABLE, hyper, vocabulary=small_vocab())
    b = train_svm(flipped, hyper, vocabulary=small_vocab())
    for x, _ in SEPARABLE + [({0: 3.0, 1: 1.0}, 0)]:
        assert abs(decision_value(a, x) + decision_value(b, x)) < 1e-12


def test_svm_deterministic_given_seed():
    hyper = SvmHyper(lam=0.01, epochs=5, seed=7)
    a = train_svm(SEPARABLE, hyper, vocabulary=small_vocab())
    b = train_svm(SEPARABLE, hyper, vocabulary=small_vocab())
    assert a.weights == b.weights and a.bias == b.bias


def test_svm_prediction_margin_rule():
    model = train_svm(SEPARABLE, SvmHyper(lam=0.05, epochs=500, seed=3),
                      vocabulary=small_vocab())
    pred = predict(model, {0: 1.0})
    assert pred.label == 1 and pred.score > 0
    pred = predict(model, {1: 1.0})
    assert pred.label == 0 and pred.score < 0


SHUFFLE_SEEDS = [*range(60), 42, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 7, 2**256 + 12345]


@pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
def test_svm_shuffle_reproduces_numpy_permutations(seed):
    """Seeds of 2**128 and up have more 32-bit words than SeedSequence's pool."""
    ours, numpys = classify._Shuffle(seed), np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 7, 100, 500, 2838):
        assert ours.permutation(n) == numpys.permutation(n).tolist(), n


@pytest.mark.parametrize("rows", [0, 500], ids=["fixture", "generated"])
@pytest.mark.parametrize("features", ["bow", "tfidf"])
@pytest.mark.parametrize("lam", [1e-4, 1e-2])
def test_scaled_svm_matches_the_direct_numpy_form(rows, features, lam, tmp_path):
    path = FIXTURES / "labeled_train.csv"
    if rows:  # a corpus of the benchmark's size and vocabulary
        gen = load_script("perfbench/gen.py")
        path = tmp_path / "labeled.csv"
        gen.write_labeled(path, gen.Vocabulary(), rows, random.Random(7), gen.TextStats())
    table = textprep.TokenTable(textprep.default_stopwords())
    examples = corpus.load_labeled(path)
    docs = [table.stems(textprep.surface_tokens(ex.text)) for ex in examples]
    vocab = fit_vocabulary(docs)
    pairs = [(vector(doc, vocab, features), ex.label) for doc, ex in zip(docs, examples)]
    hyper = SvmHyper(lam=lam)
    model = train_svm(pairs, hyper, vocabulary=vocab)
    oracle = svm_reference.train_svm(pairs, hyper, vocabulary=vocab)
    for x, _ in pairs:
        z, expected = decision_value(model, x), decision_value(oracle, x)
        assert abs(z - expected) <= 1e-12 * max(1.0, abs(expected))
        assert (z >= 0) == (expected >= 0)


# ------------------------------------------------------------------ train

PETS = [d.split() for d in ("cat cat dog", "dog fish", "cat", "fish fish", "dog", "cat fish")]
PET_LABELS = [1, 0, 1, 0, 0, 1]
SMALL_HYPERS = [LogisticHyper(epochs=50), NaiveBayesHyper(), SvmHyper(epochs=5)]


@pytest.mark.parametrize("hyper,trainer", zip(SMALL_HYPERS, (train_logistic, train_naive_bayes,
                                                             train_svm)), ids=["lr", "nb", "svm"])
def test_train_fits_the_vocabulary_and_calls_the_trainer_its_hyper_names(hyper, trainer):
    vocab = fit_vocabulary(PETS, max_size=2)
    pairs = [(vector(doc, vocab, "tfidf"), y) for doc, y in zip(PETS, PET_LABELS)]
    expected = trainer(pairs, hyper, vocabulary=vocab, fingerprint="fp", feature_kind="tfidf")
    assert classify.train(PETS, PET_LABELS, hyper, feature_kind="tfidf", max_size=2,
                          fingerprint="fp") == expected


def test_models_are_built_only_through_train():
    """In src/ and scripts/, the vocabulary fit and the three trainers are
    named only inside classify.train."""
    names = {"fit_vocabulary", "train_logistic", "train_naive_bayes", "train_svm"}
    found = _in_sources(
        lambda node: (node.id if isinstance(node, ast.Name) else
                      node.attr if isinstance(node, ast.Attribute) else None) in names,
        ("src/stresskit", "scripts"))
    assert found == ["classify.train"] * 4


# ------------------------------------------------------------- persistence

def trained_models():
    return [classify.train(PETS, PET_LABELS, hyper, fingerprint="fingerprint")
            for hyper in SMALL_HYPERS]


@pytest.mark.parametrize("model", trained_models(), ids=lambda m: m.kind)
def test_save_load_round_trip_bit_identical(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == model.kind
    assert loaded.pipeline_fingerprint == model.pipeline_fingerprint
    assert loaded.vocabulary == model.vocabulary
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = {int(i): float(v) for i, v in enumerate(rng.integers(0, 3, size=3)) if v}
        assert predict(loaded, x).score == predict(model, x).score
        assert predict(loaded, x).label == predict(model, x).label


def test_truncated_file_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_models()[0], path)
    path.write_text(path.read_text()[:50], encoding="utf-8")
    with pytest.raises(StressKitError, match="model.json: not a valid model file"):
        load_model(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_models()[0], path)
    doc = json.loads(path.read_text())
    doc["format_version"] = MODEL_FORMAT_VERSION + 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StressKitError, match=f"model.json: format version {MODEL_FORMAT_VERSION + 1} "):
        load_model(path)


def test_current_version_loads(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_models()[1], path)
    assert load_model(path).kind == "naive_bayes"


GOLDEN = Path(__file__).resolve().parent / "golden"
BAD_HYPERPARAMETERS = {
    "int": ["x", None, True, 5.0, [5]],
    "float": ["x", None, True, math.nan, math.inf, -math.inf, 10 ** 400, [0.1]],
}


@pytest.mark.parametrize("name", ["model_logistic.json", "model_nb.json", "model_svm.json"])
def test_model_hyperparameters_are_type_checked(name, tmp_path):
    document = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    # each field's type is its default's
    defaults = classify.HYPERS[document["kind"]]._field_defaults
    for field, default in defaults.items():
        for bad in BAD_HYPERPARAMETERS[type(default).__name__]:
            corrupt = json.loads(json.dumps(document))
            corrupt["hyperparameters"][field] = bad
            path = tmp_path / "corrupt.json"
            path.write_text(json.dumps(corrupt), encoding="utf-8")
            with pytest.raises(StressKitError,
                               match=f"malformed model document: hyperparameter {field}"):
                load_model(path)
    # an int is a number, so a float field may hold one
    first_float = next(field for field, default in defaults.items() if type(default) is float)
    document["hyperparameters"][first_float] = 1
    (tmp_path / "int.json").write_text(json.dumps(document), encoding="utf-8")
    assert getattr(load_model(tmp_path / "int.json").hyper, first_float) == 1


@pytest.mark.parametrize("name", ["model_logistic.json", "model_nb.json", "model_svm.json"])
def test_golden_model_load_save_round_trip_is_byte_identical(name, tmp_path):
    save_model(load_model(GOLDEN / name), tmp_path / "once.json")
    save_model(load_model(tmp_path / "once.json"), tmp_path / "twice.json")
    assert (tmp_path / "once.json").read_bytes() == (tmp_path / "twice.json").read_bytes()


@pytest.mark.parametrize("version", [True, 1.0, 2.0])
def test_format_version_must_be_an_int(version, tmp_path):
    """True == 1 and 2.0 == 2, yet neither is a format version. An SVM
    document reads the same in formats 1 and 2, so only the type check can
    refuse it."""
    document = json.loads((GOLDEN / "model_svm.json").read_text(encoding="utf-8"))
    document["format_version"] = version
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(StressKitError, match=f"model.json: format version {version} "):
        load_model(path)


# --------------------------------------------------- the token-table read path

GOLDEN = REPO_ROOT / "tests" / "golden"
EDGE_TEXTS = {
    "stopwords only": "The and of, to it is!",
    "empty after strip": "<p>@@ __ !!</p> -- ...",
    "out of vocabulary only": "zzqxv qqzvw vvxqz",
    "repeated tokens": "Exams exams EXAM stress exams, stressed stress exam exam",
}


@pytest.fixture(scope="module")
def read_models(stopwords):
    """The three golden models, and tf-idf logistic and NB models trained here."""
    models = {name: load_model(GOLDEN / f"model_{name}.json") for name in ("logistic", "nb", "svm")}
    examples = corpus.load_labeled(FIXTURES / "labeled_train.csv")
    docs = [textprep.preprocess(ex.text, stopwords).split() for ex in examples]
    labels = [ex.label for ex in examples]
    for name, hyper in (("logistic tfidf", LogisticHyper(epochs=50)),
                        ("nb tfidf", NaiveBayesHyper())):
        models[name] = classify.train(docs, labels, hyper, feature_kind="tfidf")
    return models


def test_edge_texts_are_what_they_say(read_models, stopwords):
    index = read_models["logistic"].vocabulary.index
    tokens = textprep.surface_tokens(EDGE_TEXTS["stopwords only"])
    assert tokens and all(t in stopwords for t in tokens)
    assert textprep.surface_tokens(EDGE_TEXTS["empty after strip"]) == []
    stems = textprep.preprocess(EDGE_TEXTS["out of vocabulary only"], stopwords).split()
    assert stems and not any(s in index for s in stems)
    stems = textprep.preprocess(EDGE_TEXTS["repeated tokens"], stopwords).split()
    assert len(set(stems)) < len(stems) and any(s in index for s in stems)


@pytest.mark.parametrize("name", ["logistic", "nb", "svm", "logistic tfidf", "nb tfidf"])
def test_table_prediction_is_bit_identical_to_vectorize_and_predict(name, read_models,
                                                                     stopwords):
    model = read_models[name]
    posts = corpus.load_posts_with_summary(FIXTURES / "posts_100.csv")[0]
    texts = [post.text for post in posts] + list(EDGE_TEXTS.values())
    table = textprep.TokenTable(stopwords)
    for text in texts:
        doc = textprep.preprocess(text, stopwords)
        expected = predict(model, vectorize(doc, model.vocabulary, model.feature_kind))
        got = classify.predict_stems(model, table.stems(textprep.surface_tokens(text)))
        assert got.score.hex() == expected.score.hex(), text
        assert got.label == expected.label, text

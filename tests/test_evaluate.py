import pytest
from hypothesis import given
from hypothesis import strategies as st

from stresskit.errors import StressKitError
from stresskit.evaluate import (
    ConfusionMatrix,
    confusion,
    metrics,
    render_table,
)

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200
)


def test_confusion_enumeration():
    m = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (m.tp, m.fp, m.tn, m.fn) == (1, 1, 1, 1)


def test_confusion_perfect():
    m = confusion([1, 0, 1], [1, 0, 1])
    assert (m.tp, m.tn, m.fp, m.fn) == (2, 1, 0, 0)


def test_confusion_errors():
    with pytest.raises(StressKitError, match="1 predictions vs 2 labels"):
        confusion([1], [0, 1])
    with pytest.raises(StressKitError, match="no prediction/label pairs"):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([2], [0])


def test_metrics_hand_example():
    rep = metrics(ConfusionMatrix(tp=2, fp=1, tn=6, fn=1))
    assert rep.precision == pytest.approx(2 / 3, abs=1e-15)
    assert rep.recall == pytest.approx(2 / 3, abs=1e-15)
    assert rep.f1 == pytest.approx(2 / 3, abs=1e-15)
    assert rep.accuracy == pytest.approx(0.8, abs=1e-15)


def test_metrics_perfect():
    rep = metrics(ConfusionMatrix(tp=3, fp=0, tn=2, fn=0))
    assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_degenerate_convention():
    rep = metrics(ConfusionMatrix(tp=0, fp=0, tn=4, fn=0))
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
    assert rep.accuracy == 1.0


def test_metrics_empty_matrix_rejected():
    with pytest.raises(StressKitError, match="confusion matrix has no counts"):
        metrics(ConfusionMatrix(0, 0, 0, 0))


def test_renderings():
    rep = metrics(ConfusionMatrix(tp=2, fp=1, tn=6, fn=1))
    table = render_table([("BoW", "Logistic Regression", rep)])
    assert "Accuracy,%" in table and "80.00" in table


@given(pairs_strategy)
def test_accuracy_matches_agreement_fraction(pairs):
    predicted = [p for p, _ in pairs]
    actual = [a for _, a in pairs]
    rep = metrics(confusion(predicted, actual))
    agree = sum(1 for p, a in pairs if p == a) / len(pairs)
    assert rep.accuracy == pytest.approx(agree, abs=1e-15)


@given(pairs_strategy)
def test_swapping_roles_transposes_fp_fn(pairs):
    predicted = [p for p, _ in pairs]
    actual = [a for _, a in pairs]
    m = confusion(predicted, actual)
    swapped = confusion(actual, predicted)
    assert (m.fp, m.fn) == (swapped.fn, swapped.fp)
    assert metrics(m).accuracy == metrics(swapped).accuracy


@given(pairs_strategy)
def test_f1_between_precision_and_recall(pairs):
    rep = metrics(confusion([p for p, _ in pairs], [a for _, a in pairs]))
    assert min(rep.precision, rep.recall) - 1e-12 <= rep.f1
    assert rep.f1 <= max(rep.precision, rep.recall) + 1e-12


@given(pairs_strategy)
def test_brute_force_recount(pairs):
    predicted = [p for p, _ in pairs]
    actual = [a for _, a in pairs]
    m = confusion(predicted, actual)
    tp = sum(1 for p, a in pairs if p == 1 and a == 1)
    fp = sum(1 for p, a in pairs if p == 1 and a == 0)
    tn = sum(1 for p, a in pairs if p == 0 and a == 0)
    fn = sum(1 for p, a in pairs if p == 0 and a == 1)
    assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
    assert m.total == len(pairs)


def test_brute_force_recount_at_ten_thousand():
    import random

    rng = random.Random(99)
    pairs = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(10_000)]
    m = confusion([p for p, _ in pairs], [a for _, a in pairs])
    counts = {
        (1, 1): m.tp, (1, 0): m.fp, (0, 0): m.tn, (0, 1): m.fn,
    }
    for key, value in counts.items():
        assert value == sum(1 for pair in pairs if pair == key)
    assert m.total == 10_000

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stresskit.errors import StressKitError
from stresskit.features import fit_vocabulary, vector, vectorize

tokens_strategy = st.lists(
    st.sampled_from(["cat", "dog", "fish", "bird", "zebra"]), max_size=20
)


def test_fit_vocabulary_counts():
    vocab = fit_vocabulary([["cat", "dog"], ["dog"]])
    assert vocab.size == 2
    assert vocab.tokens == ("cat", "dog")
    assert vocab.doc_freq == (1, 2)
    assert vocab.n_docs == 2


def test_fit_vocabulary_empty_corpus():
    with pytest.raises(StressKitError, match="cannot fit a vocabulary on an empty corpus"):
        fit_vocabulary([])


def test_fit_vocabulary_min_df():
    vocab = fit_vocabulary([["cat", "dog"], ["dog"], ["dog", "fish"]], min_df=2)
    assert vocab.tokens == ("dog",)


def test_fit_vocabulary_max_size_keeps_most_frequent():
    vocab = fit_vocabulary([["a", "b", "c"], ["b", "c"], ["c"]], max_size=2)
    assert vocab.tokens == ("b", "c")


def test_vocabulary_indices_are_dense_and_df_bounded():
    vocab = fit_vocabulary([["cat", "dog"], ["dog", "fish"], ["cat"]])
    assert sorted(vocab.index.values()) == list(range(vocab.size))
    assert all(1 <= d <= vocab.n_docs for d in vocab.doc_freq)


def test_bow_examples():
    vocab = fit_vocabulary([["cat", "dog"]])
    assert vector(["cat", "cat", "dog"], vocab, "bow") == {0: 2.0, 1: 1.0}
    assert vector([], vocab, "bow") == {}
    assert vector(["zebra"], vocab, "bow") == {}


def test_tfidf_universal_token_idf_is_one():
    vocab = fit_vocabulary([["cat", "a"], ["cat", "b"], ["cat", "c"], ["cat", "d"]])
    vec = vector(["cat"], vocab, "tfidf")
    assert math.isclose(vec[vocab.index["cat"]], 1.0)


def test_tfidf_hand_value():
    vocab = fit_vocabulary([["cat", "dog"], ["dog"]])
    vec = vector(["cat", "cat"], vocab, "tfidf")
    expected = 2 * (math.log(3 / 2) + 1)
    assert math.isclose(vec[vocab.index["cat"]], expected, rel_tol=0, abs_tol=1e-12)
    assert vocab.index["dog"] not in vec


def test_tfidf_empty_doc():
    vocab = fit_vocabulary([["cat", "dog"]])
    assert vector([], vocab, "tfidf") == {}


def test_vectorize_dispatch():
    vocab = fit_vocabulary([["cat", "dog"]])
    assert vectorize("cat", vocab, "bow") == vector(["cat"], vocab, "bow") == {0: 1.0}
    assert vectorize("cat", vocab, "tfidf") == vector(["cat"], vocab, "tfidf")
    assert vectorize(" cat  dog cat", vocab, "bow") == vector(["cat", "dog", "cat"], vocab, "bow")
    with pytest.raises(ValueError):
        vectorize("cat", vocab, "word2vec")
    with pytest.raises(ValueError):
        vector(["cat"], vocab, "word2vec")
    for kind in ("bow", "tfidf"):  # counts in first-occurrence order
        assert list(vector(["dog", "zebra", "cat", "dog"], vocab, kind)) == [1, 0]


@given(tokens_strategy, st.randoms())
def test_bow_permutation_insensitive(tokens, rnd):
    vocab = fit_vocabulary([["cat", "dog", "fish", "bird"]])
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    assert vector(tokens, vocab, "bow") == vector(shuffled, vocab, "bow")


@given(tokens_strategy, tokens_strategy)
def test_bow_additive(left, right):
    vocab = fit_vocabulary([["cat", "dog", "fish", "bird"]])
    combined = vector(left + right, vocab, "bow")
    a = vector(left, vocab, "bow")
    b = vector(right, vocab, "bow")
    summed = dict(a)
    for i, v in b.items():
        summed[i] = summed.get(i, 0.0) + v
    assert combined == summed


@given(tokens_strategy)
def test_bow_sum_counts_in_vocabulary_tokens(tokens):
    vocab = fit_vocabulary([["cat", "dog", "fish", "bird"]])
    vec = vector(tokens, vocab, "bow")
    in_vocab = sum(1 for t in tokens if t in vocab.index)
    assert sum(vec.values()) == in_vocab
    assert all(v > 0 for v in vec.values())
    assert all(0 <= i < vocab.size for i in vec)


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=10))
def test_fit_deterministic(docs):
    first = fit_vocabulary([docs])
    second = fit_vocabulary([docs])
    assert first.tokens == second.tokens
    assert first.doc_freq == second.doc_freq

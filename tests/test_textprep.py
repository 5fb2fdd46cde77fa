import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresskit import porter, textprep
from stresskit.textprep import (
    PipelineConfig,
    lowercase,
    preprocess,
    preprocess_stages,
    remove_stopwords,
    stem,
    strip_noncharacters,
    tokenize,
)

from test_porter import REFERENCE_OUT, REFERENCE_VOC

text_strategy = st.text(max_size=200)


def test_lowercase_examples():
    assert lowercase("My Mom THEN") == "my mom then"
    assert lowercase("") == ""
    assert lowercase("already lower") == "already lower"


def test_strip_examples():
    assert strip_noncharacters("hello <b>world</b>!") == "hello world"
    assert strip_noncharacters("user_name @you") == "user name you"
    assert strip_noncharacters("a   b") == "a b"


def test_tokenize_examples():
    assert tokenize("mom hit newspaper") == ["mom", "hit", "newspaper"]
    assert tokenize("") == []
    assert tokenize(" a  b ") == ["a", "b"]


def test_remove_stopwords_examples(config):
    assert remove_stopwords(["the", "dog", "and", "the", "cat"], config) == ["dog", "cat"]
    assert remove_stopwords([], config) == []
    assert remove_stopwords(["the", "and", "in"], config) == []


def test_stem_examples(config):
    assert stem(["hitting"], config) == ["hit"]
    assert stem(["shocked"], config) == ["shock"]


def test_stem_preserves_length(config):
    tokens = ["running", "cats", "don't", "a", "happiness"]
    assert len(stem(tokens, config)) == len(tokens)


def test_stem_memo_matches_porter_cold_and_warm(config, monkeypatch):
    monkeypatch.setattr(textprep, "_STEMS", textprep._StemMemo())
    real = porter.stem_word
    calls = []
    monkeypatch.setattr(porter, "stem_word", lambda word: calls.append(word) or real(word))
    tokens = REFERENCE_VOC + REFERENCE_VOC[::-1]
    expected = [real(t) for t in tokens]
    assert expected == REFERENCE_OUT + REFERENCE_OUT[::-1]
    assert stem(tokens, config) == expected  # cold: every stem computed
    assert stem(tokens, config) == expected  # warm: every stem from the memo
    assert sorted(calls) == sorted(set(REFERENCE_VOC))  # once per distinct token


def test_stem_memo_does_not_leak_into_unstemmed_config(config):
    stem(["running", "knives"], config)
    unstemmed = PipelineConfig(stopwords=config.stopwords, stemmer="none")
    assert stem(["running", "knives"], unstemmed) == ["running", "knives"]


def test_preprocess_examples(config):
    assert preprocess("No place in my city has shelter space for us", config) == (
        "place citi shelter space us"
    )
    assert preprocess("", config) == ""
    assert preprocess("<p>The THE the</p>", config) == ""


def test_preprocess_is_the_stage_composition(config):
    text = "My mom then HIT me with the <b>newspaper</b>!"
    stages = preprocess_stages(text, config)
    manual = " ".join(
        stem(
            remove_stopwords(tokenize(strip_noncharacters(lowercase(text))), config),
            config,
        )
    )
    assert stages["text"] == manual == preprocess(text, config)


def test_stopword_vendored_list_size(config):
    assert len(config.stopwords) == 179


def test_fingerprint_stability_and_sensitivity(config):
    assert config.fingerprint() == PipelineConfig.default().fingerprint()
    smaller = PipelineConfig(stopwords=frozenset(list(config.stopwords)[:50]))
    assert smaller.fingerprint() != config.fingerprint()
    unstemmed = PipelineConfig(stopwords=config.stopwords, stemmer="none")
    assert unstemmed.fingerprint() != config.fingerprint()


def test_stopword_file_comments(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# a comment\nThe\n\nand\n", encoding="utf-8")
    assert textprep.load_stopwords(path) == frozenset({"the", "and"})


def test_config_rejects_uppercase_stopwords():
    with pytest.raises(ValueError):
        PipelineConfig(stopwords=frozenset({"The"}))


def test_config_rejects_unknown_stemmer(config):
    with pytest.raises(ValueError):
        PipelineConfig(stopwords=config.stopwords, stemmer="snowball")


@given(text_strategy)
def test_lowercase_idempotent(text):
    assert lowercase(lowercase(text)) == lowercase(text)


@given(text_strategy)
def test_strip_idempotent(text):
    once = strip_noncharacters(text)
    assert strip_noncharacters(once) == once


@given(text_strategy)
def test_strip_output_charset(text):
    for ch in strip_noncharacters(text):
        assert ch == "'" or ch.isalnum() or ch == " "


@given(text_strategy)
def test_tokens_have_no_whitespace_or_empties(text):
    for token in tokenize(strip_noncharacters(lowercase(text))):
        assert token
        assert not any(c.isspace() for c in token)


@settings(max_examples=200)
@given(text_strategy)
def test_preprocess_invariants(text):
    config = PipelineConfig.default()
    stages = preprocess_stages(text, config)
    out = stages["text"]
    assert out == out.lower()
    assert strip_noncharacters(out) == out
    # no configured stopword survives as a token before stemming
    assert not set(stages["without_stopwords"]) & config.stopwords


@given(text_strategy)
def test_preprocess_deterministic(text):
    config = PipelineConfig.default()
    assert preprocess(text, config) == preprocess(text, config)


@given(st.lists(st.sampled_from(["the", "dog", "cat", "and", "ran"]), max_size=30))
def test_remove_stopwords_never_grows_and_preserves_order(tokens):
    config = PipelineConfig.default()
    kept = remove_stopwords(tokens, config)
    assert len(kept) <= len(tokens)
    it = iter(tokens)
    assert all(any(token == t for t in it) for token in kept)  # subsequence

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stresskit import porter, textprep
from stresskit.textprep import (
    TokenTable,
    default_stopwords,
    lowercase,
    preprocess,
    preprocess_stages,
    remove_stopwords,
    stem,
    strip_noncharacters,
    surface_tokens,
    tokenize,
)

from test_porter import REFERENCE_OUT, REFERENCE_VOC

GOLDEN_FINGERPRINT = "22d83a2ce20712a1f2722fc51bb2de1e35ff681932da61d4d7017272466d5a2e"

text_strategy = st.text(max_size=200)

# Text built from the characters the removal rule treats specially: tag
# brackets, '_', '@', the apostrophe and several kinds of whitespace.
markup_strategy = st.text(
    alphabet=st.one_of(
        st.sampled_from("<>_@' \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"),
        st.characters(),
    ),
    max_size=120,
)

# The character-removal stage as three passes (tags, then non-characters,
# then whitespace runs): the reference for the one-pass version.
_REF_TAG_RE = re.compile(r"<[^>]*>")
_REF_NONCHAR_RE = re.compile(r"_|[^\w\s']")
_REF_WS_RE = re.compile(r"\s+")


def three_pass_strip(text):
    text = _REF_TAG_RE.sub(" ", text)
    text = _REF_NONCHAR_RE.sub(" ", text)
    return _REF_WS_RE.sub(" ", text).strip()


def test_lowercase_examples():
    assert lowercase("My Mom THEN") == "my mom then"
    assert lowercase("") == ""
    assert lowercase("already lower") == "already lower"


def test_strip_examples():
    assert strip_noncharacters("hello <b>world</b>!") == "hello world"
    assert strip_noncharacters("user_name @you") == "user name you"
    assert strip_noncharacters("a   b") == "a b"


@settings(max_examples=500)
@given(st.one_of(text_strategy, markup_strategy))
def test_strip_matches_the_three_pass_reference(text):
    assert strip_noncharacters(text) == three_pass_strip(text)


def test_surface_tokens_examples():
    assert surface_tokens("My <b>Mom</b> hit_me!") == ["my", "mom", "hit", "me"]
    assert surface_tokens("") == []


# Text with tags, '_', '@', apostrophes, non-ASCII letters and capitals.
surface_strategy = st.text(
    alphabet=st.one_of(
        st.sampled_from("<>_@' \t\nABCabcÉéßİıΣσ"),
        st.characters(categories=["L", "Nd", "Zs"]),
        st.characters(),
    ),
    max_size=120,
)


@settings(max_examples=500)
@given(st.one_of(text_strategy, markup_strategy, surface_strategy))
def test_surface_tokens_is_the_stage_composition(text):
    assert surface_tokens(text) == tokenize(strip_noncharacters(lowercase(text)))


def test_token_table_entries(monkeypatch):
    real, calls = porter.stem_word, []
    monkeypatch.setattr(porter, "stem_word", lambda word: calls.append(word) or real(word))
    table = TokenTable({"the", "and"})
    tokens = ["the", "hitting", "city", "and", "cats", "hitting", "the", "city"]
    assert table.stems(tokens) == ["hit", "citi", "cat", "hit", "citi"]
    assert table["the"] is None and table["and"] is None
    assert table["hitting"] == "hit" and table["cats"] == "cat"
    assert calls == ["hitting", "city", "cats"]  # once per distinct kept token
    assert TokenTable({"the"}).stems(["the", "cats"]) == ["cat"]
    assert TokenTable(set()).stems([]) == []


@settings(max_examples=300)
@given(st.one_of(text_strategy, markup_strategy, surface_strategy))
@example("No place in my city has shelter space for us")
@example("")
@example("The the THE")
@example("<b>Running</b> runners ran; don't @stop_now")
def test_token_table_stems_are_preprocess_stems(stopwords, text):
    stems = TokenTable(stopwords).stems(surface_tokens(text))
    assert stems == preprocess(text, stopwords).split()
    # so a list of stems and its whitespace-joined string are the same document
    assert all(s and not any(c.isspace() for c in s) for s in stems)


def test_tokenize_examples():
    assert tokenize("mom hit newspaper") == ["mom", "hit", "newspaper"]
    assert tokenize("") == []
    assert tokenize(" a  b ") == ["a", "b"]


def test_remove_stopwords_examples(stopwords):
    assert remove_stopwords(["the", "dog", "and", "the", "cat"], stopwords) == ["dog", "cat"]
    assert remove_stopwords([], stopwords) == []
    assert remove_stopwords(["the", "and", "in"], stopwords) == []


def test_stem_examples():
    assert stem(["hitting"]) == ["hit"]
    assert stem(["shocked"]) == ["shock"]


def test_stem_preserves_length():
    tokens = ["running", "cats", "don't", "a", "happiness"]
    assert len(stem(tokens)) == len(tokens)


def test_token_table_matches_porter_cold_and_warm(monkeypatch):
    real = porter.stem_word
    calls = []
    monkeypatch.setattr(porter, "stem_word", lambda word: calls.append(word) or real(word))
    tokens = REFERENCE_VOC + REFERENCE_VOC[::-1]
    expected = [real(t) for t in tokens]
    assert expected == REFERENCE_OUT + REFERENCE_OUT[::-1]
    assert stem(tokens) == expected  # the reference composition: one call per token
    assert len(calls) == len(tokens)
    calls.clear()
    table = TokenTable(())
    assert table.stems(tokens) == expected  # cold: every stem computed
    assert table.stems(tokens) == expected  # warm: every stem from the table
    assert sorted(calls) == sorted(set(REFERENCE_VOC))  # once per distinct token


def test_preprocess_examples(stopwords):
    assert preprocess("No place in my city has shelter space for us", stopwords) == (
        "place citi shelter space us"
    )
    assert preprocess("", stopwords) == ""
    assert preprocess("<p>The THE the</p>", stopwords) == ""


def test_preprocess_is_the_stage_composition(stopwords):
    text = "My mom then HIT me with the <b>newspaper</b>!"
    stages = preprocess_stages(text, stopwords)
    manual = " ".join(
        stem(remove_stopwords(tokenize(strip_noncharacters(lowercase(text))), stopwords))
    )
    assert stages["text"] == manual == preprocess(text, stopwords)
    assert stages["tokens"] == surface_tokens(text)


def test_stopword_vendored_list_size(stopwords):
    assert len(stopwords) == 179


def test_fingerprint_stability_and_sensitivity(stopwords):
    table = TokenTable(stopwords)
    assert table.fingerprint() == TokenTable(default_stopwords()).fingerprint()
    smaller = TokenTable(frozenset(list(stopwords)[:50]))
    assert smaller.fingerprint() != table.fingerprint()
    # the stemmer and removal class are hashed as fixed strings: every model
    # trained on the default stopwords carries this fingerprint
    assert table.fingerprint() == GOLDEN_FINGERPRINT
    table.stems(["running", "cats"])  # a stem held in the table is not a stopword
    assert table.fingerprint() == GOLDEN_FINGERPRINT


def test_stopword_file_comments(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# a comment\nThe\n\nand\n", encoding="utf-8")
    assert textprep.load_stopwords(path) == frozenset({"the", "and"})


def test_token_table_rejects_uppercase_stopwords():
    with pytest.raises(ValueError):
        TokenTable(frozenset({"The"}))


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
    stopwords = default_stopwords()
    stages = preprocess_stages(text, stopwords)
    out = stages["text"]
    assert out == out.lower()
    assert strip_noncharacters(out) == out
    # no configured stopword survives as a token before stemming
    assert not set(stages["without_stopwords"]) & stopwords


@given(text_strategy)
def test_preprocess_deterministic(text):
    stopwords = default_stopwords()
    assert preprocess(text, stopwords) == preprocess(text, stopwords)


@given(st.lists(st.sampled_from(["the", "dog", "cat", "and", "ran"]), max_size=30))
def test_remove_stopwords_never_grows_and_preserves_order(tokens):
    kept = remove_stopwords(tokens, default_stopwords())
    assert len(kept) <= len(tokens)
    it = iter(tokens)
    assert all(any(token == t for t in it) for token in kept)  # subsequence

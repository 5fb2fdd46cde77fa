import pytest
from hypothesis import given
from hypothesis import strategies as st

from stresskit.emotion import (
    AFFECTS,
    NEGATIVE_AFFECTS,
    EmotionProfile,
    default_lexicon,
    load_lexicon,
    parse_lexicon,
    prevailing_emotion,
    score_emotions,
)
from stresskit.errors import StressKitError
from stresskit.textprep import surface_tokens


def score(text, lexicon):
    return score_emotions(surface_tokens(text), lexicon)


def test_flag_semantics():
    lex = parse_lexicon(["abandon\tsadness\t1", "abandon\tjoy\t0"])
    assert lex.word_affects == {"abandon": {"sadness"}}


def test_empty_lexicon_is_valid():
    lex = parse_lexicon([])
    assert lex.word_affects == {}
    assert score("anything at all", lex).total_hits == 0


def test_bad_rows(tmp_path):
    with pytest.raises(StressKitError, match="line 1: flag must be 0 or 1"):
        parse_lexicon(["word\tjoy\t2"])
    with pytest.raises(StressKitError, match="line 1: unknown affect 'not-an-affect'"):
        parse_lexicon(["word\tnot-an-affect\t1"])
    bad = tmp_path / "lex.tsv"
    bad.write_text("word joy 1\n", encoding="utf-8")  # spaces, not tabs
    with pytest.raises(StressKitError, match="lex.tsv: line 1: expected word<TAB>affect<TAB>flag"):
        load_lexicon(bad)


def test_version_comment_recorded():
    lex = parse_lexicon(["# version: test-v9", "dog\tjoy\t1"])
    assert lex.version == "test-v9"


def test_vendored_lexicon_reproduces_reference_frequency():
    lex = default_lexicon()
    profile = score(
        "My grandfather died the day before an exam. "
        "I attended the exam in mourning clothes.",
        lex,
    )
    assert profile.get("sadness") == pytest.approx(0.33, abs=0.05)
    assert prevailing_emotion(profile) == "sadness"


def test_single_fear_token_scores_one():
    lex = parse_lexicon(["fire\tfear\t1"])
    profile = score("fire", lex)
    assert profile.get("fear") == 1.0
    assert profile.total_hits == 1


def test_no_lexicon_words_gives_zero_profile():
    lex = default_lexicon()
    profile = score("qwerty zxcvb", lex)
    assert profile.total_hits == 0
    assert all(v == 0.0 for v in profile.frequencies.values())


def test_scoring_uses_surface_forms_without_stemming():
    lex = parse_lexicon(["mourning\tsadness\t1"])
    assert score("Mourning!", lex).get("sadness") == 1.0
    # the stemmed form would be "mourn", which must NOT match
    assert score("mourn", lex).total_hits == 0


def test_frequencies_sum_to_one_when_hits():
    lex = default_lexicon()
    profile = score("panic and celebrate and panic", lex)
    assert profile.total_hits > 0
    assert sum(profile.frequencies.values()) == pytest.approx(1.0, abs=1e-12)


def test_duplication_invariance():
    lex = default_lexicon()
    text = "deadline panic happy grandfather"
    once = score(text, lex)
    twice = score(text + " " + text, lex)
    assert once.frequencies == twice.frequencies


def test_non_lexicon_token_changes_nothing():
    lex = default_lexicon()
    base = score("panic deadline", lex)
    extended = score("panic deadline zzgibberish", lex)
    assert base.frequencies == extended.frequencies


def test_prevailing_emotion_rules():
    assert prevailing_emotion(
        EmotionProfile({"sadness": 0.5, "fear": 0.2}, 10)
    ) == "sadness"
    assert prevailing_emotion(EmotionProfile({a: 0.0 for a in AFFECTS}, 0)) is None
    tie = EmotionProfile({"fear": 0.3, "sadness": 0.3}, 10)
    assert prevailing_emotion(tie) == "fear"  # alphabetical within the set
    assert prevailing_emotion(
        EmotionProfile({"joy": 0.9, "fear": 0.1}, 10)
    ) == "fear"  # joy is outside the negative-affect set


@given(st.text(alphabet="abcdefgh ", max_size=60))
def test_frequencies_bounded(text):
    lex = parse_lexicon(["abc\tjoy\t1", "de\tfear\t1", "de\tnegative\t1"])
    profile = score(text, lex)
    for affect in AFFECTS:
        assert 0.0 <= profile.get(affect) <= 1.0


def test_negative_affect_set_matches_convention():
    assert set(NEGATIVE_AFFECTS) == {"anger", "disgust", "fear", "sadness", "surprise"}
    assert list(NEGATIVE_AFFECTS) == sorted(NEGATIVE_AFFECTS)

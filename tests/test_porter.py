"""The stemmer is checked against the published rule examples of the
original algorithm definition (per step) and against the published sample
block of the reference vocabulary/output pair (full pipeline), and every
step is cross-checked against tests/porter_reference.py."""

import itertools
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresskit import porter, textprep

import porter_reference as reference
from conftest import load_script

STEP1A = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
]

STEP1B = [
    ("feed", "feed"),
    ("agreed", "agree"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    # cleanup rules after ED/ING removal
    ("conflated", "conflate"),
    ("troubled", "trouble"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
]

STEP1C = [("happy", "happi"), ("sky", "sky")]

STEP2 = [
    ("relational", "relate"),
    ("conditional", "condition"),
    ("rational", "rational"),
    ("valenci", "valence"),
    ("hesitanci", "hesitance"),
    ("digitizer", "digitize"),
    ("conformabli", "conformable"),
    ("radicalli", "radical"),
    ("differentli", "different"),
    ("vileli", "vile"),
    ("analogousli", "analogous"),
    ("vietnamization", "vietnamize"),
    ("predication", "predicate"),
    ("operator", "operate"),
    ("feudalism", "feudal"),
    ("decisiveness", "decisive"),
    ("hopefulness", "hopeful"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensitive"),
    ("sensibiliti", "sensible"),
]

STEP3 = [
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electric"),
    ("electrical", "electric"),
    ("hopeful", "hope"),
    ("goodness", "good"),
]

STEP4 = [
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
]

STEP5A = [("probate", "probat"), ("rate", "rate"), ("cease", "ceas")]
STEP5B = [("controll", "control"), ("roll", "roll")]

# Contiguous block from the published reference vocabulary and its stems.
REFERENCE_VOC = (
    "knack knackeries knacks knag knave knaves knavish kneaded kneading knee "
    "kneel kneeled kneeling kneels knees knell knelt knew knick knif knife "
    "knight knightly knights knit knits knitted knitting knives knob knobs "
    "knock knocked knocker knockers knocking knocks knopp knot knots"
).split()
REFERENCE_OUT = (
    "knack knackeri knack knag knave knave knavish knead knead knee "
    "kneel kneel kneel kneel knee knell knelt knew knick knif knife "
    "knight knightli knight knit knit knit knit knive knob knob "
    "knock knock knocker knocker knock knock knopp knot knot"
).split()


@pytest.mark.parametrize(
    "step,pairs",
    [
        (porter.step1a, STEP1A),
        (porter.step1b, STEP1B),
        (porter.step1c, STEP1C),
        (porter.step2, STEP2),
        (porter.step3, STEP3),
        (porter.step4, STEP4),
        (porter.step5a, STEP5A),
        (porter.step5b, STEP5B),
    ],
    ids=["1a", "1b", "1c", "2", "3", "4", "5a", "5b"],
)
def test_published_step_examples(step, pairs):
    for word, expected in pairs:
        assert step(word) == expected, f"{step.__name__}({word!r})"


def test_reference_vocabulary_block():
    assert len(REFERENCE_VOC) == len(REFERENCE_OUT) == 40
    for word, expected in zip(REFERENCE_VOC, REFERENCE_OUT):
        assert porter.stem_word(word) == expected, word


@pytest.mark.parametrize(
    "word,expected",
    [
        ("hitting", "hit"),
        ("smacking", "smack"),
        ("striking", "strike"),
        ("shocked", "shock"),
        ("city", "citi"),
        ("place", "place"),
        ("shelter", "shelter"),
        ("space", "space"),
    ],
)
def test_pipeline_vocabulary(word, expected):
    assert porter.stem_word(word) == expected


def test_short_words_unchanged():
    for word in ("a", "is", "us", "by", ""):
        assert porter.stem_word(word) == word


def test_non_letter_characters_pass_through():
    assert porter.stem_word("don't") == "don't"
    assert porter.stem_word("1990") == "1990"


# Cross-check against the stemmer as it was before the consonant-pattern
# rewrite (tests/porter_reference.py, a verbatim copy): every step and the
# whole pipeline must agree on every input below.
FUNCTIONS = ("step1a", "step1b", "step1c", "step2", "step3", "step4", "step5a", "step5b")
TABLE_SUFFIXES = tuple(
    [s for s, _ in reference._STEP2_RULES]
    + [s for s, _ in reference._STEP3_RULES]
    + list(reference._STEP4_SUFFIXES)
)
# Step 1 and step 5 suffixes, and the step 2 and 3 replacements.
RULE_SUFFIXES = TABLE_SUFFIXES + (
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "e", "ll",
) + tuple(r for _, r in reference._STEP2_RULES + reference._STEP3_RULES if r)
SUFFIX_CONSONANTS = "".join(sorted(set("".join(RULE_SUFFIXES)) - set("aeiouy")))
ALPHABET = "aeiouywx" + SUFFIX_CONSONANTS + "'1"
# No rule of steps 2-4 can change a word of 4 letters: their stems need
# m > 0 before a suffix of 3 or more letters, or m > 1. So the 4-letter
# words use only the consonants steps 1 and 5 name, w for the letters *o
# excludes (no rule tells w from x), and one non-letter (no rule names a
# digit or an apostrophe).
ALPHABET_4 = "aeiouyw" + "bdglnstz" + "'"
BASES = (
    "", "b", "a", "y", "by", "ay", "yy", "tr", "hop", "sky", "play", "oyst",
    "sens", "form", "feud", "hyp", "valen", "relat", "adopt", "digit",
    "electr", "triplic", "conflat", "control", "general", "angular", "boyy",
)
ENDINGS = ("", "s", "ed", "ing", "ly", "ness")
_STEP_PAIRS = [(name, getattr(porter, name), getattr(reference, name)) for name in FUNCTIONS]


def _mismatches(words):
    """(function, word, got, expected) for each disagreement. Each step is
    checked on the word the reference pipeline passes it, and stem_word on
    the input word. (reference.stem_word is the same chain after keeping
    words of length <= 2, so the chain's end is its result.)"""
    bad = []
    for word in words:
        current = word
        for name, step, reference_step in _STEP_PAIRS:
            expected = reference_step(current)
            got = step(current)
            if got != expected:
                bad.append((name, current, got, expected))
            current = expected
        expected = word if len(word) <= 2 else current
        if porter.stem_word(word) != expected:
            bad.append(("stem_word", word, porter.stem_word(word), expected))
    return bad


def test_matches_reference_on_every_short_string():
    words = [
        "".join(chars)
        for n in range(4)
        for chars in itertools.product(ALPHABET, repeat=n)
    ]
    words += ["".join(chars) for chars in itertools.product(ALPHABET_4, repeat=4)]
    assert _mismatches(words) == []


def test_matches_reference_on_bases_times_rule_suffixes():
    words = [
        base + suffix + ending
        for base in BASES
        for suffix in RULE_SUFFIXES
        for ending in ENDINGS
    ]
    assert _mismatches(words) == []


def _perfbench_gen():
    return load_script("perfbench/gen.py")


def test_matches_reference_on_the_benchmark_vocabulary():
    assert _mismatches(_perfbench_gen().Vocabulary().types) == []


def test_matches_reference_on_benchmark_one_off_tokens():
    """The typos, @-handles and x...ing ids that predict-cold's posts carry,
    as the stemmer sees them: after surface_tokens."""
    gen = _perfbench_gen()
    rng = random.Random(1414)
    words = [t for _ in range(5000) for t in textprep.surface_tokens(gen._one_off(rng))]
    assert len(words) >= 5000
    assert _mismatches(words) == []


_pieces = st.sampled_from(list(string.ascii_lowercase) + ["'", "1", "é"] + list(RULE_SUFFIXES))


@settings(max_examples=150)
@given(st.one_of(st.lists(_pieces, max_size=6).map("".join),
                 st.text(st.characters(categories=["Ll"]), max_size=12)))
def test_matches_reference_on_lowercase_text(word):
    assert _mismatches([word]) == []


_TABLES = (
    (porter._STEP2_RULES, porter._STEP2_BY_LETTER),
    (porter._STEP3_RULES, porter._STEP3_BY_LETTER),
    (porter._STEP4_SUFFIXES, porter._STEP4_BY_LETTER),
)


def _suffix(rule):
    return rule if isinstance(rule, str) else rule[0]


def test_first_table_match_is_the_longest():
    for rules, by_letter in _TABLES:
        for bucket in (rules, *by_letter.values()):
            suffixes = [_suffix(rule) for rule in bucket]
            for i, suffix in enumerate(suffixes):
                assert not any(suffix.endswith(earlier) for earlier in suffixes[:i]), suffix


def test_each_rule_lands_in_exactly_one_bucket():
    for rules, by_letter in _TABLES:
        for letter, bucket in by_letter.items():
            assert all(_suffix(rule).endswith(letter) for rule in bucket), letter
            assert list(bucket) == [rule for rule in rules if rule in bucket], letter
        assert sorted(r for bucket in by_letter.values() for r in bucket) == sorted(rules)


# stem_word calls a step only when the word's last letter is in the step's
# set in porter._STEPS; these check that the skip never changes a stem.
STEP_SETS = {step.__name__: last_letters for step, last_letters in porter._STEPS}
STEP_SUFFIXES = {
    "step1a": ("sses", "ies", "s"),
    "step1b": ("eed", "ed", "ing"),
    "step1c": ("y",),
    "step2": tuple(s for s, _ in porter._STEP2_RULES),
    "step3": tuple(s for s, _ in porter._STEP3_RULES),
    "step4": porter._STEP4_SUFFIXES,
    "step5a": ("e",),
    "step5b": ("ll",),
}


def test_steps_are_the_eight_in_order():
    assert [step.__name__ for step, _ in porter._STEPS] == list(FUNCTIONS)


def test_every_suffix_ends_in_a_letter_of_its_steps_set():
    for name, suffixes in STEP_SUFFIXES.items():
        for suffix in suffixes:
            assert suffix[-1] in STEP_SETS[name], (name, suffix)


_step_words = st.text(st.sampled_from("aeiouy" + SUFFIX_CONSONANTS + "wx1'é"),
                      min_size=1, max_size=12)


@settings(max_examples=300)
@given(st.one_of(_step_words, st.lists(_pieces, min_size=1, max_size=5).map("".join)))
def test_a_step_leaves_a_word_outside_its_set_unchanged(word):
    for step, last_letters in porter._STEPS:
        if word[-1] not in last_letters:
            assert step(word) == word, step.__name__


def _all_eight_steps(word):
    if len(word) <= 2:
        return word
    for name in FUNCTIONS:
        word = getattr(porter, name)(word)
    return word


_chars = st.sampled_from("aeiouy" + "bcdglmnrstz" + "0123456789'")


@settings(max_examples=500)
@given(st.one_of(
    st.text(_chars, min_size=1, max_size=12),
    # most random words fire no step, so half of them end in a rule's suffix
    st.builds(str.__add__, st.text(_chars, max_size=5), st.sampled_from(RULE_SUFFIXES)),
))
def test_stem_word_equals_running_all_eight_steps(word):
    assert porter.stem_word(word) == _all_eight_steps(word)

"""Porter suffix-stripping stemmer (the original 1980 rule set).

Implements the classic five-step algorithm over lowercase words; words of
length <= 2 are returned unchanged. Within a step, the longest matching
suffix is selected first and only then is its condition tested; if the
condition fails, no other rule in that step fires.

Every condition reads the word's consonant/vowel pattern, e.g. "trouble"
-> "ccvvccv": a, e, i, o and u are vowels; y is a consonant at position 0
or after a vowel, and a vowel after a consonant; any other character is a
consonant, digits and apostrophes included, so "don't" passes through
untouched. A stem of the form [C](VC)^m[V] has measure m = pattern.count("vc").

As in Porter's C version, steps 2-4 read only the rules whose suffix ends
in the word's last letter, one bucket per letter built at import from the
rule tables. A table lists a suffix that ends another one first (ational
before tional, ement before ment before ent), so a bucket's first match is
the longest. A step can change a word only if it ends in the last letter
of one of the step's suffixes, so `stem_word` calls a step only then."""

from __future__ import annotations


# An ASCII word without y maps to its pattern one character at a time.
_ASCII_PATTERN = {i: "v" if chr(i) in "aeiou" else "c" for i in range(128) if chr(i) != "y"}


def _pattern(word: str) -> str:
    if word.isascii() and "y" not in word:
        return word.translate(_ASCII_PATTERN)
    pattern = ""
    for ch in word:
        vowel = ch in "aeiou" or (ch == "y" and pattern.endswith("c"))
        pattern += "v" if vowel else "c"
    return pattern


def _measure(stem: str) -> int:
    return _pattern(stem).count("vc")


def _ends_cvc(word: str, pattern: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    return pattern.endswith("cvc") and word[-1] not in "wxy"


def step1a(word: str) -> str:
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b_cleanup(stem: str, pattern: str) -> str:
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    # *d (a double consonant) other than ll, ss or zz loses a letter
    if stem[-2:] == stem[-1] * 2 and pattern.endswith("c") and stem[-1] not in "lsz":
        return stem[:-1]
    if pattern.count("vc") == 1 and _ends_cvc(stem, pattern):
        return stem + "e"
    return stem


def step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            pattern = _pattern(stem)
            return _step1b_cleanup(stem, pattern) if "v" in pattern else word
    return word


def step1c(word: str) -> str:
    if word.endswith("y") and "v" in _pattern(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _by_last_letter(rules) -> dict:
    buckets = {}
    for rule in rules:
        buckets.setdefault((rule if isinstance(rule, str) else rule[0])[-1], []).append(rule)
    return {letter: tuple(bucket) for letter, bucket in buckets.items()}


_STEP2_BY_LETTER = _by_last_letter(_STEP2_RULES)
_STEP3_BY_LETTER = _by_last_letter(_STEP3_RULES)
_STEP4_BY_LETTER = _by_last_letter(_STEP4_SUFFIXES)


def _replace_suffix(word: str, by_letter) -> str:
    for suffix, replacement in by_letter.get(word[-1:], ()):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + replacement if _measure(stem) > 0 else word
    return word


def step2(word: str) -> str:
    return _replace_suffix(word, _STEP2_BY_LETTER)


def step3(word: str) -> str:
    return _replace_suffix(word, _STEP3_BY_LETTER)


def step4(word: str) -> str:
    for suffix in _STEP4_BY_LETTER.get(word[-1:], ()):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem if _measure(stem) > 1 else word
    return word


def step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        pattern = _pattern(stem)
        m = pattern.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, pattern)):
            return stem
    return word


def step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


_STEPS = (
    (step1a, frozenset("s")),
    (step1b, frozenset("dg")),
    (step1c, frozenset("y")),
    (step2, frozenset(_STEP2_BY_LETTER)),
    (step3, frozenset(_STEP3_BY_LETTER)),
    (step4, frozenset(_STEP4_BY_LETTER)),
    (step5a, frozenset("e")),
    (step5b, frozenset("l")),
)


def stem_word(word: str) -> str:
    """Stem a single lowercase token."""
    if len(word) <= 2:
        return word
    last = word[-1]
    for step, last_letters in _STEPS:
        if last in last_letters:
            word = step(word)
            last = word[-1]
    return word

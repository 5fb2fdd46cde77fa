"""Lexicon-based emotion-affect scoring.

The lexicon maps surface words to affect sets in the NRC word-level
association format (word<TAB>affect<TAB>flag). Scoring reads a text's
surface tokens (`textprep.surface_tokens`: lowercased and character-stripped,
WITHOUT stemming or stopword removal), because lexicon entries are surface
forms; the caller passes the tokens, so a post classified by the report
path is tokenized once for both.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import StressKitError, open_text

log = logging.getLogger(__name__)

AFFECTS = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "negative",
    "positive",
    "sadness",
    "surprise",
    "trust",
)

NEGATIVE_AFFECTS = ("anger", "disgust", "fear", "sadness", "surprise")


class EmotionLexicon(NamedTuple):
    word_affects: Mapping[str, frozenset[str]]
    version: str = "unversioned"


class EmotionProfile(NamedTuple):
    frequencies: Mapping[str, float]  # keyed by the full affect universe
    total_hits: int

    def get(self, affect: str) -> float:
        return self.frequencies.get(affect, 0.0)


def parse_lexicon(lines: Iterable[str], *, source: str = "<memory>") -> EmotionLexicon:
    word_affects: dict[str, set[str]] = {}
    version = "unversioned"
    n_rows = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped[1:].strip().lower().startswith("version:"):
                version = stripped.split(":", 1)[1].strip()
            continue
        parts = stripped.split("\t")
        if len(parts) != 3:
            raise StressKitError(f"{source}: line {lineno}: expected word<TAB>affect<TAB>flag")
        word, affect, flag = parts
        if affect not in AFFECTS:
            raise StressKitError(f"{source}: line {lineno}: unknown affect {affect!r}")
        if flag not in ("0", "1"):
            raise StressKitError(f"{source}: line {lineno}: flag must be 0 or 1, got {flag!r}")
        n_rows += 1
        if flag == "1":
            word_affects.setdefault(word.lower(), set()).add(affect)
    if n_rows == 0:
        log.warning("%s: empty emotion lexicon", source)
    return EmotionLexicon(
        word_affects={w: frozenset(a) for w, a in word_affects.items()},
        version=version,
    )


def load_lexicon(path: str | Path) -> EmotionLexicon:
    with open_text(path) as handle:
        text = handle.read()
    return parse_lexicon(text.splitlines(), source=str(path))


def default_lexicon() -> EmotionLexicon:
    from importlib import resources

    text = resources.files("stresskit.data").joinpath("emotion_lexicon.tsv").read_text("utf-8")
    return parse_lexicon(text.splitlines(), source="stresskit.data/emotion_lexicon.tsv")


def score_emotions(tokens: Sequence[str], lexicon: EmotionLexicon) -> EmotionProfile:
    """Each (token, affect) association is one hit; frequency(a) is
    hits(a) / total hits, so frequencies sum to 1 whenever any hit lands."""
    hits = {affect: 0 for affect in AFFECTS}
    total = 0
    affects_of = lexicon.word_affects.get
    for token in tokens:
        for affect in affects_of(token, ()):
            hits[affect] += 1
            total += 1
    if total == 0:
        return EmotionProfile(frequencies={a: 0.0 for a in AFFECTS}, total_hits=0)
    return EmotionProfile(
        frequencies={a: hits[a] / total for a in AFFECTS},
        total_hits=total,
    )


def prevailing_emotion(profile: EmotionProfile) -> str | None:
    """The negative affect (NEGATIVE_AFFECTS) with maximal frequency; ties
    break alphabetically; None when every frequency is zero."""
    best = None
    best_freq = 0.0
    for affect in sorted(NEGATIVE_AFFECTS):
        freq = profile.get(affect)
        if freq > best_freq:
            best, best_freq = affect, freq
    return best

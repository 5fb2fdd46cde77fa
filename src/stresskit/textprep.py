"""Six-stage text preprocessing: lowercase, strip non-characters, tokenize,
remove stopwords, stem, recombine.

Every stage is a pure function so each can be tested on its own; `preprocess`
is exactly their composition, the reference the tests hold the commands to.
The character-removal stage keeps letters, digits, whitespace and
apostrophes and turns everything else (including HTML tags, '@' and '_')
into single spaces. The first three stages give a post's surface tokens
(`surface_tokens`, one split of the stripped text).

Every command turns text into stems one way: one `TokenTable` per run is
its preprocessing. The table holds the stopwords, drops them from the surface
tokens and stems each distinct token once, and its fingerprint ties a saved
model to that chain. The reference composition takes the stopword set alone.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path
from typing import Iterable

from . import porter
from .errors import open_text

REMOVAL_CLASS_VERSION = "keep-letter-digit-space-apostrophe/1"

_NONCHAR_RE = re.compile(r"<[^>]*>|_|[^\w\s']")

TokenList = list[str]


def load_stopwords(source: str | Path | Iterable[str]) -> frozenset[str]:
    """Read a stopword file: one token per line, '#' comments allowed."""
    if isinstance(source, (str, Path)):
        with open_text(source) as handle:
            lines = handle.read().splitlines()
    else:
        lines = list(source)
    words = set()
    for line in lines:
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        words.add(token.lower())
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    text = resources.files("stresskit.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return load_stopwords(text.splitlines())


def lowercase(text: str) -> str:
    return text.lower()


def strip_noncharacters(text: str) -> str:
    """Drop HTML tags, '@', '_' and anything outside letters/digits/
    whitespace/apostrophe; collapse whitespace runs to single spaces."""
    return " ".join(_NONCHAR_RE.sub(" ", text).split())


def tokenize(text: str) -> TokenList:
    return text.split()


def surface_tokens(text: str) -> TokenList:
    """tokenize(strip_noncharacters(lowercase(text))), with one split."""
    return _NONCHAR_RE.sub(" ", text.lower()).split()


def remove_stopwords(tokens: TokenList, stopwords: frozenset[str]) -> TokenList:
    return [t for t in tokens if t not in stopwords]


def stem(tokens: TokenList) -> TokenList:
    return [porter.stem_word(t) for t in tokens]


class TokenTable(dict):
    """surface token -> None for a stopword, otherwise its Porter stem; a token is
    stemmed on its first lookup, so once per table."""

    def __init__(self, stopwords: frozenset[str]):
        for word in stopwords:
            if word != word.lower():
                raise ValueError(f"stopword not lowercase: {word!r}")
        super().__init__(dict.fromkeys(stopwords))
        self.stopwords = stopwords

    def fingerprint(self) -> str:
        """Stable hash of (stopword content, stemmer, removal class)."""
        import hashlib  # here: annotate, emotions and stats never hash
        h = hashlib.sha256()
        for word in sorted(self.stopwords):
            h.update(word.encode("utf-8") + b"\n")
        h.update(b"\x00porter")
        h.update(b"\x00" + REMOVAL_CLASS_VERSION.encode("utf-8"))
        return h.hexdigest()

    def __missing__(self, token: str) -> str:
        stemmed = self[token] = porter.stem_word(token)
        return stemmed

    def stems(self, tokens: TokenList) -> TokenList:
        """The stems of the tokens that are not stopwords, in order."""
        return [s for s in map(self.__getitem__, tokens) if s is not None]


def preprocess_stages(text: str, stopwords: frozenset[str]) -> dict[str, object]:
    """Run the pipeline keeping the token-level intermediates: the surface
    `tokens`, the tokens `without_stopwords`, their `stemmed` forms, and the
    joined `text`."""
    tokens = surface_tokens(text)
    kept = remove_stopwords(tokens, stopwords)
    stemmed = stem(kept)
    return {
        "tokens": tokens,
        "without_stopwords": kept,
        "stemmed": stemmed,
        "text": " ".join(stemmed),
    }


def preprocess(text: str, stopwords: frozenset[str]) -> str:
    """stem . remove_stopwords . tokenize . strip_noncharacters . lowercase,
    joined with single spaces."""
    return preprocess_stages(text, stopwords)["text"]  # type: ignore[return-value]

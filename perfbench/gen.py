"""Seeded synthetic inputs for the stresskit benchmark.

Every input is a pure function of (seed, size): the same seed writes the
same bytes. The program under test receives only the files written here.

Text is drawn from a synthetic Zipfian vocabulary, the same for every
seed, as a language is: the seed picks the documents, not the words they
may use. A vocabulary redrawn per seed would put different words at the
most frequent ranks, which carry a third of all tokens, and the stemming
cost of those few words would then move throughput by seed. Word types are built
from a few thousand random bases, each carrying one to four English-like
suffixes, so the Porter stemmer does real suffix stripping and folds
several surface forms onto one stem. About a third of the tokens are
function words that the stopword stage removes. Stressed and calm
documents mix in class cue words, many of which are in the vendored
emotion lexicon.
"""

from __future__ import annotations

import csv
import itertools
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

ONSETS = ("b c d f g h j k l m n p r s t v w z br cl dr fl gr pl pr sk sl sp st tr "
          "ch sh th").split()
NUCLEI = "a e i o u ai ea io ou".split()
CODAS = ["", "", "", "n", "r", "l", "s", "t", "m", "nd", "rt", "st", "ck"]
SUFFIXES = ["", "s", "ing", "ed", "er", "ly", "ness", "ment", "ation", "ful", "able",
            "ive", "ize", "ous", "ity", "al", "ational", "fulness", "ization"]

FUNCTION_WORDS = ("i me my we our you your he she it they them the a an and but if or "
                  "because as of at by for with about to from in out on over then so "
                  "than too very can will just not no is was are were be been have had "
                  "do did this that these those what which who when where how").split()

SHARED_WORDS = ("student class work time people think semester email lecture research "
                "lab paper campus course professor assignment project library office "
                "meeting group schedule topic question reading week day friend family "
                "sleep money home job life school").split()

STRESS_CUES = ("deadline panic overwhelmed exam fail failing anxious crying pressure "
               "burnout exhausted worried stress stressed thesis dread nightmare hopeless "
               "miserable crisis terrified awful desperate lonely suffering depressed fear "
               "failure tears sleepless rejection anxiety worry hurt lost pain sad scared "
               "frustrated insecure regret worse worst").split()

CALM_CUES = ("weekend hobby coffee garden celebrate friends music relax vacation game "
             "sunny walk happy proud fun grateful excited wonderful delighted cheerful "
             "success peaceful lucky smile laughter pleasant confident hopeful calm "
             "satisfied refreshed joy love enjoy glad great good relief win").split()

TAGS = ["Vent", "Advice", "Humor", "Research", ""]

# Five mapped communities in four groups, plus one the mapping leaves out,
# so the report routes it to "other".
COMMUNITIES = [
    ("r/csMajors", "Bachelor students", 18),
    ("r/EngineeringStudents", "Bachelor students", 12),
    ("r/GradSchool", "Graduate students", 22),
    ("r/PhD", "PhD students", 22),
    ("r/Professors", "Professors", 16),
    ("r/AskAcademia", None, 10),
]

ANNOTATORS = ["a1", "a2", "a3", "a4", "a5", "psy", "adv"]
ADVERSARIAL = "adv"

CUE_RATE = 0.08        # share of content tokens that are class cues
OFF_CLASS_RATE = 0.25  # share of cue tokens drawn from the other class
STOPWORD_RATE = 0.33   # share of tokens that are function words


class Vocabulary:
    """A fixed Zipfian word-type distribution shared by every workload."""

    def __init__(self, n_types: int = 18000, exponent: float = 1.05):
        rng = random.Random("stresskit-benchmark-vocabulary")
        types: list[str] = []
        seen = set(FUNCTION_WORDS) | set(STRESS_CUES) | set(CALM_CUES)
        while len(types) < n_types:
            base = "".join(
                rng.choice(ONSETS) + rng.choice(NUCLEI) + rng.choice(CODAS)
                for _ in range(rng.choice((1, 2, 2, 3)))
            )
            for suffix in rng.sample(SUFFIXES, rng.randint(1, 4)):
                word = base + suffix
                if word not in seen:
                    seen.add(word)
                    types.append(word)
        types = types[:n_types]
        rng.shuffle(types)
        # Real words take evenly spaced ranks among the most frequent 400.
        for k, word in enumerate(SHARED_WORDS):
            types.insert(k * 400 // len(SHARED_WORDS), word)
        self.types = types
        self.cum_weights = list(
            itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(len(types)))
        )

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.types, cum_weights=self.cum_weights, k=k)


class TextStats:
    """Surface properties of generated text: tokens per document and how
    much the content tokens (the stemmer's inputs) repeat."""

    def __init__(self):
        self.docs = 0
        self.tokens = 0
        self.content = 0
        self.types: set[str] = set()

    def add(self, n_tokens: int, content: list[str]) -> None:
        self.docs += 1
        self.tokens += n_tokens
        self.content += len(content)
        self.types.update(content)

    def facts(self) -> dict:
        return {
            "docs": self.docs,
            "tokens_per_doc": round(self.tokens / max(self.docs, 1), 2),
            "type_count": len(self.types),
            "content_repeat_share": round(1 - len(self.types) / max(self.content, 1), 4),
        }


def _one_off(rng: random.Random) -> str:
    """A token that almost surely occurs once: a random letter string (a
    typo), an @-handle, or an alphanumeric id with a suffix to strip."""
    kind = rng.random()
    tail = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(7))
    if kind < 0.4:
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(5, 10)))
    if kind < 0.7:
        return "@u" + tail
    return "x" + tail + "ing"


def make_text(
    rng: random.Random,
    vocab: Vocabulary,
    stressed: bool,
    n_tokens: int,
    one_off_rate: float = 0.0,
) -> tuple[str, int, list[str]]:
    """Returns the text, its token count and its content tokens."""
    cues, other = (STRESS_CUES, CALM_CUES) if stressed else (CALM_CUES, STRESS_CUES)
    drawn = vocab.draw(rng, n_tokens)
    words, content = [], []
    for word in drawn:
        r = rng.random()
        if r < STOPWORD_RATE:
            words.append(rng.choice(FUNCTION_WORDS))
            continue
        r = rng.random()
        if r < one_off_rate:
            word = _one_off(rng)
        elif r < one_off_rate + CUE_RATE:
            word = rng.choice(other if rng.random() < OFF_CLASS_RATE else cues)
        words.append(word)
        content.append(word.lstrip("@"))
    sentences, i = [], 0
    while i < len(words):
        n = rng.randint(6, 16)
        chunk = words[i:i + n]
        chunk[0] = chunk[0].capitalize()
        sentences.append(" ".join(chunk) + rng.choice((".", ".", ".", "!", "?", ",")))
        i += n
    text = " ".join(sentences)
    if rng.random() < 0.15:
        text = f"<p>{text}</p>"
    return text, len(words), content


def write_labeled(path: Path, vocab: Vocabulary, n: int, rng: random.Random,
                  stats: TextStats) -> int:
    """Write n labeled rows; returns how many are labeled stressed (1)."""
    stressed = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "text", "label", "domain"])
        for i in range(n):
            label = 1 if rng.random() < 0.52 else 0
            if i < 2:
                label = i  # both classes even in a two-row file
            text, n_tokens, content = make_text(rng, vocab, bool(label), rng.randint(70, 130))
            stats.add(n_tokens, content)
            writer.writerow([f"d{i:05d}", text, label,
                             rng.choice(["anxiety", "financial", "social", "ptsd"])])
            stressed += label
    return stressed


def write_posts(
    path: Path,
    vocab: Vocabulary,
    n: int,
    rng: random.Random,
    stats: TextStats,
    *,
    one_off_rate: float = 0.0,
    empty_rate: float = 0.0,
) -> list[str | None]:
    """Write n posts; returns each row's community, None for a row whose
    title and body are both empty (the program skips it)."""
    start = datetime(2022, 9, 1, tzinfo=timezone.utc)
    names = [c for c, _, _ in COMMUNITIES]
    weights = [w for _, _, w in COMMUNITIES]
    rows, communities = [], []
    for i in range(n):
        community = rng.choices(names, weights=weights)[0]
        date = start + timedelta(days=rng.randint(0, 364), hours=rng.randint(0, 23))
        date_cell = str(int(date.timestamp())) if i % 9 == 0 else date.isoformat()
        stressed = rng.random() < 0.5
        if i > 0 and rng.random() < empty_rate:
            title = body = ""
            communities.append(None)
        else:
            title, n_title, c_title = ("", 0, []) if rng.random() < 0.3 else make_text(
                rng, vocab, stressed, rng.randint(5, 12), one_off_rate)
            body, n_body, c_body = make_text(rng, vocab, stressed, rng.randint(70, 120),
                                             one_off_rate)
            stats.add(n_title + n_body, c_title + c_body)
            communities.append(community)
        rows.append([f"p{i:06d}", date_cell, title, body, rng.randint(-20, 300),
                     rng.choice(TAGS), community, rng.choice(["post", "comment"])])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "date", "title", "text", "score", "tag", "community", "kind"])
        writer.writerows(rows)
    return communities


def write_mapping(path: Path) -> dict[str, str]:
    mapping = {c: g for c, g, _ in COMMUNITIES if g is not None}
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["community", "group"])
        writer.writerows(sorted(mapping.items()))
    return mapping


def write_annotations(sheet: Path, weights: Path, vocab: Vocabulary, n_items: int,
                      rng: random.Random, *, unanimous: bool = False) -> None:
    """n_items x 7 annotators on [-5, 5] with 5% of scores missing. The
    adversarial annotator is off by 5 on 70% of items, so it is excluded at
    the default 40% outlier threshold; the others stay well below it."""
    with open(sheet, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["item_id", "text", *ANNOTATORS])
        for i in range(n_items):
            true = rng.randint(-4, 4)
            row = [f"x{i:06d}", " ".join(vocab.draw(rng, 6))]
            missing = 0
            for annotator in ANNOTATORS:
                if unanimous:
                    row.append(true)
                    continue
                if annotator not in ("psy", ADVERSARIAL) and missing < 2 and rng.random() < 0.06:
                    row.append("")
                    missing += 1
                    continue
                if annotator == ADVERSARIAL and rng.random() < 0.7:
                    noise = 5 if true < 0 else -5
                elif annotator == "psy":
                    noise = 0
                else:
                    noise = rng.choice([0] * 8 + [-1, 1])
                row.append(max(-5, min(5, true + noise)))
            writer.writerow(row)
    with open(weights, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["annotator_id", "weight"])
        for annotator in ANNOTATORS:
            writer.writerow([annotator, 2.0 if annotator == "psy" else 1.0])

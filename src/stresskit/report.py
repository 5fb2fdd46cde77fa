"""Apply a trained model to a post corpus and build the corpus-level
stress report: per-group stress percentages, academic-year monthly series,
upvote statistics, top stressed-text words, and emotion summaries.

Each post is tokenized once: its surface tokens feed emotion scoring, and
the run's textprep.TokenTable gives their stems. classified_posts
classifies posts as they are read, and build_report reads them once,
folding each into its group's GroupTally, so no post outlives its row.

Months are bucketed September through August to match the academic year.
The upvote median uses the mean-of-two convention for even counts and the
standard deviation is the population form; both choices are recorded in
the report metadata.

The report is the report.json document itself, plain dicts and lists:
build_report returns it, emit_report writes it and cuts the CSV tables
from it.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from collections import Counter, defaultdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import classify, emotion, textprep
from .corpus import PostRecord, cell, open_rows
from .errors import StressKitError, atomic_outputs

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

MONTHS = ("Sep", "Oct", "Nov", "Dec", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug")

OTHER_GROUP = "other"

DEFAULT_GROUP_MAP: Mapping[str, str] = {
    "r/csMajors": "Bachelor students",
    "r/EngineeringStudents": "Bachelor students",
    "r/GradSchool": "Graduate students",
    "r/PhD": "PhD students",
    "r/Professors": "Professors",
}


class ClassifiedPost:  # not a tuple: tests weakref each one to show that the report holds none
    def __init__(self, post: PostRecord, label: int, tokens: tuple[str, ...],
                 emotions: emotion.EmotionProfile | None = None):
        self.post, self.label, self.emotions = post, label, emotions
        self.tokens = tokens  # preprocessed text, as classified


def month_index(when: datetime) -> int:
    """Academic-year bucket: September is 0, August is 11."""
    return (when.month - 9) % 12


def classified_posts(
    model: classify.LinearModel,
    posts: Iterable[PostRecord],
    table: textprep.TokenTable,
    *,
    lexicon: emotion.EmotionLexicon,
) -> Iterator[ClassifiedPost]:
    """One ClassifiedPost per input, in order, as each post is read.
    Classification input text is the title and body joined with one space,
    tokenized once and read through the run's token table: the kept tokens'
    stems are classified and kept on the result (posts share the table's
    strings), and the surface tokens of a stressed post are emotion-scored."""
    for post in posts:
        tokens = textprep.surface_tokens(post.text)
        stems = table.stems(tokens)
        label = classify.predict_stems(model, stems).label
        profile = emotion.score_emotions(tokens, lexicon) if label == 1 else None
        yield ClassifiedPost(post=post, label=label, tokens=tuple(stems), emotions=profile)


def classify_corpus(model: classify.LinearModel, posts: Iterable[PostRecord],
                    table: textprep.TokenTable, *,
                    lexicon: emotion.EmotionLexicon) -> list[ClassifiedPost]:
    """classified_posts as a list, after the fingerprint check."""
    classify.check_fingerprint(model, table)
    return list(classified_posts(model, posts, table, lexicon=lexicon))


class GroupTally:
    """What the report keeps of one group's classified posts: the upvote
    scores per label and, of the stressed posts, the stem counts and, in
    13 buckets (the 12 months, then undated), the post counts and each
    negative affect's values; those values also overall, in input order."""

    def __init__(self):
        self.scores: tuple[list[int], list[int]] = ([], [])  # indexed by label
        self.words: Counter[str] = Counter()
        self.months = [0] * 13
        self.affects: dict[str, list[float]] = {a: [] for a in emotion.NEGATIVE_AFFECTS}
        self.affect_months: dict[str, list[list[float]]] = {
            a: [[] for _ in range(13)] for a in emotion.NEGATIVE_AFFECTS}

    def add(self, item: ClassifiedPost) -> None:
        self.scores[item.label].append(item.post.score)
        if item.label != 1:
            return
        self.words.update(item.tokens)
        month = 12 if item.post.date is None else month_index(item.post.date)
        self.months[month] += 1
        for affect, values in self.affects.items():
            value = item.emotions.get(affect)
            values.append(value)
            self.affect_months[affect][month].append(value)


def tally_groups(classified: Iterable[ClassifiedPost],
                 group_map: Mapping[str, str]) -> dict[str, GroupTally]:
    """One GroupTally per group, sorted by name, from one read of
    `classified`. Communities not in the map are routed to the "other"
    group, and named in one warning."""
    tallies: defaultdict[str, GroupTally] = defaultdict(GroupTally)
    unmapped = set()
    for item in classified:
        community = item.post.community
        if community not in group_map:
            unmapped.add(community)
        tallies[group_map.get(community, OTHER_GROUP)].add(item)
    if unmapped:
        log.warning("unmapped communities routed to %r: %s", OTHER_GROUP, sorted(unmapped))
    return dict(sorted(tallies.items()))


def stress_summary(tally: GroupTally) -> dict[str, float | int]:
    """The group's total, stressed count and percentages (rounded to 0.1)."""
    stressed = len(tally.scores[1])
    total = stressed + len(tally.scores[0])
    return {"total": total, "stressed": stressed,
            "stressed_pct": round(100.0 * stressed / total, 1),
            "not_stressed_pct": round(100.0 * (total - stressed) / total, 1)}


def mean_stress_pct(group_percentages: Sequence[float]) -> int:
    """Unweighted mean of group stressed-percentages, whole-percent."""
    return round(sum(group_percentages) / len(group_percentages))


def monthly_distribution(tally: GroupTally) -> dict:
    """Counts of stressed items per academic-year month bucket:
    {"monthly": 12 counts, "monthly_unknown": undated count}."""
    return {"monthly": tally.months[:12], "monthly_unknown": tally.months[12]}


def upvote_stats(tally: GroupTally) -> dict[str, dict | None]:
    """Mean, median (mean of the middle two for even counts) and population
    std of scores per stress class: {"mean", "median", "std", "n"}, or None
    for a class with no items."""
    import statistics  # here, not at start-up: only the report reads it
    out: dict[str, dict | None] = {}
    for key, label in (("stressed", 1), ("not_stressed", 0)):
        scores = sorted(tally.scores[label])
        if not scores:
            out[key] = None
            continue
        out[key] = {
            "mean": statistics.fmean(scores),
            "median": float(statistics.median(scores)),
            "std": statistics.pstdev(scores),
            "n": len(scores),
        }
    return out


def top_words(tally: GroupTally, n: int) -> list[tuple[str, int]]:
    """Most frequent preprocessed tokens over stressed texts; count
    descending, ties alphabetical."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ranked = sorted(tally.words.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n]


def _percentile(ordered: Sequence[float], q: float) -> float:
    """numpy's default (linear) percentile of sorted values, bit for bit, for
    q = 0.25, 0.5 or 0.75, whose virtual index (n-1)*q is exact. At the last
    index numpy takes the last value; below it, it interpolates from the
    lower neighbour when t < 0.5 and from the upper one from there on."""
    index = (len(ordered) - 1) * q
    lower = int(index)
    if lower >= len(ordered) - 1:
        return ordered[-1]
    t = index - lower
    a, b = ordered[lower], ordered[lower + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _five_number(values: Sequence[float]) -> dict:
    ordered = sorted(map(float, values))
    q1, med, q3 = (_percentile(ordered, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    low, high = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = [float(v) for v in values if v < low or v > high]
    return {"min": ordered[0], "q1": q1, "median": med, "q3": q3, "max": ordered[-1],
            "outliers": outliers}


def emotion_summary(tally: GroupTally) -> dict:
    """Per-month mean affect frequency and a five-number whisker summary
    (outliers beyond 1.5 IQR) over stressed items, from the profiles that
    classified_posts computed: {"monthly": affect -> 12 means or None,
    "whisker": affect -> _five_number}. An undated item counts in the
    whisker only."""
    monthly = {
        affect: [(sum(vals) / len(vals)) if vals else None for vals in months[:12]]
        for affect, months in tally.affect_months.items()
    }
    whisker = {affect: _five_number(vals) for affect, vals in tally.affects.items() if vals}
    return {"monthly": monthly, "whisker": whisker}


def build_report(
    classified: Iterable[ClassifiedPost],
    group_map: Mapping[str, str],
    *,
    table: textprep.TokenTable,
    lexicon: emotion.EmotionLexicon,
    top_n: int = 10,
    model_kind: str = "",
    model_fingerprint: str = "",
    seed: int | None = None,
) -> dict:
    """The report.json document: schema_version, model, one entry per group
    (sorted by name), overall and metadata. Reads `classified` once and
    keeps only each group's GroupTally, so a stream of posts is never held."""
    groups = [{
        "name": name,
        **stress_summary(tally),  # total, stressed, stressed_pct, not_stressed_pct
        **monthly_distribution(tally),
        "upvotes": upvote_stats(tally),
        "top_words": [[token, count] for token, count in top_words(tally, top_n)],
        "emotions": emotion_summary(tally),
    } for name, tally in tally_groups(classified, group_map).items()]
    overall = mean_stress_pct([g["stressed_pct"] for g in groups]) if groups else 0
    metadata: dict[str, object] = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "classification_text": "title+body",
        "upvote_median": "mean_of_two",
        "upvote_std": "population",
        "monthly_order": "Sep..Aug",
        "binarization": "stressed iff weighted mean < 0",
        "lexicon_version": lexicon.version,
        "preprocessing_fingerprint": table.fingerprint(),
    }
    if seed is not None:
        metadata["seed"] = seed
    return {
        "schema_version": SCHEMA_VERSION,
        "model": {"kind": model_kind, "fingerprint": model_fingerprint},
        "groups": groups,
        "overall": {"mean_stress_pct": overall},
        "metadata": metadata,
    }


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _csv_tables(report: dict) -> dict[str, str]:
    """The CSV form of the report document: file name -> contents."""
    groups = report["groups"]
    upvote_rows = []
    for g in groups:
        for cls, stats in g["upvotes"].items():
            if stats is None:
                upvote_rows.append([g["name"], cls, "", "", "", 0])
            else:
                upvote_rows.append([g["name"], cls, stats["mean"], stats["median"],
                                    stats["std"], stats["n"]])
    emotion_rows = []
    for g in groups:
        for affect, means in sorted(g["emotions"]["monthly"].items()):
            for month, value in zip(MONTHS, means):
                emotion_rows.append(
                    [g["name"], affect, month, "" if value is None else value,
                     "", "", "", "", "", ""]
                )
        for affect, w in sorted(g["emotions"]["whisker"].items()):
            emotion_rows.append(
                [g["name"], affect, "all", "", w["min"], w["q1"], w["median"], w["q3"],
                 w["max"], len(w["outliers"])]
            )
    return {
        "summary.csv": _csv_text(
            ["group", "total", "stressed", "stressed_pct", "not_stressed_pct"],
            [[g["name"], g["total"], g["stressed"], g["stressed_pct"], g["not_stressed_pct"]]
             for g in groups]),
        "monthly.csv": _csv_text(
            ["group", *MONTHS, "unknown"],
            [[g["name"], *g["monthly"], g["monthly_unknown"]] for g in groups]),
        "upvotes.csv": _csv_text(["group", "class", "mean", "median", "std", "n"], upvote_rows),
        "top_words.csv": _csv_text(
            ["group", "rank", "token", "count"],
            [[g["name"], rank, token, count]
             for g in groups
             for rank, (token, count) in enumerate(g["top_words"], start=1)]),
        "emotions.csv": _csv_text(
            ["group", "affect", "month", "mean", "min", "q1", "median", "q3", "max",
             "n_outliers"],
            emotion_rows),
    }


def emit_report(report: dict, format: str, outdir: str | Path) -> list[Path]:
    """Write the report into the existing directory `outdir`: report.json
    (json), one file per table (csv), or both. All files appear together
    or, on failure, none of them does (errors.atomic_outputs). Returns the
    written paths."""
    if format not in ("json", "csv", "both"):
        raise StressKitError(f"unknown report format {format!r} (expected json, csv or both)")
    outdir = Path(outdir)
    outputs: dict[Path, str] = {}
    if format != "csv":
        outputs[outdir / "report.json"] = json.dumps(report, indent=2) + "\n"
    if format != "json":
        outputs.update((outdir / name, text) for name, text in _csv_tables(report).items())
    with atomic_outputs(*outputs) as partials:
        for partial, text in zip(partials, outputs.values()):
            with open(partial, "w", newline="", encoding="utf-8") as handle:
                handle.write(text)
    return list(outputs)


def load_group_map(path: str | Path) -> dict[str, str]:
    """CSV community,group, cells stripped. Both cells are required, and a
    community is listed once."""
    mapping = {}
    with open_rows(path, ("community", "group")) as reader:
        for row in reader:
            community, group = cell(row, "community"), cell(row, "group")
            if not (community and group):
                raise StressKitError(f"{'group' if community else 'community'} is empty")
            if community in mapping:
                raise StressKitError(f"community {community!r} is listed twice")
            mapping[community] = group
    return mapping

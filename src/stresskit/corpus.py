"""Corpus ingestion: labeled training examples and unlabeled post records
from CSV files (RFC-4180, UTF-8, header row mandatory).

`open_rows` and `cell` are the package's one way to read a CSV with named
columns: the posts and labeled files here, the emotions input, the group
map and the annotator weights. A required column absent from the header
raises StressKitError naming the file and the column; cells are read
stripped, and an absent optional column reads as empty. Rows with empty
text are skipped, not fatal: `LoadSummary.count` tallies each one and logs
it as `PATH: line N: reason`, N being the line on which the record ends.
Loaders raise bare reasons, and are the only check on a row; `located`
words them, and a record the csv module cannot read, as `PATH: line N:
reason` too. A record keeps only the fields some command reads.
`iter_post_rows` yields each post as its row is read: predict, analyze and
stats stream through it and hold no list.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import StressKitError, open_text
from . import textprep

log = logging.getLogger(__name__)


POST_KINDS = ("post", "comment")
POST_COLUMNS = ("date", "text", "community")  # the columns a posts file must have


class LabeledExample(NamedTuple):
    text: str
    label: int


class PostRecord:  # not a tuple: tests weakref posts to show that a stream holds none
    def __init__(self, date: datetime, text: str, score: int, community: str,
                 tag: str | None = None):
        self.date, self.text, self.score = date, text, score  # text: post_text of the row
        self.community, self.tag = community, tag

    def __eq__(self, other):
        return type(other) is PostRecord and vars(self) == vars(other)


class LoadSummary:
    def __init__(self):
        self.rows_read = self.rows_kept = self.rows_skipped = 0
        self.errors: list[str] = []

    def count(self, path: str | Path, reader, skip_reason: str | None) -> bool:
        """Tally reader's current record: kept if skip_reason is None, else
        skipped, its `line N: reason` kept and logged. Returns if it was kept."""
        self.rows_read += 1
        if skip_reason is None:
            self.rows_kept += 1
            return True
        self.rows_skipped += 1
        self.errors.append(f"{_line(reader)}: {skip_reason}")
        log.warning("%s: %s", path, self.errors[-1])
        return False

    def to_json(self) -> str:
        return json.dumps(vars(self))


def _line(reader) -> str:  # the line on which reader's current record ends
    # read the csv.reader under a DictReader: its line_num counts every line read
    return f"line {getattr(reader, 'reader', reader).line_num}"


@contextlib.contextmanager
def located(path: str | Path, reader):
    """Re-raise a StressKitError or csv.Error from the block as `PATH: line N: reason`."""
    try:
        yield
    except (StressKitError, csv.Error) as exc:
        raise StressKitError(f"{path}: {_line(reader)}: {exc}") from None


@contextlib.contextmanager
def open_rows(path: str | Path, required: Sequence[str]):
    """A csv.DictReader over the file, once its header row is known to
    hold every required column. Every StressKitError raised in the block,
    by row reading or by other work there, is `located` at the reader's line."""
    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise StressKitError(f"{path}: file has no header row")
        missing = [column for column in required if column not in reader.fieldnames]
        if missing:
            raise StressKitError(
                f"{path}: column {missing[0]!r} not in header {list(reader.fieldnames)}")
        with located(path, reader):
            yield reader


def cell(row: Mapping[str, str | None], column: str) -> str:
    return (row.get(column) or "").strip()


def post_text(row: Mapping[str, str | None]) -> str:
    """A post's text: its title and body (`text` column) joined with one space."""
    return f"{cell(row, 'title')} {cell(row, 'text')}".strip()


def load_labeled_with_summary(path: str | Path) -> tuple[list[LabeledExample], LoadSummary]:
    summary = LoadSummary()
    examples: list[LabeledExample] = []
    with open_rows(path, required=("text", "label")) as reader:
        for row in reader:
            text = cell(row, "text")
            if not summary.count(path, reader, None if text else "empty text (skipped)"):
                continue
            raw_label = cell(row, "label")
            if raw_label not in ("0", "1"):
                raise StressKitError(f"label {raw_label!r} is not 0/1")
            examples.append(LabeledExample(text=text, label=int(raw_label)))
    return examples, summary


def load_labeled(path: str | Path) -> list[LabeledExample]:
    return load_labeled_with_summary(path)[0]


def parse_date(cell: str) -> datetime:
    """ISO-8601 first, then integer epoch seconds; always returns UTC."""
    cell = cell.strip()
    iso = cell[:-1] + "+00:00" if cell.endswith("Z") else cell
    try:
        parsed = datetime.fromisoformat(iso)
    except ValueError:
        pass
    else:
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        try:
            return parsed.astimezone(timezone.utc)
        except OverflowError:  # a date at either end of the calendar, shifted past it
            raise StressKitError(f"date {cell!r} is out of range in UTC") from None
    try:
        epoch = int(cell)
    except ValueError:
        raise StressKitError(f"date {cell!r} is neither ISO-8601 nor epoch seconds")
    try:
        return datetime.fromtimestamp(epoch, tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise StressKitError(f"epoch seconds {cell!r} out of range ({exc})") from None


def iter_post_rows(reader: csv.DictReader, path: str | Path, summary: LoadSummary):
    """Yield (rownum, raw_row, record_or_None) per data row of reader, an
    open_rows reader over path with the POST_COLUMNS, in file order. Each
    row is tallied in summary; a row with no title or body is skipped (its
    record is None). Unparseable dates/fields abort; open_rows locates them."""
    for rownum, row in enumerate(reader, start=2):
        text = post_text(row)
        if not summary.count(path, reader, None if text
                             else "title and body both empty (skipped)"):
            yield rownum, row, None
            continue
        date = parse_date(cell(row, "date"))
        raw_score = cell(row, "score")
        try:
            score = int(raw_score) if raw_score else 0
        except ValueError:
            raise StressKitError(f"score {raw_score!r} is not an integer")
        if abs(score) >= 2**53:  # every int below this is exact as a float
            raise StressKitError(f"score {raw_score!r} is outside ±2^53")
        raw_kind = cell(row, "kind").lower()
        if raw_kind and raw_kind not in POST_KINDS:
            raise StressKitError(f"kind {raw_kind!r} not in {POST_KINDS}")
        community = cell(row, "community")
        if not community:
            raise StressKitError("community is empty")
        yield rownum, row, PostRecord(date=date, text=text, score=score, community=community,
                                      tag=cell(row, "tag") or None)


def load_posts_with_summary(path: str | Path) -> tuple[list[PostRecord], LoadSummary]:
    summary = LoadSummary()
    with open_rows(path, POST_COLUMNS) as reader:
        records = [record for _, _, record in iter_post_rows(reader, path, summary)
                   if record is not None]
    return records, summary


def corpus_stats(records: Iterable[PostRecord], table: textprep.TokenTable) -> dict:
    """The stats JSON document: exact per-community/per-tag counts plus the
    distinct preprocessed token count across all titles and bodies. Reads
    `records` once, so a stream of them is never held."""
    per_community: dict[str, int] = {}
    per_tag: dict[str, int] = {}
    vocabulary: set[str] = set()
    for rec in records:
        per_community[rec.community] = per_community.get(rec.community, 0) + 1
        if rec.tag is not None:
            per_tag[rec.tag] = per_tag.get(rec.tag, 0) + 1
        vocabulary.update(table.stems(textprep.surface_tokens(rec.text)))
    return {
        "record_count": sum(per_community.values()),  # one community per record
        "per_community": dict(sorted(per_community.items())),
        "per_tag": dict(sorted(per_tag.items())),
        "unique_words": len(vocabulary),
    }

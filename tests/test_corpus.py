import ast
import csv
import importlib
import re
from datetime import datetime, timezone

import pytest

from stresskit import corpus
from stresskit.corpus import (
    LabeledExample,
    PostRecord,
    corpus_stats,
    load_labeled,
    load_labeled_with_summary,
    load_posts_with_summary,
    parse_date,
)
from stresskit.errors import StressKitError
from stresskit.textprep import TokenTable

from conftest import REPO_ROOT


def test_load_labeled_two_rows(write_csv):
    path = write_csv(
        [["id", "text", "label", "domain"],
         ["a", "first text", "1", "anxiety"],
         ["b", "second text", "0", ""]]
    )
    assert load_labeled(path) == [LabeledExample("first text", 1),
                                  LabeledExample("second text", 0)]


def test_load_labeled_bad_label_names_row(write_csv):
    path = write_csv([["id", "text", "label"], ["a", "some text", "yes"]])
    with pytest.raises(StressKitError, match="line 2: label 'yes' is not 0/1"):
        load_labeled(path)


def test_load_labeled_missing_column(write_csv):
    path = write_csv([["id", "body", "label"], ["a", "x", "1"]])
    with pytest.raises(StressKitError, match="column 'text' not in header"):
        load_labeled(path)


def test_load_posts_needs_a_header_and_the_required_columns(write_csv):
    with pytest.raises(StressKitError, match="empty.csv: file has no header row"):
        load_posts_with_summary(write_csv([], name="empty.csv"))
    for column in ("date", "text", "community"):
        header = [c for c in ("date", "text", "community") if c != column]
        with pytest.raises(StressKitError, match=f"column '{column}' not in header"):
            load_posts_with_summary(write_csv([header, ["2023-01-01", "x"]]))


def test_load_posts_absent_optional_columns_read_as_empty(write_csv):
    path = write_csv([["date", "text", "community"], ["2023-01-01", "body", "r/PhD"]])
    [record], _ = load_posts_with_summary(path)
    assert (record.text, record.score, record.tag) == ("body", 0, None)


def test_load_labeled_skips_empty_text_rows(write_csv):
    path = write_csv(
        [["id", "text", "label"], ["a", "  ", "1"], ["b", "kept", "0"]]
    )
    examples, summary = load_labeled_with_summary(path)
    assert len(examples) == 1
    assert summary.rows_read == 2
    assert summary.rows_kept == 1
    assert summary.rows_skipped == 1
    assert "line 2" in summary.errors[0]


def test_label_totals_partition(write_csv):
    rows = [["id", "text", "label"]] + [
        ["r%d" % i, "text %d" % i, str(i % 2)] for i in range(10)
    ]
    examples = load_labeled(write_csv(rows))
    ones = sum(1 for e in examples if e.label == 1)
    zeros = sum(1 for e in examples if e.label == 0)
    assert ones + zeros == len(examples) == 10


def test_parse_date_forms():
    assert parse_date("2023-06-02") == datetime(2023, 6, 2, tzinfo=timezone.utc)
    assert parse_date("2023-06-02T10:30:00Z") == datetime(
        2023, 6, 2, 10, 30, tzinfo=timezone.utc
    )
    assert parse_date("1685664000") == datetime(2023, 6, 2, 0, 0, tzinfo=timezone.utc)
    with pytest.raises(StressKitError, match="date 'not-a-date' is neither ISO-8601 nor epoch"):
        parse_date("not-a-date")


@pytest.mark.parametrize("cell", ["99999999999999", "-99999999999999", str(10**30),
                                  "9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"])
def test_parse_date_epoch_out_of_range_is_bad_date(cell):
    with pytest.raises(StressKitError, match=re.escape(repr(cell)) + " (is )?out of range"):
        parse_date(cell)


def test_load_posts_row(write_csv):
    path = write_csv(
        [
            ["id", "date", "title", "text", "score", "tag", "community", "kind"],
            ["p1", "2023-06-02", "a title", "a body", "37235", "", "r/PhD", "post"],
        ]
    )
    (record,) = load_posts_with_summary(path)[0]
    assert record.date == datetime(2023, 6, 2, tzinfo=timezone.utc)
    assert record.score == 37235
    assert record.tag is None
    assert record.text == "a title a body"


def test_load_posts_bad_date_names_row(write_csv):
    path = write_csv(
        [
            ["id", "date", "title", "text", "score", "tag", "community", "kind"],
            ["p1", "not-a-date", "t", "b", "1", "", "r/PhD", "post"],
        ]
    )
    with pytest.raises(StressKitError, match="line 2: date 'not-a-date' is neither"):
        load_posts_with_summary(path)[0]


def test_load_posts_bad_kind_and_score(write_csv):
    header = ["id", "date", "title", "text", "score", "tag", "community", "kind"]
    with pytest.raises(StressKitError, match="line 2: score 'x' is not an integer"):
        load_posts_with_summary(
            write_csv([header, ["p", "2023-01-01", "t", "b", "x", "", "c", "post"]]))[0]
    with pytest.raises(StressKitError, match="line 2: kind 'meme' not in"):
        load_posts_with_summary(
            write_csv([header, ["p", "2023-01-01", "t", "b", "1", "", "c", "meme"]]))[0]
    with pytest.raises(StressKitError, match="line 2: community is empty"):
        load_posts_with_summary(
            write_csv([header, ["p", "2023-01-01", "t", "b", "1", "", " ", "post"]]))[0]
    for score in (2**53, -2**53, 10**400):  # a float cannot hold each int from 2^53 up
        with pytest.raises(StressKitError, match=rf"line 2: score '{score}' is outside ±2\^53"):
            load_posts_with_summary(
                write_csv([header, ["p", "2023-01-01", "t", "b", score, "", "c", "post"]]))[0]
    edge = 2**53 - 1
    rows = [header, *(["p", "2023-01-01", "t", "b", s, "", "c", "post"] for s in (edge, -edge))]
    assert [r.score for r in load_posts_with_summary(write_csv(rows))[0]] == [edge, -edge]


def test_load_posts_order_preserved(fixtures_dir):
    path = fixtures_dir / "posts_100.csv"
    records, summary = load_posts_with_summary(path)
    assert summary.rows_kept == len(records) == 100
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r.text, r.date) for r in records] == [
        (f"{row['title'].strip()} {row['text'].strip()}".strip(), parse_date(row["date"]))
        for row in rows]


def test_round_trip_labeled(write_csv):
    path = write_csv(
        [["id", "text", "label", "domain"],
         ["a", 'text with, "quotes"', "1", "social"],
         ["b", "plain", "0", ""]]
    )
    examples = load_labeled(path)
    out = write_csv([["text", "label"], *([ex.text, ex.label] for ex in examples)],
                    name="round.csv")
    assert load_labeled(out) == examples


def test_round_trip_posts(fixtures_dir, write_csv):
    records = load_posts_with_summary(fixtures_dir / "posts_100.csv")[0]
    out = write_csv([["date", "text", "score", "tag", "community"],
                     *([rec.date.isoformat(), rec.text, rec.score, rec.tag or "",
                        rec.community] for rec in records)],
                    name="round.csv")
    assert load_posts_with_summary(out)[0] == records


def test_corpus_stats_counts(stopwords):
    def post(community, tag=None):
        return PostRecord(
            date=datetime(2023, 1, 1, tzinfo=timezone.utc),
            text="cats hitting dogs",
            score=0,
            community=community,
            tag=tag,
        )

    stats = corpus_stats([post("a"), post("a", "t"), post("b")], TokenTable(stopwords))
    assert stats["record_count"] == 3
    assert stats["per_community"] == {"a": 2, "b": 1}
    assert stats["per_tag"] == {"t": 1}
    assert stats["unique_words"] == 3  # cat, hit, dog
    assert sum(stats["per_community"].values()) == stats["record_count"]


def test_corpus_stats_empty(stopwords):
    stats = corpus_stats([], TokenTable(stopwords))
    assert stats["record_count"] == 0
    assert stats["per_community"] == {}
    assert stats["unique_words"] == 0


def _walk_sources(roots=("src/stresskit",)):
    """Each node of the Python files of `roots`, in file order, with where it
    sits: module.function (or module.Class.method), the node's own name for
    a definition."""

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            else:
                inner = where
            yield child, inner
            yield from visit(child, inner)

    for root in roots:
        for path in sorted((REPO_ROOT / root).glob("*.py")):
            yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def _in_sources(matches, roots=("src/stresskit",)) -> list[str]:
    """Where each node that `matches` sits in the Python files of `roots`,
    as module.function (or module.Class.method), in file order."""
    return [where for node, where in _walk_sources(roots) if matches(node)]


def _named(name):
    return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name


def _error_class(node):
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(base).split(".")[-1].endswith(("Exception", "Error", "Warning"))
        for base in node.bases)


def test_package_defines_one_error_type():
    """Every data error is a StressKitError, told apart by its message; the
    package defines no other exception or warning class."""
    assert _in_sources(_error_class) == ["errors.StressKitError"]


def test_package_reads_csv_through_one_reader_and_logs_skips_in_one_place():
    assert _in_sources(_named("DictReader")) == ["corpus.open_rows"]
    assert _in_sources(_named("reader")) == ["annotate.load_annotations"]
    skipped_row_log = _in_sources(
        lambda call: _named("warning")(call) and call.args
        and ast.unparse(call.args[0]) == "'%s: %s'")
    assert skipped_row_log == ["corpus.LoadSummary.count"]


def test_posts_are_read_through_one_path():
    """Every posts command streams its rows through open_rows and
    iter_post_rows; the list-building readers have no caller in the package."""
    assert _in_sources(_named("load_posts_with_summary")) == []
    assert _in_sources(_named("classify_corpus")) == []
    assert _in_sources(_named("iter_post_rows")) == [
        "cli.cmd_predict", "cli.cmd_analyze", "cli.cmd_stats", "corpus.load_posts_with_summary"]


def test_one_place_builds_the_token_table():
    """A run's preprocessing is its one textprep.TokenTable: only the command
    line builds it, and each library function reads the table it is given."""
    assert _in_sources(_named("TokenTable")) == ["cli._token_table"]


def test_one_place_locates_a_data_row():
    """Loaders raise bare reasons: only corpus reads a csv reader's line_num,
    `located` is the one wrapper that words it, and no source formats a
    `row N` location of its own."""
    assert _in_sources(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "line_num") == [
        "corpus._line"]
    assert _in_sources(_named("located")) == ["annotate.load_annotations", "corpus.open_rows"]
    assert _in_sources(
        lambda node: isinstance(node, ast.JoinedStr)
        and re.search(r"\brow \{", ast.unparse(node))) == []


def test_one_place_says_an_input_cannot_be_opened():
    """errors.open_text words open()'s refusal as `PATH: reason`; no source
    checks that a path exists before it is opened."""
    assert _in_sources(_named("exists")) == []


def test_every_public_function_has_a_caller_in_the_package():
    """No public function or method of the package is kept alive by the tests
    alone: each is referenced in the package outside its own body, or is
    wrapped by perfbench/tracer.py (its LAYERS table). textprep.lowercase stays
    with the reference composition it opens; a method that overrides its base
    class's is called through the base."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"])
    kept = {f"{module}.{name}" for module, names in layers.items() for name in names}
    kept.add("textprep.lowercase")
    defined = []
    for path in sorted((REPO_ROOT / "src" / "stresskit").glob("*.py")):
        module = importlib.import_module(f"stresskit.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                defined += [f"{path.stem}.{node.name}.{method.name}" for method in node.body
                            if isinstance(method, ast.FunctionDef)
                            and not any(hasattr(base, method.name) for base in bases)]
    references = [(node.id if isinstance(node, ast.Name) else node.attr, where)
                  for node, where in _walk_sources()
                  if isinstance(node, (ast.Name, ast.Attribute))]
    unreferenced = [
        qualname for qualname in defined
        if not qualname.rsplit(".", 1)[1].startswith("_") and qualname not in kept
        and not any(name == qualname.rsplit(".", 1)[1] and where != qualname
                    and not where.startswith(qualname + ".") for name, where in references)]
    assert unreferenced == []

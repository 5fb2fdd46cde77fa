import ast
import contextlib
import csv
import errno
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stresskit
from stresskit import cli, corpus, porter, textprep

from conftest import FIXTURES, REPO_ROOT

GOLDEN_MODEL = REPO_ROOT / "tests" / "golden" / "model_logistic.json"
PACKAGE_DATA = REPO_ROOT / "src" / "stresskit" / "data"


@pytest.fixture(scope="session")
def trained_model(tmp_path_factory):
    """A logistic model trained once on the bundled fixture corpus."""
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = cli.main(
        ["train", str(FIXTURES / "labeled_train.csv"), "--model-out", str(out)]
    )
    assert code == 0
    return out


def run(argv):
    return cli.main([str(a) for a in argv])


def test_train_with_eval_prints_table(tmp_path, capsys):
    out = tmp_path / "model.json"
    code = run(
        ["train", FIXTURES / "labeled_train.csv", "--eval", FIXTURES / "labeled_eval.csv",
         "--model-out", out]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "Accuracy,%" in captured and "Logistic Regression" in captured
    assert out.exists()
    document = json.loads(out.read_text())
    assert document["kind"] == "logistic"
    assert document["hyperparameters"]["seed"] == 42


def test_train_eval_stems_each_distinct_token_once(tmp_path, monkeypatch, stopwords):
    """Training and evaluation read through one token table: every distinct
    non-stopword surface token of both files is stemmed exactly once."""
    real, calls = porter.stem_word, Counter()
    monkeypatch.setattr(porter, "stem_word", lambda word: calls.update([word]) or real(word))
    paths = [FIXTURES / "labeled_train.csv", FIXTURES / "labeled_eval.csv"]
    assert run(["train", paths[0], "--eval", paths[1], "--classifier", "nb",
                "--model-out", tmp_path / "model.json"]) == 0
    texts = [ex.text for path in paths for ex in corpus.load_labeled(path)]
    distinct = {t for text in texts for t in textprep.surface_tokens(text)} - stopwords
    assert set(calls) == distinct
    assert set(calls.values()) == {1}


def test_train_unknown_classifier_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["train", FIXTURES / "labeled_train.csv", "--classifier", "bert"])
    assert err.value.code == 64


def test_train_single_class_is_data_error(write_csv, tmp_path, capsys):
    path = write_csv([["id", "text", "label"], ["a", "all same", "1"], ["b", "again", "1"]])
    code = run(["train", path, "--model-out", tmp_path / "m.json"])
    assert code == 2
    assert "class" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("classifier", ["logistic", "nb", "svm"])
@pytest.mark.parametrize(
    "rows,options",
    [(None, ["--min-df", "100000"]),
     ([["id", "text", "label"], ["a", "the and of", "1"], ["b", "it is to", "0"]], [])],
    ids=["min-df-above-every-df", "stopwords-only"],
)
def test_train_on_an_empty_vocabulary_is_data_error(classifier, rows, options, write_csv,
                                                   tmp_path, capsys):
    src = write_csv(rows) if rows else FIXTURES / "labeled_train.csv"
    code = run(["train", src, "--classifier", classifier, "--model-out", tmp_path / "m.json",
                *options])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: empty vocabulary")
    assert sorted(tmp_path.iterdir()) == ([src] if rows else [])  # no model, no partial


@pytest.mark.parametrize(
    "rows",
    [[["id", "text", "label"]], [["id", "text", "label"], ["a", "  ", "1"], ["b", "", "0"]]],
    ids=["header-only", "blank-text-only"],
)
def test_train_eval_without_usable_rows_is_data_error(rows, write_csv, tmp_path, capsys):
    held_out = write_csv(rows, name="held_out.csv")
    model = tmp_path / "m.json"
    code = run(["train", FIXTURES / "labeled_train.csv", "--eval", held_out,
                "--model-out", model])
    assert code == 2
    captured = capsys.readouterr()
    assert "held_out.csv" in captured.err
    assert "trained" not in captured.out
    assert not model.exists()


def test_train_missing_file_is_data_error(tmp_path):
    assert run(["train", tmp_path / "nope.csv"]) == 2


def test_predict_appends_columns(trained_model, tmp_path):
    out = tmp_path / "pred.csv"
    code = run(["predict", trained_model, FIXTURES / "posts_100.csv", "--out", out])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][-2:] == ["label", "probability"]
    assert len(rows) == 101
    labels = {row[-2] for row in rows[1:]}
    assert labels <= {"0", "1"}
    float(rows[1][-1])  # probability parses


def test_predict_svm_writes_plain_margins(tmp_path):
    model = tmp_path / "svm.json"
    assert run(["train", FIXTURES / "labeled_train.csv", "--classifier", "svm",
                "--model-out", model]) == 0
    out = tmp_path / "pred.csv"
    assert run(["predict", model, FIXTURES / "posts_100.csv", "--out", out]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    for row in rows[1:]:
        margin = float(row[-1])  # a repr of a numpy scalar would not parse
        assert row[-2] == ("1" if margin >= 0 else "0")


def test_predict_empty_corpus_header_only(trained_model, write_csv, tmp_path):
    src = write_csv([["id", "date", "title", "text", "score", "tag", "community", "kind"]])
    out = tmp_path / "pred.csv"
    assert run(["predict", trained_model, src, "--out", out]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 and rows[0][-2:] == ["label", "probability"]


def test_predict_corrupt_model_is_data_error(tmp_path, write_csv):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    src = write_csv([["id", "date", "title", "text", "score", "tag", "community", "kind"]])
    assert run(["predict", bad, src]) == 2


def _unknown_features(document):
    document["hyperparameters"]["features"] = "foo"


def _nested_weights(document):
    document["parameters"]["weights"] = [[w] for w in document["parameters"]["weights"]]


def _string_weights(document):
    document["parameters"]["weights"] = [str(w) for w in document["parameters"]["weights"]]


def _numeric_tokens(document):
    document["vocabulary"]["tokens"] = list(range(len(document["vocabulary"]["tokens"])))


def _negative_df(document):
    document["vocabulary"]["df"][0] = -1


def _zero_n_docs(document):
    document["vocabulary"]["n_docs"] = 0


def _numeric_fingerprint(document):
    document["pipeline_fingerprint"] = 5


def _string_learning_rate(document):
    document["hyperparameters"]["effective_learning_rate"] = "x"


def _huge_integer_weight(document):
    document["parameters"]["weights"][0] = 10 ** 400  # 401 digits: too large for a float


def _string_bias(document):
    document["parameters"]["bias"] = "0.5"


def _string_hyper_learning_rate(document):
    document["hyperparameters"]["learning_rate"] = "x"


def _null_epochs(document):
    document["hyperparameters"]["epochs"] = None


def _bool_seed(document):
    document["hyperparameters"]["seed"] = True


def _short_weights(document):
    document["parameters"]["weights"].pop()


@pytest.mark.parametrize(
    "corrupt",
    [_unknown_features, _nested_weights, _string_weights, _numeric_tokens, _negative_df,
     _zero_n_docs, _numeric_fingerprint, _string_learning_rate, _huge_integer_weight,
     _string_bias, _string_hyper_learning_rate, _null_epochs, _bool_seed, _short_weights],
    ids=["features", "nested-weights", "string-weights", "numeric-tokens", "negative-df",
         "zero-n-docs", "numeric-fingerprint", "string-learning-rate", "huge-integer-weight",
         "string-bias", "string-hyper-learning-rate", "null-epochs", "bool-seed",
         "short-weights"],
)
def test_predict_malformed_model_is_data_error(corrupt, trained_model, tmp_path):
    document = json.loads(trained_model.read_text(encoding="utf-8"))
    corrupt(document)
    (tmp_path / "model.json").write_text(json.dumps(document), encoding="utf-8")
    argv = ["predict", "model.json", str(FIXTURES / "posts_100.csv")]
    result = run_in_subprocess(
        f"import sys\nfrom stresskit import cli\nsys.exit(cli.main({argv!r}))\n", tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "model.json" in result.stderr
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("command", ["predict", "analyze"])
def test_predict_fingerprint_mismatch_warns_but_succeeds(
    trained_model, tmp_path, write_csv, capsys, command
):
    stops = tmp_path / "stops.txt"
    stops.write_text("the\n", encoding="utf-8")
    src = write_csv(
        [["id", "date", "title", "text", "score", "tag", "community", "kind"],
         ["p1", "2023-01-01", "", "some text", "1", "", "r/PhD", "post"],
         ["p2", "2023-02-01", "", "other text", "2", "", "r/PhD", "post"]]
    )
    out = {"predict": "--out", "analyze": "--out-dir"}[command]
    code = run([command, trained_model, src, out, tmp_path / "out", "--stopwords", stops])
    assert code == 0
    assert capsys.readouterr().err.count("fingerprint") == 1  # once, not once per row


def test_analyze_full_fixture(trained_model, tmp_path, capsys):
    outdir = tmp_path / "reports"
    code = run(
        ["analyze", trained_model, FIXTURES / "posts_100.csv",
         "--mapping", FIXTURES / "communities.csv", "--out-dir", outdir]
    )
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert {g["name"] for g in report["groups"]} == {
        "Bachelor students", "Graduate students", "PhD students", "Professors"
    }
    for name in ("summary.csv", "monthly.csv", "upvotes.csv", "top_words.csv", "emotions.csv"):
        assert (outdir / name).exists()
    assert "mean stress level" in capsys.readouterr().out


def test_analyze_format_json_only(trained_model, tmp_path):
    outdir = tmp_path / "reports"
    code = run(
        ["analyze", trained_model, FIXTURES / "posts_100.csv",
         "--mapping", FIXTURES / "communities.csv", "--out-dir", outdir,
         "--format", "json"]
    )
    assert code == 0
    assert (outdir / "report.json").exists()
    assert not (outdir / "summary.csv").exists()


def test_analyze_mapping_without_required_columns_is_data_error(
    trained_model, write_csv, tmp_path, capsys
):
    mapping = write_csv([["foo", "bar"], ["r/PhD", "PhD students"]], name="mapping.csv")
    code = run(["analyze", trained_model, FIXTURES / "posts_100.csv",
                "--mapping", mapping, "--out-dir", tmp_path / "reports"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(mapping) in err and "'community' not in header" in err


@pytest.mark.parametrize(
    "rows,where",
    [([["r/PhD"]], "line 2: group is empty"),
     ([["r/PhD", "PhD students"], [" r/PhD", "Professors"]],
      "line 3: community 'r/PhD' is listed twice")],
    ids=["no-group-cell", "repeated-community"],
)
def test_analyze_mapping_row_error_names_the_file_and_the_row(
    rows, where, trained_model, write_csv, tmp_path, capsys
):
    mapping = write_csv([["community", "group"], *rows], name="mapping.csv")
    outdir = tmp_path / "reports"
    code = run(["analyze", trained_model, FIXTURES / "posts_100.csv",
                "--mapping", mapping, "--out-dir", outdir])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(mapping) in err and where in err
    assert not outdir.exists()


def test_analyze_empty_posts_valid_report(trained_model, write_csv, tmp_path):
    src = write_csv([["id", "date", "title", "text", "score", "tag", "community", "kind"]])
    outdir = tmp_path / "reports"
    assert run(["analyze", trained_model, src, "--out-dir", outdir]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["groups"] == []


def test_analyze_unmapped_communities_warn_to_other(
    trained_model, write_csv, tmp_path, caplog
):
    src = write_csv(
        [["id", "date", "title", "text", "score", "tag", "community", "kind"],
         ["p1", "2023-01-01", "", "deadline panic", "1", "", "r/surprisal", "post"]]
    )
    outdir = tmp_path / "reports"
    assert run(["analyze", trained_model, src, "--out-dir", outdir]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert [g["name"] for g in report["groups"]] == ["other"]
    assert any("unmapped" in message for message in caplog.messages)


def test_annotate_unanimous_sheet_kappa_one(write_csv, tmp_path, capsys):
    rows = [["item_id", "text", "a1", "a2", "a3"]]
    rows += [[f"x{j}", "t", s, s, s] for j, s in enumerate([-3, 2, -1, 4])]
    code = run(["annotate", write_csv(rows, name="sheet.csv"), "--out-dir", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "annotation_summary.json").read_text())
    assert summary["kappa"] == pytest.approx(1.0)
    assert summary["excluded"] == []
    with open(tmp_path / "consensus.csv", newline="") as handle:
        consensus = list(csv.DictReader(handle))
    assert [row["label"] for row in consensus] == ["1", "0", "1", "0"]


def test_annotate_excludes_high_outlier_annotator(write_csv, tmp_path):
    rows = [["item_id", "text", "a1", "a2", "a3", "a4", "a5"]]
    for j in range(100):
        deviant = -4 if j < 41 else 2
        rows.append([f"x{j}", "t", 2, 2, 2, 2, deviant])
    code = run(["annotate", write_csv(rows, name="sheet.csv"), "--out-dir", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "annotation_summary.json").read_text())
    assert summary["excluded"] == [{"annotator": "a5", "rate": 0.41}]


def test_annotate_weights_without_required_columns_is_data_error(write_csv, tmp_path, capsys):
    weights = write_csv([["foo", "bar"], ["a1", "2.0"]], name="weights.csv")
    code = run(["annotate", FIXTURES / "annotations.csv", "--weights", weights,
                "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert str(weights) in err and "'annotator_id' not in header" in err


@pytest.mark.parametrize("weight", ["0", "-1", "nan", "inf"])
def test_annotate_weight_not_finite_and_positive_is_data_error(
    weight, write_csv, tmp_path, capsys
):
    weights = write_csv([["annotator_id", "weight"], ["a1", weight]], name="weights.csv")
    code = run(["annotate", FIXTURES / "annotations.csv", "--weights", weights,
                "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(weights) in err and "line 2" in err
    assert not (tmp_path / "consensus.csv").exists()


def test_annotate_weights_listing_an_annotator_twice_is_data_error(write_csv, tmp_path, capsys):
    weights = write_csv([["annotator_id", "weight"], ["a1", "2.0"], ["a1", "3.0"]],
                        name="weights.csv")
    code = run(["annotate", FIXTURES / "annotations.csv", "--weights", weights,
                "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert str(weights) in err and "line 3: annotator 'a1' is listed twice" in err
    assert not (tmp_path / "consensus.csv").exists()


def test_annotate_sheet_repeating_an_item_is_data_error(write_csv, tmp_path, capsys):
    """Each item gets one consensus row, so a second row for an item is refused,
    not given a row of its own."""
    sheet = write_csv([["item_id", "text", "a", "b", "c"], ["x1", "t", 1, 1, 1],
                       ["x1", "t", -3, -3, -3], ["x2", "t", 0, 0, 0]], name="sheet.csv")
    code = run(["annotate", sheet, "--out-dir", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {sheet}: line 3: item 'x1' appears more than once" in err
    assert not (tmp_path / "out").exists()


def test_annotate_weights_naming_no_annotator_column_is_data_error(tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_bytes((FIXTURES / "weights.csv").read_bytes().replace(b"psy,", b"psy ,"))
    out = tmp_path / "out"
    assert run(["annotate", FIXTURES / "annotations.csv", "--weights", weights,
                "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert "'psy '" in err and str(FIXTURES / "annotations.csv") in err
    assert not out.exists() or not any(out.iterdir())


def test_annotate_duplicate_annotator_id_is_data_error(write_csv, tmp_path, capsys):
    rows = [["item_id", "text", "a1", "a1", "a2"]]
    rows += [[f"x{j}", "t", 1, -4, 1] for j in range(10)]
    code = run(["annotate", write_csv(rows, name="sheet.csv"), "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "'a1'" in err and "Traceback" not in err
    assert not (tmp_path / "annotation_summary.json").exists()


@pytest.mark.parametrize(
    "cell, message",
    [("6", "score 6 for 'a1' outside [-5, 5]"),
     ("1.5", "score '1.5' for 'a1' is not an integer"),
     ("x", "score 'x' for 'a1' is not an integer")],
)
def test_annotate_bad_score_cell_is_data_error(cell, message, write_csv, tmp_path, capsys):
    rows = [["item_id", "text", "a1", "a2"], ["x1", "t", 1, 2], ["x2", "t", cell, 0]]
    code = run(["annotate", write_csv(rows, name="sheet.csv"), "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3: " + message in err and "Traceback" not in err
    assert not (tmp_path / "consensus.csv").exists()


def test_annotate_threshold_above_one_is_usage_error(write_csv):
    sheet = write_csv([["item_id", "text", "a1", "a2"], ["x", "t", 1, 1]])
    with pytest.raises(SystemExit) as err:
        run(["annotate", sheet, "--threshold", "1.01"])
    assert err.value.code == 64


@pytest.mark.parametrize(
    "value,message",
    [("abc", "invalid int value: 'abc'"), ("-3", "must be a positive integer"),
     ("0", "must be a positive integer")],
    ids=["not-an-integer", "negative", "zero"],
)
@pytest.mark.parametrize(
    "argv",
    [["train", "x.csv", "--epochs"], ["train", "x.csv", "--svm-epochs"],
     ["train", "x.csv", "--min-df"], ["train", "x.csv", "--max-vocab"],
     ["analyze", "m.json", "p.csv", "--top-n"]],
    ids=["epochs", "svm-epochs", "min-df", "max-vocab", "top-n"],
)
def test_positive_int_option_that_is_not_a_positive_integer_is_usage_error(
    argv, value, message, capsys
):
    with pytest.raises(SystemExit) as err:
        run([*argv, value])
    assert err.value.code == 64
    err = capsys.readouterr().err
    assert f"argument {argv[-1]}: {message}" in err
    assert "_positive_int" not in err


def test_annotate_all_excluded_is_data_error(write_csv, tmp_path):
    rows = [["item_id", "text", "a1", "a2"]]
    rows += [[f"x{j}", "t", 5, -5] for j in range(10)]
    assert run(["annotate", write_csv(rows, name="sheet.csv"), "--out-dir", tmp_path]) == 2


def test_emotions_fixture_profile(write_csv, tmp_path):
    src = write_csv(
        [["id", "text"], ["e1", "fire"], ["e2", "nothing matches here zz"]],
        name="texts.csv",
    )
    out = tmp_path / "emotions.csv"
    assert run(["emotions", src, "--out", out]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    # vendored lexicon maps fire -> {fear, negative}: fear carries 1 of 2 hits
    assert rows[0]["fear"] == "0.5" and rows[0]["prevailing"] == "fear"
    assert rows[1]["prevailing"] == ""


def test_emotions_empty_input_header_only(write_csv, tmp_path):
    src = write_csv([["id", "text"]], name="texts.csv")
    out = tmp_path / "emotions.csv"
    assert run(["emotions", src, "--out", out]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1


@pytest.mark.parametrize("rows", [[], [["id", "title", "body"], ["a", "", "fire"]]],
                         ids=["zero-byte", "no-text-column"])
def test_emotions_without_a_text_header_is_data_error(rows, write_csv, tmp_path, capsys):
    src = write_csv(rows, name="texts.csv")
    out = tmp_path / "emotions.csv"
    assert run(["emotions", src, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(src) in err
    assert not out.exists()


def test_emotions_bad_lexicon_is_data_error(write_csv, tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("word\tjoy\t2\n", encoding="utf-8")
    src = write_csv([["id", "text"], ["a", "hello"]], name="texts.csv")
    assert run(["emotions", src, "--lexicon", lex]) == 2


def test_stats_reports_counts(capsys):
    assert run(["stats", FIXTURES / "posts_100.csv", "--summary"]) == 0
    out = capsys.readouterr().out
    summary_line, stats_json = out.split("\n", 1)
    assert json.loads(summary_line)["rows_kept"] == 100
    stats = json.loads(stats_json)
    assert stats["record_count"] == 100
    assert sum(stats["per_community"].values()) == 100


# A record whose quoted cell spans lines 2-3, a blank line 4, then the skipped
# record, whose quoted domain/tag cell ends on line 6, the line its reason names.
LABELED_WITH_BLANK = [["id", "text", "label", "domain"], ["a", "deadline\npanic", "1", ""], [],
                      ["b", "  ", "1", "exam\nweek"], ["c", "calm walk", "0", ""]]
POSTS_WITH_BLANK = [["id", "date", "title", "text", "score", "tag", "community"],
                    ["p1", "2023-01-01", "", "deadline\npanic", "1", "", "r/PhD"], [],
                    ["p2", "2023-01-02", " ", "  ", "0", "exam\nweek", "r/PhD"],
                    ["p3", "2023-01-03", "calm", "walk", "2", "", "r/GradSchool"]]


BLANK_ROW_COMMANDS = pytest.mark.parametrize(
    "argv,rows,reason",
    [(["train", "{src}", "--epochs", "5", "--model-out", "{out}/m.json"], LABELED_WITH_BLANK,
      "line 6: empty text (skipped)"),
     (["predict", GOLDEN_MODEL, "{src}", "--out", "{out}/p.csv"], POSTS_WITH_BLANK,
      "line 6: title and body both empty (skipped)"),
     (["analyze", GOLDEN_MODEL, "{src}", "--out-dir", "{out}"], POSTS_WITH_BLANK,
      "line 6: title and body both empty (skipped)"),
     (["stats", "{src}"], POSTS_WITH_BLANK, "line 6: title and body both empty (skipped)")],
    ids=["train", "predict", "analyze", "stats"],
)


def _fill(argv, src, out):
    return [str(a).replace("{src}", str(src)).replace("{out}", str(out)) for a in argv]


@BLANK_ROW_COMMANDS
def test_summary_line_counts_a_blank_row(argv, rows, reason, write_csv, tmp_path, capsys):
    src = write_csv(rows)
    assert run([*_fill(argv, src, tmp_path), "--summary"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == json.dumps(
        {"rows_read": 3, "rows_kept": 2, "rows_skipped": 1, "errors": [reason]})


@BLANK_ROW_COMMANDS
def test_stderr_names_a_blank_row_with_its_summary_reason(argv, rows, reason, write_csv,
                                                          tmp_path):
    src = write_csv(rows)
    filled = _fill(argv, src, tmp_path)
    result = run_in_subprocess(
        f"import sys\nfrom stresskit import cli\nsys.exit(cli.main({filled!r}))\n", tmp_path)
    assert result.returncode == 0, result.stderr
    assert f"WARNING: {src}: {reason}" in result.stderr.splitlines()


# Each file: the header on line 1, a record whose quoted cell spans lines 2-3,
# a blank line 4, then the bad record on line 5.
BAD_ON_LINE_5 = {
    "labeled": 'id,text,label\na,"deadline\npanic",1\n\nb,calm walk,yes\n',
    "posts": ('id,date,title,text,score,community\np1,2023-01-01,,"deadline\npanic",1,r/PhD\n'
              '\np2,not-a-date,,calm walk,2,r/PhD\n'),
    "community": ('id,date,title,text,score,community\np1,2023-01-01,,"deadline\npanic",1,r/PhD\n'
                  '\np2,2023-01-02,,calm walk,2, \n'),
    "mapping": 'community,group\nr/PhD,"PhD\nstudents"\n\nr/PhD,Professors\n',
    "weights": 'annotator_id,weight\n"a\n1",2.0\n\na2,x\n',
    "sheet": 'item_id,text,a1,a2\nx1,"deadline\npanic",1,2\n\nx2,calm,9,0\n',
}


@pytest.mark.parametrize(
    "kind,argv,reason",
    [("labeled", ["train", "{src}", "--model-out", "{out}/m.json"], "label 'yes' is not 0/1"),
     ("posts", ["predict", GOLDEN_MODEL, "{src}", "--out", "{out}/p.csv"], "date 'not-a-date'"),
     ("posts", ["analyze", GOLDEN_MODEL, "{src}", "--out-dir", "{out}/r"], "date 'not-a-date'"),
     ("posts", ["stats", "{src}"], "date 'not-a-date'"),
     ("community", ["stats", "{src}"], "community is empty"),
     ("mapping", ["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--mapping", "{src}",
                  "--out-dir", "{out}/r"], "community 'r/PhD' is listed twice"),
     ("weights", ["annotate", FIXTURES / "annotations.csv", "--weights", "{src}",
                  "--out-dir", "{out}/a"], "bad weight 'x'"),
     ("sheet", ["annotate", "{src}", "--out-dir", "{out}/a"], "score 9 for 'a1' outside")],
    ids=["labeled", "predict", "analyze", "stats", "community", "group-map", "weights",
         "annotations"],
)
def test_every_loader_names_the_line_on_which_the_bad_record_ends(
    kind, argv, reason, tmp_path, capsys
):
    src = tmp_path / f"{kind}.csv"
    src.write_text(BAD_ON_LINE_5[kind], encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert run(_fill(argv, src, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: line 5: {reason}"), err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv,rows,out,reason",
    [(["annotate", FIXTURES / "annotations.csv", "--out-dir", "{out}"], None, "afile",
      "File exists"),
     (["analyze", GOLDEN_MODEL, "{src}", "--out-dir", "{out}"], POSTS_WITH_BLANK, "afile/r",
      "Not a directory")],
    ids=["annotate", "analyze"],
)
def test_unusable_out_dir_fails_before_any_input_is_read(argv, rows, out, reason, write_csv,
                                                         tmp_path):
    """The output directory is made first, so a file in its place or in a
    parent's place is the one line on stderr: no warning from reading the
    inputs (the fixture sheet's kappa drops items, the posts have a blank row)."""
    (tmp_path / "afile").write_text("", encoding="utf-8")
    filled = _fill(argv, write_csv(rows) if rows else None, tmp_path / out)
    result = run_in_subprocess(
        f"import sys\nfrom stresskit import cli\nsys.exit(cli.main({filled!r}))\n", tmp_path)
    assert result.returncode == 2
    assert result.stderr == f"error: {tmp_path / out}: {reason}\n"


def test_failed_command_removes_the_out_dir_it_made(write_csv, tmp_path):
    """--out-dir and its missing parents are made before the inputs are read;
    when the command then fails, each one made goes again and one that was
    there stays."""
    bad = write_csv([["item_id", "text", "a1", "a2"], ["x1", "t", "9", "0"]], name="sheet.csv")
    (tmp_path / "there").mkdir()
    assert run(["annotate", bad, "--out-dir", tmp_path / "there" / "a" / "b"]) == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sheet.csv", "there"]


def test_predict_and_analyze_print_the_same_summary(write_csv, tmp_path, capsys):
    with open(FIXTURES / "posts_100.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    title, text = rows[0].index("title"), rows[0].index("text")
    for row in rows[5::17]:
        row[title], row[text] = "", " "
    src = write_csv(rows)
    lines = []
    for argv in (["predict", GOLDEN_MODEL, src, "--out", tmp_path / "p.csv"],
                 ["analyze", GOLDEN_MODEL, src, "--out-dir", tmp_path / "reports"]):
        assert run([*argv, "--summary"]) == 0
        lines.append(capsys.readouterr().out.splitlines()[0])
    assert json.loads(lines[0])["rows_skipped"] == len(rows[5::17])
    assert lines[0] == lines[1]


# ------------------------------------------------ exit-code contract, imports

@pytest.mark.parametrize(
    "option,value",
    [("--lr", "nan"), ("--lr", "0"), ("--lr", "inf"), ("--alpha", "0"), ("--alpha", "-1"),
     ("--lam", "0"), ("--l2", "-1e-4"), ("--l2", "nan"), ("--epochs", "-3"),
     ("--epochs", "0"), ("--svm-epochs", "-1"), ("--min-df", "0"), ("--max-vocab", "0"),
     ("--seed", "-1")],
)
def test_train_bad_hyperparameter_is_usage_error(option, value, tmp_path):
    model = tmp_path / "m.json"
    with pytest.raises(SystemExit) as err:
        run(["train", FIXTURES / "labeled_train.csv", f"{option}={value}", "--model-out", model])
    assert err.value.code == 64
    assert not model.exists()


@pytest.mark.parametrize(
    "options",
    [["--classifier", "nb", "--alpha", "1e308"], ["--classifier", "svm", "--lam", "1e-320"],
     ["--classifier", "svm", "--lam", "1e-300"]],  # the first step's norm of w overflows
    ids=["nb-huge-alpha", "svm-tiny-lam", "svm-overflowing-norm"],
)
def test_train_to_non_finite_parameters_is_data_error(options, tmp_path):
    argv = ["train", str(FIXTURES / "labeled_train.csv"), *options, "--model-out", "m.json"]
    result = run_in_subprocess(
        f"import sys\nfrom stresskit import cli\nsys.exit(cli.main({argv!r}))\n", tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "error: non-finite model parameters" in result.stderr.splitlines()
    assert not (tmp_path / "m.json").exists()


def test_train_accepts_zero_l2(tmp_path):
    assert run(["train", FIXTURES / "labeled_train.csv", "--l2", "0", "--epochs", "5",
                "--model-out", tmp_path / "m.json"]) == 0


@pytest.mark.parametrize(
    "argv,output,date",
    [(["analyze", GOLDEN_MODEL, "{posts}", "--out-dir", "{out}"], "reports", "99999999999999"),
     (["predict", GOLDEN_MODEL, "{posts}", "--out", "{out}"], "p.csv", "99999999999999"),
     (["stats", "{posts}"], None, "99999999999999"),
     # an ISO date that holds in its own offset but not in UTC
     (["predict", GOLDEN_MODEL, "{posts}", "--out", "{out}"], "p.csv",
      "9999-12-31T23:59:59-01:00")],
    ids=["analyze", "predict", "stats", "predict-iso-outside-utc"],
)
def test_epoch_date_out_of_range_is_data_error(argv, output, date, write_csv, tmp_path, capsys):
    posts = write_csv([["id", "date", "title", "text", "score", "community"],
                       ["p1", "1685664000", "", "calm day", "1", "r/PhD"],
                       ["p2", date, "", "deadline panic", "2", "r/PhD"]],
                      name="posts.csv")
    out = tmp_path / (output or "unused")
    filled = [str(a).replace("{posts}", str(posts)).replace("{out}", str(out)) for a in argv]
    assert cli.main(filled) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "line 3" in err and "out of range" in err
    if output is not None:
        assert not out.exists()


def test_score_a_float_cannot_hold_is_data_error(write_csv, tmp_path, capsys):
    """Two scores of 10**308 would overflow the upvote mean; analyze refuses
    the first with its line and leaves no report directory."""
    posts = write_csv([["id", "date", "title", "text", "score", "community"],
                       *(["p", "2023-06-02", "", "deadline panic", 10**308, "r/PhD"]
                         for _ in range(2))], name="posts.csv")
    out = tmp_path / "reports"
    assert run(["analyze", GOLDEN_MODEL, posts, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {posts}: line 2: score '1{'0' * 308}' is outside ±2^53" in err
    assert "Traceback" not in err
    assert not out.exists()


def with_latin1_byte(src, dst):
    """Copy src to dst with the Latin-1 byte for 'é' ending its last row, so
    a reader fails only after the earlier rows."""
    data = src.read_bytes()
    cut = len(data.rstrip(b"\r\n"))
    dst.write_bytes(data[:cut] + b"\xe9" + data[cut:])
    return dst


# Every input argument of every command: (argv, a good file for "{bad}", the
# output the command writes, or None), with the test id of each.
EVERY_INPUT = {
    "train": (["train", "{bad}", "--model-out", "{out}"], FIXTURES / "labeled_train.csv",
              "m.json"),
    "train-eval": (["train", FIXTURES / "labeled_train.csv", "--eval", "{bad}",
                    "--model-out", "{out}"], FIXTURES / "labeled_eval.csv", "m.json"),
    "train-stopwords": (["train", FIXTURES / "labeled_train.csv", "--stopwords", "{bad}",
                         "--model-out", "{out}"], PACKAGE_DATA / "stopwords_en.txt", "m.json"),
    "predict": (["predict", GOLDEN_MODEL, "{bad}", "--out", "{out}"],
                FIXTURES / "posts_100.csv", "p.csv"),
    "predict-model": (["predict", "{bad}", FIXTURES / "posts_100.csv", "--out", "{out}"],
                      GOLDEN_MODEL, "p.csv"),
    "analyze": (["analyze", GOLDEN_MODEL, "{bad}", "--out-dir", "{out}"],
                FIXTURES / "posts_100.csv", "reports"),
    "analyze-lexicon": (["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--lexicon",
                         "{bad}", "--out-dir", "{out}"],
                        PACKAGE_DATA / "emotion_lexicon.tsv", "reports"),
    "analyze-mapping": (["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--mapping",
                         "{bad}", "--out-dir", "{out}"], FIXTURES / "communities.csv", "reports"),
    "annotate": (["annotate", "{bad}", "--out-dir", "{out}"], FIXTURES / "annotations.csv",
                 "annotation"),
    "annotate-weights": (["annotate", FIXTURES / "annotations.csv", "--weights", "{bad}",
                          "--out-dir", "{out}"], FIXTURES / "weights.csv", "annotation"),
    "emotions": (["emotions", "{bad}", "--out", "{out}"], FIXTURES / "posts_100.csv", "e.csv"),
    "emotions-lexicon": (["emotions", FIXTURES / "posts_100.csv", "--lexicon", "{bad}",
                          "--out", "{out}"], PACKAGE_DATA / "emotion_lexicon.tsv", "e.csv"),
    "stats": (["stats", "{bad}"], FIXTURES / "posts_100.csv", None),
}
CSV_INPUTS = [name for name, (_, bad, _) in EVERY_INPUT.items() if bad.suffix == ".csv"]


def _run_on_bad_input(name, bad_path, tmp_path, capsys):
    """Run EVERY_INPUT[name] with bad_path as its input: it exits 2, prints
    no traceback and writes no output. Returns its stderr."""
    argv, _, output = EVERY_INPUT[name]
    out = tmp_path / (output or "unused")
    filled = [str(a).replace("{bad}", str(bad_path)).replace("{out}", str(out)) for a in argv]
    assert cli.main(filled) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("name", EVERY_INPUT)
def test_non_utf8_input_is_data_error(name, tmp_path, capsys):
    bad = EVERY_INPUT[name][1]
    bad_path = with_latin1_byte(bad, tmp_path / f"bad_{bad.name}")
    err = _run_on_bad_input(name, bad_path, tmp_path, capsys)
    assert err.startswith("error:") and "UTF-8" in err
    assert str(bad_path) in err


@pytest.mark.parametrize("name", EVERY_INPUT)
@pytest.mark.parametrize("kind,reason", [("missing", "No such file or directory"),
                                         ("directory", "Is a directory")],
                         ids=["missing", "directory"])
def test_unopenable_input_is_data_error(name, kind, reason, tmp_path, capsys):
    bad_path = tmp_path / f"{kind}_{EVERY_INPUT[name][1].name}"
    if kind == "directory":
        bad_path.mkdir()
    err = _run_on_bad_input(name, bad_path, tmp_path, capsys)
    assert err == f"error: {bad_path}: {reason}\n"


@pytest.mark.parametrize("name", CSV_INPUTS)
@pytest.mark.parametrize("where", ["data-row", "header"])
def test_csv_cell_over_the_field_limit_is_data_error(name, where, tmp_path, capsys):
    """A 140,000-character cell, as a stray quote in a scraped dump makes,
    is over the csv module's 131,072 limit: in the header the error names
    the file, in the first data row also its line."""
    source = EVERY_INPUT[name][1]
    data = source.read_bytes()
    at = data.index(b"\n") + 1 if where == "data-row" else 0
    bad_path = tmp_path / f"long_{source.name}"
    bad_path.write_bytes(data[:at] + b"x" * 140_000 + data[at:])
    err = _run_on_bad_input(name, bad_path, tmp_path, capsys)
    location = f"{bad_path}: line 2" if where == "data-row" else bad_path
    assert err == f"error: {location}: field larger than field limit (131072)\n"


MUTATED_COMMANDS = {
    "train": (FIXTURES / "labeled_train.csv",
              ["train", "{bad}", "--epochs", "5", "--model-out", "{out}/m.json"]),
    "predict": (FIXTURES / "posts_100.csv",
                ["predict", GOLDEN_MODEL, "{bad}", "--out", "{out}/p.csv"]),
    "model": (GOLDEN_MODEL,
              ["predict", "{bad}", FIXTURES / "posts_100.csv", "--out", "{out}/p.csv"]),
    "analyze": (FIXTURES / "posts_100.csv", ["analyze", GOLDEN_MODEL, "{bad}", "--out-dir", "{out}"]),
    "annotate": (FIXTURES / "annotations.csv", ["annotate", "{bad}", "--out-dir", "{out}"]),
    "emotions": (FIXTURES / "posts_100.csv", ["emotions", "{bad}", "--out", "{out}/e.csv"]),
    "stats": (FIXTURES / "posts_100.csv", ["stats", "{bad}"]),
    "mapping": (FIXTURES / "communities.csv",
                ["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--mapping", "{bad}",
                 "--out-dir", "{out}"]),
    "weights": (FIXTURES / "weights.csv",
                ["annotate", FIXTURES / "annotations.csv", "--weights", "{bad}",
                 "--out-dir", "{out}"]),
    "lexicon": (PACKAGE_DATA / "emotion_lexicon.tsv",
                ["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--lexicon", "{bad}",
                 "--out-dir", "{out}"]),
    "stopwords": (PACKAGE_DATA / "stopwords_en.txt",
                  ["predict", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--stopwords", "{bad}",
                   "--out", "{out}/p.csv"]),
}


class Mutation(NamedTuple):
    """One edit of a fixture's bytes: truncated, with a NUL inserted,
    re-encoded as UTF-16, with one byte replaced by `value`, or with the
    header's columns shuffled by `seed`; `where` in [0, 1] places the cut,
    the NUL or the byte. Three kinds are used by the explicit examples only:
    `first-coef` sets a model file's first weight to the JSON text `value`
    (no other file has one), `short-row` cuts the bytes from the last
    comma up to the final line end, so a CSV's last row loses its last
    cell, and `pad-cell` adds a blank after the first cell `value` that a
    comma ends."""
    kind: str
    where: float = 0.0
    value: int | bytes = 0
    seed: int = 0

    def apply(self, data: bytes) -> bytes:
        at = round(self.where * len(data))
        if self.kind == "truncate":
            return data[:at]
        if self.kind == "nul":
            return data[:at] + b"\0" + data[at:]
        if self.kind == "utf-16":
            return data.decode("utf-8").encode("utf-16")
        if self.kind == "replace-byte":
            return data[:at] + bytes([self.value]) + data[at + 1:]
        if self.kind == "first-coef":
            return re.sub(rb'("coef": \[)[^,\]]*', rb"\g<1>" + self.value, data, count=1)
        if self.kind == "pad-cell":
            return data.replace(self.value + b",", self.value + b" ,", 1)
        if self.kind == "short-row":
            body = data.rstrip(b"\r\n")
            return body[:body.rfind(b",")] + data[len(body):]
        header, newline, rest = data.partition(b"\r\n")
        columns = header.split(b",")
        random.Random(self.seed).shuffle(columns)
        return b",".join(columns) + newline + rest


MUTATIONS = st.builds(
    Mutation, st.sampled_from(["truncate", "nul", "utf-16", "replace-byte", "shuffle-header"]),
    st.floats(0, 1), st.integers(0, 255), st.integers(0, 2 ** 32))


@pytest.mark.parametrize("command", sorted(MUTATED_COMMANDS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(mutation=MUTATIONS)
# a first model weight that is valid (0), not finite (NaN) or too large for a float
@example(mutation=Mutation("first-coef", value=b"0"))
@example(mutation=Mutation("first-coef", value=b"NaN"))
@example(mutation=Mutation("first-coef", value=b"1" + b"0" * 400))
# a group map whose last row has no group cell
@example(mutation=Mutation("short-row"))
# a weights file whose id "psy " names no annotator column
@example(mutation=Mutation("pad-cell", value=b"psy"))
def test_mutated_input_keeps_the_exit_code_contract(command, mutation):
    source, argv = MUTATED_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / source.name, Path(tmp) / "out"
        bad.write_bytes(mutation.apply(source.read_bytes()))
        out.mkdir()
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = run([str(a).replace("{bad}", str(bad)).replace("{out}", str(out))
                            for a in argv])
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        assert code in (0, 2, 64)
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert [p.relative_to(out) for p in out.rglob("*") if p.is_file()] == []


# Each writing command, "{out}" standing for its output file or, for analyze
# and annotate, its output directory and the output in it that a directory blocks.
WRITERS = {
    "predict": (["predict", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--out", "{out}"], None),
    "train": (["train", FIXTURES / "labeled_train.csv", "--epochs", "5", "--model-out", "{out}"],
              None),
    "emotions": (["emotions", FIXTURES / "posts_100.csv", "--out", "{out}"], None),
    "analyze": (["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--out-dir", "{out}"],
                "report.json"),
    "annotate": (["annotate", FIXTURES / "annotations.csv", "--out-dir", "{out}"],
                 "consensus.csv"),
}


@pytest.mark.parametrize("command", list(WRITERS))
def test_output_in_missing_directory_names_the_target(command, tmp_path, capsys):
    """An output that cannot be written reads `error: PATH: reason`, as an
    input does, and leaves no partial file. An output directory's missing
    parents are made, so there a file in the directory's place is the third case."""
    argv, output_in_dir = WRITERS[command]
    (tmp_path / "afile").write_text("", encoding="utf-8")
    if output_in_dir is None:
        (tmp_path / "dir").mkdir()
        cases = [(tmp_path / "missing" / "out", tmp_path / "missing" / "out", errno.ENOENT),
                 (tmp_path / "dir", tmp_path / "dir", errno.EISDIR)]
    else:
        (tmp_path / "dir" / output_in_dir).mkdir(parents=True)
        cases = [(tmp_path / "afile", tmp_path / "afile", errno.EEXIST),
                 (tmp_path / "dir", tmp_path / "dir" / output_in_dir, errno.EISDIR)]
    cases.append((tmp_path / "afile" / "out", tmp_path / "afile" / "out", errno.ENOTDIR))
    for out, named, code in cases:
        assert run([str(a).replace("{out}", str(out)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"error: {named}: {os.strerror(code)}" in err.splitlines(), err
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*.partial")) == []


def test_predict_failure_leaves_no_output_and_keeps_an_earlier_file(
    trained_model, write_csv, tmp_path
):
    header = ["id", "date", "title", "text", "score", "tag", "community", "kind"]
    good = [[f"p{i}", "2023-01-01", "", "deadline panic", "1", "", "r/PhD", "post"]
            for i in range(3)]
    bad = ["p4", "not a date", "", "deadline panic", "1", "", "r/PhD", "post"]
    src = write_csv([header, *good, bad])
    out = tmp_path / "predictions.csv"
    assert run(["predict", trained_model, src, "--out", out]) == 2
    assert not out.exists()
    out.write_text("earlier output\n", encoding="utf-8")
    assert run(["predict", trained_model, src, "--out", out]) == 2
    assert out.read_text(encoding="utf-8") == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "predictions.csv"]


def run_in_subprocess(script, cwd, **env):
    """Run `python -c script` with the sources on its path. The child has
    OPENBLAS_NUM_THREADS only if `env` sets it, since an in-process main()
    sets it in this process."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env={**inherited, "PYTHONPATH": pythonpath, **env})


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--out", "p.csv"],
        ["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--out-dir", "reports"],
        ["annotate", FIXTURES / "annotations.csv", "--out-dir", "annotation"],
        ["emotions", FIXTURES / "posts_100.csv", "--out", "e.csv"],
        ["stats", FIXTURES / "posts_100.csv"],
    ],
    ids=["predict", "analyze", "annotate", "emotions", "stats"],
)
def test_command_does_not_import_scipy(argv, tmp_path):
    result = run_in_subprocess(
        "import sys\n"
        "from stresskit import cli\n"
        f"assert cli.main({[str(a) for a in argv]!r}) == 0\n"
        "print('scipy' in sys.modules)\n",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "classifier,features", [("logistic", "bow"), ("nb", "bow"), ("svm", "tfidf")]
)
def test_train_runs_with_scipy_blocked(classifier, features, tmp_path):
    argv = ["train", str(FIXTURES / "labeled_train.csv"), "--classifier", classifier,
            "--features", features, "--epochs", "5", "--svm-epochs", "1"]
    result = run_in_subprocess(
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from stresskit import cli\n"
        f"sys.exit(cli.main({argv!r}))\n",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "model.json").exists()


READ_COMMANDS = {
    "predict": ["predict", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--out", "p.csv"],
    "analyze": ["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--out-dir", "reports"],
    "emotions": ["emotions", FIXTURES / "posts_100.csv", "--out", "e.csv"],
    "stats": ["stats", FIXTURES / "posts_100.csv"],
    "annotate": ["annotate", FIXTURES / "annotations.csv", "--out-dir", "annotation"],
}


def _numpy_loaded_after(argv, tmp_path):
    """Run the CLI on `argv` (none: only import it) in a fresh process and
    report whether numpy was imported."""
    result = run_in_subprocess(
        "import sys\n"
        "from stresskit import cli\n"
        + (f"assert cli.main({[str(a) for a in argv]!r}) == 0\n" if argv else "")
        + "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("command", [None, *READ_COMMANDS], ids=["import", *READ_COMMANDS])
def test_read_path_does_not_import_numpy(command, tmp_path):
    assert not _numpy_loaded_after(READ_COMMANDS.get(command), tmp_path)


def test_logistic_training_loads_numpy(tmp_path):
    assert _numpy_loaded_after(["train", FIXTURES / "labeled_train.csv", "--epochs", "5"],
                               tmp_path)


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(preset, tmp_path):
    result = run_in_subprocess(
        "import os\n"
        "from stresskit import cli\n"
        f"assert cli.main(['stats', {str(FIXTURES / 'posts_100.csv')!r}]) == 0\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n",
        tmp_path, **({} if preset is None else {"OPENBLAS_NUM_THREADS": preset}))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == (preset or "1")


BLAS_COMMANDS = {
    f"train-logistic-{features}": ["train", FIXTURES / "labeled_train.csv", "--classifier",
                                   "logistic", "--features", features, "--model-out", "m.json"]
    for features in ("bow", "tfidf")
}


@pytest.mark.parametrize("command", list(BLAS_COMMANDS))
def test_outputs_do_not_depend_on_the_blas_thread_count(command, tmp_path):
    """Logistic training, the one command that computes with numpy, writes the
    same bytes on the CLI's one BLAS thread as on two."""
    argv = [str(a) for a in BLAS_COMMANDS[command]]
    outputs = {}
    for threads in (None, "2"):
        cwd = tmp_path / f"threads-{threads or 'unset'}"
        cwd.mkdir()
        result = run_in_subprocess(
            f"import sys\nfrom stresskit import cli\nsys.exit(cli.main({argv!r}))\n", cwd,
            **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
        assert result.returncode == 0, result.stderr
        outputs[threads] = _tree(cwd)
    assert outputs[None] == outputs["2"] and outputs[None]


# NPY_DISABLE_CPU_FEATURES values: none, then without AVX-512, then without
# AVX2 too. numpy ignores a feature the CPU lacks, so on a smaller CPU some
# settings run the same kernels.
SIMD_SETTINGS = ("", "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


@pytest.mark.parametrize("command", list(BLAS_COMMANDS))
def test_logistic_training_writes_the_same_bytes_under_every_simd_kernel(command, tmp_path):
    """numpy picks a SIMD kernel for its math functions by CPU; logistic
    training writes the same model bytes whichever kernels it is given."""
    argv = [str(a) for a in BLAS_COMMANDS[command]]
    outputs = set()
    for n, setting in enumerate(SIMD_SETTINGS):
        cwd = tmp_path / f"simd-{n}"
        cwd.mkdir()
        result = run_in_subprocess(
            f"import sys\nfrom stresskit import cli\nsys.exit(cli.main({argv!r}))\n", cwd,
            NPY_DISABLE_CPU_FEATURES=setting)
        assert result.returncode == 0, result.stderr
        outputs.add(tuple(_tree(cwd).items()))
    assert len(outputs) == 1


NUMPY_FREE_TRAINING = {
    f"train-{classifier}-{features}": ["train", FIXTURES / "labeled_train.csv", "--classifier",
                                       classifier, "--features", features, "--model-out", "m.json"]
    for classifier in ("nb", "svm") for features in ("bow", "tfidf")
}


@pytest.mark.parametrize("command", ["predict", "analyze", "annotate", *NUMPY_FREE_TRAINING])
def test_read_commands_run_with_numpy_blocked(command, tmp_path):
    """These commands, annotate and naive Bayes and SVM training among them,
    write the same files with numpy blocked: only logistic training needs it."""
    argv = [str(a) for a in {**READ_COMMANDS, **NUMPY_FREE_TRAINING}[command]]
    outputs = {}
    for blocked in (False, True):
        cwd = tmp_path / ("blocked" if blocked else "free")
        cwd.mkdir()
        result = run_in_subprocess(
            "import sys\n"
            + ("sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
               if blocked else "")
            + "from stresskit import cli\n"
            f"sys.exit(cli.main({argv!r}))\n",
            cwd,
        )
        assert result.returncode == 0, result.stderr
        outputs[blocked] = _tree(cwd)
    if command == "analyze":
        for tree in outputs.values():
            document = json.loads(tree[Path("reports", "report.json")])
            del document["metadata"]["generated_at"]
            tree[Path("reports", "report.json")] = document
    assert outputs[True] == outputs[False] and outputs[False]


@pytest.mark.parametrize(
    "argv,blocker",
    [(["analyze", GOLDEN_MODEL, FIXTURES / "posts_100.csv", "--out-dir", "{out}"],
      "emotions.csv"),
     (["annotate", FIXTURES / "annotations.csv", "--out-dir", "{out}"],
      "annotation_summary.json")],
    ids=["analyze", "annotate"],
)
def test_failure_on_a_later_output_leaves_no_new_file(argv, blocker, tmp_path, capsys):
    out = tmp_path / "out"
    (out / blocker).mkdir(parents=True)  # a directory where the last output goes
    assert run([str(a).replace("{out}", str(out)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / blocker) in err
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == [Path(blocker)]


def test_traced_layers_exist_after_importing_the_cli(tmp_path):
    """perfbench/tracer.py imports stresskit.cli, then wraps every function in
    its LAYERS table by module attribute; each must exist by then (its module
    registered at import, executed on first access)."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    assert sum(len(functions) for functions in layers.values()) > 40
    result = run_in_subprocess(
        "import sys\n"
        "import stresskit.cli\n"
        f"for module, functions in {layers!r}.items():\n"
        "    module = sys.modules[f'stresskit.{module}']\n"
        "    for name in functions:\n"
        "        assert callable(getattr(module, name)), name\n"
        "print('ok')\n",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


def test_importing_the_cli_loads_no_dataclasses_statistics_or_numpy(tmp_path):
    """Every command pays for what importing the CLI loads: records are tuples
    or plain classes, statistics loads with the report that reads it, numpy
    where it computes and hashlib where a fingerprint is taken."""
    result = run_in_subprocess(
        "import sys\n"
        "import stresskit.cli\n"
        "print(sorted(m for m in ('dataclasses', 'statistics', 'numpy', 'hashlib', '_hashlib')\n"
        "             if m in sys.modules))\n",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


_STARTED = {"stresskit", "stresskit.cli", "stresskit.errors"}
_READ_PATH = {"stresskit.classify", "stresskit.corpus", "stresskit.data", "stresskit.features",
              "stresskit.porter", "stresskit.textprep"}


@pytest.mark.parametrize("argv,executed", [
    (None, _STARTED),
    (["train", FIXTURES / "labeled_train.csv", "--eval", FIXTURES / "labeled_eval.csv",
      "--classifier", "nb", "--model-out", "m.json"],
     _STARTED | _READ_PATH | {"stresskit.evaluate"}),
    (READ_COMMANDS["predict"], _STARTED | _READ_PATH),
    (READ_COMMANDS["analyze"], _STARTED | _READ_PATH | {"stresskit.emotion", "stresskit.report"}),
    (READ_COMMANDS["annotate"], _STARTED | {"stresskit.annotate", "stresskit.corpus"}),
    (READ_COMMANDS["emotions"], _STARTED | {"stresskit.corpus", "stresskit.data",
                                            "stresskit.emotion", "stresskit.textprep"}),
    (READ_COMMANDS["stats"], _STARTED | {"stresskit.corpus", "stresskit.data",
                                         "stresskit.porter", "stresskit.textprep"}),
], ids=["import", "train-eval", "predict", "analyze", "annotate", "emotions", "stats"])
def test_each_command_executes_only_the_modules_it_reads(argv, executed, tmp_path):
    """A command compiles and runs only the package modules it reads; the
    others stay registered and unexecuted. type() is no attribute access: a
    lazy module's type is not types.ModuleType until its first one."""
    result = run_in_subprocess(
        "import sys, types\n"
        "from stresskit import cli\n"
        + (f"assert cli.main({[str(a) for a in argv]!r}) == 0\n" if argv else "")
        + "print(sorted(n for n, m in list(sys.modules.items())\n"
        "             if n.partition('.')[0] == 'stresskit' and type(m) is types.ModuleType))\n",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(sorted(executed))


def test_every_package_module_but_cli_and_errors_is_registered_lazily():
    """perfbench/tracer.py reads each layer from sys.modules after importing
    the CLI, so no package module may fall outside the registration."""
    modules = {m.name for m in pkgutil.iter_modules(stresskit.__path__)}
    assert sorted(cli.LAZY_MODULES) == sorted(modules - {"cli", "errors", "data"})


def test_a_module_imported_before_the_cli_is_bound_as_it_is(tmp_path):
    result = run_in_subprocess(
        "import os, sys, types\n"
        "runs = []\n"
        "target = os.path.join('stresskit', 'report.py')\n"
        "sys.addaudithook(lambda event, args: event == 'exec'\n"
        "                 and getattr(args[0], 'co_filename', '').endswith(target)\n"
        "                 and runs.append(event))\n"
        "import stresskit.report\n"
        "from stresskit import cli\n"
        "assert cli.report is sys.modules['stresskit.report']\n"
        "assert type(cli.report) is types.ModuleType and callable(cli.report.build_report)\n"
        "print(len(runs))\n",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "1"

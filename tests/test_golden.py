"""Golden-output oracle: every CLI command's output on the bundled fixtures
must match the files frozen under tests/golden/.

Labels, counts and strings compare exactly; floats compare within 1e-12
(relative to their magnitude when it exceeds 1). Models compare through
`classify.load_model` and the scores `predict` gives on labeled_eval.csv,
not through raw JSON, so the check does not depend on the model file
layout. The committed model files also serve as the fixture for loading
model files written by earlier versions. The golden files are never
regenerated; a change that alters them alters behaviour.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from stresskit import classify, cli, corpus, features, textprep

from conftest import FIXTURES, load_script

GOLDEN = Path(__file__).resolve().parent / "golden"
TOLERANCE = 1e-12
KINDS = (("logistic", "bow"), ("nb", "bow"), ("svm", "tfidf"))
REPORT_CSVS = ("summary.csv", "monthly.csv", "upvotes.csv", "top_words.csv", "emotions.csv")


def run(argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


def as_number(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return None


def assert_same(actual, expected, where: str) -> None:
    if actual == expected and type(actual) is type(expected):
        return
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)) and isinstance(expected, (int, float)), where
        scale = max(1.0, abs(actual), abs(expected))
        assert abs(actual - expected) <= TOLERANCE * scale, f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{where}[{i}]")
    else:
        assert actual == expected and type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"


def assert_same_csv(actual_path: Path, expected_path: Path) -> None:
    with open(actual_path, newline="", encoding="utf-8") as handle:
        actual = list(csv.reader(handle))
    with open(expected_path, newline="", encoding="utf-8") as handle:
        expected = list(csv.reader(handle))
    assert len(actual) == len(expected), expected_path.name
    for r, (row_a, row_e) in enumerate(zip(actual, expected)):
        assert len(row_a) == len(row_e), f"{expected_path.name} row {r}"
        for c, (a, e) in enumerate(zip(row_a, row_e)):
            where = f"{expected_path.name} row {r} col {c}"
            if a != e and isinstance(as_number(e), float):
                assert_same(as_number(a), as_number(e), where)
            else:
                assert a == e, f"{where}: {a!r} != {e!r}"


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def eval_scores(model) -> list[tuple[int, float]]:
    stopwords = textprep.default_stopwords()
    out = []
    for ex in corpus.load_labeled(FIXTURES / "labeled_eval.csv"):
        vec = features.vectorize(
            textprep.preprocess(ex.text, stopwords), model.vocabulary, model.feature_kind
        )
        pred = classify.predict(model, vec)
        out.append((pred.label, pred.score))
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Train each golden classifier once; keep the eval table without the
    timing line."""
    outdir = tmp_path_factory.mktemp("golden_models")
    tables = {}
    for kind, feats in KINDS:
        model_path = outdir / f"model_{kind}.json"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            run(["train", FIXTURES / "labeled_train.csv", "--eval", FIXTURES / "labeled_eval.csv",
                 "--classifier", kind, "--features", feats, "--model-out", model_path])
        lines = buffer.getvalue().splitlines(keepends=True)
        assert lines[0].startswith(f"trained {kind} ({feats})")
        tables[kind] = "".join(lines[1:])
    return outdir, tables


@pytest.mark.parametrize("kind", [k for k, _ in KINDS])
def test_trained_model_matches_golden(trained, kind):
    outdir, _ = trained
    fresh = classify.load_model(outdir / f"model_{kind}.json")
    golden = classify.load_model(GOLDEN / f"model_{kind}.json")
    assert fresh.kind == golden.kind
    assert fresh.feature_kind == golden.feature_kind
    assert fresh.hyper == golden.hyper
    assert fresh.vocabulary == golden.vocabulary
    assert fresh.pipeline_fingerprint == golden.pipeline_fingerprint
    for i, ((label_f, score_f), (label_g, score_g)) in enumerate(
        zip(eval_scores(fresh), eval_scores(golden), strict=True)
    ):
        assert label_f == label_g, f"eval row {i}"
        assert_same(score_f, score_g, f"eval row {i}")


@pytest.mark.parametrize("kind", [k for k, _ in KINDS])
def test_eval_table_matches_golden(trained, kind):
    _, tables = trained
    assert tables[kind] == (GOLDEN / f"eval_{kind}.txt").read_text(encoding="utf-8")


def test_predictions_match_golden(tmp_path):
    out = tmp_path / "predictions.csv"
    run(["predict", GOLDEN / "model_logistic.json", FIXTURES / "posts_100.csv", "--out", out])
    assert_same_csv(out, GOLDEN / "predictions.csv")


def test_report_matches_golden(tmp_path):
    outdir = tmp_path / "report"
    run(["analyze", GOLDEN / "model_logistic.json", FIXTURES / "posts_100.csv",
         "--mapping", FIXTURES / "communities.csv", "--out-dir", outdir])
    document = read_json(outdir / "report.json")
    del document["metadata"]["generated_at"]
    assert_same(document, read_json(GOLDEN / "report" / "report.json"), "report.json")
    for name in REPORT_CSVS:
        assert_same_csv(outdir / name, GOLDEN / "report" / name)


def test_annotation_matches_golden(tmp_path):
    run(["annotate", FIXTURES / "annotations.csv", "--weights", FIXTURES / "weights.csv",
         "--out-dir", tmp_path])
    assert_same_csv(tmp_path / "consensus.csv", GOLDEN / "annotation" / "consensus.csv")
    assert_same(
        read_json(tmp_path / "annotation_summary.json"),
        read_json(GOLDEN / "annotation" / "annotation_summary.json"),
        "annotation_summary.json",
    )


def test_emotions_match_golden(tmp_path):
    out = tmp_path / "emotions.csv"
    run(["emotions", FIXTURES / "posts_100.csv", "--out", out])
    assert_same_csv(out, GOLDEN / "emotions.csv")


def test_stats_match_golden(capsys):
    run(["stats", FIXTURES / "posts_100.csv"])
    assert_same(json.loads(capsys.readouterr().out), read_json(GOLDEN / "stats.json"), "stats")


def test_make_fixtures_reproduces_the_committed_fixtures(tmp_path):
    """scripts/make_fixtures.py is seeded, so a rerun writes data/fixtures/
    byte for byte."""
    script = load_script("scripts/make_fixtures.py")
    script.FIXTURES = tmp_path
    script.main()
    names = sorted(path.name for path in FIXTURES.iterdir())
    assert len(names) == 6
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name

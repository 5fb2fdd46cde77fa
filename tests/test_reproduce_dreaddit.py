"""scripts/reproduce_dreaddit.py on a generated corpus in Dreaddit's layout:
the script reads text as `stresskit train --eval` does, so its table rows
equal the command's on the same files."""

import importlib.util
import random
import re

from stresskit import cli

from conftest import REPO_ROOT
from test_porter import _perfbench_gen

CLASSIFIERS = {"logistic": "Logistic Regression", "nb": "Naive Bayes", "svm": "SVM"}


def table_rows(stdout: str) -> dict[str, list[str]]:
    """The metrics table's rows by classifier name; columns are two spaces apart."""
    rows = {}
    for line in stdout.splitlines():
        cells = re.split(r" {2,}", line)
        if len(cells) == 6 and cells[1] in CLASSIFIERS.values():
            rows[cells[1]] = cells
    return rows


def test_script_rows_equal_train_eval_rows(tmp_path, monkeypatch, capsys):
    gen = _perfbench_gen()
    vocab = gen.Vocabulary()
    train, test = tmp_path / "dreaddit-train.csv", tmp_path / "dreaddit-test.csv"
    gen.write_labeled(train, vocab, 400, random.Random(1), gen.TextStats())
    gen.write_labeled(test, vocab, 120, random.Random(2), gen.TextStats())
    monkeypatch.setenv("DREADDIT_DIR", str(tmp_path))
    spec = importlib.util.spec_from_file_location(
        "reproduce_dreaddit", REPO_ROOT / "scripts" / "reproduce_dreaddit.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    out = capsys.readouterr().out
    assert "train: 400 examples, test: 120 examples" in out
    rows = table_rows(out)
    assert list(rows) == list(CLASSIFIERS.values())
    for classifier, name in CLASSIFIERS.items():
        code = cli.main(["train", str(train), "--eval", str(test), "--classifier", classifier,
                         "--model-out", str(tmp_path / f"{classifier}.json")])
        assert code == 0
        assert table_rows(capsys.readouterr().out) == {name: rows[name]}

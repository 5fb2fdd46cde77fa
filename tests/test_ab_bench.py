"""scripts/ab_bench.py's argument checks, which must fail before any run."""

import importlib.util

import pytest

from conftest import REPO_ROOT


@pytest.fixture
def ab_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "ab_bench", REPO_ROOT / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(module, "export", no_run)
    monkeypatch.setattr(module, "run_once", no_run)
    return module


@pytest.mark.parametrize("seeds", ["7", "9-8", "x"])
def test_fewer_than_two_seeds_is_a_usage_error(seeds, ab_bench, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        ab_bench.main(["--parent", "HEAD", "--seeds", seeds, "--out", str(tmp_path / "b.json")])
    assert exit_.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()

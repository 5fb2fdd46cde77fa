"""scripts/ab_bench.py's argument checks, which must fail before any run."""

import pytest

from conftest import load_script


@pytest.fixture
def ab_bench(monkeypatch):
    module = load_script("scripts/ab_bench.py")

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

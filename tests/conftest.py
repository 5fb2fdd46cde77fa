import csv
import importlib.util
from pathlib import Path

import pytest

from stresskit import textprep

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "data" / "fixtures"


def load_script(relative: str):
    """A script of the repository (scripts/, perfbench/) loaded as a module."""
    spec = importlib.util.spec_from_file_location(Path(relative).stem, REPO_ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def stopwords() -> frozenset[str]:
    """The vendored stopword list. A test that needs a token table builds its
    own, so no stem memo is shared across tests."""
    return textprep.default_stopwords()


@pytest.fixture
def write_csv(tmp_path):
    """Write rows to a temp CSV and return its path."""

    def _write(rows, name="data.csv"):
        path = tmp_path / name
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        return path

    return _write

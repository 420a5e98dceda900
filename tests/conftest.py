import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from maldoc import make_corpus


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory) -> Path:
    """A 60-file synthetic corpus shared by pipeline-level tests."""
    out = tmp_path_factory.mktemp("corpus")
    return make_corpus(out, n_total=60, seed=11)


@pytest.fixture(scope="session")
def corpus_2024(tmp_path_factory) -> list[Path]:
    """The PDFs of a 100-file seed-2024 corpus, sorted by name."""
    out = tmp_path_factory.mktemp("corpus2024")
    make_corpus(out, n_total=100, seed=2024)
    return sorted((out / "pdfs").glob("*.pdf"))

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from ontomap import native, ofn, reasoner

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "obesity-sample.ofn"


@pytest.fixture(scope="session")
def fixture_path():
    return FIXTURE


@pytest.fixture(scope="session")
def fixture_ontology():
    result = ofn.parse_file(FIXTURE)
    assert result.ontology is not None, [str(d) for d in result.diagnostics]
    return result.ontology


@pytest.fixture(scope="session")
def fixture_store(fixture_ontology):
    return reasoner.saturate(fixture_ontology)


@pytest.fixture()
def kernel_cache(monkeypatch, tmp_path):
    """The compiled sweep's loader, reset, with its cache in a new directory."""
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cache")
    native.kernel.cache_clear()
    yield tmp_path / "cache"
    native.kernel.cache_clear()

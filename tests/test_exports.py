"""The package's public export list and the Python versions its sources parse under."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ginlab

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ginlab").glob("*.py"))


def test_every_export_exists_once():
    # __all__ holds strings, so a stale name still imports cleanly and only
    # breaks `from ginlab import *`
    missing = [name for name in ginlab.__all__ if not hasattr(ginlab, name)]
    assert missing == []
    assert len(set(ginlab.__all__)) == len(ginlab.__all__)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_as_python_3_10(path):
    # pyproject's requires-python = ">=3.10"
    ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))

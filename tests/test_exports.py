"""The package's public export list."""

from __future__ import annotations

import ginlab


def test_every_export_exists_once():
    # __all__ holds strings, so a stale name still imports cleanly and only
    # breaks `from ginlab import *`
    missing = [name for name in ginlab.__all__ if not hasattr(ginlab, name)]
    assert missing == []
    assert len(set(ginlab.__all__)) == len(ginlab.__all__)

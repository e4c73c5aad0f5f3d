"""The benchmark's traced-function list still names real ginlab functions.

``bench/tracing.py`` wraps functions by module and name, and measures what
the exporters return as text; a renamed or deleted function, or an exporter
that stops returning a str, would otherwise surface only in a traced
benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from ginlab import PointConfig, exporters, shape, staircase

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module,name", [(module, name) for module, name, _ in tracing.TRACED],
                         ids=[f"{module}.{name}" for module, name, _ in tracing.TRACED])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"ginlab.{module}"), name, None))


@pytest.mark.parametrize("qualname", tracing.CACHED)
def test_cached_function_has_cache_info(qualname):
    module, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"ginlab.{module}"), name)
    assert callable(getattr(fn, "cache_info", None))


# the traced run measures len(text) and text.isascii() of what each exporter returns
EXPORTER_INPUTS = {
    "staircase_json": lambda: (staircase.gin_staircase(PointConfig.general(6), 3),),
    "shape_json": lambda: (shape.shape_report(PointConfig.general(6), [2, 4]),),
    "shape_csv": lambda: (shape.shape_report(PointConfig.general(6), [2, 4]),),
    "shape_svg": lambda: (shape.shape_report(PointConfig.general(6), [2, 4]),),
    "hilbert_csv": lambda: ([(0, 1), (1, 3)],),
}


@pytest.mark.parametrize("name", tracing.EXPORTERS)
def test_traced_exporter_returns_str(name):
    assert isinstance(getattr(exporters, name)(*EXPORTER_INPUTS[name]()), str)

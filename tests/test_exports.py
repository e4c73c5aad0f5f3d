"""The package's public export list, loaded lazily, and the Python versions its sources parse under."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ginlab
from test_cli import ORACLE_ROUTES

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ginlab").glob("*.py"))


def test_every_export_exists_once():
    # __all__ holds strings, so a stale name still imports cleanly and only
    # breaks `from ginlab import *`
    missing = [name for name in ginlab.__all__ if not hasattr(ginlab, name)]
    assert missing == []
    assert len(set(ginlab.__all__)) == len(ginlab.__all__)


def test_the_package_exports_the_readme_list_and_nothing_else():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.partition("\n## Library\n")[2].partition("\n## ")[0]
    listed = re.search(r"^The package exports (.*?);", library, re.M | re.S).group(1)
    assert ginlab.__all__ == re.findall(r"`(\w+)`", listed)
    # the star import reads every exported name, so each is bound from here on
    star: dict = {}
    exec("from ginlab import *", star)
    assert set(star) - {"__builtins__"} == set(ginlab.__all__)
    # every other name has one import path, its module
    public = {name for name, value in vars(ginlab).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(ginlab.__all__)
    # the oracle routes live in their modules, for verify and the tests
    assert [route for route in ORACLE_ROUTES if hasattr(ginlab, route.split(".")[1])] == []


@pytest.mark.parametrize("name", ginlab.__all__)
def test_each_export_is_its_modules_object(name):
    value = getattr(ginlab, name)
    module = f"ginlab.{ginlab._EXPORTS[name]}"
    assert value.__module__ == module
    assert value is getattr(sys.modules[module], name)


def test_an_unexported_name_raises_the_standard_attribute_error():
    assert not hasattr(ginlab, "alpha")
    with pytest.raises(AttributeError) as info:
        ginlab.alpha
    assert str(info.value) == "module 'ginlab' has no attribute 'alpha'"
    assert "alpha" not in dir(ginlab)
    assert set(ginlab.__all__) <= set(dir(ginlab))


# the modules `import ginlab` adds to sys.modules, in a child without site
# (-S -I, which also ignores PYTHONPATH) and in one with it
_NEW_MODULES = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
                "import ginlab; print(sorted(set(sys.modules) - before))")


@pytest.mark.parametrize("flags", [["-S", "-I"], ["-I"]], ids=["no-site", "site"])
def test_importing_the_package_loads_no_submodule(flags):
    child = subprocess.run([sys.executable, *flags, "-c", _NEW_MODULES, str(ROOT / "src")],
                           capture_output=True, text=True, check=True)
    assert child.stdout == "['ginlab']\n"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_as_python_3_10(path):
    # pyproject's requires-python = ">=3.10"
    ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))

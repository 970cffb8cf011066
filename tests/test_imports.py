"""Import surface: every name the package root imports resolves, and
every module's ``__all__`` names something the module defines, so a
removed function cannot linger as a stale export."""

import ast
import importlib
import pathlib
import re

import pytest

import bvbal

PACKAGE_DIR = pathlib.Path(bvbal.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def test_package_root_imports_resolve():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    names = [alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert len(names) > 40
    assert [name for name in names if not hasattr(bvbal, name)] == []


def test_count_rule_is_written_once():
    # `errors.count` is the one rule for a count; a hand-written copy of
    # its integrality test elsewhere could drift from it again
    copies = [path.name for path in PACKAGE_DIR.glob("*.py")
              if path.name != "errors.py" and "% 1 == 0" in path.read_text()]
    assert copies == []


def test_positive_rule_is_written_once():
    # `errors.positive` is the one rule for a positive real, the same
    # guard against a hand-written copy drifting from it
    copies = [path.name for path in PACKAGE_DIR.glob("*.py")
              if path.name != "errors.py" and "> 0 and math.isfinite(" in path.read_text()]
    assert copies == []


def test_budget_rule_is_written_once():
    # `errors.budget` is the one rule for a budget n at offset n0; the two
    # spellings it replaced, one of which let n + n0 pass 2**53, must not
    # come back, nor a hand-written copy of its messages
    sources = {path.name: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert [name for name, text in sources.items()
            if "_check_counts" in text or "_check_budget" in text] == []
    for message in ("must be at most 2**53", "n must be an integer >="):
        assert [name for name, text in sources.items() if message in text] == ["errors.py"]


def test_cache_is_written_once():
    # `calibration._memo` is the package's one cache, with one bound and
    # one clear(); a second cache would keep what clear() leaves warm
    sources = {path.name: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    other = re.compile(r"lru_cache|cached_property|functools\.cache\b"
                       r"|from functools import [^\n]*\bcache\b")
    assert [name for name, text in sources.items() if other.search(text)] == []
    assert sum(text.count("_Memo(") for text in sources.values()) == 1


@pytest.mark.parametrize("module", MODULES)
def test_module_star_import_resolves(module):
    # a star import raises AttributeError on an __all__ entry that is gone
    namespace: dict = {}
    exec(f"from bvbal.{module} import *", namespace)
    exported = getattr(importlib.import_module(f"bvbal.{module}"), "__all__", ())
    assert [name for name in exported if name not in namespace] == []

"""The traced benchmark (``bench/spans.py``) wraps charkit functions and
``Cyclotomic`` methods by name.  A rename or a deletion in charkit must fail
here, not only in a traced bench run."""

import importlib
import sys
from pathlib import Path

import pytest

from charkit.scalars import Cyclotomic

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    """``bench/spans.py`` imported read-only, with the bench modules it pulls
    in (``inputs``, ``exact``) dropped again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    try:
        yield importlib.import_module("spans")
    finally:
        for name in set(sys.modules) - before:
            if not name.startswith("charkit"):
                del sys.modules[name]


def test_every_traced_layer_resolves(spans):
    missing = [
        f"charkit.{module}.{attr}"
        for module, attr, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(f"charkit.{module}"), attr, None))
    ]
    assert missing == []


def test_every_traced_scalar_method_is_defined_on_cyclotomic(spans):
    assert [m for m in spans.SCALAR_METHODS if m not in Cyclotomic.__dict__] == []

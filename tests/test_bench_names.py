"""The names that the bench tracer wraps, and the package's exports, resolve.

`bench/tracer.py` replaces module-level names of lrw1 with timing wrappers.
A name that moves or goes would otherwise surface only when the bench runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import lrw1

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()


@pytest.mark.parametrize(
    "module, attribute",
    [entry[:2] for entry in _TRACER.TIMED + _TRACER.COUNTED],
    ids=lambda x: x,
)
def test_traced_name_resolves_to_a_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_every_exported_name_resolves():
    missing = [name for name in lrw1.__all__ if not hasattr(lrw1, name)]
    assert missing == []

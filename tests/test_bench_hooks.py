"""Every name the benchmark's tracer patches must exist in scorecd.

scorebench/spans.py wraps module attributes listed in HOOKS; a rename or
deletion there would otherwise surface only when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "scorebench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("scorebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.HOOKS]


@pytest.mark.parametrize("module,attr", _hooks())
def test_traced_name_resolves(module, attr):
    target = getattr(importlib.import_module(f"scorecd.{module}"), attr)
    assert callable(target)

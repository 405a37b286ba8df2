"""The benchmark tracer wraps program functions by name; every name it
lists must exist, or each traced benchmark run fails at start-up."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("modname, attr", _targets())
def test_tracer_target_exists(modname, attr):
    obj = importlib.import_module(f"gadgetminer.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)

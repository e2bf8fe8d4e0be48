"""The benchmark's tracer (pipebench/tracer.py) wraps rsmirnov functions
by module and attribute name; a rename under src/ would break --trace."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from rsmirnov import region_extraction

TRACER = Path(__file__).resolve().parents[1] / "pipebench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer,module,attr", tracer_targets(),
                         ids=lambda v: v if "." in v else "")
def test_tracer_targets_resolve(layer, module, attr):
    assert callable(getattr(importlib.import_module("rsmirnov." + module), attr))


def test_attempt_takes_the_resolution_second():
    # the tracer records a failed attempt's resolution from args[1]
    assert list(inspect.signature(region_extraction._attempt).parameters) == [
        "phi", "res", "seed"]

"""The benchmark's tracer (pipebench/tracer.py) wraps rsmirnov functions
by module and attribute name, and benchmarks/bench_kernels.py imports
private names; a rename under src/ would break either one silently."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from rsmirnov import region_extraction

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "pipebench" / "tracer.py"
BENCH_KERNELS = ROOT / "benchmarks" / "bench_kernels.py"


def load(path, name):
    """The script at path as a module, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracer_targets():
    return load(TRACER, "pipebench_tracer").TARGETS


@pytest.mark.parametrize("layer,module,attr", tracer_targets(),
                         ids=lambda v: v if "." in v else "")
def test_tracer_targets_resolve(layer, module, attr):
    assert callable(getattr(importlib.import_module("rsmirnov." + module), attr))


def test_attempt_takes_the_resolution_second():
    # the tracer records a failed attempt's resolution from args[1]
    assert list(inspect.signature(region_extraction._attempt).parameters) == [
        "phi", "res", "seed"]


def test_bench_kernels_names_resolve():
    # loading resolves its from-imports; module.attr uses and the
    # (module, "name") pairs it times are looked up by hand
    bench = load(BENCH_KERNELS, "bench_kernels")
    assert callable(bench.main)
    modules = {name: value for name, value in vars(bench).items()
               if inspect.ismodule(value)
               and value.__name__.startswith("rsmirnov.")}
    used = set()
    for node in ast.walk(ast.parse(BENCH_KERNELS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((node.value.id, node.attr))
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Name)
                and node.elts[0].id in modules
                and isinstance(node.elts[1], ast.Constant)):
            used.add((node.elts[0].id, node.elts[1].value))
    assert used
    missing = sorted((m, a) for m, a in used if not hasattr(modules[m], a))
    assert missing == []

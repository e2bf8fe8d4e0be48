"""The benchmark's tracer (pipebench/tracer.py) wraps rsmirnov functions
by module and attribute name, benchmarks/bench_kernels.py imports private
names, benchmarks/identity.py imports names from src/, and README.md's
library tour and command-line transcripts show what the API and the CLI
print; a rename under src/ or a changed report would break any of them
silently."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

from rsmirnov import region_extraction
from rsmirnov.cli import main
from rsmirnov.fixtures import koebe

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "pipebench" / "tracer.py"
BENCH_KERNELS = ROOT / "benchmarks" / "bench_kernels.py"
IDENTITY = ROOT / "benchmarks" / "identity.py"
README = ROOT / "README.md"


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


def test_region_extraction_exports_only_names_it_defines():
    # a stale __all__ entry breaks only "from region_extraction import *"
    missing = [name for name in region_extraction.__all__
               if not hasattr(region_extraction, name)]
    assert missing == []


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


def test_identity_names_resolve():
    # loading resolves its from-imports; running it takes half a minute
    identity = load(IDENTITY, "identity")
    assert callable(identity.main)
    assert identity.digest(0, "a") != identity.digest(0, "a", "")


def test_identity_digests_list_every_item_in_order():
    # the names identity.py makes, built from its inputs without running them
    identity = load(IDENTITY, "identity")
    names = ["analyze/%s/%d" % (name, res) for name, _, resolutions in identity.analyze_inputs()
             for res in resolutions]
    names += ["census/%d-%d/%d" % (deg1, deg2, k)
              for deg1, deg2, _, draws in identity.CENSUSES for k in range(draws)]
    names += ["clustered/%d" % k for k in range(identity.CLUSTERED_DRAWS)]
    names += ["search/%d" % seed for seed in identity.search_seeds()]
    names += list(identity.catalog_targets())
    names += ["enumerate/%d-%d" % valences for valences in identity.enumerate_valences()]
    names += ["validate/" + name for name in identity.validate_trees()]
    names += list(identity.exit_commands())
    names += ["verify/" + name.removeprefix("catalog/") for name in identity.catalog_targets()]
    lines = identity.DIGESTS.read_text(encoding="utf-8").splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["#", "#"]
    assert [line.split()[0] for line in lines[2:]] == names
    assert len(names) == 2624


def test_readme_tour_prints_what_its_comments_say(capsys):
    # each print of the tour is followed by a comment, on its line or the
    # next one, holding what it prints
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                         re.DOTALL)
    lines = tour.splitlines()
    want = []
    for k, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("  # ")[2]
            want.append(comment or lines[k + 1].removeprefix("# "))
    exec(compile(tour, str(README), "exec"), {})
    assert len(want) == 2
    assert capsys.readouterr().out.splitlines() == want


@pytest.mark.parametrize("command", ["analyze koebe.json", "enumerate 2 1"])
def test_readme_transcript_prints_what_it_shows(command, tmp_path, monkeypatch,
                                                 capsys):
    # the block opens with "$ rsmirnov <command>"; the rest is its stdout
    (block,) = re.findall(r"```\n\$ rsmirnov " + re.escape(command) + r"\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "koebe.json").write_text(json.dumps(koebe().to_json()),
                                         encoding="utf-8")
    assert main(command.split()) == 0
    assert capsys.readouterr().out.splitlines() == block.splitlines()

"""The benchmark's workloads: inputs, items and correctness oracles.

Each workload is a closed loop with one caller.  Its items are grouped in
passes with a fixed mix, and the runner runs a fixed number of whole passes
(as many as fit in ``--seconds`` at the workload's nominal
``pass_seconds``), so every run of a
workload measures the same mix of inputs whatever the host's speed.  An
item is timed alone.  An item that raises (a typed extraction failure, a
CLI exit code the item does not allow) has failed; otherwise its oracle
runs afterwards, outside the timed region, and returns the list of ways the
output is wrong (empty when it is right).  On a workload whose
``errors_are_wrong`` is true every item is expected to succeed, so a failed
item also makes the run's result incorrect.

The program sees only the generated inputs and the ``--seed`` values
derived here from the workload seed.  Timed calls go through the module
attributes (``region_extraction.extract_full``, not a local name), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from rsmirnov import cli, region_extraction, valence_tree
from rsmirnov.blaschke_smirnov import RealSmirnov, random_helson
from rsmirnov.fixtures import all_fixtures
from rsmirnov.synthesis import SynthesisResult, endpoint_error, verify
from rsmirnov.valence_tree import (
    Interval,
    Node,
    Tree,
    canonical_code,
    enumerate_shapes,
    is_isomorphic,
)

TOL = 1e-3


@dataclass
class Item:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    info: dict = field(default_factory=dict)


def derived_seed(seed: int, *key: int) -> int:
    """A program ``--seed`` value derived from the workload seed."""
    return int(np.random.default_rng([seed, *key]).integers(0, 2**31 - 1))


class NonZeroExit(RuntimeError):
    """The CLI returned an exit code other than 0."""


def _quiet_main(argv, allowed=(cli.EXIT_OK,)):
    """``rsmirnov.cli.main`` in-process, with stdout and stderr captured.

    Returns the exit code.  Raises NonZeroExit, carrying the first line of
    stderr, on an exit code not in ``allowed``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc not in allowed:
        first = err.getvalue().strip().splitlines()
        raise NonZeroExit("exit code %d: %s" % (rc, first[0] if first else ""))
    return rc


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# analyze_fixtures


# finite real breakpoints of each fixture's profile, plus pinned pieces
FIXTURE_BREAKPOINTS = {
    "upper_halfplane_map": [],
    "lower_halfplane_map": [],
    "fourth_power_map": [0.0],
    "koebe": [-0.25],
    "double_slit": [-0.5, 0.5],
}
FIXTURE_PIECES = {"fourth_power_map": [2, 1]}
ANALYZE_RESOLUTIONS = (256, 512)


class AnalyzeFixtures:
    """``rsmirnov analyze`` on the five fixtures, each at 256 and 512.

    An item is one fixture analyzed at both resolutions, one CLI call after
    the other: its oracle compares the two trees.  A pass is the five
    fixtures, 15-17 s.  The four cheaper fixtures cost 2-3 s a pair, so the
    median item falls among their eight pairs, and the tail is the
    costliest, ``fourth_power_map``, at about 6.5 s.
    """

    name = "analyze_fixtures"
    pass_seconds = 17.0
    errors_are_wrong = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.inputs: dict[str, Path] = {}

    def setup(self) -> None:
        for name, phi in all_fixtures().items():
            path = self.workdir / ("%s.json" % name)
            path.write_text(json.dumps(phi.to_json()), encoding="utf-8")
            self.inputs[name] = path

    def warmup(self) -> Item:
        return self._item("upper_halfplane_map", ANALYZE_RESOLUTIONS[:1],
                          [0], "warmup")

    def pass_items(self, p: int) -> list[Item]:
        names = ["upper_halfplane_map", "lower_halfplane_map", "koebe",
                 "double_slit", "fourth_power_map"]
        return [self._item(name, ANALYZE_RESOLUTIONS,
                           [derived_seed(self.seed, p, k, j)
                            for j in range(len(ANALYZE_RESOLUTIONS))],
                           "p%d" % p)
                for k, name in enumerate(names)]

    def _item(self, name, resolutions, seeds, tag) -> Item:
        outs = [self.workdir / ("%s-%s-%d.out.json" % (tag, name, res))
                for res in resolutions]
        argvs = [["analyze", str(self.inputs[name]), "--resolution", str(res),
                  "--seed", str(s), "--json", str(out)]
                 for res, s, out in zip(resolutions, seeds, outs)]

        def run():
            for out, argv in zip(outs, argvs):
                if out.exists():
                    out.unlink()
                _quiet_main(argv)

        def check(_):
            problems = []
            trees = []
            for res, out in zip(resolutions, outs):
                data = _load(out)
                prof = data["profile"]
                want = FIXTURE_BREAKPOINTS[name]
                got = prof["breakpoints"]
                if len(got) != len(want) or any(
                        abs(a - b) > TOL for a, b in zip(got, want)):
                    problems.append("%d: breakpoints %s, expected %s"
                                    % (res, got, want))
                pieces = FIXTURE_PIECES.get(name)
                if pieces is not None and prof["piece_mults"] != pieces:
                    problems.append("%d: pieces %s, expected %s"
                                    % (res, prof["piece_mults"], pieces))
                if not data["crosscheck"]["ok"]:
                    problems.append("%d: crosscheck: %d mismatches"
                                    % (res,
                                       len(data["crosscheck"]["mismatches"])))
                trees.append(Tree.from_json(data["tree"]))
            for res, tree in zip(resolutions[1:], trees[1:]):
                if not is_isomorphic(trees[0], tree, mode="shape"):
                    problems.append("trees at %d and %d differ in shape"
                                    % (resolutions[0], res))
                elif not endpoint_error(trees[0], tree) < TOL:
                    problems.append("endpoint_error %.3g between %d and %d"
                                    % (endpoint_error(trees[0], tree),
                                       resolutions[0], res))
            return problems

        return Item("%s@%s" % (name, "+".join(map(str, resolutions))), run,
                    check, {"fixture": name, "resolutions": list(resolutions),
                            "seeds": list(seeds)})


# ---------------------------------------------------------------------------
# synthesis_search


def acceptance_target() -> Tree:
    """The (2, 1) edge on (-1, 1): valence 2 above, 1 below."""
    return Tree([Node("p1", 1, 2), Node("m1", -1, 1)],
                [("p1", "m1", Interval(-1.0, 1.0))])


def catalog_target() -> Tree:
    """A (1, 1) edge, realized in closed form by the catalog."""
    return Tree([Node("p1", 1, 1), Node("m1", -1, 1)],
                [("p1", "m1", Interval(-1.0, 1.0))])


SEARCH_BUDGET = 500
SEARCH_ITEMS_PER_PASS = 4
VERIFY_RESOLUTION = 256


class SynthesisSearch:
    """``rsmirnov synthesize`` on the acceptance target, one solve per item.

    The warm-up item synthesizes a catalog target instead: it runs the same
    CLI, catalog and extraction code without a full search.  A solve's cost
    depends on its seed (3938 to 7729 evaluations for seeds 0-3), so this
    workload is run for its traces; ``synthesis_budget`` is the steady one.
    """

    name = "synthesis_search"
    pass_seconds = 20.0
    errors_are_wrong = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.target = workdir / "target.json"
        self.catalog = workdir / "catalog_target.json"

    def setup(self) -> None:
        self.target.write_text(json.dumps(acceptance_target().to_json()),
                               encoding="utf-8")
        self.catalog.write_text(json.dumps(catalog_target().to_json()),
                                encoding="utf-8")

    def warmup(self) -> Item:
        return self._item(self.catalog, catalog_target(), 0, "warmup")

    def pass_items(self, p: int) -> list[Item]:
        return [self._item(self.target, acceptance_target(),
                           derived_seed(self.seed, p), "p%d" % p,
                           verify_resolution=512)]

    def _item(self, target, tree, s, tag, budget=None,
              verify_resolution=VERIFY_RESOLUTION) -> Item:
        """One ``synthesize`` call; ``budget`` caps the search.

        Without a budget the item must end ``exact``.  A budgeted search
        may also end ``approximate`` (the target's shape, exit code 0) or
        ``failed`` (no shape match within the budget, exit code 4): both
        are correct answers of a search that ran out of budget.
        """
        out = self.workdir / ("%s-%d-synth.out.json" % (tag, s))
        argv = ["synthesize", str(target), "--seed", str(s), "--out", str(out)]
        allowed = (cli.EXIT_OK,)
        if budget is not None:
            argv += ["--budget", str(budget)]
            allowed = (cli.EXIT_OK, cli.EXIT_NUMERICAL)
        code = canonical_code(tree)

        def run():
            if out.exists():
                out.unlink()
            return _quiet_main(argv, allowed)

        def check(rc):
            data = _load(out)
            status, loss = data["status"], data["loss"]
            problems = []
            if status not in (("exact",) if budget is None
                              else ("exact", "approximate", "failed")):
                problems.append("status %s" % status)
            if rc != (cli.EXIT_NUMERICAL if status == "failed"
                      else cli.EXIT_OK):
                problems.append("exit code %d with status %s" % (rc, status))
            if budget is not None and status != "exact" and (
                    data["evaluations"] != budget):
                problems.append("%s after %d of %d evaluations"
                                % (status, data["evaluations"], budget))
            if status == "exact" and (loss is None or not loss < 1e-2):
                problems.append("exact with loss %s" % loss)
            if status == "approximate" and (
                    loss is None
                    or canonical_code(Tree.from_json(data["tree"])) != code):
                problems.append("approximate without the target's shape")
            if status == "failed" and not any(
                    n.startswith("BudgetExhausted") for n in data["notes"]):
                problems.append("failed without BudgetExhausted")
            if status == "exact" and not problems:
                res = SynthesisResult(
                    RealSmirnov.from_json(data["candidate"]), loss,
                    Tree.from_json(data["tree"]), status,
                    evaluations=data["evaluations"])
                if not verify(res, resolution=verify_resolution).ok:
                    problems.append("verify failed")
            return problems

        return Item("synthesize" if budget is None else "search%d" % budget,
                    run, check, {"seed": s, "budget": budget})


class SynthesisBudget(SynthesisSearch):
    """``rsmirnov synthesize`` with a fixed evaluation budget per item.

    A pass is four searches on the acceptance target, each capped at 500
    evaluations, then one catalog target, about 10 s.  A capped search
    costs about the same on most seeds, 2-2.6 s: about two thirds is the
    root counting of the surrogate loss, the rest one confirming extraction
    at 256 when a restart gets close.  Exact results are verified at 256,
    outside the timed region.
    """

    name = "synthesis_budget"
    pass_seconds = 10.0

    def pass_items(self, p: int) -> list[Item]:
        items = [self._item(self.target, acceptance_target(),
                            derived_seed(self.seed, p, k), "p%d" % p,
                            budget=SEARCH_BUDGET)
                 for k in range(SEARCH_ITEMS_PER_PASS)]
        items.append(self._item(self.catalog, catalog_target(),
                                derived_seed(self.seed, p,
                                             SEARCH_ITEMS_PER_PASS),
                                "p%d" % p))
        return items


# ---------------------------------------------------------------------------
# helson_census


HELSON_DEGREES = [(d1, d2) for d1 in range(1, 5) for d2 in range(1, 4)]
HELSON_RMAX = 0.95
CENSUS_RESOLUTION = 256
CENSUS_MAX_RESOLUTION = 1024
CENSUS_SAMPLES = 200


class HelsonCensus:
    """Random Helson pairs: extract at 256, crosscheck, look the shape up.

    A pass is one round over the twelve degree pairs (deg B1, deg B2) from
    (1, 1) to (4, 3), with zeros up to radius 0.95.  Round r is drawn from
    its own generator, between passes, outside the timed items and outside
    set-up: rejection sampling makes a draw's cost depend on the seed.  The
    warm-up pair is drawn from a fixed generator, so set-up costs the same
    on every seed.  An extraction that raises, typed ``ExtractionError`` or
    not, is a failed item; a shape missing from ``enumerate_shapes`` is a
    wrong output (an enumerator bug) and stays in the data.
    """

    name = "helson_census"
    pass_seconds = 10.0
    errors_are_wrong = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rounds: dict[int, list] = {}
        self.shapes: dict[tuple, set] = {}
        self.census: dict[str, int] = {}
        self.warm_phi = None

    def setup(self) -> None:
        self.shapes = {
            (d1, d2): {e.code for e in enumerate_shapes(d2, d1)}
            for d1, d2 in HELSON_DEGREES
        }
        rng = np.random.default_rng([4211, 0])
        self.warm_phi = random_helson(rng, 1, 1, rmax=HELSON_RMAX,
                                      max_tries=20000)

    def _draw(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, 4211, r + 1])
        return [(d1, d2, random_helson(rng, d1, d2, rmax=HELSON_RMAX,
                                       max_tries=20000))
                for d1, d2 in HELSON_DEGREES]

    def warmup(self) -> Item:
        return self._item(1, 1, self.warm_phi, 0, count=False)

    def pass_items(self, p: int) -> list[Item]:
        if p not in self.rounds:
            self.rounds[p] = self._draw(p)
        return [self._item(d1, d2, phi, derived_seed(self.seed, p, k))
                for k, (d1, d2, phi) in enumerate(self.rounds[p])]

    def _item(self, d1, d2, phi, s, count=True) -> Item:
        def run():
            ext = region_extraction.extract_full(
                phi, resolution=CENSUS_RESOLUTION,
                max_resolution=CENSUS_MAX_RESOLUTION, seed=s)
            report = region_extraction.crosscheck(
                phi, ext.tree, n_samples=CENSUS_SAMPLES, seed=s + 1)
            code = valence_tree.canonical_code(ext.tree)
            return report, code, code in self.shapes[(d1, d2)]

        def check(result):
            report, code, known = result
            if count:
                key = "%d,%d %s" % (d1, d2, code)
                self.census[key] = self.census.get(key, 0) + 1
            problems = []
            if not report.ok:
                problems.append("crosscheck: %d mismatches"
                                % len(report.mismatches))
            if not known:
                problems.append("shape %s missing from enumerate_shapes(%d, "
                                "%d)" % (code, d2, d1))
            return problems

        return Item("helson(%d,%d)" % (d1, d2), run, check,
                    {"deg_b1": d1, "deg_b2": d2, "seed": s})


WORKLOADS = {w.name: w for w in (AnalyzeFixtures, SynthesisSearch,
                                 SynthesisBudget, HelsonCensus)}

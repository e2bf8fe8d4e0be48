"""Digests of what the program prints and extracts, checked against a file.

Run from the root of a checkout, whose src/ it imports:

    python3 benchmarks/identity.py --check
    python3 benchmarks/identity.py > benchmarks/identity.txt

It prints two header lines, the Python and numpy versions, then one line
per item: its name, the first 16 hex digits of the sha256 of what the item
produced, and its outcome as key=value fields, each digest in them the
first 8 hex digits of one part:

    analyze/NAME/RES DIGEST exit=CODE stdout=D stderr=D json=D svg=D
    census/.../K DIGEST res=RES tree=D          (it extracted)
    census/.../K DIGEST raised=CLASS message=D  (it raised)
    search/SEED DIGEST exit=CODE status=STATUS stdout=D
    catalog/NAME DIGEST exit=CODE status=STATUS stdout=D
    enumerate/VP-VM DIGEST exit=CODE stdout=D json=D dot=D
    validate/NAME DIGEST exit=CODE stdout=D stderr=D
    exit/NAME DIGEST exit=CODE stdout=D stderr=D
    verify/NAME DIGEST ok=OK json=D

benchmarks/identity.txt holds that output for the checked-in source.  With
--check the script compares a run with that file instead of printing it.
It names each item that changed, with how it moved and its old and new
outcome (for the items that run a command or verify, the parts that
moved), and each item that is missing or extra.  It closes with a tally
by kind: lost, gained, resolution up, resolution down, tree changed and
failure changed for extractions; SVG only and output changed for the
other items; missing and extra.  It exits 1 on any difference or
if the versions differ (numpy builds may round eigenvalues differently).
A change meant to keep behaviour passes --check; a change that moves an
output rewrites the file, and the file's diff names the items that moved.

The items:

- analyze/NAME/RES: ``rsmirnov analyze`` of the five fixtures,
  power_chain(6) and slit_squared (double_slit composed with z^2) at
  resolutions 256 and 512, and of fourth_power_map-ulp (fourth_power_map
  with its largest numerator coefficient 1 ulp up, which is not exactly
  real on the circle) at 256, with ``--json`` and ``--plot`` into a
  temporary directory: the exit code, stdout, stderr and both files.
- census/DEG1-DEG2/K: extract_full(phi, 256, max_resolution=1024) of
  draw K (from 0) of random_helson(rng, DEG1, DEG2, rmax=0.999,
  max_tries=20000): 1,500 (3, 2) draws from default_rng(101), whose first
  300 are the 300-pair census, 200 (2, 2) draws from default_rng(7) and
  400 (4, 3) draws from default_rng(11).  The resolution and tree JSON,
  or the exception's class and message.
- clustered/K: extract_full(phi, 256, max_resolution=4096) of the K-th
  kept draw (from 0) of the clustered census, whose zeros all lie within
  0.1 of the circle and in one arc (see clustered_census): the resolution
  and tree JSON, or the exception's class and message.
- search/SEED: ``rsmirnov synthesize`` of the (2, 1) edge on (-1, 1)
  capped at 500 evaluations, for seeds 0-7 and the 20 seeds
  default_rng([1, p, k]).integers(0, 2**31 - 1), p < 5, k < 4 (the
  capped searches of pipebench's synthesis_budget workload): the exit
  code and stdout.
- catalog/NAME: ``rsmirnov synthesize`` of a target that the closed-form
  catalog realizes: single nodes of sign + and valence 1 and of sign -
  and valence 2, the (1, 1) edges on (-1, 1), (2, 5), (0.1, 0.3) and
  (-100, 7), the rays (0, inf) and (-inf, 0), and the alternating chains
  of 4 nodes breaking at 0 and of 6 nodes breaking at 2: the exit code
  and stdout.
- enumerate/VP-VM: ``rsmirnov enumerate VP VM`` for 0 <= VP, VM <= 4 with
  VP + VM >= 1, with ``--json`` and ``--dot`` into a temporary directory:
  the exit code, stdout, the JSON file and the DOT files in name order.
- validate/NAME: ``rsmirnov validate-tree`` of each catalog item's target
  (NAME is the catalog item's name after ``catalog/``), of the 8 shapes
  that ``enumerate 2 3`` lists (validate/shape/2-3/K, K from 1), and of
  one tree for each violation that validate reports: the exit code,
  stdout and stderr.
- exit/NAME: a command that ends in an error exit: a parse error of
  ``analyze``, ``validate-tree`` and ``synthesize`` (exit 2); ``analyze``
  of a function whose boundary is not real (two: one far from real, and
  double-slit-1e-9, double_slit with 1e-9 of the modulus of its largest
  numerator coefficient added to that coefficient's real part), whose
  denominator vanishes in the disk, or whose Blaschke products share a
  zero, and ``enumerate 7 0`` and ``enumerate 0 0`` (exit 1);
  ``synthesize`` of an infeasible target (exit 3); and ``analyze`` of
  clustered draw 2, which fails to extract at every resolution (exit 4):
  the exit code, stdout and stderr.  Each runs in a temporary directory
  on relative file names, so no message holds a temporary path.
- verify/NAME: synthesis.verify of what the catalog realizes for each
  catalog item's target: its ok flag and JSON.

It takes about 45 s on one core of a shared 2-core x86-64 container.
"""

import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from rsmirnov.blaschke_smirnov import (  # noqa: E402
    Blaschke, DenominatorVanishesInDisk, NotRelativelyPrime, from_blaschke,
    precompose_inner, random_helson)
from rsmirnov.cli import main as cli_main  # noqa: E402
from rsmirnov.fixtures import (  # noqa: E402
    all_fixtures, double_slit, fourth_power_map, power_chain)
from rsmirnov.region_extraction import extract_full  # noqa: E402
from rsmirnov.synthesis import catalog_realize, verify  # noqa: E402
from rsmirnov.valence_tree import Interval, Node, Tree, enumerate_shapes  # noqa: E402

DIGESTS = Path(__file__).resolve().with_name("identity.txt")
#: (deg1, deg2, rng seed, draws) of each census
CENSUSES = [(3, 2, 101, 1500), (2, 2, 7, 200), (4, 3, 11, 400)]
CLUSTERED_DRAWS = 400
ANALYZE_RESOLUTIONS = (256, 512)
SEARCH_BUDGET = 500
#: the largest half-plane valence of the enumerate items
ENUMERATE_MAX = 4
#: the half-plane valences of the validate/shape items
VALIDATE_SHAPES = (2, 3)


def header():
    """The lines that head the output: what made it."""
    return ["# python %s" % platform.python_version(), "# numpy %s" % np.__version__]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(b"%d:" % len(data) + data)
    return h.hexdigest()[:16]


def short(part) -> str:
    """The digest of one part of an outcome, cut to 8 hex digits."""
    return digest(part)[:8]


def run_cli(argv):
    """(exit code, stdout, stderr) of the command line argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def nudged(phi, move):
    """phi's JSON with the real part x of its numerator's coefficient c of
    largest modulus replaced by move(x, |c|)."""
    obj = phi.to_json()
    k = int(np.argmax(np.abs(phi.num.coeffs)))
    re, im = obj["num"][k]
    obj["num"][k] = [move(re, abs(complex(re, im))), im]
    return obj


def analyze_inputs():
    """The analyze items' inputs: (name, function JSON, resolutions)."""
    functions = dict(all_fixtures())
    functions["power_chain6"] = power_chain(6)
    functions["slit_squared"] = precompose_inner(double_slit(), Blaschke([0, 0]))
    inputs = [(name, phi.to_json(), ANALYZE_RESOLUTIONS) for name, phi in functions.items()]
    # 1 ulp off an exactly real function: boundary_im_samples decides it
    inputs.append(("fourth_power_map-ulp",
                   nudged(fourth_power_map(), lambda x, _: math.nextafter(x, math.inf)),
                   ANALYZE_RESOLUTIONS[:1]))
    return inputs


def search_seeds():
    return list(range(8)) + [int(np.random.default_rng([1, p, k]).integers(0, 2**31 - 1))
                             for p in range(5) for k in range(4)]


def extraction(phi, max_resolution):
    """(digest, fields) of what extract_full(phi, 256) gives: the resolution
    and tree JSON, or the exception's class and message."""
    try:
        ex = extract_full(phi, 256, max_resolution=max_resolution)
        tree = json.dumps(ex.tree.to_json(), sort_keys=True)
        return digest(ex.resolution, tree), {"res": ex.resolution, "tree": short(tree)}
    except Exception as exc:  # every failure is an outcome to compare
        name, message = type(exc).__name__, str(exc)
        return digest(name, message), {"raised": name, "message": short(message)}


def analyze_items(tmp: Path):
    for name, function, resolutions in analyze_inputs():
        source = tmp / ("%s.json" % name)
        source.write_text(json.dumps(function), encoding="utf-8")
        for res in resolutions:
            report, plot = tmp / "report.json", tmp / "plot.svg"
            for path in (report, plot):
                path.unlink(missing_ok=True)
            code, out, err = run_cli(["analyze", str(source), "--resolution", str(res),
                                      "--json", str(report), "--plot", str(plot)])
            report, plot = [p.read_bytes() if p.exists() else b"(none)" for p in (report, plot)]
            yield ("analyze/%s/%d" % (name, res), digest(code, out, err, report, plot),
                   {"exit": code, "stdout": short(out), "stderr": short(err),
                    "json": short(report), "svg": short(plot)})


def census_items():
    for deg1, deg2, seed, draws in CENSUSES:
        rng = np.random.default_rng(seed)
        for k in range(draws):
            phi = random_helson(rng, deg1, deg2, rmax=0.999, max_tries=20000)
            yield ("census/%d-%d/%d" % (deg1, deg2, k), *extraction(phi, 1024))


def clustered_census():
    """The kept draws of the clustered census: degrees 1-4 each, every zero
    within 0.1 of the circle, and all zeros in one arc of width w."""
    rng = np.random.default_rng(5)
    kept = 0
    while kept < CLUSTERED_DRAWS:
        d1, d2 = rng.integers(1, 5, 2)
        w = 10 ** rng.uniform(-2.5, -0.5)
        factors = []
        for d in (d1, d2):
            zeros = (1 - 10 ** rng.uniform(-3.5, -1, d)) * np.exp(1j * w * rng.random(d))
            factors.append(Blaschke(zeros, np.exp(2j * np.pi * rng.random())))
        try:
            phi = from_blaschke(*factors)
        except (NotRelativelyPrime, DenominatorVanishesInDisk, ValueError):
            continue
        kept += 1
        yield phi


def clustered_items():
    for k, phi in enumerate(clustered_census()):
        yield ("clustered/%d" % k, *extraction(phi, 4096))


def synthesize(name, target: Tree, tmp: Path, *options):
    """(name, digest, fields) of ``rsmirnov synthesize`` of target: the exit
    code, the status it prints and its stdout."""
    path = tmp / "target.json"
    path.write_text(json.dumps(target.to_json()), encoding="utf-8")
    code, out, _ = run_cli(["synthesize", str(path), *options])
    try:
        status = json.loads(out)["status"]
    except (ValueError, KeyError, TypeError):
        status = "-"
    return name, digest(code, out), {"exit": code, "status": status, "stdout": short(out)}


def search_items(tmp: Path):
    edge = Tree([Node("p1", 1, 2), Node("m1", -1, 1)], [("p1", "m1", Interval(-1.0, 1.0))])
    for seed in search_seeds():
        yield synthesize("search/%d" % seed, edge, tmp,
                         "--seed", str(seed), "--budget", str(SEARCH_BUDGET))


def catalog_targets():
    """The catalog items' targets, by name: each closed form of the catalog."""
    def edge(lo, hi):
        return Tree([Node("p1", 1, 1), Node("m1", -1, 1)], [("p1", "m1", Interval(lo, hi))])

    def chain(n, c):
        # an alternating path whose breakpoints all lie at c
        names = ["%s%d" % ("pm"[k % 2], k // 2 + 1) for k in range(n)]
        ivs = [Interval(-math.inf, c), Interval(c, math.inf)] * (n // 2)
        return Tree([Node(v, 1 if v[0] == "p" else -1, 1) for v in names],
                    [(a, b, iv) for a, b, iv in zip(names, names[1:], ivs)])

    targets = {"catalog/node/+1": Tree([Node("p1", 1, 1)], []),
               "catalog/node/-2": Tree([Node("m1", -1, 2)], [])}
    for lo, hi in [(-1.0, 1.0), (2.0, 5.0), (0.1, 0.3), (-100.0, 7.0)]:
        targets["catalog/double-slit/%g..%g" % (lo, hi)] = edge(lo, hi)
    for lo, hi in [(0.0, math.inf), (-math.inf, 0.0)]:
        targets["catalog/koebe-ray/%g..%g" % (lo, hi)] = edge(lo, hi)
    targets["catalog/power-chain/4"] = chain(4, 0.0)
    targets["catalog/power-chain/6"] = chain(6, 2.0)
    return targets


def catalog_items(tmp: Path):
    for name, target in catalog_targets().items():
        yield synthesize(name, target, tmp)


def enumerate_valences():
    """The (v_plus, v_minus) of the enumerate items."""
    return [(vp, vm) for vp in range(ENUMERATE_MAX + 1)
            for vm in range(ENUMERATE_MAX + 1) if vp + vm >= 1]


def enumerate_items(tmp: Path):
    for vp, vm in enumerate_valences():
        report, dots = tmp / ("shapes-%d-%d.json" % (vp, vm)), tmp / ("dot-%d-%d" % (vp, vm))
        code, out, _ = run_cli(["enumerate", str(vp), str(vm),
                                "--json", str(report), "--dot", str(dots)])
        report = report.read_bytes() if report.exists() else b"(none)"
        dot = digest(*(part for path in sorted(dots.glob("*"))
                       for part in (path.name, path.read_bytes())))
        yield ("enumerate/%d-%d" % (vp, vm), digest(code, out, report, dot),
               {"exit": code, "stdout": short(out), "json": short(report), "dot": dot[:8]})


def command(name, argv, tmp: Path, files=()):
    """(name, digest, fields) of the command line argv, run in tmp after
    writing each (file name, text) of files there: the exit code, stdout
    and stderr."""
    with contextlib.chdir(tmp):
        for file, text in files:
            Path(file).write_text(text, encoding="utf-8")
        code, out, err = run_cli(argv)
    return name, digest(code, out, err), {"exit": code, "stdout": short(out),
                                         "stderr": short(err)}


def json_file(data):
    """The files of an item that reads one JSON file: [(file name, text)]."""
    return [("f.json", json.dumps(data))]


def violating_trees():
    """One tree for each kind of violation that validate reports, by name."""
    def path(*names):
        # nodes of valence 1, signed by their first letter; edge j on (j, j + 1)
        nodes = [Node(v, 1 if v[0] == "p" else -1, 1) for v in names]
        return nodes, [(a, b, Interval(j, j + 1))
                       for j, (a, b) in enumerate(zip(names, names[1:]))]

    square, square_edges = path("p1", "m1", "p2", "m2")
    square_edges.append(("m2", "p1", Interval(3, 4)))
    pair, pair_edges = path("p1", "m1")
    return {
        "empty": Tree([], []),
        "self-loop": Tree([Node("p1", 1, 2)], [("p1", "p1", Interval(0, 1))]),
        "parallel-edges": Tree(pair, pair_edges + [("p1", "m1", Interval(2, 3))]),
        "edge-count": Tree(square, square_edges),
        "disconnected": Tree(square + [Node("p3", 1, 1)], square_edges),
        "sign-alternation": Tree(*path("p1", "p2")),
        "packing": Tree([Node("p1", 1, 1), Node("m1", -1, 1), Node("m2", -1, 1)],
                        [("p1", "m1", Interval(0, 2)), ("p1", "m2", Interval(1, 3))]),
        "no-free-interval": Tree(pair, [("p1", "m1", Interval(-math.inf, math.inf))]),
    }


def validate_trees():
    """The validate items' trees, by name."""
    trees = {name.removeprefix("catalog/"): target
             for name, target in catalog_targets().items()}
    for k, entry in enumerate(enumerate_shapes(*VALIDATE_SHAPES), 1):
        trees["shape/%d-%d/%d" % (*VALIDATE_SHAPES, k)] = entry.tree
    trees.update(violating_trees())
    return trees


def validate_items(tmp: Path):
    for name, tree in validate_trees().items():
        yield command("validate/" + name, ["validate-tree", "f.json"], tmp,
                      json_file(tree.to_json()))


def exit_commands():
    """The exit items' (argv, files), by name."""
    bad_sign = Tree([Node("p1", 1, 1)], []).to_json()
    bad_sign["nodes"][0]["sign"] = True
    parallel = Tree([Node("p1", 1, 1), Node("m1", -1, 2)],
                    [("p1", "m1", Interval(-math.inf, 0.0))] * 3)
    clustered_2 = next(itertools.islice(clustered_census(), 2, None))
    analyze, synthesize = ["analyze", "f.json"], ["synthesize", "f.json"]
    return {
        "exit/analyze/parse": (analyze, [("f.json", "{not json")]),
        "exit/validate-tree/parse": (["validate-tree", "f.json"],
                                     json_file({"nodes": "x"})),
        "exit/synthesize/parse": (synthesize, json_file(bad_sign)),
        "exit/analyze/boundary-not-real": (
            analyze, json_file({"num": [[0, 0.5], [1, 0]], "den": [[1, 0]]})),
        "exit/analyze/double-slit-1e-9": (
            analyze, json_file(nudged(double_slit(), lambda x, size: x + 1e-9 * size))),
        "exit/analyze/pole-in-disk": (
            analyze, json_file({"num": [[1, 0]], "den": [[-0.5, 0], [1, 0]]})),
        "exit/analyze/shared-zero": (
            analyze, json_file({"b1": {"zeros": [[0.5, 0]]},
                                "b2": {"zeros": [[0.5, 0], [-0.5, 0]]}})),
        "exit/enumerate/7-0": (["enumerate", "7", "0"], []),
        "exit/enumerate/0-0": (["enumerate", "0", "0"], []),
        "exit/synthesize/infeasible": (synthesize, json_file(parallel.to_json())),
        "exit/analyze/clustered-2": (analyze, json_file(clustered_2.to_json())),
    }


def exit_items(tmp: Path):
    for name, (argv, files) in exit_commands().items():
        yield command(name, argv, tmp, files)


def verify_items():
    for name, target in catalog_targets().items():
        report = json.dumps(verify(catalog_realize(target)).to_json(), sort_keys=True)
        yield ("verify/" + name.removeprefix("catalog/"), digest(report),
               {"ok": json.loads(report)["ok"], "json": short(report)})


def items():
    """(name, digest, outcome fields) of every item, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for group in (analyze_items(Path(tmp)), census_items(), clustered_items(),
                      search_items(Path(tmp)), catalog_items(Path(tmp)),
                      enumerate_items(Path(tmp)), validate_items(Path(tmp)),
                      exit_items(Path(tmp)), verify_items()):
            yield from group


def parse(line):
    """(name, digest, fields) of an item's line."""
    name, value, *fields = line.split()
    return name, value, dict(field.split("=", 1) for field in fields)


def kind(old, new):
    """How an item moved between its old and new fields."""
    if "res" in old or "raised" in old:
        if "res" in old and "res" in new:
            res_old, res_new = int(old["res"]), int(new["res"])
            if res_new != res_old:
                return "resolution up" if res_new > res_old else "resolution down"
            return "tree changed"
        if "res" in old:
            return "lost"
        return "gained" if "res" in new else "failure changed"
    return "SVG only" if moved(old, new) == ["svg"] else "output changed"


def moved(old, new):
    """The parts whose fields differ."""
    return [key for key in old if old[key] != new.get(key)]


def outcome(fields):
    """The fields as they stand on an item's line."""
    return " ".join("%s=%s" % kv for kv in fields.items())


def check():
    """Compare a run with DIGESTS; print each difference and a tally by
    kind, return the exit code."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    made_by = [line for line in lines if line.startswith("#")]
    want = {name: (value, fields) for name, value, fields
            in map(parse, (line for line in lines if not line.startswith("#")))}
    same_versions = made_by == header()
    if not same_versions:
        print("versions differ: the file was made by %s, this run by %s"
              % (", ".join(made_by), ", ".join(header())))
    tally = collections.Counter()
    got = set()
    for name, value, fields in items():
        fields = {key: str(v) for key, v in fields.items()}
        got.add(name)
        if name not in want:
            tally["extra"] += 1
            print("extra %s: %s" % (name, outcome(fields)))
            continue
        old_value, old = want[name]
        if (old_value, old) == (value, fields):
            continue
        how = kind(old, fields)
        tally[how] += 1
        if "res" in old or "raised" in old:
            change = "%s -> %s" % (outcome(old), outcome(fields))
        else:
            change = "; ".join("%s %s -> %s" % (key, old[key], fields.get(key))
                               for key in moved(old, fields))
        print("changed %s (%s): %s" % (name, how, change))
    for name in want:
        if name not in got:
            tally["missing"] += 1
            print("missing %s: %s" % (name, outcome(want[name][1])))
    differ = sum(tally.values())
    if differ:
        print("by kind: " + ", ".join("%s %d" % kv for kv in sorted(tally.items())))
    print("%d of %d items differ" % (differ, len(want)))
    return 0 if same_versions and not differ else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: identity.py [--check]", file=sys.stderr)
        return 2
    for line in header():
        print(line)
    for name, value, fields in items():
        print(name, value, outcome(fields), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

benchmarks/identity.txt holds that output for the checked-in source.  With
--check the script compares a run with that file instead of printing it.
It names each item that changed, with how it moved and its old and new
outcome (for analyze and search items, the parts that moved), and each
item that is missing or extra.  It closes with a tally by kind: lost,
gained, resolution up, resolution down, tree changed and failure changed
for extractions; SVG only and output changed for analyze and search
items; missing and extra.  It exits 1 on any difference or if the
versions differ (numpy builds may round eigenvalues differently).  A
change meant to keep behaviour passes --check; a change that moves an
output rewrites the file, and the file's diff names the items that moved.

The items:

- analyze/NAME/RES: ``rsmirnov analyze`` of the five fixtures,
  power_chain(6) and slit_squared (double_slit composed with z^2) at
  resolutions 256 and 512, with ``--json`` and ``--plot`` into a
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

It takes about 35 s on one core of a shared 2-core x86-64 container.
"""

import collections
import contextlib
import hashlib
import io
import json
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
from rsmirnov.fixtures import all_fixtures, double_slit, power_chain  # noqa: E402
from rsmirnov.region_extraction import extract_full  # noqa: E402
from rsmirnov.valence_tree import Interval, Node, Tree  # noqa: E402

DIGESTS = Path(__file__).resolve().with_name("identity.txt")
#: (deg1, deg2, rng seed, draws) of each census
CENSUSES = [(3, 2, 101, 1500), (2, 2, 7, 200), (4, 3, 11, 400)]
CLUSTERED_DRAWS = 400
ANALYZE_RESOLUTIONS = (256, 512)
SEARCH_BUDGET = 500


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


def analyze_functions():
    """The analyze items' inputs, by name."""
    functions = dict(all_fixtures())
    functions["power_chain6"] = power_chain(6)
    functions["slit_squared"] = precompose_inner(double_slit(), Blaschke([0, 0]))
    return functions


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
    for name, phi in analyze_functions().items():
        source = tmp / ("%s.json" % name)
        source.write_text(json.dumps(phi.to_json()), encoding="utf-8")
        for res in ANALYZE_RESOLUTIONS:
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


def search_items(tmp: Path):
    target = tmp / "edge.json"
    edge = Tree([Node("p1", 1, 2), Node("m1", -1, 1)], [("p1", "m1", Interval(-1.0, 1.0))])
    target.write_text(json.dumps(edge.to_json()), encoding="utf-8")
    for seed in search_seeds():
        code, out, _ = run_cli(["synthesize", str(target), "--seed", str(seed),
                                "--budget", str(SEARCH_BUDGET)])
        try:
            status = json.loads(out)["status"]
        except (ValueError, KeyError, TypeError):
            status = "-"
        yield ("search/%d" % seed, digest(code, out),
               {"exit": code, "status": status, "stdout": short(out)})


def items():
    """(name, digest, outcome fields) of every item, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for group in (analyze_items(Path(tmp)), census_items(), clustered_items(),
                      search_items(Path(tmp))):
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

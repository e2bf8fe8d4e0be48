"""Digests of what the program prints and extracts, checked against a file.

Run from the root of a checkout, whose src/ it imports:

    python3 benchmarks/identity.py --check
    python3 benchmarks/identity.py > benchmarks/identity.txt

It prints two header lines, the Python and numpy versions, then one line
per item: its name and the first 16 hex digits of the sha256 of what the
item produced.  benchmarks/identity.txt holds that output for the checked-in
source.  With --check the script compares a run with that file instead of
printing it: it names each item whose digest changed, is missing or is
extra, and exits 1 on any difference or if the versions differ (numpy
builds may round eigenvalues differently).  A change meant to keep
behaviour passes --check; a change that moves an output rewrites the file,
and the file's diff names the items that moved.

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
    """What extract_full(phi, 256) gives: the resolution and tree JSON, or
    the exception's class and message."""
    try:
        ex = extract_full(phi, 256, max_resolution=max_resolution)
        return ex.resolution, json.dumps(ex.tree.to_json(), sort_keys=True)
    except Exception as exc:  # every failure is an outcome to compare
        return type(exc).__name__, str(exc)


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
            files = [p.read_bytes() if p.exists() else b"(none)" for p in (report, plot)]
            yield "analyze/%s/%d" % (name, res), digest(code, out, err, *files)


def census_items():
    for deg1, deg2, seed, draws in CENSUSES:
        rng = np.random.default_rng(seed)
        for k in range(draws):
            phi = random_helson(rng, deg1, deg2, rmax=0.999, max_tries=20000)
            yield "census/%d-%d/%d" % (deg1, deg2, k), digest(*extraction(phi, 1024))


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
        yield "clustered/%d" % k, digest(*extraction(phi, 4096))


def search_items(tmp: Path):
    target = tmp / "edge.json"
    edge = Tree([Node("p1", 1, 2), Node("m1", -1, 1)], [("p1", "m1", Interval(-1.0, 1.0))])
    target.write_text(json.dumps(edge.to_json()), encoding="utf-8")
    for seed in search_seeds():
        code, out, _ = run_cli(["synthesize", str(target), "--seed", str(seed),
                                "--budget", str(SEARCH_BUDGET)])
        yield "search/%d" % seed, digest(code, out)


def items():
    """(name, digest) of every item, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for group in (analyze_items(Path(tmp)), census_items(), clustered_items(),
                      search_items(Path(tmp))):
            yield from group


def check():
    """Compare a run with DIGESTS; print each difference, return the exit
    code."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    made_by = [line for line in lines if line.startswith("#")]
    want = dict(line.split() for line in lines if not line.startswith("#"))
    same_versions = made_by == header()
    if not same_versions:
        print("versions differ: the file was made by %s, this run by %s"
              % (", ".join(made_by), ", ".join(header())))
    differ = 0
    got = set()
    for name, value in items():
        got.add(name)
        if name not in want:
            print("extra", name)
        elif want[name] != value:
            print("changed", name)
        else:
            continue
        differ += 1
    for name in want:
        if name not in got:
            print("missing", name)
            differ += 1
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
    for name, value in items():
        print(name, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

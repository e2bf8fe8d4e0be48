"""Digests of what the program prints and extracts, to compare two checkouts.

Run from the root of a checkout, whose src/ it imports:

    python3 benchmarks/identity.py > identity.txt

It prints one line per item, its name and the first 16 hex digits of the
sha256 of what the item produced.  A change meant to keep behaviour is
checked by running the script from the root of each of two checkouts (the
same copy of the script in both) and diffing the two outputs: every line
that differs names an item whose output changed.

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
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from rsmirnov.blaschke_smirnov import Blaschke, precompose_inner, random_helson  # noqa: E402
from rsmirnov.cli import main as cli_main  # noqa: E402
from rsmirnov.fixtures import all_fixtures, double_slit, power_chain  # noqa: E402
from rsmirnov.region_extraction import extract_full  # noqa: E402
from rsmirnov.valence_tree import Interval, Node, Tree  # noqa: E402

#: (deg1, deg2, rng seed, draws) of each census
CENSUSES = [(3, 2, 101, 1500), (2, 2, 7, 200), (4, 3, 11, 400)]
SEARCH_BUDGET = 500


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


def analyze_items(tmp: Path):
    functions = dict(all_fixtures())
    functions["power_chain6"] = power_chain(6)
    functions["slit_squared"] = precompose_inner(double_slit(), Blaschke([0, 0]))
    for name, phi in functions.items():
        source = tmp / ("%s.json" % name)
        source.write_text(json.dumps(phi.to_json()), encoding="utf-8")
        for res in (256, 512):
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
            try:
                ex = extract_full(phi, 256, max_resolution=1024)
                got = (ex.resolution, json.dumps(ex.tree.to_json(), sort_keys=True))
            except Exception as exc:  # every failure is an outcome to compare
                got = (type(exc).__name__, str(exc))
            yield "census/%d-%d/%d" % (deg1, deg2, k), digest(*got)


def search_items(tmp: Path):
    target = tmp / "edge.json"
    edge = Tree([Node("p1", 1, 2), Node("m1", -1, 1)], [("p1", "m1", Interval(-1.0, 1.0))])
    target.write_text(json.dumps(edge.to_json()), encoding="utf-8")
    seeds = list(range(8)) + [int(np.random.default_rng([1, p, k]).integers(0, 2**31 - 1))
                              for p in range(5) for k in range(4)]
    for seed in seeds:
        code, out, _ = run_cli(["synthesize", str(target), "--seed", str(seed),
                                "--budget", str(SEARCH_BUDGET)])
        yield "search/%d" % seed, digest(code, out)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for items in (analyze_items(Path(tmp)), census_items(), search_items(Path(tmp))):
            for name, value in items:
                print(name, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Four commands tie the library together:

- analyze:       construct a function from JSON, extract its valence tree
                 (whose profile gives the half-plane valences), cross-check
                 the tree against direct root counts, and probe its
                 integral means.
- enumerate:     list every admissible tree shape for given half-plane
                 valences, with the interval constraints each shape imposes.
- validate-tree: check a tree file against the axioms and print violations.
- synthesize:    realize a target tree, catalog first with search fallback.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 infeasible
target, 4 numerical failure.
"""

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from .blaschke_smirnov import (
    BoundaryNotReal,
    DenominatorVanishesInDisk,
    NotRelativelyPrime,
    RealSmirnov,
    integral_means,
)
from .complex_poly import NonConvergence
from .region_extraction import (
    DEFAULT_RESOLUTION,
    MIN_RESOLUTION,
    ExtractionError,
    crosscheck,
    extract_full,
    render_svg,
)
from .synthesis import (
    BudgetExhausted,
    InfeasibleTarget,
    NotInCatalog,
    SynthesisProblem,
    SynthesisResult,
    catalog_realize,
    synthesize_search,
)
from .valence_tree import (
    Interval,
    Tree,
    enumerate_shapes,
    profile,
    to_dot,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

ENUMERATE_CAP = 6

# integral-means probe: radii from the divergence test, exponents placed
# below and above the H^p threshold 1/(2m) for real multiplicity m
MEANS_RADII = (0.99, 0.9999)


class ParseFailure(ValueError):
    """Input file could not be read or decoded."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseFailure("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure("%s is not valid JSON: %s" % (path, exc)) from exc


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _describe(phi):
    if phi.b1 is not None and phi.b2 is not None:
        return "Blaschke pair, deg B1 = %d, deg B2 = %d" % (
            phi.b1.degree, phi.b2.degree)
    return "rational, deg N = %d, deg D = %d" % (phi.num.degree, phi.den.degree)


def _means_rows(phi, m):
    """Probe M_p(r) below and above the H^p threshold 1/(2m)."""
    if m >= 1:
        ps = (1.0 / (4.0 * m), 3.0 / (4.0 * m))
    else:
        ps = (0.25, 0.75)
    rows = [{"p": p, "inner": None, "outer": None, "ratio": None} for p in ps]
    try:
        # each a tuple of means, or of the exception raised in a mean's place
        inner, outer = (integral_means(phi, ps, r) for r in MEANS_RADII)
    except NonConvergence:
        return rows
    for row, lo, hi in zip(rows, inner, outer):
        if not isinstance(lo, Exception):
            row["inner"] = lo
            if not isinstance(hi, Exception):
                row["outer"] = hi
                row["ratio"] = hi / lo
    return rows


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    try:
        data = _load_json(args.input)
    except ParseFailure as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    # a synthesize result file carries its function under "candidate"
    if isinstance(data, dict) and isinstance(data.get("candidate"), dict):
        data = data["candidate"]

    try:
        phi = RealSmirnov.from_json(data)
    except (KeyError, TypeError, IndexError) as exc:
        print("parse error: not a function description: %s" % exc,
              file=sys.stderr)
        return EXIT_PARSE
    except (NotRelativelyPrime, DenominatorVanishesInDisk, BoundaryNotReal,
            ValueError) as exc:
        print("invalid function: %s" % exc, file=sys.stderr)
        return EXIT_INVALID

    try:
        ext = extract_full(phi, resolution=args.resolution, seed=args.seed)
        report = crosscheck(phi, ext.tree, n_samples=args.samples,
                            seed=args.seed + 1)
    except (ExtractionError, NonConvergence) as exc:
        print("numerical failure: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_NUMERICAL

    prof = profile(ext.tree)
    # for rational phi the deficiency indices are the half-plane valences
    v_plus, v_minus = prof.v_plus, prof.v_minus
    means = _means_rows(phi, prof.sup_real)

    print("input: %s" % _describe(phi))
    print("valences: %d on C+, %d on C-" % (v_plus, v_minus))
    print("deficiency indices: (%d, %d)" % (v_plus, v_minus))
    print("tree: %d nodes, %d edges (resolution %d)"
          % (len(ext.tree.nodes), len(ext.tree.edges), ext.resolution))
    for a, b, iv in ext.tree.edges:
        na, nb = ext.tree.nodes[a], ext.tree.nodes[b]
        print("  %s [%s:%d] -- %s [%s:%d]  %s" % (
            a, "C+" if na.sign > 0 else "C-", na.valence,
            b, "C+" if nb.sign > 0 else "C-", nb.valence,
            iv))
    print("real profile:")
    for lo, hi, mult in prof.pieces():
        print("  %s: %d" % (Interval(lo, hi), mult))
    print("crosscheck: %s (%d samples, %d mismatches)" % (
        "ok" if report.ok else "MISMATCH", report.samples,
        len(report.mismatches)))
    print("integral means (m = %d):" % prof.sup_real)
    for row in means:
        if row["ratio"] is None:
            print("  p = %.4g: unstable quadrature" % row["p"])
        else:
            print("  p = %.4g: M(%g) = %.6g, M(%g) = %.6g, ratio = %.6g" % (
                row["p"], MEANS_RADII[0], row["inner"],
                MEANS_RADII[1], row["outer"], row["ratio"]))

    if args.json:
        _dump_json({
            "input": _describe(phi),
            "function": phi.to_json(),
            "valences": [v_plus, v_minus],
            "deficiency": [v_plus, v_minus],
            "resolution": ext.resolution,
            "tree": ext.tree.to_json(),
            "profile": prof.to_json(),
            "crosscheck": report.to_json(),
            "integral_means": {"m": prof.sup_real, "radii": list(MEANS_RADII),
                               "rows": means},
        }, args.json)
    if args.plot:
        svg = render_svg(ext)
        Path(args.plot).write_text(svg, encoding="utf-8")

    if not report.ok:
        for mm in report.mismatches[:10]:
            print("  mismatch: %s" % mm, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def cmd_enumerate(args):
    if args.v_plus > ENUMERATE_CAP or args.v_minus > ENUMERATE_CAP:
        print("invalid request: valences are capped at %d for enumeration"
              % ENUMERATE_CAP, file=sys.stderr)
        return EXIT_INVALID
    try:
        entries = enumerate_shapes(args.v_plus, args.v_minus)
    except ValueError as exc:
        print("invalid request: %s" % exc, file=sys.stderr)
        return EXIT_INVALID

    print("%d shape(s) for valences (%d, %d)"
          % (len(entries), args.v_plus, args.v_minus))
    for k, entry in enumerate(entries, 1):
        print("shape %d: %d nodes, %d edges"
              % (k, len(entry.tree.nodes), len(entry.tree.edges)))
        for constraint in entry.constraints:
            print("  %s" % constraint)

    if args.dot:
        out = Path(args.dot)
        out.mkdir(parents=True, exist_ok=True)
        for k, entry in enumerate(entries, 1):
            (out / ("shape_%03d.dot" % k)).write_text(
                to_dot(entry.tree), encoding="utf-8")
    if args.json:
        _dump_json([
            {"code": entry.code, "tree": entry.tree.to_json(),
             "edge_names": list(entry.edge_names),
             "constraints": [str(c) for c in entry.constraints]}
            for entry in entries
        ], args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate-tree
# ---------------------------------------------------------------------------


def _load_tree(path):
    data = _load_json(path)
    try:
        return Tree.from_json(data)
    # float() raises OverflowError on an integer too large for a float
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseFailure("not a tree description: %s" % exc) from exc


def cmd_validate_tree(args):
    try:
        tree = _load_tree(args.input)
    except ParseFailure as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    violations = validate(tree)
    if not violations:
        print("valid: %d nodes, %d edges"
              % (len(tree.nodes), len(tree.edges)))
        return EXIT_OK
    print("invalid: %d violation(s)" % len(violations))
    for v in violations:
        print("  %s" % v)
    return EXIT_INVALID


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def cmd_synthesize(args):
    try:
        target = _load_tree(args.input)
    except ParseFailure as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    notes = []
    try:
        result = catalog_realize(target)
    except InfeasibleTarget as exc:
        print("infeasible target: %d violation(s)" % len(exc.violations),
              file=sys.stderr)
        for v in exc.violations:
            print("  %s" % v, file=sys.stderr)
        return EXIT_INFEASIBLE
    except NotInCatalog as exc:
        notes.append("NotInCatalog: %s" % exc)
        problem = SynthesisProblem(target, restarts=args.restarts,
                                   budget=args.budget, seed=args.seed,
                                   tol=args.tol)
        try:
            result = synthesize_search(problem)
        except BudgetExhausted as exc2:
            notes.append("BudgetExhausted: no shape-matching candidate "
                         "within %d evaluations" % args.budget)
            result = exc2.best
        except ValueError as exc2:
            notes.append("search unavailable: %s" % exc2)
            result = SynthesisResult(None, math.inf, None, "failed")

    out = result.to_json()
    out["notes"] = notes
    text = json.dumps(out, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK if result.status in ("exact", "approximate") else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _checked(convert, ok, message):
    """argparse type: convert(text) where ok holds of it, else exit 2."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    # argparse names the type in its message for text convert rejects
    parse.__name__ = convert.__name__
    return parse


def _int_at_least(low):
    """argparse type: an integer no smaller than low, else exit 2."""
    return _checked(int, lambda value: value >= low, "must be at least %d" % low)


def _output_path(text):
    """argparse type of an output file: a path that is no directory, in a
    directory that exists, so that a command does its work only when it
    can write the result (an existing file is overwritten)."""
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError("its directory does not exist")
    if path.is_dir():
        raise argparse.ArgumentTypeError("it is a directory")
    if text.endswith((os.sep, "/")):
        # Path drops the separator: "out/" would name the file "out"
        raise argparse.ArgumentTypeError("it ends in a path separator")
    return text


def _dot_dir(text):
    """argparse type of the --dot directory: a directory, or a path mkdir
    can make, whose nearest existing ancestor is a directory."""
    path = Path(text)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise argparse.ArgumentTypeError(
            "%s exists and is not a directory" % ("it" if nearest == path else nearest))
    return text


@functools.cache
def _parser():
    """The command-line parser, built once per process.  It binds no
    command function: main looks the command up when it runs."""
    parser = argparse.ArgumentParser(
        prog="rsmirnov",
        description="Valence analysis and synthesis for rational real "
                    "Smirnov functions on the unit disk.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on a function file")
    p.add_argument("input", help="function JSON (Blaschke pair or rational)")
    p.add_argument("--resolution", type=_int_at_least(MIN_RESOLUTION),
                   default=DEFAULT_RESOLUTION)
    p.add_argument("--samples", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--plot", metavar="OUT.SVG", type=_output_path, default=None)
    p.add_argument("--json", metavar="OUT.JSON", type=_output_path, default=None)

    p = sub.add_parser("enumerate", help="all tree shapes for given valences")
    p.add_argument("v_plus", type=int)
    p.add_argument("v_minus", type=int)
    p.add_argument("--dot", metavar="DIR", type=_dot_dir, default=None,
                   help="write one DOT file per shape")
    p.add_argument("--json", metavar="OUT.JSON", type=_output_path, default=None)

    p = sub.add_parser("validate-tree", help="check a tree file")
    p.add_argument("input", help="tree JSON")

    p = sub.add_parser("synthesize", help="realize a target tree")
    p.add_argument("input", help="tree JSON")
    p.add_argument("--budget", type=_int_at_least(0), default=100_000)
    p.add_argument("--restarts", type=_int_at_least(1), default=16)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--tol", default=1e-2, type=_checked(
        float, lambda tol: 0.0 < tol < math.inf, "must be a finite number above 0"))
    p.add_argument("--out", metavar="OUT.JSON", type=_output_path, default=None)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up at call time, so a wrapped or replaced cmd_* is the one run
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())

"""Timings of the hot kernels and of real valence counting.

Run from the repository root:

    python3 benchmarks/bench_kernels.py

The script times the three kernels of rsmirnov._kernels that extraction
and synthesis run (horner_many, aberth_iterate, trace_arc), best of five
runs after one warmup.  Workload sizes match what one disk extraction at
resolution 512 actually pushes through the kernels.  aberth_iterate runs
from fixed circle guesses to its one stopping rule, ABERTH_TOL, the
tolerance every root find uses.

The real valence count rows time the two ways of counting valences at
real points on a fixed (2, 1) edge candidate: valence_at, valence_counts
at one point, finds the roots of N - xD once per point; real_valence
counts on the boundary pieces, built once per five points as the
synthesis loss builds them once per candidate.  A closing line gives both
per call and the fallback rate.

The valence count rows count the disk roots of N - lambda D at the same
200 points on each of the five fixtures (50 in each half plane and 100 on
the real line, drawn as crosscheck draws them): valence_at once per point,
each call a valence_counts call for one point, and valence_counts once per
fixture for all 200.  A closing line gives both per point and the share of
points valence_counts leaves to its fallback.

The Aberth stack rows run the Aberth iteration on the rows of those
stacks that valence_counts sends to _aberth_rows and that start from
their companion eigenvalues, one stack per fixture: aberth_iterate once
per row, as _aberth_rows runs a one-row stack, and aberth_batch once per
stack, as it runs a larger one.  A closing line gives the row count and
the ratio of the two.

The find_roots row finds the roots of a fixed corpus: the denominators
and W polynomials of 250 random (2, 1) edge candidates, as the synthesis
loss finds them once per candidate.  The denominators have degree 3; W
has degree 4, or 5 with a leading coefficient at rounding level that
find_roots trims.  A closing line gives the time per call and the share
of the corpus whose Aberth iteration starts from the companion
eigenvalues.

The search objective row evaluates synthesize_search's objective at 500
fixed parameter vectors of the (2, 1) edge on (-1, 1), scattered around a
found optimum from simplex-step to restart distances (objective_inputs).
A closing line gives the time per evaluation and the shares of it spent
finding roots (of D for the disk constraint, of W for the boundary
pieces, of N - xD where the pieces are untrusted or fail the parity
check, at none of the 2,465 real counts of these vectors) and building N
and D from the Blaschke pair.

The capped search row runs synthesize_search on the same target with
seed 1, capped at 500 evaluations (capped_search).  A closing line gives
the shares of one search spent in minimize and in its objective, and the
difference: the simplex method's own work, outside the objective.

The trace_segments, faces and region_valence rows time the stages of
extraction on the five fixtures at resolution 512, from boundary pieces
(which hold the branch points), traced arcs and (for region_valence)
faces prepared beforehand; region_valence, tens of microseconds, is printed in us.  The
render_svg row draws the picture analyze --plot writes for each of the
five fixtures, from their extractions at 512 built beforehand: each face
filled as its boundary polygon, the traced arcs and the labels.

The census trace_segments row traces the level arcs of the 300-pair
census, the first 300 random_helson(rng, 3, 2, rmax=0.999) draws of
default_rng(101), at resolution 256, from boundary pieces built
beforehand.  A closing line gives its walks, traced points and time.

The integral_means row makes the four integral means analyze probes on
each of the five fixtures (cli._means_rows: two exponents, each at radii
0.99 and 0.9999), with the roots of N and D found beforehand, as they
are in an analysis by the time it probes the means.
"""

import argparse
import cmath
import functools
import math
import sys
import time

import numpy as np

from rsmirnov import (_kernels, blaschke_smirnov, complex_poly, region_extraction,
                      synthesis)
from rsmirnov.blaschke_smirnov import (
    Blaschke,
    BoundaryPieces,
    RealSmirnov,
    _helson_quotient,
    _lambda_rows,
    from_blaschke,
    random_blaschke,
    random_helson,
    real_valence,
    valence_at,
    valence_counts,
)
from rsmirnov.cli import _means_rows
from rsmirnov.fixtures import all_fixtures, double_slit, fourth_power_map
from rsmirnov.region_extraction import (
    extract_full,
    faces,
    region_valence,
    render_svg,
    trace_segments,
)
from rsmirnov.valence_tree import Interval, Node, Tree, profile


def _time(fn, repeats=5):
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# real points of the valence rows, spread over the line as arctan spreads
# the synthesis loss's midpoints
REAL_POINTS = np.tan(np.linspace(-1.5, 1.5, 200)).tolist()
# points counted per boundary-pieces build, about the loss's per candidate
POINTS_PER_BUILD = 5
VALENCE_ROWS = ("valence_at (200 real points)",
                "real_valence (200 real points)")


# the zeros and constants of a (2, 1) edge on (-1, 1) found by
# synthesize_search (seed 1)
TWO_ONE_B1 = ([-0.007488567352077657 + 0.6451247547799099j],
              -0.4503363464855821 + 0.8928589894457118j)
TWO_ONE_B2 = ([0.10428559539904765 - 0.5454708266753667j,
               0.6220089046466197 + 0.037617227319359854j],
              -0.8250967098521353 + 0.5649915215215013j)


def two_one_candidate():
    """The (2, 1) edge candidate of TWO_ONE_B1 and TWO_ONE_B2."""
    return from_blaschke(Blaschke(*TWO_ONE_B1), Blaschke(*TWO_ONE_B2))


# rows too quick for milliseconds, printed in microseconds
MICRO_ROWS = ("region_valence (5 fixtures, res 512)",)

COUNTS_ROWS = ("valence_at (200 λ, 5 fixtures)",
               "valence_counts (200 λ, 5 fixtures)")
ABERTH_STACK_ROWS = ("aberth_iterate per row (5 stacks)",
                     "aberth_batch (5 stacks)")


def crosscheck_points():
    """50 points in each half plane and 100 on the real line."""
    rng = np.random.default_rng(8)
    half = [complex(rng.uniform(-3.0, 3.0), sign * rng.uniform(0.2, 3.0))
            for sign in (1, -1) for _ in range(50)]
    return half + rng.uniform(-3.0, 3.0, 100).tolist()


def aberth_stacks(points):
    """(rows, starts) of each fixture: the rows of N - lambda D at points
    that _aberth_rows receives from valence_counts and starts from their
    companion eigenvalues, with those starts."""
    lams = np.asarray(points, dtype=np.complex128)
    stacks = []
    for phi in all_fixtures().values():
        rows = _lambda_rows(phi, lams)
        rows = rows[complex_poly._whole(rows)]
        starts, ok = complex_poly._eigenvalue_start(rows)
        stacks.append((rows[ok], starts[ok]))
    return stacks


def counts_fallback_share(points):
    """Share of the fixtures' N - lambda D that valence_counts does not
    count from the roots of its stack as they are: rows that _trimmed does not
    keep whole, which go to find_roots or, when constant, count 0 with no
    root find, and rows whose roots from the row driver fail the closeness
    test of _separated, where _merge_clusters fits a multiplicity
    structure."""
    lams = np.asarray(points, dtype=np.complex128)
    left = []
    for phi in all_fixtures().values():
        rows = _lambda_rows(phi, lams)
        fast = complex_poly._whole(rows)
        fast[fast] = complex_poly._separated(
            complex_poly._aberth_rows(rows[fast]))
        left.append(~fast)
    return np.mean(left)


FIND_ROOTS_ROW = "find_roots (500 polys, deg 3-5)"


def find_roots_corpus():
    """Denominators and W polynomials of random (2, 1) edge candidates:
    deg B1 = 1 and deg B2 = 2, zeros in the disk of radius 0.95."""
    rng = np.random.default_rng(21)
    polys = []
    for _ in range(250):
        b1 = random_blaschke(rng, 1, 0.95)
        phi = RealSmirnov(*_helson_quotient(b1, random_blaschke(rng, 2, 0.95)))
        polys += [phi.den, phi.w_poly]
    return polys


def eigenvalue_start_share(polys):
    """Share of polys whose Aberth iteration starts from the companion
    eigenvalues."""
    return np.mean([
        complex_poly._eigenvalue_start(
            complex_poly._trimmed(p.coeffs)[0][None])[1][0] for p in polys])


OBJECTIVE_POINTS = 500
OBJECTIVE_ROW = "search objective (%d params, (2, 1))" % OBJECTIVE_POINTS


def two_one_target():
    """The (2, 1) edge on (-1, 1)."""
    return Tree([Node("p1", 1, 2), Node("m1", -1, 1)],
                [("p1", "m1", Interval(-1.0, 1.0))])


def objective_inputs():
    """(params, tprof, tarcs): OBJECTIVE_POINTS parameter vectors of the
    (2, 1) edge on (-1, 1), with the target's profile and breakpoint
    arctangents as synthesize_search passes them to its objective.

    The vectors scatter around the parameters of two_one_candidate (each
    zero w as the point w / (1 - |w|) that _squash maps back to it, then
    the phases of the two constants) by normal noise whose scale is drawn
    log-uniformly from 1e-4 to 1: from the simplex steps near an optimum
    to starts so far off that the disk constraint rejects them.
    """
    zeros = [*TWO_ONE_B1[0], *TWO_ONE_B2[0]]
    x0 = np.array([c for w in zeros for c in (w.real / (1.0 - abs(w)),
                                              w.imag / (1.0 - abs(w)))]
                  + [cmath.phase(TWO_ONE_B1[1]), cmath.phase(TWO_ONE_B2[1])])
    rng = np.random.default_rng(34)
    params = [x0 + 10.0 ** rng.uniform(-4.0, 0.0) * rng.normal(size=len(x0))
              for _ in range(OBJECTIVE_POINTS)]
    tprof = profile(two_one_target())
    tarcs = [synthesis._arc(b) for b in tprof.breakpoints if math.isfinite(b)]
    return params, tprof, tarcs


def objective_pass(params, tprof, tarcs):
    """The search objective once at every parameter vector."""
    for x in params:
        synthesis._search_loss(x, 1, 2, tprof, tarcs)


def timed_shares(targets, run):
    """Shares of one run() spent in each (module, name) of targets, timed
    by wrappers around the names the code under run looks them up by."""
    spent = {name: 0.0 for _, name in targets}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    originals = [getattr(mod, name) for mod, name in targets]
    try:
        for (mod, name), fn in zip(targets, originals):
            setattr(mod, name, timed(name, fn))
        t0 = time.perf_counter()
        run()
        total = time.perf_counter() - t0
    finally:
        for (mod, name), fn in zip(targets, originals):
            setattr(mod, name, fn)
    return {name: t / total for name, t in spent.items()}


def objective_shares():
    """Shares of one objective_pass spent in find_roots and in
    _helson_quotient."""
    inputs = objective_inputs()
    return timed_shares([(blaschke_smirnov, "find_roots"),
                         (synthesis, "_helson_quotient")],
                        lambda: objective_pass(*inputs))


SEARCH_ROW = "capped search (budget 500, (2, 1))"


def capped_search():
    """synthesize_search on the (2, 1) edge on (-1, 1), seed 1, capped at
    500 evaluations: the search ends exact on its 500th evaluation, after
    one confirming extraction."""
    synthesis.synthesize_search(synthesis.SynthesisProblem(
        two_one_target(), budget=500, seed=1))


def search_shares():
    """Shares of one capped_search spent in minimize and in its objective,
    _search_loss."""
    return timed_shares([(synthesis, "minimize"),
                         (synthesis, "_search_loss")], capped_search)


CENSUS_ROW = "trace_segments (300 pairs, res 256)"


@functools.cache
def census_pairs():
    """The 300-pair census, each with its boundary pieces built."""
    rng = np.random.default_rng(101)
    phis = [random_helson(rng, 3, 2, rmax=0.999, max_tries=20000)
            for _ in range(300)]
    for phi in phis:
        phi.boundary_pieces
    return phis


def census_walks():
    """(walks, traced points) of trace_segments on the census at 256."""
    walks = []
    trace = region_extraction.trace_arc
    region_extraction.trace_arc = lambda *args, **kw: (
        walks.append(trace(*args, **kw)) or walks[-1])
    try:
        for phi in census_pairs():
            trace_segments(phi, 256)
    finally:
        region_extraction.trace_arc = trace
    return len(walks), sum(len(pts) for pts, _, _ in walks)


def real_fallbacks(phi):
    """Points of REAL_POINTS whose count falls back to valence_at."""
    pieces = BoundaryPieces(phi)
    return sum(1 for x in REAL_POINTS if pieces.count(x) is None)


def run_benchmarks():
    """Seconds by row, best of five runs."""
    f4 = fourth_power_map()
    ds = double_slit()
    res = 512

    grid = np.linspace(-0.95, 0.95, res)
    pts = (grid[None, :] + 1j * grid[:, None]).ravel()

    rng = np.random.default_rng(0)
    poly8 = rng.normal(size=9) + 1j * rng.normal(size=9)
    guesses = 0.7 * np.exp(2j * np.pi * (np.arange(8) + 0.25) / 8)

    ds_args = (ds.num.coeffs.tolist(), ds.den.coeffs.tolist(),
               ds.w_poly.coeffs.tolist())

    def bench_horner():
        _kernels.horner_many(f4.num.coeffs, pts)

    def bench_aberth():
        for _ in range(512):
            _kernels.aberth_iterate(poly8, guesses)

    def bench_trace():
        for _ in range(30):
            _kernels.trace_arc(*ds_args, 0.05 + 0.0j, 1.0)
            _kernels.trace_arc(*ds_args, 0.05 + 0.0j, -1.0)

    cand = two_one_candidate()

    def bench_valence_at():
        for x in REAL_POINTS:
            valence_at(cand, x)

    def bench_real_valence():
        for k in range(0, len(REAL_POINTS), POINTS_PER_BUILD):
            # drop the candidate's cached pieces, so that each group of
            # points builds them again
            vars(cand).pop("boundary_pieces", None)
            for x in REAL_POINTS[k:k + POINTS_PER_BUILD]:
                real_valence(cand, x)

    fixtures = list(all_fixtures().values())
    points = crosscheck_points()

    def bench_counts_valence_at():
        for phi in fixtures:
            for lam in points:
                valence_at(phi, lam)

    def bench_valence_counts():
        for phi in fixtures:
            valence_counts(phi, points)

    stacks = aberth_stacks(points)

    def bench_aberth_rows():
        for rows, starts in stacks:
            for row, start in zip(rows, starts):
                _kernels.aberth_iterate(row, start)

    def bench_aberth_batch():
        for rows, starts in stacks:
            _kernels.aberth_batch(rows, starts)

    corpus = find_roots_corpus()
    objective = objective_inputs()

    def bench_find_roots():
        for p in corpus:
            complex_poly.find_roots(p)

    prepared = []
    for phi in all_fixtures().values():
        arcs = trace_segments(phi, res)
        prepared.append((phi, arcs, *faces(phi, arcs)))

    def bench_trace_segments():
        for phi, *_ in prepared:
            trace_segments(phi, res)

    def bench_census_trace():
        for phi in census_pairs():
            trace_segments(phi, 256)

    def bench_faces():
        for phi, arcs, *_ in prepared:
            faces(phi, arcs)

    def bench_region_valence():
        for phi, *_, regions, segments in prepared:
            region_valence(phi, regions, segments)

    extractions = [extract_full(phi, resolution=res) for phi in fixtures]

    def bench_render_svg():
        for ex in extractions:
            render_svg(ex)

    # each fixture with the m of its tree, as analyze passes it
    means_inputs = [(phi, profile(ex.tree).sup_real)
                    for phi, ex in zip(fixtures, extractions)]

    def bench_integral_means():
        for phi, m in means_inputs:
            _means_rows(phi, m)

    timings = {
        "horner_many (262k pts, deg 4)": _time(bench_horner),
        "aberth_iterate (512 solves, deg 8)": _time(bench_aberth),
        "trace_arc (60 arcs)": _time(bench_trace),
        VALENCE_ROWS[0]: _time(bench_valence_at),
        VALENCE_ROWS[1]: _time(bench_real_valence),
        COUNTS_ROWS[0]: _time(bench_counts_valence_at),
        COUNTS_ROWS[1]: _time(bench_valence_counts),
        ABERTH_STACK_ROWS[0]: _time(bench_aberth_rows),
        ABERTH_STACK_ROWS[1]: _time(bench_aberth_batch),
        FIND_ROOTS_ROW: _time(bench_find_roots),
        OBJECTIVE_ROW: _time(lambda: objective_pass(*objective)),
        SEARCH_ROW: _time(capped_search),
        "trace_segments (5 fixtures, res 512)": _time(bench_trace_segments),
        CENSUS_ROW: _time(bench_census_trace),
        "faces (5 fixtures, res 512)": _time(bench_faces),
        "region_valence (5 fixtures, res 512)": _time(bench_region_valence),
        "render_svg (5 fixtures, res 512)": _time(bench_render_svg),
        "integral_means (5 fixtures, 4 rows)": _time(bench_integral_means),
    }
    return timings


def _census_summary(timings):
    return ("trace_segments on the 300-pair census at 256: %d walks, %d "
            "points, %.0f ms" % (*census_walks(), 1e3 * timings[CENSUS_ROW]))


def _valence_summary(timings):
    per_call = [1e6 * timings[name] / len(REAL_POINTS) for name in VALENCE_ROWS]
    return ("real valence count, per call: valence_at %.0f us, real_valence "
            "%.0f us; fallback %d of %d points"
            % (*per_call, real_fallbacks(two_one_candidate()),
               len(REAL_POINTS)))


def _counts_summary(timings):
    points = crosscheck_points()
    n = len(points) * len(all_fixtures())
    per_point = [1e6 * timings[name] / n for name in COUNTS_ROWS]
    return ("valence count at %d points on 5 fixtures, per point: valence_at "
            "%.0f us, valence_counts %.0f us; fallback for %.1f%% of points"
            % (len(points), *per_point,
               100.0 * counts_fallback_share(points)))


def _aberth_stack_summary(timings):
    n = sum(len(rows) for rows, _ in aberth_stacks(crosscheck_points()))
    loop, batch = (timings[name] for name in ABERTH_STACK_ROWS)
    return ("Aberth on %d stack rows, per row: aberth_iterate %.0f us, "
            "aberth_batch %.1f us (%.1fx)"
            % (n, 1e6 * loop / n, 1e6 * batch / n, loop / batch))


def _find_roots_summary(timings):
    corpus = find_roots_corpus()
    return ("find_roots, per call: %.0f us; eigenvalue start for %.1f%% of "
            "%d polynomials"
            % (1e6 * timings[FIND_ROOTS_ROW] / len(corpus),
               100.0 * eigenvalue_start_share(corpus), len(corpus)))


def _objective_summary(timings):
    shares = objective_shares()
    return ("search objective, per evaluation: %.0f us; find_roots %.0f%%, "
            "_helson_quotient %.0f%%"
            % (1e6 * timings[OBJECTIVE_ROW] / OBJECTIVE_POINTS,
               100.0 * shares["find_roots"],
               100.0 * shares["_helson_quotient"]))


def _search_summary():
    shares = search_shares()
    return ("capped search: minimize %.1f%% of the time, the objective "
            "%.1f%%; minimize's own work outside the objective %.2f%%"
            % (100.0 * shares["minimize"], 100.0 * shares["_search_loss"],
               100.0 * (shares["minimize"] - shares["_search_loss"])))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)

    timings = run_benchmarks()
    print("%-36s %11s" % ("kernel", "time"))
    for name, t in timings.items():
        if name in MICRO_ROWS:
            print("%-36s %8.1f us" % (name, 1e6 * t))
            continue
        print("%-36s %8.1f ms" % (name, 1e3 * t))
    print(_valence_summary(timings))
    print(_counts_summary(timings))
    print(_aberth_stack_summary(timings))
    print(_find_roots_summary(timings))
    print(_objective_summary(timings))
    print(_search_summary())
    print(_census_summary(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main())

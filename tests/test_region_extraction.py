"""Tests for interface tracing, faces, tree extraction, the sign grid and
the SVG picture."""

import cmath
import functools
import json
import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsmirnov.blaschke_smirnov import (
    Blaschke,
    RealSmirnov,
    from_blaschke,
    halfplane_valences,
    precompose_inner,
    random_helson,
    real_affine,
    valence_at,
)
from rsmirnov.cli import EXIT_NUMERICAL, EXIT_OK, main
from rsmirnov.complex_poly import Poly, find_roots
from rsmirnov.fixtures import (
    all_fixtures,
    double_slit,
    fourth_power_map,
    koebe,
    lower_halfplane_map,
    power_chain,
    upper_halfplane_map,
)
from rsmirnov import region_extraction as rx
from rsmirnov._kernels import TRACE_HIT_CIRCLE
from rsmirnov.region_extraction import (
    BoundaryArc,
    End,
    ExtractionError,
    ExtractionMismatch,
    NonMonotone,
    TraceStalled,
    crosscheck,
    extract_full,
    faces,
    find_branch_points,
    partition,
    region_valence,
    render_svg,
    trace_segments,
    _assemble,
    _tile,
)
from rsmirnov.valence_tree import (
    Interval,
    Node,
    Tree,
    ValenceProfile,
    canonical_code,
    enumerate_shapes,
    is_isomorphic,
    profile,
    validate,
)


def quartic_chain():
    """Alternating four-node path with images (-inf,0), (0,inf), (-inf,0)."""
    nodes = [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1), Node("m2", -1, 1)]
    edges = [
        ("p1", "m1", Interval(-math.inf, 0.0)),
        ("m1", "p2", Interval(0.0, math.inf)),
        ("p2", "m2", Interval(-math.inf, 0.0)),
    ]
    return Tree(nodes, edges)


def slit_squared():
    """double_slit composed with z^2: boundary-real with a branch point at 0."""
    return precompose_inner(double_slit(), Blaschke([0, 0]))


def slit_three():
    """double_slit composed with a degree-3 Blaschke product: two branch
    points on the imaginary axis, with a level arc between them."""
    return precompose_inner(double_slit(), Blaschke([0.4, -0.4, 0.6j]))


def helson_pair(z1, angle, z2):
    """phi of the pair B1 = exp(i angle) * (zeros z1), B2 = (zeros z2)."""
    return from_blaschke(Blaschke(z1, cmath.exp(1j * angle)), Blaschke(z2))


@pytest.fixture(scope="module")
def ex_phi3():
    return extract_full(fourth_power_map())


@pytest.fixture(scope="module")
def ex_koebe():
    return extract_full(koebe())


@pytest.fixture(scope="module")
def ex_slit():
    return extract_full(double_slit())


@pytest.fixture(scope="module")
def ex_slit_squared():
    return extract_full(slit_squared())


def traced_faces(phi, res=256):
    """The faces of phi's traced level set and its segments, flanks named."""
    return faces(phi, trace_segments(phi, res))


def winding(polygon, z):
    """Winding number of the closed polygon round z."""
    turn = np.angle((np.roll(polygon, -1) - z) / (polygon - z)).sum()
    return round(turn / (2 * math.pi))


# ---------------------------------------------------------------------------
# partition


@pytest.mark.parametrize(
    "make,n_plus,n_minus",
    [
        (upper_halfplane_map, 1, 0),
        (lower_halfplane_map, 0, 1),
        (double_slit, 1, 1),
        (koebe, 1, 1),
        (fourth_power_map, 2, 2),
        (slit_squared, 2, 2),
    ],
)
def test_partition_component_counts(make, n_plus, n_minus):
    phi = make()
    regions, _ = traced_faces(phi)
    signs = [region.sign for region in regions.values()]
    assert signs.count(1) == n_plus
    assert signs.count(-1) == n_minus
    assert set(regions) == set(range(1, n_plus + n_minus + 1))
    for rid, region in regions.items():
        assert region.sign == (1 if rid <= n_plus else -1)
        assert region.area > 0.01
        # the point that carries the region's label lies in it and no other
        z = rx._label_point(region.boundary)
        assert abs(z) < 1.0
        assert [r.id for r in regions.values() if winding(r.boundary, z)] == [rid]
        assert np.sign(phi.eval(z).imag) == region.sign
    # the faces tile the disk: the traced arcs are snapped onto the events
    # and branch points where they end, even where they stop short of them
    # (0.02 short of fourth_power_map's four-fold pole)
    assert sum(r.area for r in regions.values()) == pytest.approx(math.pi, abs=1e-9)


def test_partition_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        partition(koebe(), 32)


@pytest.mark.parametrize("res", [0, -8, 32, rx.MIN_RESOLUTION - 1])
def test_extract_full_rejects_a_resolution_below_the_floor(res):
    # 0 used to divide by zero, -8 to double until OverflowError
    with pytest.raises(ValueError, match="at least %d" % rx.MIN_RESOLUTION):
        extract_full(koebe(), res)


def test_partition_classifies_known_points():
    cls = partition(koebe(), 256)

    def cls_at(z):
        return cls[int((z.imag + 1.0) * 128), int((z.real + 1.0) * 128)]

    assert cls_at(0.5j) == 1  # Im koebe > 0 in the upper half disk
    assert cls_at(-0.5j) == -1
    assert cls_at(0.9 + 0.9j) == 0  # outside the disk


def test_partition_double_slit_sides():
    # Im(iz/(1-z^2)) > 0 on the right half of the disk
    regions, _ = traced_faces(double_slit())
    plus = [r for r in regions.values() if r.sign > 0]
    minus = [r for r in regions.values() if r.sign < 0]
    assert len(plus) == len(minus) == 1
    assert plus[0].boundary.real.min() > -1e-6
    assert minus[0].boundary.real.max() < 1e-6
    assert plus[0].area == pytest.approx(math.pi / 2, abs=1e-6)
    assert minus[0].area == pytest.approx(math.pi / 2, abs=1e-6)


# ---------------------------------------------------------------------------
# faces


def test_faces_number_positive_first_then_by_lowest_point():
    # the four sectors of double_slit(z^2) between the diagonals
    regions, segs = traced_faces(slit_squared())
    assert [r.sign for r in regions.values()] == [1, 1, -1, -1]
    # the left and right sectors are positive; their lowest points are at
    # one height up to rounding, and the left one comes first.  The top
    # sector's is where its arcs stop, within BP_RADIUS of the branch point
    lows = [min(r.boundary, key=lambda z: (z.imag, z.real)) for r in regions.values()]
    r = 0.5 ** 0.5
    assert np.allclose(lows, [-r - r * 1j, r - r * 1j, -1j, 0.0], atol=rx.BP_RADIUS)
    # every arc runs between a positive and a negative face
    for seg in segs:
        assert (regions[seg.upper].sign, regions[seg.lower].sign) == (1, -1)


def test_mirror_image_faces_tie_and_the_first_is_the_root():
    # the two positive faces of the 5-path pair are mirror images across
    # the imaginary axis, equal in area but for the chords of their arcs
    phi, ex = event_case("5-path", 256)
    left, right = [r for r in ex.regions.values() if r.sign > 0]
    assert left.boundary.real.max() < 0 < right.boundary.real.min()
    assert 0 < abs(left.area - right.area) < rx.AREA_TOL
    assert ex.node_of_region[left.id] == "p1"
    assert [(a, b, str(iv)) for a, b, iv in ex.tree.edges] == [
        ("p1", "m1", "(-5.69714, -0.175527)"), ("p1", "m2", "(0.126207, 7.9235)"),
        ("m1", "p2", "(0.175527, 5.69714)"), ("p2", "m3", "(-7.9235, -0.126207)")]


@pytest.mark.parametrize("name", ["fourth_power_map", "slit_squared", "5-path"])
def test_faces_without_an_arc_have_sides_of_both_signs(name):
    phi = EVENT_CASES[name]()
    segs = trace_segments(phi, 256)
    for k in range(len(segs)):
        with pytest.raises(ExtractionMismatch, match="sides of both signs"):
            faces(phi, segs[:k] + segs[k + 1:])


# ---------------------------------------------------------------------------
# region valence


@pytest.mark.parametrize(
    "make",
    [upper_halfplane_map, lower_halfplane_map, double_slit, koebe, fourth_power_map],
)
def test_region_valence_fixture_regions_are_simple(make):
    phi = make()
    regions, segs = traced_faces(phi)
    assert region_valence(phi, regions, segs) == dict.fromkeys(regions, 1)


@pytest.mark.parametrize(
    "make",
    [upper_halfplane_map, double_slit, koebe, fourth_power_map],
)
def test_region_valences_sum_to_halfplane_counts(make):
    phi = make()
    regions, segs = traced_faces(phi)
    v_plus, v_minus = halfplane_valences(phi)
    valences = region_valence(phi, regions, segs)
    got_plus = sum(v for rid, v in valences.items() if regions[rid].sign > 0)
    got_minus = sum(v for rid, v in valences.items() if regions[rid].sign < 0)
    assert (got_plus, got_minus) == (v_plus, v_minus)


# ---------------------------------------------------------------------------
# branch points


@pytest.mark.parametrize(
    "make",
    [upper_halfplane_map, double_slit, koebe, fourth_power_map],
)
def test_fixtures_have_no_interior_branch_points(make):
    # koebe and the fourth power have critical points, but on the circle
    assert find_branch_points(make()) == []


def test_branch_point_of_composed_slit():
    bps = find_branch_points(slit_squared())
    assert len(bps) == 1
    assert abs(bps[0].z) < 1e-8
    assert abs(bps[0].value) < 1e-12


def test_branch_point_skips_nonreal_critical_values():
    # z^2 has critical value 0 at z = 0; shifting by i makes it non-real
    assert len(find_branch_points(RealSmirnov(Poly([0, 0, 1]), Poly([1])))) == 1
    assert find_branch_points(RealSmirnov(Poly([1j, 0, 1]), Poly([1]))) == []


# ---------------------------------------------------------------------------
# tracing


def test_trace_segments_koebe():
    phi = koebe()
    regions, segs = traced_faces(phi)
    assert len(segs) == 1
    (seg,) = segs
    assert seg.lo.kind == "circle"
    assert abs(seg.lo.value - (-0.25)) < 1e-6
    assert seg.hi.kind == "pole"
    assert seg.hi.value == math.inf
    assert regions[seg.upper].sign == 1
    assert regions[seg.lower].sign == -1
    # the traced arc is the real diameter
    assert np.max(np.abs(seg.points.imag)) < 1e-6


def test_trace_segments_double_slit():
    phi = double_slit()
    regions, segs = traced_faces(phi)
    assert len(segs) == 1
    (seg,) = segs
    assert abs(seg.lo.value - (-0.5)) < 1e-6
    assert abs(seg.hi.value - 0.5) < 1e-6
    # the arc is the imaginary diameter; the upper flank is the right half
    assert np.max(np.abs(seg.points.real)) < 1e-6
    assert regions[seg.upper].boundary.real.min() > -1e-6


def test_trace_segments_fourth_power():
    phi = fourth_power_map()
    _, segs = traced_faces(phi)
    assert len(segs) == 3
    intervals = sorted((s.lo.value, s.hi.value) for s in segs)
    assert intervals[0][0] == -math.inf and abs(intervals[0][1]) < 1e-6
    assert intervals[1][0] == -math.inf and abs(intervals[1][1]) < 1e-6
    assert abs(intervals[2][0]) < 1e-6 and intervals[2][1] == math.inf
    # arcs ending at the common boundary zero z = -1 share one endpoint value
    finite = {v for pair in intervals for v in pair if math.isfinite(v)}
    assert len(finite) == 1
    # flank pairs are pairwise distinct (three different interfaces)
    assert len({(s.upper, s.lower) for s in segs}) == 3


@pytest.mark.parametrize("make", [double_slit, koebe, fourth_power_map])
def test_traced_arcs_are_monotone_and_inside(make):
    phi = make()
    for seg in trace_segments(phi, 256):
        assert np.max(np.abs(seg.points)) <= 1.0 + 1e-6
        w = phi.eval(seg.points)
        re = np.real(w)
        assert np.all(np.diff(re) > -1e-6 * (1.0 + np.abs(re[1:])))


def test_tile_joins_pieces_at_branch_points():
    pts = np.array([0.0 + 0.0j, 0.1 + 0.0j])
    a = BoundaryArc(pts, 1, 3, End("circle", -1.0), End("branch", 0.0, 0))
    b = BoundaryArc(pts, 2, 3, End("branch", 0.0, 0), End("circle", 1.0))
    interval = _tile([b, a])
    assert (interval.lo, interval.hi) == (-1.0, 1.0)


def test_tile_rejects_gaps_and_dangling_branch_ends():
    pts = np.array([0.0 + 0.0j, 0.1 + 0.0j])
    a = BoundaryArc(pts, 1, 3, End("circle", -1.0), End("circle", 0.0))
    b = BoundaryArc(pts, 1, 3, End("circle", 0.2), End("circle", 1.0))
    with pytest.raises(ExtractionMismatch):
        _tile([a, b])  # two disjoint pieces, no branch point to join them
    c = BoundaryArc(pts, 1, 3, End("circle", -1.0), End("branch", 0.0, 0))
    with pytest.raises(ExtractionMismatch):
        _tile([c])  # outer end may not be a branch point


# ---------------------------------------------------------------------------
# collections


def test_assemble_welds_across_branch_point():
    # The level set of double_slit(z^2) is the two diameters: four sectors
    # welded at the branch point 0, each of valence 1.
    phi = slit_squared()
    regions, segs = traced_faces(phi)
    assert len(segs) == 4
    assert all(
        (s.lo.kind == "branch") != (s.hi.kind == "branch") for s in segs
    )
    tree, colls, node_of = _assemble(regions, dict.fromkeys(regions, 1), segs)
    assert validate(tree) == []
    root = tree.nodes["p1"]
    assert root.valence == 2
    welded = [c for c in colls if c.id == "p1"]
    assert len(welded[0].members) == 2
    assert sorted(str(iv) for _, _, iv in tree.edges) == ["(-0.5, 0.5)", "(-0.5, 0.5)"]
    assert set(node_of.values()) == {"p1", "m1", "m2"}


def test_assemble_rejects_two_interfaces_into_one_collection():
    # The root face 1 meets faces 2 and 3 along two separate interfaces,
    # but 2 and 3 weld at branch point 0, which the root does not touch
    # (face 4 closes it): one child collection would get two parent edges.
    pts = np.array([0.0 + 0.0j, 0.1 + 0.0j])
    regions = {rid: rx.Region(rid, sign, (), pts, area)
               for rid, sign, area in ((1, 1, 1.0), (2, -1, 0.3),
                                       (3, -1, 0.3), (4, 1, 0.5))}
    segs = [BoundaryArc(pts, 1, 2, End("circle", -2.0), End("circle", -1.0)),
            BoundaryArc(pts, 1, 3, End("circle", 1.0), End("circle", 2.0)),
            BoundaryArc(pts, 4, 2, End("circle", -0.5), End("branch", 0.0, 0)),
            BoundaryArc(pts, 4, 3, End("branch", 0.0, 0), End("circle", 0.5))]
    with pytest.raises(ExtractionMismatch,
                       match="two traced interfaces lead into one collection"):
        _assemble(regions, dict.fromkeys(regions, 1), segs)


# ---------------------------------------------------------------------------
# extract_full on the fixtures


def test_extract_single_region_trees():
    t1 = extract_full(upper_halfplane_map()).tree
    assert [(n.id, n.sign, n.valence) for n in t1.nodes.values()] == [("p1", 1, 1)]
    assert t1.edges == []
    t2 = extract_full(lower_halfplane_map()).tree
    assert [(n.id, n.sign, n.valence) for n in t2.nodes.values()] == [("m1", -1, 1)]


def test_extract_fourth_power_chain(ex_phi3):
    tree = ex_phi3.tree
    assert is_isomorphic(tree, quartic_chain(), mode="shape")
    prof = profile(tree)
    assert (prof.v_plus, prof.v_minus) == (2, 2)
    assert len(prof.breakpoints) == 1
    assert abs(prof.breakpoints[0]) < 1e-6
    assert prof.piece_mults == (2, 1)
    assert ex_phi3.branch_points == []
    assert len(ex_phi3.segments) == 3


def test_extract_koebe(ex_koebe):
    tree = ex_koebe.tree
    assert len(tree.nodes) == 2
    ((a, b, iv),) = tree.edges
    assert {tree.nodes[a].sign, tree.nodes[b].sign} == {1, -1}
    assert abs(iv.lo - (-0.25)) < 1e-6
    assert iv.hi == math.inf
    prof = profile(tree)
    assert (prof.v_plus, prof.v_minus) == (1, 1)


def test_extract_double_slit(ex_slit):
    ((_, _, iv),) = ex_slit.tree.edges
    assert abs(iv.lo - (-0.5)) < 1e-6
    assert abs(iv.hi - 0.5) < 1e-6
    # the positive node is the right half of the disk
    (coll,) = [c for c in ex_slit.collections if c.sign > 0]
    assert ex_slit.regions[coll.members[0]].boundary.real.min() > -1e-6


def test_extract_composed_slit_welds_plus_regions(ex_slit_squared):
    tree = ex_slit_squared.tree
    prof = profile(tree)
    assert (prof.v_plus, prof.v_minus) == (2, 2)
    assert len(tree.nodes) == 3
    assert tree.nodes["p1"].valence == 2
    (p1_coll,) = [c for c in ex_slit_squared.collections if c.id == "p1"]
    assert len(p1_coll.members) == 2
    for _, _, iv in tree.edges:
        assert abs(iv.lo - (-0.5)) < 1e-6
        assert abs(iv.hi - 0.5) < 1e-6
    assert len(ex_slit_squared.branch_points) == 1


def test_extract_region_sum_matches_halfplane(ex_phi3, ex_slit_squared):
    for ex, phi in ((ex_phi3, fourth_power_map()),
                    (ex_slit_squared, slit_squared())):
        got_plus = sum(
            v for rid, v in ex.region_valences.items()
            if ex.regions[rid].sign > 0
        )
        got_minus = sum(
            v for rid, v in ex.region_valences.items()
            if ex.regions[rid].sign < 0
        )
        prof = profile(ex.tree)
        assert (got_plus, got_minus) == (prof.v_plus, prof.v_minus)
        assert (got_plus, got_minus) == halfplane_valences(phi)


def test_extraction_is_deterministic():
    t1 = extract_full(fourth_power_map()).tree
    t2 = extract_full(fourth_power_map()).tree
    assert is_isomorphic(t1, t2, mode="full")
    assert canonical_code(t1, with_intervals=True) == canonical_code(
        t2, with_intervals=True
    )


@pytest.mark.parametrize("make", [koebe, fourth_power_map, double_slit])
def test_extraction_stable_across_resolutions(make):
    phi = make()
    t_coarse = extract_full(phi, resolution=256).tree
    t_fine = extract_full(phi, resolution=512).tree
    assert canonical_code(t_coarse) == canonical_code(t_fine)
    p_coarse, p_fine = profile(t_coarse), profile(t_fine)
    assert len(p_coarse.breakpoints) == len(p_fine.breakpoints)
    for a, b in zip(p_coarse.breakpoints, p_fine.breakpoints):
        assert abs(a - b) < 1e-3


# ---------------------------------------------------------------------------
# crosscheck


@pytest.mark.parametrize("make", [fourth_power_map, koebe, double_slit])
def test_crosscheck_confirms_extracted_trees(make):
    phi = make()
    tree = extract_full(phi).tree
    report = crosscheck(phi, tree, n_samples=200, seed=0)
    assert report.ok
    assert report.samples == 200
    js = report.to_json()
    assert js["ok"] is True and js["mismatches"] == []


def corrupted_koebe():
    """koebe with its edge interval (-1/4, inf) cut to (0, inf)."""
    phi = koebe()
    tree = extract_full(phi).tree
    ((a, b, _),) = tree.edges
    return phi, Tree(list(tree.nodes.values()),
                     [(a, b, Interval(0.0, math.inf))])


def test_crosscheck_flags_corrupted_tree():
    phi, wrong = corrupted_koebe()
    report = crosscheck(phi, wrong, n_samples=200, seed=0)
    assert not report.ok
    assert all(m["kind"] == "real" for m in report.mismatches)
    # the corruption is visible exactly on (-0.25, 0)
    assert all(-0.25 < m["point"] < 0.0 for m in report.mismatches)
    assert any(m["expected"] == 0 and m["got"] == 1 for m in report.mismatches)


def test_crosscheck_real_axis_against_composed_profile(ex_slit_squared):
    report = crosscheck(slit_squared(), ex_slit_squared.tree, n_samples=200, seed=9)
    assert report.ok


def per_lambda_crosscheck(phi, tree, n_samples=200, seed=0, delta=1e-3):
    """crosscheck as it was before it counted all its points at once: one
    valence_at call per sample point, in drawing order."""
    prof = profile(tree)
    rng = np.random.default_rng(seed)
    n_half = n_samples // 4
    n_real = n_samples - 2 * n_half
    mismatches = []
    total = 0
    for sign, expected in ((1, prof.v_plus), (-1, prof.v_minus)):
        for _ in range(n_half):
            lam = complex(rng.uniform(-3.0, 3.0), sign * rng.uniform(0.2, 3.0))
            got = valence_at(phi, lam)
            total += 1
            if got != expected:
                mismatches.append({
                    "kind": "upper" if sign > 0 else "lower",
                    "point": [lam.real, lam.imag],
                    "expected": expected,
                    "got": got,
                })
    finite = [b for b in prof.breakpoints if math.isfinite(b)]
    lo = (min(finite) - 2.0) if finite else -3.0
    hi = (max(finite) + 2.0) if finite else 3.0
    drawn = 0
    attempts = 0
    while drawn < n_real and attempts < 100 * n_real:
        attempts += 1
        x = rng.uniform(lo, hi)
        if finite and min(abs(x - b) for b in finite) < delta:
            continue
        drawn += 1
        total += 1
        expected = prof.multiplicity_at(x)
        got = valence_at(phi, x)
        if got != expected:
            mismatches.append(
                {"kind": "real", "point": x, "expected": expected, "got": got})
    return total, mismatches


@pytest.mark.parametrize("make", [
    upper_halfplane_map, lower_halfplane_map, fourth_power_map, koebe,
    double_slit, slit_squared,
])
@pytest.mark.parametrize("seed", [0, 9])
def test_crosscheck_matches_per_lambda_reference(make, seed):
    phi = make()
    tree = extract_full(phi).tree
    report = crosscheck(phi, tree, n_samples=200, seed=seed)
    want = per_lambda_crosscheck(phi, tree, n_samples=200, seed=seed)
    assert (report.samples, report.mismatches) == want
    assert json.dumps(report.to_json())


def test_crosscheck_mismatches_match_per_lambda_reference():
    phi, wrong = corrupted_koebe()
    report = crosscheck(phi, wrong, n_samples=200, seed=0)
    assert report.mismatches
    assert (report.samples, report.mismatches) == per_lambda_crosscheck(
        phi, wrong, n_samples=200, seed=0)
    # counts are plain ints, as valence_at gives them, so --json can dump them
    assert all(type(m["got"]) is int for m in report.mismatches)


def sequential_draws(tree, n_samples, seed, delta):
    """crosscheck's sample points as it drew them one rng call at a time:
    (kind, point, expected) in drawing order."""
    prof = profile(tree)
    rng = np.random.default_rng(seed)
    n_half = n_samples // 4
    n_real = n_samples - 2 * n_half
    samples = []
    for sign, expected in ((1, prof.v_plus), (-1, prof.v_minus)):
        kind = "upper" if sign > 0 else "lower"
        for _ in range(n_half):
            lam = complex(rng.uniform(-3.0, 3.0), sign * rng.uniform(0.2, 3.0))
            samples.append((kind, lam, expected))
    finite = [b for b in prof.breakpoints if math.isfinite(b)]
    lo = (min(finite) - 2.0) if finite else -3.0
    hi = (max(finite) + 2.0) if finite else 3.0
    drawn = 0
    attempts = 0
    while drawn < n_real and attempts < 100 * n_real:
        attempts += 1
        x = rng.uniform(lo, hi)
        if finite and min(abs(x - b) for b in finite) < delta:
            continue
        drawn += 1
        samples.append(("real", x, prof.multiplicity_at(x)))
    return samples


def test_crosscheck_draws_what_the_sequential_loop_draws(monkeypatch):
    rng = np.random.default_rng(101)
    trees = [extract_full(phi).tree for phi in all_fixtures().values()] + [
        extract_full(random_helson(rng, 3, 2, rmax=0.999, max_tries=20000),
                     resolution=256, max_resolution=1024).tree
        for _ in range(5)]
    assert any(len(profile(tree).breakpoints) > 2 for tree in trees)
    # valence_counts answers -1 everywhere, so every sample is a mismatch
    # that reports its kind, point and expected count
    drawn = []

    def every_count_wrong(phi, lams):
        drawn.append(list(lams))
        return np.full(len(lams), -1)

    monkeypatch.setattr(rx, "valence_counts", every_count_wrong)
    for tree in trees:
        for n_samples in (1, 7, 36, 200):
            for delta in (1e-3, 0.5):
                for seed in range(30):
                    want = sequential_draws(tree, n_samples, seed, delta)
                    report = crosscheck(None, tree, n_samples, seed, delta)
                    assert [type(lam) for lam in drawn[-1]] == [
                        type(lam) for _, lam, _ in want]
                    assert report.samples == len(want)
                    assert report.mismatches == [
                        {"kind": kind, "expected": expected, "got": -1,
                         "point": lam if kind == "real" else [lam.real, lam.imag]}
                        for kind, lam, expected in want]


# ---------------------------------------------------------------------------
# behaviour under transforms


def transformed_profile(prof, a, b):
    """The profile that the tree of a*phi + b has, given the profile of
    the tree of phi: the breakpoints map by x -> a*x + b, and for a < 0
    the half planes swap and the step function runs in reverse."""
    bps = tuple(a * x + b for x in prof.breakpoints)
    if a > 0:
        return ValenceProfile(prof.v_plus, prof.v_minus, bps,
                              prof.piece_mults, prof.point_mults)
    return ValenceProfile(prof.v_minus, prof.v_plus, bps[::-1],
                          prof.piece_mults[::-1], prof.point_mults[::-1])


@pytest.mark.parametrize("prof,a,b,want", [
    # one edge on (0, 1) between an upper node of valence 2 and a lower
    # node of valence 1: it moves to (5, 6), or to (-1, 0) with v+ and v-
    # swapped
    (ValenceProfile(2, 1, (0.0, 1.0), (0, 1, 0), (0, 0)), 1.0, 5.0,
     ValenceProfile(2, 1, (5.0, 6.0), (0, 1, 0), (0, 0))),
    (ValenceProfile(2, 1, (0.0, 1.0), (0, 1, 0), (0, 0)), -1.0, 0.0,
     ValenceProfile(1, 2, (-1.0, 0.0), (0, 1, 0), (0, 0))),
    # one edge on (-inf, 0) moves to (3, inf)
    (ValenceProfile(1, 1, (0.0,), (1, 0), (0,)), -2.0, 3.0,
     ValenceProfile(1, 1, (3.0,), (0, 1), (0,))),
    # edges on (0, 1) and (0, 2) at one node: the steps run in reverse
    (ValenceProfile(2, 2, (0.0, 1.0, 2.0), (0, 2, 1, 0), (0, 1, 0)), -1.0, 0.0,
     ValenceProfile(2, 2, (-2.0, -1.0, 0.0), (0, 1, 2, 0), (0, 1, 0))),
], ids=["shift", "negate", "ray", "steps"])
def test_transformed_profile_maps_hand_profiles(prof, a, b, want):
    assert transformed_profile(prof, a, b) == want


def test_affine_transform_matches_transformed_profile():
    base = extract_full(double_slit()).tree
    scaled = extract_full(real_affine(double_slit(), 2.0, 0.0)).tree
    ((_, _, iv),) = scaled.edges
    assert abs(iv.lo - (-1.0)) < 1e-6
    assert abs(iv.hi - 1.0) < 1e-6
    want = transformed_profile(profile(base), 2.0, 0.0)
    got = profile(scaled)
    assert (got.v_plus, got.v_minus) == (want.v_plus, want.v_minus)
    for a, b in zip(got.breakpoints, want.breakpoints):
        assert abs(a - b) < 1e-6


def test_negative_affine_flips_signs():
    base = extract_full(koebe()).tree
    flipped = extract_full(real_affine(koebe(), -1.0, 0.0)).tree
    ((_, _, iv),) = flipped.edges
    assert iv.lo == -math.inf
    assert abs(iv.hi - 0.25) < 1e-6
    want = transformed_profile(profile(base), -1.0, 0.0)
    got = profile(flipped)
    assert (got.v_plus, got.v_minus) == (want.v_plus, want.v_minus)
    for a, b in zip(got.breakpoints, want.breakpoints):
        assert abs(a - b) < 1e-6


def test_precompose_squares_valence():
    phi = precompose_inner(upper_halfplane_map(), Blaschke([0, 0]))
    tree = extract_full(phi).tree
    assert [(n.sign, n.valence) for n in tree.nodes.values()] == [(1, 2)]
    assert tree.edges == []


# ---------------------------------------------------------------------------
# random functions round-trip


@pytest.mark.parametrize("seed,deg", [(5, (1, 1)), (11, (2, 1)), (23, (2, 2))])
def test_random_helson_extraction_roundtrip(seed, deg):
    rng = np.random.default_rng(seed)
    phi = random_helson(rng, *deg)
    ex = extract_full(phi)
    assert validate(ex.tree) == []
    prof = profile(ex.tree)
    assert (prof.v_plus, prof.v_minus) == halfplane_valences(phi)
    report = crosscheck(phi, ex.tree, n_samples=150, seed=seed + 1)
    assert report.ok


# One pinned Helson pair per (2, 3) shape: deg B1 = 3 (lower valence),
# deg B2 = 2 (upper valence).  Only the quotient B1/B2 enters phi, so B2
# carries the constant 1 and B1 the constant exp(i * angle).  Entries:
# (shape, canonical code, B1 zeros, B1 angle, B2 zeros).
TWO_THREE_REALIZERS = [
    ("edge", "(+2|(-3|))",
     [0.394 - 0.805j, -0.909 + 0.188j, -0.466 - 0.058j], -0.414,
     [0.421 + 0.55j, 0.732 + 0.303j]),
    ("path +1,-3,+1", "(+1|(-3|(+1|)))",
     [0.645 + 0.559j, -0.741 - 0.115j, -0.352 + 0.013j], 1.548,
     [-0.277 + 0.939j, 0.873 + 0.444j]),
    ("path -2,+2,-1", "(+2|(-1|),(-2|))",
     [-0.486 - 0.346j, 0.665 - 0.716j, -0.205 - 0.947j], 0.12,
     [0.444 - 0.765j, 0.725 + 0.429j]),
    ("+2 star", "(+2|(-1|),(-1|),(-1|))",
     [0.187 - 0.924j, -0.917 - 0.026j, 0.364 + 0.591j], 2.5,
     [0.388 - 0.659j, -0.065 + 0.556j]),
    ("4-path, -2 inside", "(+1|(-1|),(-2|(+1|)))",
     [0.662 + 0.005j, -0.807 + 0.564j, -0.761 - 0.336j], -1.148,
     [0.94 - 0.163j, -0.625 + 0.12j]),
    ("4-path, -2 at end", "(+1|(-1|(+1|(-2|))))",
     [-0.09, 0.915 + 0.092j, 0.915 - 0.092j], 5.1,
     [-0.58, 0.58]),
    ("5-path", "(+1|(-1|(+1|(-1|))),(-1|))",
     [-0.964, 0.0, 0.964], math.pi / 2,
     [-0.762, 0.762]),
    ("spider", "(+1|(-1|(+1|(-1|),(-1|))))",
     [-0.47 + 0.814j, -0.47 - 0.814j, 0.9], 1.0,
     [0.0, 0.97]),
]


def test_valence_two_three_shapes_realized():
    """Every one of the eight (2, 3) shapes is the extracted valence tree
    of a pinned Helson pair, confirmed by direct root counting.

    The first five pairs come from a census of random Helson pairs
    (random_helson with deg B1 = 3, deg B2 = 2, zeros up to radius 0.99),
    rounded to three decimals.  The last three shapes did not appear in
    4500 such pairs (zeros up to radius 0.95, 0.99 and 0.999), so their
    pairs come from searches over symmetric families:
    - 4-path with the -2 node at the end: B1 zeros x0 and r e^{+-i beta},
      B2 zeros +-s, on the real diameter;
    - 5-path: zeros on the real diameter at tanh(k) for k = -2..2, B1 and
      B2 alternating, with u = B1/B2 purely imaginary on the diameter
      (the closed form -i((1+z)/(1-z))^5 has the same shape, but its
      five-fold circle pole is beyond what extraction resolves);
    - spider: a B2 zero at the centre as the +1 hub, three B1 zeros at
      radius 0.9-0.94 around it, and a second B2 zero at 0.97 beyond one
      of them as the +1 tail.
    """
    expected = {e.code for e in enumerate_shapes(2, 3)}
    realized = set()
    for name, code, *_ in TWO_THREE_REALIZERS:
        assert code in expected, name
        phi, ex = event_case(name, 256)
        assert validate(ex.tree) == [], name
        assert canonical_code(ex.tree) == code, name
        assert crosscheck(phi, ex.tree, n_samples=200).ok, name
        realized.add(code)
    assert realized == expected


# One pinned Helson pair per (1, 2) and (2, 2) shape, in the format above:
# deg B1 = 2 (lower valence), deg B2 = 1 or 2 (upper valence).
ONE_TWO_TWO_TWO_REALIZERS = [
    ("(1, 2) edge", "(+1|(-2|))",
     [0.045 + 0.349j, 0.715 - 0.202j], -0.86,
     [-0.297 - 0.204j]),
    ("(1, 2) path -1,+1,-1", "(+1|(-1|),(-1|))",
     [-0.378 + 0.696j, 0.718 - 0.225j], -0.273,
     [-0.148 + 0.2j]),
    ("(2, 2) edge", "(+2|(-2|))",
     [0.449 + 0.625j, 0.317 + 0.792j], -2.837,
     [-0.378 - 0.22j, -0.501 + 0.131j]),
    ("(2, 2) path +1,-2,+1", "(+1|(-2|(+1|)))",
     [-0.495 + 0.415j, -0.358 + 0.61j], -0.417,
     [0.436 + 0.488j, -0.676 + 0.582j]),
    ("(2, 2) +2 star", "(+2|(-1|),(-1|))",
     [-0.778 - 0.261j, 0.692 + 0.211j], -0.038,
     [-0.653 + 0.197j, -0.317 - 0.66j]),
    ("(2, 2) 4-path", "(+1|(-1|(+1|(-1|))))",
     [-0.905, 0.462], math.pi / 2,
     [-0.462, 0.905]),
]


@pytest.mark.parametrize("v_plus,v_minus", [(1, 2), (2, 2)])
def test_valence_one_two_and_two_two_shapes_realized(v_plus, v_minus):
    """Every (1, 2) and (2, 2) shape is the valence tree of a pinned Helson
    pair, extracted at 256, 512 and 1024 without a retry and confirmed by
    direct root counting (the trees agree with their intervals across the
    resolutions: test_interval_trees_identical_across_resolutions).

    The pairs come from a census of random Helson pairs (random_helson with
    zeros up to radius 0.9), rounded to three decimals, except the (2, 2)
    4-path, which did not appear among 1200 such pairs (radius 0.9 and
    0.99) extracted at 256.  Its zeros lie on the real diameter at tanh(k)
    for k = -1.5, -0.5, 0.5, 1.5, B1 and B2 alternating, with u = B1/B2
    purely imaginary on the diameter, as for the (2, 3) 5-path.
    """
    expected = {e.code for e in enumerate_shapes(v_plus, v_minus)}
    realized = set()
    for name, code, z1, angle, z2 in ONE_TWO_TWO_TWO_REALIZERS:
        if (len(z2), len(z1)) != (v_plus, v_minus):
            continue
        assert code in expected, name
        for res in (256, 512, 1024):
            phi, ex = event_case(name, res)
            assert ex.resolution == res, name
            assert validate(ex.tree) == [], name
            assert canonical_code(ex.tree) == code, name
        assert crosscheck(phi, ex.tree, n_samples=200).ok, name
        realized.add(code)
    assert realized == expected


# ---------------------------------------------------------------------------
# arc ends at the boundary events


EVENT_CASES = {
    **{make.__name__: make for make in (upper_halfplane_map, lower_halfplane_map,
                                        double_slit, koebe, fourth_power_map,
                                        slit_squared, slit_three)},
    **{name: (lambda z1=z1, angle=angle, z2=z2: helson_pair(z1, angle, z2))
       for name, _, z1, angle, z2
       in TWO_THREE_REALIZERS + ONE_TWO_TWO_TWO_REALIZERS},
}


@functools.lru_cache(maxsize=None)
def event_case(name, res):
    """phi and its extraction from resolution res on, shared by the
    realizer tests and the end and resolution tests below."""
    phi = EVENT_CASES[name]()
    return phi, extract_full(phi, resolution=res, max_resolution=1024)


def traced_end_value(phi, end, z):
    """The value of an arc end measured at the traced end point z itself:
    Re phi on the circle there, or the sign of N conj(D) next to a pole."""
    if end.kind == "pole":
        positive = (phi.num(z) * phi.den(z).conjugate()).real > 0
        return math.inf if positive else -math.inf
    return phi.boundary_value(math.atan2(z.imag, z.real))


@pytest.mark.parametrize("name", sorted(EVENT_CASES))
def test_arc_ends_take_the_values_of_their_events(name):
    phi, ex = event_case(name, 256)
    events = phi.boundary_pieces.events
    zetas = np.exp(1j * np.array([t for t, _ in events]))
    for seg in ex.segments:
        for end, z, side in ((seg.lo, seg.points[0], -1), (seg.hi, seg.points[-1], 1)):
            if end.kind == "branch":
                assert end.event is None
                continue
            z = complex(z)
            assert end.event == int(np.argmin(np.abs(zetas - z)))
            _, value = events[end.event]
            if end.kind == "pole":
                assert value == math.inf and end.value == side * math.inf
            else:
                assert end.value == value
            ref = traced_end_value(phi, end, z)
            if math.isinf(ref):
                assert end.value == ref
            else:
                assert abs(end.value - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("name", sorted(EVENT_CASES))
def test_interval_trees_identical_across_resolutions(name):
    codes = {canonical_code(event_case(name, res)[1].tree, with_intervals=True)
             for res in (256, 512, 1024)}
    assert len(codes) == 1


def ring_radii(phi, res):
    """The seed rings: (centre, radius) round each event that sends arcs
    into the disk and round each branch point."""
    pieces = phi.boundary_pieces
    rings = [(cmath.exp(1j * t), max(math.sqrt(2.0) * rx.RING_DEPTH
                                     / (res * math.sin(math.pi / (arcs + 1))),
                                     2.0 * rx._noise_radius(phi, t, v, arcs + 1)))
             for (t, v), arcs in zip(pieces.events, pieces.arcs) if arcs]
    return rings + [(bp.z, rx.BP_RING * rx.BP_RADIUS)
                    for bp in find_branch_points(phi)]


def test_traces_start_on_the_rings_inside_the_disk(monkeypatch):
    seeds, starts = [], []
    newton = rx._newton_to_level
    trace = rx.trace_arc
    monkeypatch.setattr(rx, "_newton_to_level",
                        lambda coefs, z0: seeds.append(z0) or newton(coefs, z0))
    monkeypatch.setattr(rx, "trace_arc",
                        lambda *args, **kw: starts.append(args[3]) or trace(*args, **kw))
    n_seeds = 0
    for make in (double_slit, koebe, fourth_power_map, slit_squared, slit_three,
                 lambda: power_chain(6)):
        phi = make()
        for res in (256, 512):
            seeds.clear()
            starts.clear()
            trace_segments(phi, res)
            assert starts and all(abs(z) < 1.0 for z in seeds + starts)
            rings = ring_radii(phi, res)
            for z0 in seeds:
                assert min(abs(abs(z0 - c) - r) for c, r in rings) < 1e-12
            n_seeds += len(seeds)
    assert n_seeds > 0


def test_ring_samples_outside_the_disk_seed_nothing(monkeypatch):
    # power_chain(6)'s half rings at 256 reach past the circle, across
    # which Im phi changes sign: a pair of ring samples across it would
    # put a seed on the circle itself (at |z| = 1 - 6.5e-8), which traces
    # from its event back to it
    phi, res = power_chain(6), 256
    pieces = phi.boundary_pieces
    noise = [rx._noise_radius(phi, t, v, arcs + 1)
             for (t, v), arcs in zip(pieces.events, pieces.arcs)]
    rings = []
    ring_seeds = rx._ring_seeds
    monkeypatch.setattr(rx, "_ring_seeds", lambda phi, center, step, angles: (
        rings.append(center + step * np.exp(1j * angles))
        or ring_seeds(phi, center, step, angles)))
    seeds = rx._seeds(phi, pieces, find_branch_points(phi), res, noise)
    assert any(abs(z) > 1.0 for z in np.concatenate(rings))
    assert seeds and all(abs(z) < 1.0 - 1e-3 for z in seeds)
    monkeypatch.undo()
    assert len(trace_segments(phi, res)) == 5
    assert extract_full(phi, res, max_resolution=res).resolution == res


def test_ring_seeds_are_where_im_phi_changes_sign():
    angles = math.pi * (np.arange(32) + 0.5) / 32
    # double_slit's level set is the imaginary diameter, which leaves the
    # event i along the normal, half way round the half ring
    (z,) = rx._ring_seeds(double_slit(), 1j, -0.05, angles)
    assert abs(z - 0.95j) < 1e-6
    # Im phi > 0 throughout the disk: no seed
    assert rx._ring_seeds(upper_halfplane_map(), -1.0, -0.05j, angles) == []
    # the diagonals cross at slit_squared's branch point 0
    full = 2.0 * math.pi * (np.arange(65) + 0.5) / 64
    got = rx._ring_seeds(slit_squared(), 0.0, 0.01, full)
    want = 0.01 * np.exp(1j * math.pi * (np.arange(4) + 0.5) / 2)
    assert np.allclose(sorted(got, key=cmath.phase),
                       sorted(want, key=cmath.phase), atol=1e-8)


def multiplicity_at(poly, z):
    """Multiplicity of the root cluster of poly nearest z (0 if none is
    within 1e-3)."""
    clusters = find_roots(poly).clusters()
    root, mult = min(clusters, key=lambda rm: abs(rm[0] - z))
    return mult if abs(root - z) < 1e-3 else 0


@pytest.mark.parametrize("name", sorted(EVENT_CASES))
def test_arc_ends_match_the_local_form(name):
    # m arcs leave an m-fold circle critical point, m - 1 an m-fold circle
    # pole, and 2 (m + 1) arc ends meet at an m-fold branch point, with m
    # read off the roots of W and D here
    phi, ex = event_case(name, 256)
    ends = [v for seg in ex.segments for v in (seg.lo, seg.hi)]
    w = phi.w_poly
    for k, (t, value) in enumerate(phi.boundary_pieces.events):
        z = cmath.exp(1j * t)
        want = (multiplicity_at(phi.den, z) - 1 if math.isinf(value)
                else multiplicity_at(w, z))
        assert sum(1 for e in ends if e.kind != "branch" and e.event == k) == want
    for bp in ex.branch_points:
        want = 2 * (multiplicity_at(w, bp.z) + 1)
        assert sum(1 for e in ends if e.kind == "branch" and e.branch == bp.index) == want


@pytest.mark.parametrize("name", ["koebe", "fourth_power_map", "slit_squared",
                                  "slit_three", "5-path"])
def test_a_dropped_seed_raises_a_typed_error(name, monkeypatch):
    phi = EVENT_CASES[name]()
    arcs = trace_segments(phi, 256)
    newton = rx._newton_to_level
    for arc in arcs:
        # every seed that lands on this arc is dropped
        monkeypatch.setattr(
            rx, "_newton_to_level",
            lambda coefs, z0, arc=arc: (
                None if (z := newton(coefs, z0)) is not None
                and rx._distance(arc.points, z) < 1e-4 else z))
        with pytest.raises(ExtractionMismatch, match="traced arc ends"):
            trace_segments(phi, 256)
        with pytest.raises(ExtractionError):
            extract_full(phi, resolution=256, max_resolution=512)


def test_six_fold_chain_extracts_where_its_ring_would_lie_in_the_noise():
    # at 4096 the ring radius from the resolution, 2.1e-3, lies inside the
    # rounding noise round power_chain(6)'s 6-fold zero at -1 (6.6e-3), so
    # the ring is widened to twice the noise radius
    phi = power_chain(6)
    pieces = phi.boundary_pieces
    (t, v), arcs = pieces.events[1], pieces.arcs[1]
    assert (v, arcs) == (pytest.approx(0.0), 5)
    assert rx._noise_radius(phi, t, v, arcs + 1) > math.sqrt(2.0) * rx.RING_DEPTH / (
        4096 * math.sin(math.pi / (arcs + 1)))
    ex = extract_full(phi, 4096, max_resolution=4096)
    assert ex.resolution == 4096
    assert canonical_code(ex.tree) == canonical_code(extract_full(phi, 256).tree)
    assert len(ex.tree.nodes) == 6


def test_an_arc_with_both_ends_at_one_event_is_a_mismatch(monkeypatch):
    monkeypatch.setattr(rx, "_make_end", lambda *args: End("circle", args[-1], event=0))
    with pytest.raises(ExtractionMismatch, match=r"from \('event', 0\) to \('event', 0\)"):
        trace_segments(koebe(), 256)


def test_an_invalid_assembled_tree_is_a_mismatch(monkeypatch):
    # two upper nodes joined by an edge break sign alternation; the
    # violation reaches the message as validate words it
    bad = Tree([Node("a", 1, 1), Node("b", 1, 1)], [("a", "b", Interval(-1.0, 1.0))])
    violations = validate(bad)
    assert violations
    monkeypatch.setattr(rx, "_assemble", lambda *args: (bad, [], {}))
    with pytest.raises(ExtractionMismatch) as exc:
        rx._attempt(koebe(), 256, 0)
    assert str(exc.value) == "assembled tree is invalid: " + "; ".join(
        str(v) for v in violations)


@pytest.mark.parametrize("status, error", [(rx.TRACE_STALLED, TraceStalled),
                                           (rx.TRACE_MAX_STEPS, TraceStalled),
                                           (rx.TRACE_NON_MONOTONE, NonMonotone)])
def test_a_walk_that_fails_short_of_a_simple_event_raises(status, error, monkeypatch):
    # double_slit's arc runs from its critical point -i to i between simple
    # poles at 1 and -1; a walk that fails 0.01 short of i is not in any
    # event's rounding noise
    trace = rx.trace_arc

    def failing(*args, **kw):
        pts, _, bp_hit = trace(*args, **kw)
        return pts[np.abs(pts) < 0.99], status, bp_hit

    monkeypatch.setattr(rx, "trace_arc", failing)
    with pytest.raises(error):
        trace_segments(double_slit(), 256)


def test_branch_points_of_a_degree_three_precomposition():
    phi = slit_three()
    codes = set()
    for res in (256, 512, 1024):
        _, ex = event_case("slit_three", res)
        assert ex.resolution == res
        codes.add(canonical_code(ex.tree, with_intervals=True))
    assert len(codes) == 1
    assert len(ex.branch_points) == 2
    # one arc runs between the two branch points, seeded from their rings
    assert sum(1 for s in ex.segments
               if s.lo.kind == s.hi.kind == "branch") == 1
    assert crosscheck(phi, ex.tree, n_samples=200).ok


def slit_cubed():
    """double_slit composed with z^3: a 2-fold branch point at 0, where
    six arc ends meet."""
    return precompose_inner(double_slit(), Blaschke([0, 0, 0]))


def census_draws(n):
    rng = np.random.default_rng(101)
    return [random_helson(rng, 3, 2, rmax=0.999, max_tries=20000) for _ in range(n)]


# each a list of functions
BRANCH_DISK_CASES = {
    **{make.__name__: (lambda make=make: [make()])
       for make in (upper_halfplane_map, lower_halfplane_map, double_slit, koebe,
                    fourth_power_map, slit_cubed, slit_three)},
    "census": lambda: census_draws(30),
}


@pytest.mark.parametrize("name", sorted(BRANCH_DISK_CASES))
def test_no_traced_arc_passes_through_a_branch_point_disk(name):
    # a step across a branch point's BP_RADIUS disk would carry its walk on
    # through the branch point.  Walks from slit_cubed's ring of radius
    # 2 BP_RADIUS run straight at its branch point 0.
    for phi in BRANCH_DISK_CASES[name]():
        bps = find_branch_points(phi)
        for res in (256, 512):
            for arc in trace_segments(phi, res):
                for bp in bps:
                    pts = arc.points
                    # the last step of an arc that ends at bp enters its disk
                    if arc.lo.kind == "branch" and arc.lo.branch == bp.index:
                        pts = pts[1:]
                    if arc.hi.kind == "branch" and arc.hi.branch == bp.index:
                        pts = pts[:-1]
                    assert rx._distance(pts, bp.z) >= rx.BP_RADIUS


@pytest.mark.parametrize("res", [256, 512])
def test_walks_toward_a_multiple_zero_stop_at_its_noise_disk(res, monkeypatch):
    # fourth_power_map's 4-fold zero at -1 sends 3 arcs into the disk, and
    # within _noise_radius of it (3.5e-4) N is rounding noise.  Each walk
    # toward it ends at its first point inside that disk, not crawling on
    # through the noise.
    phi = fourth_power_map()
    pieces = phi.boundary_pieces
    (k,) = [k for k, (t, _) in enumerate(pieces.events)
            if abs(cmath.exp(1j * t) + 1) < 1e-9]
    (t, v), arcs = pieces.events[k], pieces.arcs[k]
    radius = rx._noise_radius(phi, t, v, arcs + 1)
    walks = []
    trace = rx.trace_arc
    monkeypatch.setattr(rx, "trace_arc",
                        lambda *args, **kw: walks.append(trace(*args, **kw)) or walks[-1])
    trace_segments(phi, res)
    ends = [(pts, status) for pts, status, _ in walks if abs(pts[-1] + 1) < 0.01]
    assert len(ends) == arcs == 3
    for pts, status in ends:
        assert status == TRACE_HIT_CIRCLE
        assert abs(pts[-1] + 1) < radius
        assert np.all(np.abs(pts[:-1] + 1) >= radius)
        assert len(pts) <= 30


# A (3, 3) Helson pair (zeros up to radius 0.95) on which a traced arc ends
# at a circle point where Im phi is about 2e-8, beyond boundary_value's
# tolerance.  The BoundaryNotReal that raised used to escape extract_full.
BOUNDARY_NOT_REAL_PAIR = (
    [-0.3843697303658148 - 0.5420972852192687j,
     0.10903241198590101 + 0.8949722201624828j,
     -0.5263017535828629 - 0.1692762644307573j],
    0.9364227209162194 + 0.3508738915221029j,
    [-0.8522408585237731 + 0.23826020036251994j,
     0.7696701213193031 + 0.2516128781569439j,
     0.8361674839041603 + 0.3802936651643403j],
    -0.12576145892229024 - 0.9920605099739316j,
)
BOUNDARY_NOT_REAL_SEED = 1994830132


def test_boundary_not_real_at_arc_end_is_typed(tmp_path, capsys):
    """Extraction returns a right tree or raises an ExtractionError, and
    the CLI reports a numerical failure rather than a traceback."""
    z1, c1, z2, c2 = BOUNDARY_NOT_REAL_PAIR
    b1, b2 = Blaschke(z1, c1), Blaschke(z2, c2)
    phi = from_blaschke(b1, b2)
    try:
        ex = extract_full(phi, resolution=256, max_resolution=1024,
                          seed=BOUNDARY_NOT_REAL_SEED)
    except ExtractionError:
        pass
    else:
        assert crosscheck(phi, ex.tree, n_samples=200).ok

    inp = tmp_path / "pair.json"
    inp.write_text(json.dumps({"b1": b1.to_json(), "b2": b2.to_json()}))
    code = main(["analyze", str(inp), "--resolution", "256",
                 "--seed", str(BOUNDARY_NOT_REAL_SEED)])
    assert code in (EXIT_OK, EXIT_NUMERICAL)


def test_boundary_value_near_a_circle_pole_extracts(tmp_path):
    """The arc end of the pair above is 0.009 from a circle pole, where
    phi = 29877.1 - 2.26e-8 i: rounding noise, 8e-13 relative to |phi|.
    A tolerance relative to |phi| accepts it, so the pair extracts at the
    first resolution and the CLI exits 0."""
    z1, c1, z2, c2 = BOUNDARY_NOT_REAL_PAIR
    b1, b2 = Blaschke(z1, c1), Blaschke(z2, c2)
    phi = from_blaschke(b1, b2)
    ex = extract_full(phi, resolution=256, max_resolution=1024,
                      seed=BOUNDARY_NOT_REAL_SEED)
    assert ex.resolution == 256
    assert canonical_code(ex.tree) == "(+1|(-3|(+2|)))"
    assert crosscheck(phi, ex.tree, n_samples=200).ok

    inp = tmp_path / "pair.json"
    inp.write_text(json.dumps({"b1": b1.to_json(), "b2": b2.to_json()}))
    code = main(["analyze", str(inp), "--resolution", "256",
                 "--seed", str(BOUNDARY_NOT_REAL_SEED)])
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# rendering


def test_render_svg_smoke(ex_slit_squared):
    svg = render_svg(ex_slit_squared)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<polyline" in svg
    assert "p1:2" in svg
    assert svg.count("<polygon") == len(ex_slit_squared.regions)


SVG_NS = "{http://www.w3.org/2000/svg}"
FIXTURE_NAMES = sorted(all_fixtures())
# every event case as the realizer tests extract it, and the five fixtures
# at analyze's default resolution
RENDER_CASES = ([(name, 256) for name in sorted(EVENT_CASES)]
                + [(name, 512) for name in FIXTURE_NAMES])


def test_render_svg_builds_no_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("render_svg built a grid")

    extractions = [event_case(name, res)[1] for name, res in RENDER_CASES]
    monkeypatch.setattr(rx, "partition", no_grid)
    monkeypatch.setattr(rx, "classify_grid", no_grid)
    for ex in extractions:
        render_svg(ex)


@pytest.mark.parametrize("name,res", RENDER_CASES,
                         ids=[f"{name}-{res}" for name, res in RENDER_CASES])
def test_render_svg_fills_each_region_as_its_boundary_polygon(name, res):
    _, ex = event_case(name, res)
    root = ElementTree.fromstring(render_svg(ex))
    polygons = root.findall(SVG_NS + "polygon")
    regions = [ex.regions[rid] for rid in sorted(ex.regions)]
    assert [p.get("fill") for p in polygons] == [rx._SVG_COLORS[r.sign]
                                                 for r in regions]
    scale = rx.SVG_SIZE / 2.0
    for polygon, region in zip(polygons, regions):
        xy = np.array([pt.split(",") for pt in polygon.get("points").split()],
                      dtype=float)
        drawn = xy[:, 0] / scale - 1.0 + 1j * (1.0 - xy[:, 1] / scale)
        assert len(drawn) == len(region.boundary)
        assert np.abs(drawn - region.boundary).max() < 0.01 / scale
    fills = {e.get("fill") for e in root.iter()}
    assert "#e8e8e8" not in fills
    (rect,) = root.findall(SVG_NS + "rect")
    assert rect.get("fill") == "white"


SVG_LABEL = re.compile(r'<text x="([-\d.]+)" y="([-\d.]+)"[^>]*>(\w+):\d+</text>')


@pytest.mark.parametrize("name", sorted(EVENT_CASES))
def test_render_svg_labels_each_collection_in_its_largest_region(name):
    phi, ex = event_case(name, 256)
    scale = rx.SVG_SIZE / 2.0
    labels = {m[3]: complex(float(m[1]) / scale - 1.0, 1.0 - float(m[2]) / scale)
              for m in SVG_LABEL.finditer(render_svg(ex))}
    assert set(labels) == {c.id for c in ex.collections}
    for coll in ex.collections:
        z = labels[coll.id]
        biggest = max(coll.members, key=lambda rid: ex.regions[rid].area)
        inside = [r.id for r in ex.regions.values() if winding(r.boundary, z)]
        assert inside == [biggest], (coll.id, z)
        assert np.sign(phi.eval(z).imag) == coll.sign

"""Acceptance gate: the package's release checklist as ten numbered checks.

Each test is one criterion and shows up as a single pass/fail line under
``pytest -v``.  The checks exercise the public API the way a user would —
enumeration counts, profile arithmetic, valences by direct root counting,
extraction against independent oracles, the two degree laws, integral
means, boundary realness, the tree validator, and the synthesis round
trip — with the tolerances and runtime budgets the package commits to.
"""

import json
import math
import time

import numpy as np
import pytest

from rsmirnov import blaschke_smirnov
from rsmirnov.blaschke_smirnov import (
    halfplane_valences,
    integral_means,
    precompose_inner,
    random_blaschke,
    random_helson,
    valence_at,
)
from rsmirnov.cli import main
from rsmirnov.fixtures import (
    all_fixtures,
    double_slit,
    fourth_power_map,
    koebe,
    lower_halfplane_map,
    upper_halfplane_map,
)
from rsmirnov.region_extraction import crosscheck, extract_full, extract_tree
from rsmirnov.synthesis import (
    SynthesisProblem,
    catalog_realize,
    endpoint_error,
    synthesize_search,
)
from rsmirnov.valence_tree import (
    Interval,
    Node,
    Tree,
    enumerate_shapes,
    is_isomorphic,
    profile,
    validate,
)

INF = math.inf


def reference_tree():
    """Two-level welded example: valences (3, 9), one shared interval."""
    return Tree(
        [Node("p1", 1, 2), Node("m1", -1, 5), Node("m2", -1, 2),
         Node("p2", 1, 1), Node("m3", -1, 1), Node("m4", -1, 1)],
        [("p1", "m1", Interval(0, 1)), ("p1", "m2", Interval(-3, 5)),
         ("m2", "p2", Interval(-3, 5)), ("p2", "m3", Interval(7, 8)),
         ("p2", "m4", Interval(9, 10))],
    )


def node_tree(sign, m):
    return Tree([Node("p1" if sign > 0 else "m1", sign, m)], [])


def edge_tree(lo, hi):
    return Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1)], [("p1", "m1", Interval(lo, hi))]
    )


def chain4():
    below, above = Interval(-INF, 0.0), Interval(0.0, INF)
    return Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1), Node("m2", -1, 1)],
        [("p1", "m1", below), ("m1", "p2", above), ("p2", "m2", below)],
    )


def _real_count_is(phi, regions, rng, n=200, delta=1e-3):
    """Direct root counting at n random real points inside each region."""
    for lo, hi, want in regions:
        a = max(lo, -10.0) + delta
        b = min(hi, 10.0) - delta
        for x in rng.uniform(a, b, n):
            got = valence_at(phi, float(x))
            assert got == want, "valence %d != %d at x=%r" % (got, want, x)


def _valence_jump(phi, lo, hi, tol=1e-6):
    """Bisect for the real point where the root count changes."""
    v_lo = valence_at(phi, lo)
    v_hi = valence_at(phi, hi)
    assert v_lo != v_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v = valence_at(phi, mid)
        if v == v_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_enumeration_counts():
    t0 = time.monotonic()
    counts = [len(enumerate_shapes(vp, vm)) for vp, vm in [(1, 1), (2, 1), (2, 3)]]
    assert time.monotonic() - t0 < 5.0
    # (2, 3) by partitions, upper | lower: (2)|(3), (2)|(2,1), (2)|(1,1,1)
    # and (1,1)|(3) give one alternating tree each; (1,1)|(2,1) two 4-paths
    # (-2 node inside or at the end); (1,1)|(1,1,1) the 5-path and the
    # spider: 1+1+1+1+2+2 = 8.  Confirmed by the labelled-tree oracle
    # (test_valence_tree.py::test_shape_counts_match_oracle) and realized
    # by pinned Helson pairs in
    # test_region_extraction.py::test_valence_two_three_shapes_realized.
    assert counts == [1, 2, 8]


def test_criterion_02_reference_tree_profile():
    prof = profile(reference_tree())
    assert (prof.v_plus, prof.v_minus) == (3, 9)
    assert list(prof.pieces()) == [
        (-INF, -3.0, 0), (-3.0, 0.0, 2), (0.0, 1.0, 3), (1.0, 5.0, 2),
        (5.0, 7.0, 0), (7.0, 8.0, 1), (8.0, 9.0, 0), (9.0, 10.0, 1),
        (10.0, INF, 0),
    ]
    # closed endpoints: the multiplicity-2 stretches include x = 0 and
    # x = 1, where only the two copies of (-3, 5) pass through
    edges = reference_tree().edges
    for x, want in [(-3.0, 0), (0.0, 2), (1.0, 2), (5.0, 0)]:
        assert sum(1 for _, _, iv in edges if iv.lo < x < iv.hi) == want


def test_criterion_03_fixture_valences_by_root_counting():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    assert halfplane_valences(upper_halfplane_map()) == (1, 0)
    assert halfplane_valences(lower_halfplane_map()) == (0, 1)

    f4 = fourth_power_map()
    assert halfplane_valences(f4) == (2, 2)
    _real_count_is(f4, [(-INF, 0.0, 2), (0.0, INF, 1)], rng)
    assert abs(_valence_jump(f4, -1.0, 1.0)) < 1e-3

    k = koebe()
    assert halfplane_valences(k) == (1, 1)
    _real_count_is(k, [(-INF, -0.25, 0), (-0.25, INF, 1)], rng)
    assert abs(_valence_jump(k, -1.0, 0.0) - (-0.25)) < 1e-3

    ds = double_slit()
    assert halfplane_valences(ds) == (1, 1)
    _real_count_is(ds, [(-INF, -0.5, 0), (-0.5, 0.5, 1), (0.5, INF, 0)], rng)
    assert abs(_valence_jump(ds, -1.0, 0.0) - (-0.5)) < 1e-3
    assert abs(_valence_jump(ds, 0.0, 1.0) - 0.5) < 1e-3
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_extraction_matches_direct_root_counts():
    rng = np.random.default_rng(404)
    funcs = list(all_fixtures().values())
    for d1, d2 in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        funcs.append(random_helson(rng, d1, d2, max_tries=2000))
    for phi in funcs:
        t512 = extract_tree(phi, 512)
        report = crosscheck(phi, t512, n_samples=200, seed=1, delta=1e-3)
        assert report.ok, report.mismatches
        t1024 = extract_tree(phi, 1024)
        assert is_isomorphic(t512, t1024, mode="shape")
        assert endpoint_error(t512, t1024) < 1e-3


def test_criterion_05_blaschke_pair_degree_law():
    rng = np.random.default_rng(5)
    ladder = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (0, 3), (3, 0),
              (1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (0, 4), (4, 0), (1, 4),
              (4, 1), (2, 4), (4, 2), (4, 4)]
    for d1, d2 in ladder:
        phi = random_helson(rng, d1, d2, rmax=0.95, max_tries=20000)
        for _ in range(50):
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.5))
            assert valence_at(phi, lam) == d2
            assert valence_at(phi, lam.conjugate()) == d1


def test_criterion_06_precomposition_multiplies_valence():
    rng = np.random.default_rng(42)
    done = 0
    while done < 10:
        d1, d2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        if d1 + d2 == 0:
            d2 = 1
        phi = random_helson(rng, d1, d2, rmax=0.95, max_tries=20000)
        c = random_blaschke(rng, int(rng.integers(1, 4)))
        psi = precompose_inner(phi, c)
        for _ in range(50):
            lam = complex(rng.uniform(-2, 2),
                          rng.uniform(0.1, 2) * rng.choice([-1.0, 1.0]))
            assert valence_at(psi, lam) == len(c.zeros) * valence_at(phi, lam)
        done += 1


def test_criterion_07_integral_means_split_at_the_valence_exponent():
    t0 = time.monotonic()
    k = koebe()
    bounded = integral_means(k, 0.25, 0.9999) / integral_means(k, 0.25, 0.99)
    divergent = integral_means(k, 0.75, 0.9999) / integral_means(k, 0.75, 0.99)
    assert bounded < 3.0
    assert divergent > 10.0
    assert time.monotonic() - t0 < 10.0


def test_criterion_08_boundary_values_are_real(monkeypatch):
    # a finer sampling, closer to the poles, than the constructors check
    monkeypatch.setattr(blaschke_smirnov, "BOUNDARY_SAMPLES", 10_000)
    monkeypatch.setattr(blaschke_smirnov, "POLE_GAP", 1e-4)
    for phi in all_fixtures().values():
        ts, ims = phi.boundary_im_samples()
        assert ims.size > 9_000
        assert float(ims.max()) < 1e-8


def test_criterion_09_validator_verdicts(tmp_path):
    assert validate(reference_tree()) == []

    full_line = edge_tree(-INF, INF)
    kinds = [v.kind for v in validate(full_line)]
    assert "no-free-interval" in kinds

    infeasible = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 2)],
        [("p1", "m1", Interval(-INF, 0.0))] * 3,
    )
    target = tmp_path / "target.json"
    target.write_text(json.dumps(infeasible.to_json()), encoding="utf-8")
    assert main(["synthesize", str(target)]) == 3


def test_criterion_10_synthesis_round_trip():
    t0 = time.monotonic()
    targets = [node_tree(s, m) for s in (1, -1) for m in (1, 2, 3)]
    targets += [edge_tree(-1.0, 1.0), edge_tree(0.0, INF), edge_tree(-INF, 0.0)]
    targets.append(chain4())
    for target in targets:
        res = catalog_realize(target)
        assert res.status == "exact"
        recovered = extract_full(res.candidate).tree
        assert endpoint_error(recovered, target) < 1e-6

    search_target = Tree(
        [Node("p1", 1, 2), Node("m1", -1, 1)],
        [("p1", "m1", Interval(-1.0, 1.0))],
    )
    res = synthesize_search(SynthesisProblem(search_target, budget=100_000, seed=0))
    assert res.loss < 1e-2
    assert res.evaluations <= 100_000
    assert time.monotonic() - t0 < 600.0

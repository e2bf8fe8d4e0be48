"""Region valences from the boundary degree of phi against root placement.

region_valence sums, per region, the turn of arctan phi along the traced
arcs and the monotone circle pieces of its boundary.  The reference here is
the independent count it replaced: draw lambda in the region's half plane,
find the roots of N - lambda D and count those whose grid cell lies in the
region.  That count is only trusted when no root lies near the circle or
in a cell of the wrong class, so it yields no count for some regions; the
two must agree wherever it does.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from rsmirnov.blaschke_smirnov import Blaschke, from_blaschke, random_helson
from rsmirnov.complex_poly import find_roots
from rsmirnov.region_extraction import (
    ExtractionError,
    crosscheck,
    extract_full,
    partition,
    region_valence,
    trace_segments,
)


def root_placement_valence(phi, gp, region_id, k_samples=4, max_tries=48):
    """Roots of phi = lambda placed in the region's grid cells, agreeing over
    k_samples clean draws of lambda; None when the draws give no count."""
    sign = gp.regions[region_id].sign
    rng = np.random.default_rng((0, region_id))
    rim = 5.0 / gp.resolution
    counts = set()
    clean = 0
    for _ in range(max_tries):
        if clean == k_samples:
            break
        lam = complex(rng.uniform(-2.5, 2.5), sign * rng.uniform(0.3, 2.5))
        rep = find_roots(phi.num - phi.den * lam)
        count = 0
        for root, mult in zip(rep.roots, rep.multiplicities):
            if abs(abs(root) - 1.0) < rim:
                break
            if abs(root) > 1.0:
                continue
            if gp.class_at(root) != sign:
                break
            if gp.label_at(root) == region_id:
                count += int(mult)
        else:
            clean += 1
            counts.add(count)
    return counts.pop() if clean == k_samples and len(counts) == 1 else None


@given(
    seed=st.integers(0, 10 ** 6),
    deg1=st.integers(1, 4),
    deg2=st.integers(1, 3),
    rmax=st.sampled_from([0.9, 0.999]),
)
@settings(max_examples=20, deadline=None)
def test_boundary_valences_agree_with_root_placement(seed, deg1, deg2, rmax):
    phi = random_helson(np.random.default_rng(seed), deg1, deg2, rmax=rmax,
                        max_tries=20000)
    try:
        gp = partition(phi, 256)
        valences = region_valence(phi, gp, trace_segments(phi, gp))
    except ExtractionError:
        valences = None
    assume(valences is not None)
    for rid, valence in valences.items():
        want = root_placement_valence(phi, gp, rid)
        assert want is None or valence == want, (rid, valence, want)


def census_pair(index):
    """Draw ``index`` (from 0) of the (3, 2) census at rmax 0.999."""
    rng = np.random.default_rng(101)
    for _ in range(index):
        random_helson(rng, 3, 2, rmax=0.999, max_tries=20000)
    return random_helson(rng, 3, 2, rmax=0.999, max_tries=20000)


def assert_extracts(phi):
    ex = extract_full(phi, resolution=256, max_resolution=1024)
    assert crosscheck(phi, ex.tree, n_samples=200, seed=1).ok
    return ex


# pairs whose regions root placement could not count: a root of every draw
# landed within the rim band or in a cell of the wrong class
def test_census_pair_28_extracts():
    assert_extracts(census_pair(28))


def test_census_pair_44_extracts():
    assert_extracts(census_pair(44))


def test_census_pair_45_extracts():
    assert_extracts(census_pair(45))


def test_five_path_with_zeros_near_the_circle_extracts():
    t3, t1 = math.tanh(3.0), math.tanh(1.0)
    phi = from_blaschke(Blaschke([-t3, 0.0, t3], 1j), Blaschke([-t1, t1]))
    ex = assert_extracts(phi)
    assert sorted(ex.region_valences.values()) == [1] * 5

"""Tests for seed functions, catalog realization, loss, search, and checks.

The seed functions have closed forms, so they are checked by direct value
comparison against their defining formulas on a grid of interior points.
Catalog results are confirmed independently by running the extraction
pipeline on the returned candidate and comparing the recovered tree with
the request.  The loss has hand-computable cases: after x -> arctan x the
interval integral between the rays (0,inf) and (1,inf) is exactly pi/4,
and a pure sign flip costs exactly the structural penalty.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmirnov.blaschke_smirnov import (
    Blaschke,
    RealSmirnov,
    _helson_quotient,
    real_affine,
)
from rsmirnov.complex_poly import Poly
from rsmirnov.fixtures import double_slit, power_chain
from rsmirnov import region_extraction, synthesis
from rsmirnov.region_extraction import crosscheck
from rsmirnov.synthesis import (
    CATALOG_TOL,
    SHAPE_PENALTY,
    BudgetExhausted,
    InfeasibleTarget,
    NotInCatalog,
    SynthesisProblem,
    SynthesisResult,
    catalog_realize,
    endpoint_error,
    halfplane_node,
    koebe,
    minimize,
    synthesize_search,
    tree_loss,
    verify,
)
from rsmirnov.valence_tree import (
    Interval,
    Node,
    Tree,
    is_isomorphic,
    profile,
    validate,
)

INF = math.inf

# interior sample points away from the unit circle and from 0
RING = np.array(
    [r * np.exp(1j * t) for r in (0.3, 0.7) for t in np.linspace(0.1, 6.2, 17)]
)


def node_tree(sign, m):
    return Tree([Node("p1" if sign > 0 else "m1", sign, m)], [])


def edge_tree(lo, hi):
    return Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1)], [("p1", "m1", Interval(lo, hi))]
    )


def chain4(c=0.0, first="below"):
    """Alternating four-node path with all breakpoints at c."""
    below, above = Interval(-INF, c), Interval(c, INF)
    ivs = [below, above, below] if first == "below" else [above, below, above]
    return Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1), Node("m2", -1, 1)],
        [("p1", "m1", ivs[0]), ("m1", "p2", ivs[1]), ("p2", "m2", ivs[2])],
    )


def chain6(c=0.0, first="below"):
    """Alternating six-node path with all breakpoints at c."""
    below, above = Interval(-INF, c), Interval(c, INF)
    ivs = [below, above] * 3 if first == "below" else [above, below] * 3
    names = ["p1", "m1", "p2", "m2", "p3", "m3"]
    return Tree([Node(n, 1 if n[0] == "p" else -1, 1) for n in names],
                [(a, b, iv) for a, b, iv in zip(names, names[1:], ivs)])


def two_one_edge():
    """Valence-2 upper node joined to a valence-1 lower node over (-1, 1)."""
    return Tree(
        [Node("p1", 1, 2), Node("m1", -1, 1)], [("p1", "m1", Interval(-1.0, 1.0))]
    )


def parallel_triple():
    """Demands the bounded component below the slit be covered three times;
    both half-plane valences would have to be >= 3, but they are 1 and 2."""
    return Tree(
        [Node("p1", 1, 1), Node("m1", -1, 2)],
        [("p1", "m1", Interval(-INF, 0.0))] * 3,
    )


# ---------------------------------------------------------------------------
# seed functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_halfplane_node_matches_formula(m):
    up = halfplane_node(1, m).eval(RING)
    down = halfplane_node(-1, m).eval(RING)
    w = RING**m
    np.testing.assert_allclose(up, 1j * (1 + w) / (1 - w), atol=1e-12)
    np.testing.assert_allclose(down, 1j * (w + 1) / (w - 1), atol=1e-12)


def test_double_slit_matches_formula():
    phi = double_slit()
    np.testing.assert_allclose(
        phi.eval(RING), 1j * RING / (1 - RING**2), atol=1e-12
    )


def test_koebe_matches_formula():
    np.testing.assert_allclose(
        koebe().eval(RING), RING / (1 - RING) ** 2, atol=1e-12
    )


@pytest.mark.parametrize("n", [2, 4, 6])
def test_power_chain_matches_formula(n):
    np.testing.assert_allclose(
        power_chain(n).eval(RING), ((1 + RING) / (1 - RING)) ** n, rtol=1e-12
    )


def test_seed_argument_errors():
    with pytest.raises(ValueError):
        power_chain(3)
    with pytest.raises(ValueError):
        power_chain(0)
    with pytest.raises(ValueError):
        halfplane_node(1, 0)


# ---------------------------------------------------------------------------
# catalog realization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sign,m", [(1, 1), (1, 3), (-1, 2)])
def test_catalog_single_nodes_exact(sign, m):
    target = node_tree(sign, m)
    res = catalog_realize(target)
    assert res.status == "exact"
    assert res.loss == pytest.approx(0.0, abs=1e-12)
    assert res.entry.name == "halfplane-node"
    assert res.entry.params == {"sign": sign, "m": m}
    assert is_isomorphic(res.tree, target, mode="full")


def test_catalog_builds_no_single_node_above_its_valence_limit(monkeypatch):
    # confirming halfplane_node(1, 384) had not finished after 10 minutes,
    # and a valence of 1e300 overflowed building its list of zeros
    monkeypatch.setattr(synthesis, "halfplane_node",
                        lambda sign, m: pytest.fail("built a node of valence %d" % m))
    for m in (257, 10 ** 6, 10 ** 300):
        with pytest.raises(NotInCatalog, match="above the catalog's limit of 256"):
            catalog_realize(node_tree(1, m))
    monkeypatch.setattr(synthesis, "halfplane_node", lambda sign, m: (sign, m))
    entry, built = synthesis._match_catalog(node_tree(-1, 256))
    assert entry.params == {"sign": -1, "m": 256} and built == (-1, 256)


def test_catalog_bounded_edge_scales_double_slit():
    res = catalog_realize(edge_tree(-1.0, 1.0))
    assert res.status == "exact"
    assert res.entry.name == "double-slit-edge"
    np.testing.assert_allclose(
        res.candidate.eval(RING), 2.0 * double_slit().eval(RING), atol=1e-12
    )


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (2.0, 5.0), (-100.0, 7.0)])
def test_catalog_bounded_edge_extracts_the_target_interval(lo, hi):
    # iz/(1 - z^2) has exact coefficients, so no rounding in the seed moves
    # the extracted breakpoints off the target's
    res = catalog_realize(edge_tree(lo, hi))
    assert res.status == "exact" and res.loss == 0.0
    ((_, _, iv),) = res.tree.edges
    assert (iv.lo, iv.hi) == (lo, hi)


def test_catalog_rays_shift_koebe():
    up = catalog_realize(edge_tree(0.0, INF))
    down = catalog_realize(edge_tree(-INF, 0.0))
    assert up.status == "exact" and down.status == "exact"
    assert up.entry.name == down.entry.name == "koebe-ray"
    base = koebe().eval(RING)
    np.testing.assert_allclose(up.candidate.eval(RING), base + 0.25, atol=1e-12)
    np.testing.assert_allclose(down.candidate.eval(RING), -(base + 0.25), atol=1e-12)


def test_catalog_chains_exact_in_both_flavors():
    base = power_chain(4).eval(RING)

    natural = catalog_realize(chain4(first="below"))
    assert natural.status == "exact"
    assert natural.entry.params == {"n": 4, "shift": 0.0, "sign": 1}
    np.testing.assert_allclose(natural.candidate.eval(RING), base, atol=1e-12)

    flipped = catalog_realize(chain4(first="above"))
    assert flipped.status == "exact"
    assert flipped.entry.params == {"n": 4, "shift": 0.0, "sign": -1}
    np.testing.assert_allclose(flipped.candidate.eval(RING), -base, atol=1e-12)

    shifted = catalog_realize(chain4(c=2.0, first="below"))
    assert shifted.status == "exact"
    assert shifted.entry.params == {"n": 4, "shift": 2.0, "sign": 1}
    np.testing.assert_allclose(shifted.candidate.eval(RING), base + 2.0, atol=1e-12)


def test_catalog_six_node_chains_verify():
    # the chain of six nodes has its end edges above c (6 = 2 mod 4), so a
    # chain whose end edges lie below c is the negated power map
    base = power_chain(6).eval(RING)
    for c, first, sign in ((0.0, "below", -1), (0.0, "above", 1), (2.0, "below", -1)):
        res = catalog_realize(chain6(c, first))
        assert res.status == "exact"
        assert res.entry.params == {"n": 6, "shift": c, "sign": sign}
        np.testing.assert_allclose(res.candidate.eval(RING), sign * base + c,
                                   atol=1e-12)
        assert verify(res).ok


def test_catalog_reflection_of_bounded_edges():
    right = catalog_realize(edge_tree(0.2, 0.8))
    left = catalog_realize(edge_tree(-0.8, -0.2))
    np.testing.assert_allclose(
        left.candidate.eval(-RING), -right.candidate.eval(RING), atol=1e-12
    )


def test_catalog_result_json():
    out = catalog_realize(edge_tree(-1.0, 1.0)).to_json()
    assert set(out) == {"status", "loss", "evaluations", "candidate", "tree",
                        "catalog"}
    assert out["status"] == "exact"
    assert out["loss"] == pytest.approx(0.0, abs=1e-12)
    assert out["catalog"] == {"name": "double-slit-edge",
                              "params": {"lo": -1.0, "hi": 1.0}}
    assert out["candidate"] is not None and out["tree"] is not None


def test_not_in_catalog():
    # a valence-2 node, an odd path, a star and a bounded chain all fall
    # outside the closed-form families even though each is a valid target
    targets = [
        two_one_edge(),
        Tree(
            [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1)],
            [("p1", "m1", Interval(-INF, 0.0)), ("m1", "p2", Interval(0.0, INF))],
        ),
        Tree(
            [Node("p1", 1, 1), Node("m1", -1, 1), Node("m2", -1, 1),
             Node("m3", -1, 1)],
            [("p1", "m1", Interval(-INF, -1.0)),
             ("p1", "m2", Interval(0.0, 1.0)),
             ("p1", "m3", Interval(2.0, INF))],
        ),
        Tree(
            [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1),
             Node("m2", -1, 1)],
            [("p1", "m1", Interval(0.0, 1.0)),
             ("m1", "p2", Interval(1.0, 2.0)),
             ("p2", "m2", Interval(2.0, 3.0))],
        ),
    ]
    for target in targets:
        with pytest.raises(NotInCatalog):
            catalog_realize(target)


# both end edges of M^n lie below 0 when 4 divides n and above it otherwise,
# as test_catalog_chains_exact_in_both_flavors and
# test_catalog_six_node_chains_verify confirm by extraction
CHAIN_ENDS_BELOW = {4: True, 6: False, 8: True}


@st.composite
def chains(draw, ns=(4, 6)):
    """(target, n, c, s): the valid chain of s*M^n + c, its node names,
    node and edge order and edge directions shuffled."""
    n = draw(st.sampled_from(ns))
    c = draw(st.sampled_from([0.0, 2.0, -1.5])
             | st.floats(-1e3, 1e3, allow_subnormal=False))
    s = draw(st.sampled_from([1, -1]))
    names = draw(st.permutations("abcdefgh"))[:n]
    first_sign = draw(st.sampled_from([1, -1]))
    end_below = CHAIN_ENDS_BELOW[n] == (s == 1)
    edges = []
    for k in range(n - 1):
        iv = Interval(-INF, c) if end_below == (k % 2 == 0) else Interval(c, INF)
        a, b = names[k], names[k + 1]
        edges.append((b, a, iv) if draw(st.booleans()) else (a, b, iv))
    nodes = [Node(v, first_sign * (-1) ** k, 1) for k, v in enumerate(names)]
    target = Tree(draw(st.permutations(nodes)), draw(st.permutations(edges)))
    return target, n, c, s


@settings(max_examples=60, deadline=None)
@given(chains())
def test_match_catalog_reads_a_valid_chain_from_its_end_edge(chain):
    target, n, c, s = chain
    assert validate(target) == []
    entry, phi = synthesis._match_catalog(target)
    assert entry.name == "power-chain"
    assert entry.params == {"n": n, "shift": c, "sign": s}
    np.testing.assert_allclose(phi.eval(RING),
                               s * power_chain(n).eval(RING) + c,
                               rtol=1e-12, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(chains(), st.sampled_from(["valence-2", "bounded", "apart"]),
       st.data())
def test_match_catalog_leaves_other_valid_chains_to_the_search(
        chain, change, data):
    # one node of valence 2, one bounded edge, or one breakpoint 1e-8
    # (relative) away from the others: each keeps the tree valid
    target, n, c, _ = chain
    nodes, edges = list(target.nodes.values()), list(target.edges)
    k = data.draw(st.integers(0, n - 1 if change == "valence-2" else n - 2))
    if change == "valence-2":
        nodes[k] = Node(nodes[k].id, nodes[k].sign, 2)
    else:
        a, b, iv = edges[k]
        below = iv.lo == -INF
        d = 1e-8 * max(1.0, abs(c))
        if change == "bounded":
            iv = Interval(c - 1.0, c) if below else Interval(c, c + 1.0)
        else:
            iv = Interval(-INF, c - d) if below else Interval(c + d, INF)
        edges[k] = (a, b, iv)
    changed = Tree(nodes, edges)
    assert validate(changed) == []
    with pytest.raises(NotInCatalog):
        synthesis._match_catalog(changed)


@settings(max_examples=20, deadline=None)
@given(chains(ns=(8,)))
def test_match_catalog_leaves_eight_node_chains_to_the_search(chain):
    target = chain[0]
    assert validate(target) == []
    with pytest.raises(NotInCatalog):
        synthesis._match_catalog(target)


def test_infeasible_target_is_rejected_before_matching():
    with pytest.raises(InfeasibleTarget) as exc:
        catalog_realize(parallel_triple())
    assert exc.value.violations
    with pytest.raises(InfeasibleTarget):
        synthesize_search(SynthesisProblem(parallel_triple()))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_tree_loss_oracles():
    ray0, ray1 = edge_tree(0.0, INF), edge_tree(1.0, INF)
    assert tree_loss(ray0, ray0) == 0.0
    assert tree_loss(ray0, ray1) == pytest.approx(math.pi / 4)
    assert tree_loss(ray1, ray0) == pytest.approx(math.pi / 4)
    assert tree_loss(node_tree(1, 1), node_tree(-1, 1)) == SHAPE_PENALTY

    relabeled = Tree(
        [Node("a", 1, 1), Node("b", -1, 1)], [("a", "b", Interval(0.0, INF))]
    )
    assert tree_loss(ray0, relabeled) == 0.0


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_tree_loss_ignores_node_labels_on_chains(c):
    plain = chain4(c=c)
    renamed = Tree(
        [Node(f"x{k}", n.sign, n.valence)
         for k, n in enumerate(plain.nodes.values())],
        [(f"x{list(plain.nodes).index(a)}", f"x{list(plain.nodes).index(b)}", iv)
         for a, b, iv in plain.edges],
    )
    assert tree_loss(renamed, plain) == 0.0


def test_endpoint_error_cases():
    assert endpoint_error(edge_tree(0.0, 1.0), edge_tree(0.0, 1.0)) == 0.0
    shifted = endpoint_error(edge_tree(0.01, 1.02), edge_tree(0.0, 1.0))
    assert shifted == pytest.approx(0.02)
    # finite against infinite endpoints never snap
    assert endpoint_error(edge_tree(0.0, 5.0), edge_tree(0.0, INF)) == INF
    # different shapes have no meaningful endpoint matching at all
    assert endpoint_error(node_tree(1, 1), edge_tree(0.0, 1.0)) == INF


@given(st.floats(min_value=1e-6, max_value=0.1, allow_nan=False))
def test_endpoint_error_measures_worst_displacement(d):
    err = endpoint_error(edge_tree(d, 1.0 + d / 2), edge_tree(0.0, 1.0))
    assert err == pytest.approx(d)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@pytest.fixture
def two_one_result(two_one_search):
    # the uncapped seed-0 search for two_one_edge(), solved once per session
    result, _ = two_one_search
    return result


def test_search_recovers_single_node():
    res = synthesize_search(
        SynthesisProblem(node_tree(1, 1), restarts=4, budget=4000)
    )
    assert res.status == "exact"
    assert res.loss < 1e-9
    assert res.evaluations <= 4000
    assert verify(res).ok


def test_search_two_one_edge_reaches_target(two_one_result):
    assert two_one_result.status == "exact"
    assert two_one_result.loss < 1e-2
    # the uncapped seed-0 solve, pinned: a change that moves any loss value
    # or root moves the simplex, and with it this count
    assert two_one_result.evaluations == 5623
    assert endpoint_error(two_one_result.tree, two_one_edge()) < 1e-2


def test_search_two_one_edge_crosschecks(two_one_result):
    report = crosscheck(
        two_one_result.candidate, two_one_edge(), n_samples=200, seed=11,
        delta=5e-2,
    )
    assert report.ok


def test_search_two_one_edge_verifies(two_one_result):
    rep = verify(two_one_result)
    assert rep.ok
    assert rep.matches_result_tree
    assert rep.crosscheck.ok
    assert rep.den_min_radius >= 1.0 - 1e-6


def test_search_is_deterministic():
    problem = SynthesisProblem(node_tree(1, 1), restarts=2, budget=2000, seed=3)
    first = synthesize_search(problem)
    second = synthesize_search(problem)
    assert first.loss == second.loss
    assert first.evaluations == second.evaluations
    assert first.candidate.num.coeffs == pytest.approx(second.candidate.num.coeffs)
    assert first.candidate.den.coeffs == pytest.approx(second.candidate.den.coeffs)


# Results of synthesize_search on the (2, 1) edge on (-1, 1) with a budget
# of 500 evaluations, measured with valence_at counting every real sample
# point of the loss: seed -> (status, evaluations, loss, B1 zeros,
# B1 constant, B2 zeros, B2 constant).  A change to how the loss counts, or
# to how fast the objective runs, must not move the search.  Seed 4 ends
# "failed": its one confirmed candidate has the wrong shape, and it rides
# inside BudgetExhausted.
PINNED_SEARCHES = {
    1: ("exact", 500, 0.0002151762395959933,
        [-0.007488567352077657 + 0.6451247547799099j],
        -0.4503363464855821 + 0.8928589894457118j,
        [0.10428559539904765 - 0.5454708266753667j,
         0.6220089046466197 + 0.037617227319359854j],
        -0.8250967098521353 + 0.5649915215215013j),
    3: ("exact", 500, 9.397010370171266e-06,
        [0.4621346607270498 - 0.6992229956243075j],
        -0.9438150278083792 - 0.33047419457964994j,
        [0.06340036202733348 - 0.058118204868291626j,
         -0.3043273338759323 - 0.08254999283170009j],
        0.6536305629220007 + 0.7568137731399108j),
    4: ("failed", 500, 1000.5087855039463,
        [0.4733342826257984 - 0.15075370200190658j],
        -0.2455780425624397 + 0.9693768230214711j,
        [0.8644039043686215 - 0.0019571270891104195j,
         -0.8969530025402248 + 0.001689666697183927j],
        0.6047994274578975 - 0.7963778327820278j),
    5: ("exact", 500, 2.762999523064913e-05,
        [-0.2538677370151717 - 0.667892177995197j],
        0.6471157714191608 + 0.7623917486309676j,
        [-0.10270975780500241 + 0.2729440580549075j,
         0.5785680261710704 + 0.027920740222954408j],
        0.9905508870780931 + 0.1371456893555275j),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SEARCHES))
def test_search_budget_500_is_pinned(seed):
    status, evals, loss, z1, c1, z2, c2 = PINNED_SEARCHES[seed]
    problem = SynthesisProblem(two_one_edge(), budget=500, seed=seed)
    if status == "failed":
        with pytest.raises(BudgetExhausted) as exc:
            synthesize_search(problem)
        res = exc.value.best
    else:
        res = synthesize_search(problem)
    assert res.status == status
    assert res.evaluations == evals
    assert res.loss == pytest.approx(loss, rel=1e-12)
    b1, b2 = res.candidate.b1, res.candidate.b2
    assert list(b1.zeros) == pytest.approx(z1, abs=1e-12)
    assert b1.constant == pytest.approx(c1, abs=1e-12)
    assert list(b2.zeros) == pytest.approx(z2, abs=1e-12)
    assert b2.constant == pytest.approx(c2, abs=1e-12)


def test_search_budget_exhaustion_reports_best():
    with pytest.raises(BudgetExhausted) as exc:
        synthesize_search(SynthesisProblem(two_one_edge(), restarts=1, budget=10))
    best = exc.value.best
    assert best.status == "failed"
    assert best.candidate is None
    assert best.to_json()["loss"] is None


def test_search_degree_cap():
    with pytest.raises(ValueError):
        synthesize_search(SynthesisProblem(node_tree(1, 5)))


# ---------------------------------------------------------------------------
# the simplex search against scipy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scipy_minimize():
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def run(fun, x0, *, maxfev):
        res = scipy_optimize.minimize(
            fun, x0, method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": synthesis.SIMPLEX_XATOL,
                     "fatol": synthesis.SIMPLEX_FATOL, "adaptive": True})
        return res.x, res.fun

    return run


def evaluated(minimizer, make_fun, x0, maxfev):
    """The bytes of every point minimizer hands to a fresh make_fun() and
    of its value, then those of the best vertex and value it returns."""
    fun, calls = make_fun(), []

    def recorded(x):
        value = fun(x)
        calls.append((x.tobytes(), np.float64(value).tobytes()))
        return value

    x, value = minimizer(recorded, np.array(x0, dtype=np.float64),
                         maxfev=maxfev)
    return calls, x.tobytes(), np.float64(value).tobytes()


def assert_same_search(scipy_minimize, make_fun, x0, maxfev):
    ours = evaluated(minimize, make_fun, x0, maxfev)
    assert ours == evaluated(scipy_minimize, make_fun, x0, maxfev)
    return ours[0]


def rosenbrock():
    return lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                  + (1.0 - x[:-1]) ** 2))


def search_objective():
    tprof = profile(two_one_edge())
    tarcs = [synthesis._arc(b) for b in tprof.breakpoints
             if math.isfinite(b)]
    return lambda x: synthesis._search_loss(x, 1, 2, tprof, tarcs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_matches_scipy_on_the_search_objective(scipy_minimize, seed):
    # the first restart's start of synthesize_search on the (2, 1) edge
    rng = np.random.default_rng((seed, 0))
    x0 = np.concatenate([rng.normal(0.0, 0.8, 6),
                         rng.uniform(0.0, 2.0 * math.pi, 2)])
    calls = assert_same_search(scipy_minimize, search_objective, x0, 400)
    assert len(calls) == 400


@pytest.mark.parametrize("n", [6, 8])
def test_minimize_matches_scipy_on_rosenbrock(scipy_minimize, n):
    x0 = np.random.default_rng(n).normal(0.0, 1.0, n)
    calls = assert_same_search(scipy_minimize, rosenbrock, x0, 4000)
    # the simplex test, not the cap, ends the search
    assert len(calls) < 4000


def test_minimize_matches_scipy_from_a_zero_coordinate(scipy_minimize):
    # a zero coordinate's simplex vertex sits at 0.00025, not 5% off
    assert_same_search(scipy_minimize, rosenbrock, [0.0, 1.5, -0.5, 0.0],
                       1000)


def test_minimize_matches_scipy_capped_in_the_first_simplex(scipy_minimize):
    # vertices left unevaluated keep the value inf
    calls = assert_same_search(scipy_minimize, rosenbrock,
                               [0.5, -1.0, 2.0, 0.25, 1.0, -0.75], 3)
    assert len(calls) == 3


def cliff():
    """The sphere at the first four calls, 1000 higher after them: on a
    3-simplex every iteration then reflects, contracts inside and shrinks,
    the shrink's three calls being the 7th to the 9th."""
    count = 0

    def fun(x):
        nonlocal count
        count += 1
        return float(x @ x) + (1000.0 if count > 4 else 0.0)

    return fun


def test_minimize_matches_scipy_capped_inside_a_shrink(scipy_minimize):
    # the cap stops the shrink at its second vertex, which has moved but
    # keeps its old value
    calls = assert_same_search(scipy_minimize, cliff, [0.3, -0.2, 0.1], 7)
    assert len(calls) == 7


def test_search_loads_no_scipy():
    # scipy's import costs most of the package's start-up; the search runs
    # on the package's own minimize
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "\n".join([
        "import sys",
        "import rsmirnov.cli",
        "from rsmirnov.synthesis import (BudgetExhausted, SynthesisProblem,",
        "                                synthesize_search)",
        "from rsmirnov.valence_tree import Interval, Node, Tree",
        "target = Tree([Node('p1', 1, 2), Node('m1', -1, 1)],",
        "              [('p1', 'm1', Interval(-1.0, 1.0))])",
        "try:",
        "    synthesize_search(SynthesisProblem(target, budget=50))",
        "except BudgetExhausted:",
        "    pass",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_zero_outside_disk_is_rejected_at_construction():
    with pytest.raises(ValueError):
        Blaschke([1.2])


def test_verify_accepts_catalog_result():
    rep = verify(catalog_realize(edge_tree(-1.0, 1.0)))
    assert rep.ok
    assert rep.construction_ok and not rep.notes
    assert rep.matches_result_tree
    assert rep.crosscheck.ok
    # the denominator's roots are the slit tips on the circle
    assert rep.den_min_radius == pytest.approx(1.0)
    out = rep.to_json()
    assert out["ok"] is True
    assert out["notes"] == []


def test_verify_reports_a_lasting_valence_mismatch(monkeypatch):
    # read one region a sheet too high at every resolution: the attempts
    # fail with a typed ExtractionError, which verify reports, not raises
    res = catalog_realize(edge_tree(-1.0, 1.0))
    honest = region_extraction.region_valence

    def one_too_high(phi, gp, segments):
        valences = honest(phi, gp, segments)
        valences[min(valences)] += 1
        return valences

    monkeypatch.setattr(region_extraction, "region_valence", one_too_high)
    rep = verify(res)
    assert not rep.ok
    assert rep.tree is None
    assert rep.extraction_error.startswith("ExtractionMismatch")


def test_verify_flags_interior_pole():
    # 1/(z - 1/2) is a perfectly good rational function, but its pole sits
    # inside the disk, so it is not in the class at all
    bad = RealSmirnov(Poly([1.0]), Poly([-0.5, 1.0]))
    rep = verify(SynthesisResult(bad, 0.0, None, "approximate"))
    assert not rep.ok
    assert not rep.construction_ok
    assert rep.den_min_radius == pytest.approx(0.5)
    assert any("denominator" in note for note in rep.notes)
    # B1 - B2 of this pair vanishes at |z| = 0.993663, inside the disk,
    # which the constructors' count_inside rule sees
    bad = RealSmirnov(*_helson_quotient(
        Blaschke([-0.8399987237592008 + 0.30327273048229453j]),
        Blaschke([-0.7320290559822277 + 0.42406684165293335j],
                 -0.5513757870517069 - 0.8342569996428623j)))
    rep = verify(SynthesisResult(bad, 0.0, None, "approximate"), 256)
    assert not rep.ok
    assert not rep.construction_ok
    assert rep.den_min_radius == pytest.approx(0.993663, abs=1e-6)
    assert any("denominator" in note for note in rep.notes)


def test_verify_flags_nonreal_boundary():
    # z + i is analytic everywhere but its circle values are not real
    bad = RealSmirnov(Poly([1j, 1.0]), Poly([1.0]))
    rep = verify(SynthesisResult(bad, 0.0, None, "approximate"))
    assert not rep.ok
    assert rep.boundary_max_im == pytest.approx(2.0, rel=1e-3)
    assert any("not real" in note for note in rep.notes)


def test_verify_needs_a_candidate():
    with pytest.raises(ValueError):
        verify(SynthesisResult(None, INF, None, "failed"))

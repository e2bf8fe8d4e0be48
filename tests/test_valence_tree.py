"""Tests for the plane valence tree model.

The enumeration counts are cross-checked against a brute-force oracle that
enumerates ALL labeled trees on n nodes (Prufer sequences), filters for
sign alternation, and deduplicates by canonical code.  The packing sweep is
cross-checked against a greedy interval-coloring oracle (interval graphs
are perfect, so max point coverage equals the number of colors needed).
"""

import heapq
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmirnov.valence_tree import (
    Interval,
    InvalidTree,
    Node,
    Tree,
    ValenceProfile,
    _partitions,
    canonical_code,
    coverage_steps,
    enumerate_shapes,
    is_isomorphic,
    profile,
    to_dot,
    transform_profile,
    validate,
)

INF = float("inf")


def edge_tree(iv=(0.0, 1.0), vp=1, vm=1):
    """Single edge between an upper node and a lower node."""
    return Tree(
        [Node("p1", 1, vp), Node("m1", -1, vm)],
        [("p1", "m1", Interval(*iv))],
    )


def reference_tree():
    """Two-level welded example: an upper valence-2 root joined to a lower
    valence-5 node over (0,1) and to a lower valence-2 node over (-3,5);
    that lower node joins an upper valence-1 node over (-3,5) again, which
    hangs two lower valence-1 leaves over (7,8) and (9,10)."""
    nodes = [
        Node("p1", 1, 2),
        Node("m1", -1, 5),
        Node("m2", -1, 2),
        Node("p2", 1, 1),
        Node("m3", -1, 1),
        Node("m4", -1, 1),
    ]
    edges = [
        ("p1", "m1", Interval(0, 1)),
        ("p1", "m2", Interval(-3, 5)),
        ("m2", "p2", Interval(-3, 5)),
        ("p2", "m3", Interval(7, 8)),
        ("p2", "m4", Interval(9, 10)),
    ]
    return Tree(nodes, edges)


def quartic_chain():
    """The 4-node chain realized by ((1+z)/(1-z))^4: intervals
    (-inf,0), (0,inf), (-inf,0) along an alternating path."""
    nodes = [
        Node("p1", 1, 1),
        Node("m1", -1, 1),
        Node("p2", 1, 1),
        Node("m2", -1, 1),
    ]
    edges = [
        ("p1", "m1", Interval(-INF, 0)),
        ("m1", "p2", Interval(0, INF)),
        ("p2", "m2", Interval(-INF, 0)),
    ]
    return Tree(nodes, edges)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)


def test_interval_contains_is_open():
    iv = Interval(0.0, 1.0)
    assert iv.contains(0.5)
    assert not iv.contains(0.0)
    assert not iv.contains(1.0)


def test_interval_transform_swaps_under_negation():
    assert Interval(0, 1).transformed(1, 5) == Interval(5, 6)
    assert Interval(0, 1).transformed(-1, 0) == Interval(-1, 0)
    assert Interval(-INF, 0).transformed(-2, 3) == Interval(3, INF)


def test_interval_json_none_for_infinities():
    iv = Interval(-INF, 2.5)
    assert iv.to_json() == [None, 2.5]
    assert Interval.from_json([None, 2.5]) == iv
    assert Interval.from_json([0, None]) == Interval(0, INF)
    assert Interval.from_json(["-inf", "inf"]) == Interval(-INF, INF)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_reference_tree_is_valid():
    assert validate(reference_tree()) == []


def test_single_node_is_valid():
    assert validate(Tree([Node("p1", 1, 3)], [])) == []


def test_real_line_edge_has_no_free_interval():
    bad = edge_tree((-INF, INF))
    kinds = [v.kind for v in validate(bad)]
    assert kinds == ["no-free-interval"]


def test_packing_violation_carries_point_witness():
    t = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("m2", -1, 1)],
        [("p1", "m1", Interval(0, 2)), ("p1", "m2", Interval(1, 3))],
    )
    violations = validate(t)
    packing = [v for v in violations if v.kind == "packing"]
    assert len(packing) == 1
    assert packing[0].node == "p1"
    assert 1 < packing[0].point < 2


def test_touching_intervals_do_not_overlap():
    t = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("m2", -1, 1)],
        [("p1", "m1", Interval(0, 1)), ("p1", "m2", Interval(1, 2))],
    )
    assert validate(t) == []


def test_disconnected_and_cyclic_graphs_are_flagged():
    two_islands = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1),
         Node("m2", -1, 1)],
        [("p1", "m1", Interval(0, 1)), ("p2", "m2", Interval(2, 3))],
    )
    assert any(v.kind == "not-a-tree" for v in validate(two_islands))

    square = Tree(
        [Node("p1", 1, 2), Node("m1", -1, 2), Node("p2", 1, 2),
         Node("m2", -1, 2)],
        [("p1", "m1", Interval(0, 1)), ("m1", "p2", Interval(2, 3)),
         ("p2", "m2", Interval(4, 5)), ("m2", "p1", Interval(6, 7))],
    )
    assert any(v.kind == "not-a-tree" for v in validate(square))


def test_same_sign_edge_is_flagged():
    t = Tree(
        [Node("p1", 1, 1), Node("p2", 1, 1)],
        [("p1", "p2", Interval(0, 1))],
    )
    assert any(v.kind == "sign-alternation" for v in validate(t))


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        Tree([Node("a", 1, 1), Node("a", 1, 1)], [])
    with pytest.raises(ValueError):
        Tree([Node("a", 1, 1)], [("a", "ghost", Interval(0, 1))])
    with pytest.raises(ValueError):
        Node("a", 0, 1)
    with pytest.raises(ValueError):
        Node("a", 1, 0)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_reference_tree_profile_exact():
    prof = profile(reference_tree())
    assert prof.v_plus == 3
    assert prof.v_minus == 9
    assert prof.breakpoints == (-3.0, 0.0, 1.0, 5.0, 7.0, 8.0, 9.0, 10.0)
    assert prof.piece_mults == (0, 2, 3, 2, 0, 1, 0, 1, 0)
    assert prof.point_mults == (0, 2, 2, 0, 0, 0, 0, 0)
    # multiplicity 3 on (0,1), 2 on (-3,0] and [1,5), 1 on (7,8), (9,10)
    assert prof.multiplicity_at(0.5) == 3
    assert prof.multiplicity_at(0.0) == 2
    assert prof.multiplicity_at(1.0) == 2
    assert prof.multiplicity_at(-1.0) == 2
    assert prof.multiplicity_at(3.0) == 2
    assert prof.multiplicity_at(7.5) == 1
    assert prof.multiplicity_at(-3.0) == 0
    assert prof.multiplicity_at(6.0) == 0
    assert prof.multiplicity_at(100.0) == 0
    assert prof.sup_real == 3 == min(prof.v_plus, prof.v_minus)


def test_single_node_profile_is_zero():
    prof = profile(Tree([Node("p1", 1, 4)], []))
    assert (prof.v_plus, prof.v_minus) == (4, 0)
    assert prof.piece_mults == (0,)
    assert prof.multiplicity_at(0.0) == 0


def test_quartic_chain_profile():
    prof = profile(quartic_chain())
    assert (prof.v_plus, prof.v_minus) == (2, 2)
    assert prof.breakpoints == (0.0,)
    assert prof.piece_mults == (2, 1)
    assert prof.point_mults == (0,)


def test_profile_rejects_invalid_tree():
    with pytest.raises(InvalidTree):
        profile(edge_tree((-INF, INF)))


def test_profile_is_lower_semicontinuous():
    for tree in (reference_tree(), quartic_chain()):
        prof = profile(tree)
        for i, pm in enumerate(prof.point_mults):
            assert pm <= prof.piece_mults[i]
            assert pm <= prof.piece_mults[i + 1]


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def relabeled(tree, mapping):
    nodes = [Node(mapping[n.id], n.sign, n.valence)
             for n in tree.nodes.values()]
    edges = [(mapping[a], mapping[b], iv) for a, b, iv in tree.edges]
    return Tree(nodes, edges)


def test_isomorphic_to_relabeled_self():
    t = reference_tree()
    names = list(t.nodes)
    mapping = {nid: f"x{i}" for i, nid in enumerate(reversed(names))}
    assert is_isomorphic(t, relabeled(t, mapping), mode="shape")
    assert is_isomorphic(t, relabeled(t, mapping), mode="full")


def test_path_vs_fat_edge_not_isomorphic():
    path = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1)],
        [("p1", "m1", Interval(0, 1)), ("m1", "p2", Interval(2, 3))],
    )
    fat = edge_tree(vp=2, vm=1)
    assert not is_isomorphic(path, fat, mode="shape")


def test_full_mode_compares_intervals():
    a = edge_tree((0.0, 1.0))
    b = edge_tree((0.0, 2.0))
    assert is_isomorphic(a, b, mode="shape")
    assert not is_isomorphic(a, b, mode="full")
    assert is_isomorphic(a, edge_tree((0.0, 1.0)), mode="full")


def test_interior_vs_leaf_double_node_distinguished():
    # Path +1, -2, +1, -1 (the -2 interior) versus +1, -1, +1, -2
    # (the -2 a leaf): same valence multisets, different shapes.
    interior = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 2), Node("p2", 1, 1),
         Node("m2", -1, 1)],
        [("p1", "m1", Interval(0, 1)), ("m1", "p2", Interval(2, 3)),
         ("p2", "m2", Interval(4, 5))],
    )
    leaf = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1),
         Node("m2", -1, 2)],
        [("p1", "m1", Interval(0, 1)), ("m1", "p2", Interval(2, 3)),
         ("p2", "m2", Interval(4, 5))],
    )
    assert not is_isomorphic(interior, leaf, mode="shape")


def test_star_matches_regardless_of_edge_order():
    def star(order):
        nodes = [Node("c", 1, 2)] + [Node(f"m{i}", -1, 1) for i in order]
        edges = [("c", f"m{i}", Interval(i, i + 1)) for i in order]
        return Tree(nodes, edges)

    assert is_isomorphic(star([1, 2, 3]), star([3, 1, 2]), mode="shape")
    assert is_isomorphic(star([1, 2, 3]), star([3, 1, 2]), mode="full")


# ---------------------------------------------------------------------------
# enumeration, with the labeled-tree oracle
# ---------------------------------------------------------------------------

def prufer_edges(seq, n):
    """Decode a Prufer sequence into the edge list of a labeled tree."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def all_labeled_trees(n):
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_edges(seq, n)


def oracle_shape_count(v_plus, v_minus):
    """Count alternating signed valenced tree shapes by exhaustive labeled
    enumeration and canonical deduplication."""
    codes = set()
    for plus_part in _partitions(v_plus):
        for minus_part in _partitions(v_minus):
            if not plus_part and not minus_part:
                continue
            if not plus_part or not minus_part:
                if len(plus_part or minus_part) != 1:
                    continue
            signs = [1] * len(plus_part) + [-1] * len(minus_part)
            vals = list(plus_part) + list(minus_part)
            n = len(signs)
            for edges in all_labeled_trees(n):
                if any(signs[a] == signs[b] for a, b in edges):
                    continue
                tree = Tree(
                    [Node(str(i), signs[i], vals[i]) for i in range(n)],
                    [(str(a), str(b), Interval(k, k + 1))
                     for k, (a, b) in enumerate(edges)],
                )
                codes.add(canonical_code(tree))
    return len(codes)


@pytest.mark.parametrize("vp,vm,expected", [
    (1, 1, 1),
    (2, 1, 2),
    (1, 2, 2),
    (2, 2, 4),
    (2, 3, 8),
    (3, 2, 8),
    (1, 0, 1),
    (0, 2, 1),
])
def test_shape_counts_match_oracle(vp, vm, expected):
    entries = enumerate_shapes(vp, vm)
    assert len(entries) == expected
    assert oracle_shape_count(vp, vm) == expected


def test_enumerated_shapes_pairwise_distinct():
    entries = enumerate_shapes(2, 3)
    for a, b in itertools.combinations(entries, 2):
        assert not is_isomorphic(a.tree, b.tree, mode="shape")


def test_enumerated_certificates_validate():
    for vp, vm in [(1, 1), (2, 1), (2, 3), (3, 3)]:
        for entry in enumerate_shapes(vp, vm):
            assert validate(entry.tree) == []
            prof = profile(entry.tree)
            assert prof.v_plus == vp
            assert prof.v_minus == vm
            assert prof.sup_real <= min(vp, vm) or min(vp, vm) == 0


def test_valence_two_three_catalog():
    """The eight (2,3) shapes, hand-built: a single fat edge, two stars on a
    +2 hub, the +1,-3,+1 path, the two 4-paths with a -2 node (interior vs
    leaf), the 5-path, and the 3-leaf spider with a tail."""
    def T(nodes, edges):
        return Tree(
            [Node(f"n{i}", s, v) for i, (s, v) in enumerate(nodes)],
            [(f"n{a}", f"n{b}", Interval(k, k + 1))
             for k, (a, b) in enumerate(edges)],
        )

    expected = [
        T([(1, 2), (-1, 3)], [(0, 1)]),
        T([(1, 2), (-1, 2), (-1, 1)], [(0, 1), (0, 2)]),
        T([(1, 2), (-1, 1), (-1, 1), (-1, 1)], [(0, 1), (0, 2), (0, 3)]),
        T([(1, 1), (-1, 3), (1, 1)], [(0, 1), (1, 2)]),
        T([(1, 1), (-1, 2), (1, 1), (-1, 1)], [(0, 1), (1, 2), (2, 3)]),
        T([(1, 1), (-1, 1), (1, 1), (-1, 2)], [(0, 1), (1, 2), (2, 3)]),
        T([(-1, 1), (1, 1), (-1, 1), (1, 1), (-1, 1)],
          [(0, 1), (1, 2), (2, 3), (3, 4)]),
        T([(1, 1), (-1, 1), (-1, 1), (-1, 1), (1, 1)],
          [(0, 1), (0, 2), (0, 3), (1, 4)]),
    ]
    entries = enumerate_shapes(2, 3)
    assert len(entries) == len(expected)
    for want in expected:
        hits = [e for e in entries
                if is_isomorphic(e.tree, want, mode="shape")]
        assert len(hits) == 1


def test_constraint_annotations():
    # single (1,1) edge: free interval is a genuine restriction (no node
    # has spare valence), so the interval may not be all of R
    (entry,) = enumerate_shapes(1, 1)
    frees = [c for c in entry.constraints if c.kind == "free-interval"]
    assert len(frees) == 1 and frees[0].auto is False

    # (2,1) fat edge: the +2 hub has an unused sheet, free comes for free
    fat = next(e for e in enumerate_shapes(2, 1)
               if len(e.tree.nodes) == 2)
    frees = [c for c in fat.constraints if c.kind == "free-interval"]
    assert frees[0].auto is True

    # +2 hub with three -1 leaves: three intervals through a valence-2
    # node must never triple-overlap
    star = next(e for e in enumerate_shapes(2, 3)
                if len(e.tree.nodes) == 4
                and max(e.tree.degree(n) for n in e.tree.nodes) == 3)
    overlaps = [c for c in star.constraints if c.kind == "max-overlap"]
    assert len(overlaps) == 1
    assert overlaps[0].limit == 2 and len(overlaps[0].intervals) == 3

    # valence-1 nodes with several edges demand pairwise disjointness
    spider = next(e for e in enumerate_shapes(2, 3)
                  if len(e.tree.nodes) == 5
                  and max(e.tree.degree(n) for n in e.tree.nodes) == 3)
    pw = [c for c in spider.constraints if c.kind == "pairwise-disjoint"]
    assert any(len(c.intervals) == 3 for c in pw)


def test_enumerate_rejects_empty_request():
    with pytest.raises(ValueError):
        enumerate_shapes(0, 0)


# ---------------------------------------------------------------------------
# affine transform
# ---------------------------------------------------------------------------

def test_transform_shifts_intervals():
    t = transform_profile(edge_tree((0, 1)), 1, 5)
    assert t.edges[0][2] == Interval(5, 6)
    assert t.nodes["p1"].sign == 1


def test_transform_negation_flips_signs_and_endpoints():
    t = transform_profile(edge_tree((0, 1)), -1, 0)
    assert t.edges[0][2] == Interval(-1, 0)
    assert t.nodes["p1"].sign == -1
    assert t.nodes["m1"].sign == 1


def test_transform_profile_commutes_with_profile():
    tree = reference_tree()
    for a, b in [(2.0, 0.0), (1.0, -4.5), (-1.0, 0.0), (-0.5, 3.0)]:
        direct = profile(transform_profile(tree, a, b))
        mapped = profile(tree).transformed(a, b)
        assert direct == mapped


def test_transform_rejects_degenerate_scale():
    with pytest.raises(ValueError):
        transform_profile(edge_tree(), 0, 1)


# ---------------------------------------------------------------------------
# JSON and DOT
# ---------------------------------------------------------------------------

def test_tree_json_round_trip():
    t = reference_tree()
    again = Tree.from_json(t.to_json())
    assert is_isomorphic(t, again, mode="full")

    chain = quartic_chain()
    data = chain.to_json()
    # infinities serialize as null
    assert data["edges"][0]["interval"] == [None, 0.0]
    assert is_isomorphic(chain, Tree.from_json(data), mode="full")


@pytest.mark.parametrize("valence", [2.7, True, float("inf")])
def test_tree_json_rejects_a_non_integer_valence(valence):
    # int() would have read 2.7 as 2 and true as 1
    data = edge_tree().to_json()
    data["nodes"][0]["valence"] = valence
    with pytest.raises(ValueError, match="bad valence"):
        Tree.from_json(data)


def test_json_sign_encoding():
    data = edge_tree().to_json()
    assert {n["sign"] for n in data["nodes"]} == {"+", "-"}


@pytest.mark.parametrize("sign", [True, 1.0, -1.0])
def test_tree_json_rejects_a_sign_that_is_no_integer_or_string(sign):
    # `in` would have read true and 1.0 as +1, and -1.0 as -1
    data = edge_tree().to_json()
    data["nodes"][0]["sign"] = sign
    with pytest.raises(ValueError, match="bad sign"):
        Tree.from_json(data)


@pytest.mark.parametrize("sign,expected", [
    ("+", 1), ("plus", 1), (1, 1), ("+1", 1),
    ("-", -1), ("minus", -1), (-1, -1), ("-1", -1)])
def test_tree_json_reads_every_documented_sign(sign, expected):
    data = edge_tree().to_json()
    data["nodes"][0]["sign"] = sign
    assert Tree.from_json(data).nodes[data["nodes"][0]["id"]].sign == expected


@pytest.mark.parametrize("pair", [[True, 2.0], [0.0, True], [False, None]])
def test_interval_json_rejects_a_boolean_endpoint(pair):
    # float() would have read [true, 2] as (1.0, 2.0)
    with pytest.raises(ValueError, match="bad interval endpoints"):
        Interval.from_json(pair)


@pytest.mark.parametrize("pair", [["0", "1e0"], ["0", "Infinity"],
                                  ["nan", 1.0], [0.0, "+inf"], [0.0, [1.0]]])
def test_interval_json_rejects_an_endpoint_that_is_no_number_or_inf_string(pair):
    # float() would have read ["0", "1e0"] as (0, 1) and "Infinity" as inf
    with pytest.raises(ValueError, match="bad interval endpoints"):
        Interval.from_json(pair)


def test_dot_output_mentions_every_node_and_edge():
    dot = to_dot(reference_tree())
    assert dot.startswith("graph")
    assert "ℂ₊: 2" in dot and "ℂ₋: 5" in dot
    assert '"p1" -- "m1"' in dot
    assert "(0, 1)" in dot and "(-3, 5)" in dot


# ---------------------------------------------------------------------------
# packing sweep vs. greedy coloring (interval graphs are perfect)
# ---------------------------------------------------------------------------

def coloring_count(intervals):
    """Minimum number of disjoint families covering the intervals: greedy
    first-fit over intervals sorted by left endpoint, reusing a family as
    soon as its last interval has closed (open intervals may touch)."""
    active = []  # heap of right endpoints
    most = 0
    for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.hi)):
        if active and active[0] <= iv.lo:
            heapq.heappop(active)
        heapq.heappush(active, iv.hi)
        most = max(most, len(active))
    return most


finite_end = st.integers(min_value=-6, max_value=6).map(float)
endpoint_lo = st.one_of(st.just(-INF), finite_end)
endpoint_hi = st.one_of(st.just(INF), finite_end)


@st.composite
def interval_families(draw):
    k = draw(st.integers(min_value=0, max_value=9))
    out = []
    for _ in range(k):
        lo = draw(endpoint_lo)
        hi = draw(endpoint_hi)
        if not lo < hi:
            lo, hi = min(lo, hi), max(lo, hi)
            if lo == hi:
                lo, hi = lo - 1.0, hi + 1.0
        out.append(Interval(lo, hi))
    return out


@settings(max_examples=500, deadline=None)
@given(interval_families(), st.integers(min_value=1, max_value=4))
def test_sweep_matches_coloring_oracle(intervals, m):
    _, piece, _ = coverage_steps(intervals)
    assert max(piece) == coloring_count(intervals)
    # packing at valence m holds iff m families suffice
    assert (max(piece) <= m) == (coloring_count(intervals) <= m)


@settings(max_examples=200, deadline=None)
@given(interval_families())
def test_point_coverage_never_exceeds_adjacent_pieces(intervals):
    cuts, piece, point = coverage_steps(intervals)
    for i in range(len(cuts)):
        assert point[i] <= piece[i]
        assert point[i] <= piece[i + 1]

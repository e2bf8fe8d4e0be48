"""Plane valence trees.

A plane valence tree is a finite tree whose nodes carry a half-plane label
(upper or lower) and a positive integer valence, and whose edges carry
nonempty open intervals of the extended real line.  Adjacent nodes must have
opposite labels.  The tree encodes how copies of the half planes are welded
along real intervals to build a multi-sheeted image surface:

  * packing -- at every node of valence m, no real point may lie in more
    than m of the incident edge intervals (the intervals must fit into a
    disjoint union of m copies of R);
  * free interval -- at least one node must have, beyond the packing bound,
    a nonempty open interval on which its incident coverage is at most
    m - 1, leaving room for one more welding slot.

The valence of the welded surface over a point x in R equals the number of
edges whose interval contains x; over the upper (lower) half plane it is the
sum of the upper (lower) node valences.  This module provides the data
model, axiom validation with violation witnesses, the real valence profile
as an exact step function, isomorphism testing, exhaustive enumeration of
admissible shapes for given half-plane valences, and the affine transform
mirroring x -> a*x + b on the function side.

Validation here is combinatorial and exact: interval endpoints are compared
as given, with no numerical fuzz.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass

NEG_INF = float("-inf")
POS_INF = float("inf")


class InvalidTree(ValueError):
    """Raised when an operation requires a valid tree but validation fails.

    The ``violations`` attribute holds the list reported by validate().
    """

    def __init__(self, violations):
        self.violations = list(violations)
        msg = "; ".join(str(v) for v in self.violations) or "invalid tree"
        super().__init__(msg)


@dataclass(frozen=True)
class Interval:
    """Nonempty open interval (lo, hi); lo = -inf and/or hi = +inf allowed."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if not lo < hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def transformed(self, a: float, b: float) -> "Interval":
        """Image under x -> a*x + b (endpoints swap when a < 0)."""
        if a == 0:
            raise ValueError("a must be nonzero")
        u, v = a * self.lo + b, a * self.hi + b
        return Interval(u, v) if a > 0 else Interval(v, u)

    def to_json(self):
        return [None if self.lo == NEG_INF else self.lo,
                None if self.hi == POS_INF else self.hi]

    @staticmethod
    def from_json(pair) -> "Interval":
        lo, hi = pair
        # float() would read true as 1.0 and parse any numeric string
        if not all(x is None or x in ("inf", "-inf") or type(x) in (int, float)
                   for x in pair):
            raise ValueError(f"bad interval endpoints {pair!r}")
        return Interval(NEG_INF if lo is None else float(lo),
                        POS_INF if hi is None else float(hi))

    def __str__(self):
        def fmt(x):
            if x == NEG_INF:
                return "-inf"
            if x == POS_INF:
                return "inf"
            return f"{x:g}"

        return f"({fmt(self.lo)}, {fmt(self.hi)})"


@dataclass(frozen=True)
class Node:
    """Tree node: half-plane sign (+1 upper / -1 lower) and valence >= 1."""

    id: str
    sign: int
    valence: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (isinstance(self.valence, int) and self.valence >= 1):
            raise ValueError("valence must be an integer >= 1")


@dataclass(frozen=True)
class Violation:
    """One failed tree axiom, with a witness where one exists.

    kind is one of "not-a-tree", "sign-alternation", "packing",
    "no-free-interval".  For packing violations ``node`` is the offending
    node id and ``point`` a real number covered by more than ``valence``
    incident intervals.
    """

    kind: str
    detail: str
    node: str | None = None
    point: float | None = None

    def __str__(self):
        where = f" at node {self.node}" if self.node is not None else ""
        at = f", x = {self.point:g}" if self.point is not None else ""
        return f"{self.kind}{where}{at}: {self.detail}"


class Tree:
    """A signed valenced tree with open-interval edge labels.

    Construction performs only well-formedness checks (distinct node ids,
    edges referencing known nodes); the tree axioms themselves are checked
    by validate(), which reports failures as data rather than raising.
    """

    __slots__ = ("nodes", "edges", "_adj")

    def __init__(self, nodes, edges):
        node_list = list(nodes)
        self.nodes: dict[str, Node] = {}
        for node in node_list:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        self.edges: list[tuple[str, str, Interval]] = []
        for a, b, iv in edges:
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            if not isinstance(iv, Interval):
                iv = Interval(*iv)
            self.edges.append((a, b, iv))
        adj: dict[str, list[int]] = {nid: [] for nid in self.nodes}
        for k, (a, b, _) in enumerate(self.edges):
            adj[a].append(k)
            if b != a:
                adj[b].append(k)
        self._adj = adj

    def incident_edges(self, node_id: str) -> list[int]:
        """Indices into self.edges of the edges at node_id."""
        return list(self._adj[node_id])

    def incident_intervals(self, node_id: str) -> list[Interval]:
        return [self.edges[k][2] for k in self._adj[node_id]]

    def neighbors(self, node_id: str) -> list[str]:
        out = []
        for k in self._adj[node_id]:
            a, b, _ = self.edges[k]
            out.append(b if a == node_id else a)
        return out

    def degree(self, node_id: str) -> int:
        return len(self._adj[node_id])

    def __repr__(self):
        return f"Tree({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def to_json(self) -> dict:
        return {
            "nodes": [
                {"id": n.id, "sign": "+" if n.sign > 0 else "-",
                 "valence": n.valence}
                for n in self.nodes.values()
            ],
            "edges": [
                {"a": a, "b": b, "interval": iv.to_json()}
                for a, b, iv in self.edges
            ],
        }

    @staticmethod
    def from_json(data) -> "Tree":
        if isinstance(data, str):
            data = json.loads(data)
        nodes = []
        for nd in data["nodes"]:
            sign_raw = nd["sign"]
            # `in` compares by ==, which would read true and 1.0 as 1
            if type(sign_raw) not in (int, str):
                raise ValueError(f"bad sign {sign_raw!r}")
            if sign_raw in ("+", "plus", 1, "+1"):
                sign = 1
            elif sign_raw in ("-", "minus", -1, "-1"):
                sign = -1
            else:
                raise ValueError(f"bad sign {sign_raw!r}")
            valence = nd["valence"]
            # int() would truncate 2.7 and read true as 1
            if isinstance(valence, bool) or not float(valence).is_integer():
                raise ValueError(f"bad valence {valence!r}")
            nodes.append(Node(str(nd["id"]), sign, int(valence)))
        edges = [
            (str(ed["a"]), str(ed["b"]), Interval.from_json(ed["interval"]))
            for ed in data["edges"]
        ]
        return Tree(nodes, edges)


# ---------------------------------------------------------------------------
# coverage sweep
# ---------------------------------------------------------------------------

def coverage_steps(intervals):
    """Exact coverage of R by a family of open intervals.

    Returns (cuts, piece, point): the sorted finite endpoints, the coverage
    count on each open piece between consecutive cuts (len(cuts) + 1 pieces,
    the first starting at -inf and the last ending at +inf), and the
    coverage exactly at each cut.  Because every finite endpoint is a cut,
    each interval either contains a piece entirely or misses it, so the
    per-piece counts are exact, not sampled.
    """
    cuts = sorted({e for iv in intervals for e in (iv.lo, iv.hi)
                   if math.isfinite(e)})
    bounds = [NEG_INF] + cuts + [POS_INF]
    piece = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece.append(sum(1 for iv in intervals if iv.lo <= lo and hi <= iv.hi))
    point = [sum(1 for iv in intervals if iv.contains(c)) for c in cuts]
    return cuts, piece, point


def _piece_witness(cuts, index) -> float:
    """A concrete point inside piece number `index` of a cut sequence."""
    lo = cuts[index - 1] if index > 0 else NEG_INF
    hi = cuts[index] if index < len(cuts) else POS_INF
    if lo == NEG_INF and hi == POS_INF:
        return 0.0
    if lo == NEG_INF:
        return hi - 1.0
    if hi == POS_INF:
        return lo + 1.0
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(tree: Tree) -> list[Violation]:
    """Check the tree axioms; an empty list means the tree is valid.

    Checks, in order: the edge set forms a tree (connected, acyclic, no
    self-loops or parallel edges), adjacent nodes have opposite signs, the
    packing bound (no point of R lies in more than `valence` of a node's
    incident intervals -- established exactly by an endpoint sweep), and the
    global free-interval condition (some node has a nonempty open interval
    on which its incident coverage is at most valence - 1).
    """
    out: list[Violation] = []

    if not tree.nodes:
        return [Violation("not-a-tree", "tree has no nodes")]

    structural = False
    seen_pairs = set()
    for a, b, _ in tree.edges:
        if a == b:
            out.append(Violation("not-a-tree", f"self-loop at {a!r}", node=a))
            structural = True
        key = (a, b) if a <= b else (b, a)
        if key in seen_pairs:
            out.append(Violation("not-a-tree",
                                 f"parallel edges between {a!r} and {b!r}"))
            structural = True
        seen_pairs.add(key)

    if len(tree.edges) != len(tree.nodes) - 1:
        out.append(Violation(
            "not-a-tree",
            f"{len(tree.nodes)} nodes need {len(tree.nodes) - 1} edges, "
            f"got {len(tree.edges)}"))
        structural = True

    # connectivity by traversal from an arbitrary node
    start = next(iter(tree.nodes))
    seen = {start}
    stack = [start]
    while stack:
        for nb in tree.neighbors(stack.pop()):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(tree.nodes):
        missing = sorted(set(tree.nodes) - seen)
        out.append(Violation(
            "not-a-tree",
            f"not connected; unreachable from {start!r}: {missing}"))
        structural = True

    for a, b, _ in tree.edges:
        if tree.nodes[a].sign == tree.nodes[b].sign:
            out.append(Violation(
                "sign-alternation",
                f"edge ({a!r}, {b!r}) joins two "
                f"{'upper' if tree.nodes[a].sign > 0 else 'lower'} nodes"))

    # Packing and free interval are only meaningful on a genuine tree, but
    # they are local per node, so report them regardless of structural
    # problems -- more witnesses help the caller.
    free_found = False
    for node in tree.nodes.values():
        ivs = tree.incident_intervals(node.id)
        cuts, piece, _ = coverage_steps(ivs)
        worst = max(range(len(piece)), key=lambda i: piece[i])
        if piece[worst] > node.valence:
            out.append(Violation(
                "packing",
                f"{piece[worst]} incident intervals overlap but valence is "
                f"{node.valence}",
                node=node.id, point=_piece_witness(cuts, worst)))
        if min(piece) <= node.valence - 1:
            free_found = True

    if not free_found and not structural:
        out.append(Violation(
            "no-free-interval",
            "every node's incident intervals cover all of R up to its full "
            "valence; no welding slot remains anywhere"))

    return out


# ---------------------------------------------------------------------------
# valence profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValenceProfile:
    """Half-plane valences plus the exact real step function.

    breakpoints are the sorted finite interval endpoints; piece_mults[i] is
    the multiplicity on the open piece between breakpoints i-1 and i (the
    first piece starts at -inf, the last ends at +inf, so there is one more
    piece than breakpoints); point_mults[i] is the multiplicity exactly at
    breakpoint i.  Multiplicity at x = number of edges whose interval
    contains x.
    """

    v_plus: int
    v_minus: int
    breakpoints: tuple = ()
    piece_mults: tuple = (0,)
    point_mults: tuple = ()

    def __post_init__(self):
        if len(self.piece_mults) != len(self.breakpoints) + 1:
            raise ValueError("need len(breakpoints) + 1 piece multiplicities")
        if len(self.point_mults) != len(self.breakpoints):
            raise ValueError("need one point multiplicity per breakpoint")

    def multiplicity_at(self, x: float) -> int:
        """Valence over the real point x (exact, endpoint-aware)."""
        i = bisect_left(self.breakpoints, x)
        if i < len(self.breakpoints) and self.breakpoints[i] == x:
            return self.point_mults[i]
        return self.piece_mults[i]

    def pieces(self):
        """Yield (lo, hi, multiplicity) over the open pieces, in order."""
        bounds = [NEG_INF, *self.breakpoints, POS_INF]
        for i, mult in enumerate(self.piece_mults):
            yield bounds[i], bounds[i + 1], mult

    @property
    def sup_real(self) -> int:
        return max(self.piece_mults)

    def transformed(self, a: float, b: float) -> "ValenceProfile":
        """Profile of the tree transformed by x -> a*x + b."""
        if a == 0:
            raise ValueError("a must be nonzero")
        bps = [a * x + b for x in self.breakpoints]
        if a > 0:
            return ValenceProfile(self.v_plus, self.v_minus, tuple(bps),
                                  self.piece_mults, self.point_mults)
        return ValenceProfile(
            self.v_minus, self.v_plus, tuple(reversed(bps)),
            tuple(reversed(self.piece_mults)),
            tuple(reversed(self.point_mults)))

    def to_json(self) -> dict:
        return {
            "v_plus": self.v_plus,
            "v_minus": self.v_minus,
            "breakpoints": list(self.breakpoints),
            "piece_mults": list(self.piece_mults),
            "point_mults": list(self.point_mults),
        }


def profile(tree: Tree) -> ValenceProfile:
    """Exact valence profile of a valid tree.

    Raises InvalidTree when validate() reports violations.
    """
    violations = validate(tree)
    if violations:
        raise InvalidTree(violations)
    v_plus = sum(n.valence for n in tree.nodes.values() if n.sign > 0)
    v_minus = sum(n.valence for n in tree.nodes.values() if n.sign < 0)
    intervals = [iv for _, _, iv in tree.edges]
    cuts, piece, point = coverage_steps(intervals)
    return ValenceProfile(v_plus, v_minus, tuple(cuts), tuple(piece),
                          tuple(point))


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def _rooted_code(tree: Tree, v: str, parent: str | None, parent_edge,
                 with_intervals: bool) -> str:
    node = tree.nodes[v]
    label = f"{'+' if node.sign > 0 else '-'}{node.valence}"
    if with_intervals and parent_edge is not None:
        iv = parent_edge
        label += f"@{iv.lo!r},{iv.hi!r}"
    kids = []
    for k in tree._adj[v]:
        a, b, iv = tree.edges[k]
        u = b if a == v else a
        if u == parent:
            continue
        kids.append(_rooted_code(tree, u, v, iv, with_intervals))
    kids.sort()
    return "(" + label + "|" + ",".join(kids) + ")"


def canonical_code(tree: Tree, with_intervals: bool = False) -> str:
    """Root-independent canonical string: minimum of the rooted codes
    over every choice of root.  Equal codes <=> isomorphic trees."""
    return min(_rooted_code(tree, v, None, None, with_intervals)
               for v in tree.nodes)


def is_isomorphic(t1: Tree, t2: Tree, mode: str = "shape") -> bool:
    """Tree isomorphism preserving signs and valences.

    mode="shape" ignores the interval labels; mode="full" requires edge
    intervals to match exactly as well.
    """
    if mode not in ("shape", "full"):
        raise ValueError("mode must be 'shape' or 'full'")
    if len(t1.nodes) != len(t2.nodes) or len(t1.edges) != len(t2.edges):
        return False
    key = lambda t: sorted((n.sign, n.valence) for n in t.nodes.values())
    if key(t1) != key(t2):
        return False
    with_iv = mode == "full"
    if with_iv:
        ivs = lambda t: sorted((iv.lo, iv.hi) for _, _, iv in t.edges)
        if ivs(t1) != ivs(t2):
            return False
    return canonical_code(t1, with_iv) == canonical_code(t2, with_iv)


# ---------------------------------------------------------------------------
# shape enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """One interval condition a shape imposes, phrased over edge names.

    kind "pairwise-disjoint": the named intervals must be pairwise disjoint
    (a valence-1 node with several edges).  kind "max-overlap": no real
    point may lie in more than `limit` of the named intervals (a node whose
    degree exceeds its valence).  kind "free-interval": the global
    requirement that some node keeps a spare open interval; `auto` is True
    when the shape guarantees it for every interval assignment (some node's
    degree is below its valence).
    """

    kind: str
    node: str | None = None
    intervals: tuple = ()
    limit: int | None = None
    auto: bool | None = None

    def __str__(self):
        if self.kind == "pairwise-disjoint":
            return (f"{', '.join(self.intervals)} pairwise disjoint "
                    f"(node {self.node})")
        if self.kind == "max-overlap":
            return (f"at most {self.limit} of {', '.join(self.intervals)} "
                    f"may overlap at any point (node {self.node})")
        if self.kind == "free-interval":
            if self.auto:
                return ("free interval automatic: node "
                        f"{self.node} has fewer edges than its valence")
            return ("some node must retain an open interval below its "
                    "valence of coverage")
        return self.kind


@dataclass(frozen=True)
class ShapeEntry:
    """One enumerated shape.

    ``tree`` carries the feasibility certificate's interval assignment
    (edge j is given (j, j+1), pairwise disjoint, hence always packing-
    and free-interval-valid); ``edge_names`` names edge j "I{j+1}" for use
    in ``constraints``.
    """

    tree: Tree
    edge_names: tuple
    constraints: tuple

    @property
    def code(self) -> str:
        return canonical_code(self.tree)


def _partitions(n: int):
    """Integer partitions of n as non-increasing tuples ((), for n = 0)."""
    if n == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first, *rest)

    yield from rec(n, n)


def _grow_colored_shapes(n_plus: int, n_minus: int):
    """All alternating two-colored tree shapes with the given node counts,
    up to color-preserving isomorphism.

    Shapes are grown by leaf addition: every tree on k+1 nodes arises from
    a tree on k nodes by deleting a leaf, so breadth-first growth with
    canonical deduplication at each size is exhaustive.  Each shape is
    returned as (colors, edges) with colors[i] in {+1, -1} and edges a
    tuple of index pairs.
    """
    total = n_plus + n_minus
    if total == 0:
        return []
    start_color = 1 if n_plus >= 1 else -1
    level = {((start_color,), ())}
    for _ in range(total - 1):
        grown = {}
        for colors, edges in level:
            for host in range(len(colors)):
                new_color = -colors[host]
                plus = sum(1 for c in colors if c > 0) + (new_color > 0)
                minus = sum(1 for c in colors if c < 0) + (new_color < 0)
                if plus > n_plus or minus > n_minus:
                    continue
                new_colors = colors + (new_color,)
                new_edges = edges + ((host, len(colors)),)
                code = _colored_code(new_colors, new_edges)
                grown.setdefault(code, (new_colors, new_edges))
        level = set(grown.values())
    return [
        (colors, edges) for colors, edges in level
        if sum(1 for c in colors if c > 0) == n_plus
    ]


def _colored_code(colors, edges) -> str:
    adj = {i: [] for i in range(len(colors))}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def rooted(v, parent):
        kids = sorted(rooted(u, v) for u in adj[v] if u != parent)
        mark = "+" if colors[v] > 0 else "-"
        return "(" + mark + "|" + ",".join(kids) + ")"

    return min(rooted(v, None) for v in range(len(colors)))


def _shape_constraints(tree: Tree, edge_names) -> tuple:
    by_edge = {k: edge_names[k] for k in range(len(tree.edges))}
    constraints = []
    auto_node = None
    for node in tree.nodes.values():
        deg = tree.degree(node.id)
        names = tuple(sorted(by_edge[k] for k in tree.incident_edges(node.id)))
        if deg >= 2 and node.valence == 1:
            constraints.append(Constraint(
                "pairwise-disjoint", node=node.id, intervals=names))
        elif deg > node.valence >= 2:
            constraints.append(Constraint(
                "max-overlap", node=node.id, intervals=names,
                limit=node.valence))
        if deg < node.valence and auto_node is None:
            auto_node = node.id
    constraints.append(Constraint(
        "free-interval", node=auto_node, auto=auto_node is not None))
    return tuple(constraints)


def enumerate_shapes(v_plus: int, v_minus: int) -> list[ShapeEntry]:
    """Every admissible tree shape with the given half-plane valences.

    Generates, up to shape isomorphism, all alternating signed trees whose
    upper-node valences sum to v_plus and lower-node valences sum to
    v_minus.  Every such shape admits a valid interval assignment -- the
    certificate assigns edge j the unit interval (j, j+1), which makes all
    intervals pairwise disjoint -- so enumeration is purely combinatorial.
    Each entry carries the interval constraints the shape imposes on a
    general assignment.
    """
    if v_plus < 0 or v_minus < 0 or v_plus + v_minus < 1:
        raise ValueError("need nonnegative valences with v_plus + v_minus >= 1")

    seen: dict[str, ShapeEntry] = {}
    for plus_part in _partitions(v_plus):
        for minus_part in _partitions(v_minus):
            if not plus_part and not minus_part:
                continue
            if not plus_part or not minus_part:
                # Single-node tree: no edges, so the opposite side must be
                # empty and the populated side must be a single node.
                part = plus_part or minus_part
                if len(part) != 1:
                    continue
                sign = 1 if plus_part else -1
                pre = "p" if sign > 0 else "m"
                tree = Tree([Node(f"{pre}1", sign, part[0])], [])
                entry = ShapeEntry(tree, (), _shape_constraints(tree, ()))
                seen.setdefault(entry.code, entry)
                continue
            for colors, edges in _grow_colored_shapes(len(plus_part),
                                                      len(minus_part)):
                plus_slots = [i for i, c in enumerate(colors) if c > 0]
                minus_slots = [i for i, c in enumerate(colors) if c < 0]
                for p_assign in set(itertools.permutations(plus_part)):
                    for m_assign in set(itertools.permutations(minus_part)):
                        valence = {}
                        for slot, val in zip(plus_slots, p_assign):
                            valence[slot] = val
                        for slot, val in zip(minus_slots, m_assign):
                            valence[slot] = val
                        names = {}
                        p_count = m_count = 0
                        for i, c in enumerate(colors):
                            if c > 0:
                                p_count += 1
                                names[i] = f"p{p_count}"
                            else:
                                m_count += 1
                                names[i] = f"m{m_count}"
                        nodes = [Node(names[i], colors[i], valence[i])
                                 for i in range(len(colors))]
                        tree_edges = [
                            (names[a], names[b],
                             Interval(float(j), float(j + 1)))
                            for j, (a, b) in enumerate(edges)
                        ]
                        tree = Tree(nodes, tree_edges)
                        code = canonical_code(tree)
                        if code in seen:
                            continue
                        edge_names = tuple(f"I{j + 1}"
                                           for j in range(len(edges)))
                        seen[code] = ShapeEntry(
                            tree, edge_names,
                            _shape_constraints(tree, edge_names))

    entries = sorted(seen.values(),
                     key=lambda e: (len(e.tree.nodes), e.code))
    return entries


# ---------------------------------------------------------------------------
# affine transform
# ---------------------------------------------------------------------------

def transform_profile(tree: Tree, a: float, b: float) -> Tree:
    """The tree of a*phi + b given the tree of phi.

    Every edge interval is mapped by x -> a*x + b; when a < 0 the interval
    endpoints swap and every node's half-plane sign flips (negation
    exchanges the upper and lower half planes).  Requires a valid tree.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    violations = validate(tree)
    if violations:
        raise InvalidTree(violations)
    flip = a < 0
    nodes = [
        Node(n.id, -n.sign if flip else n.sign, n.valence)
        for n in tree.nodes.values()
    ]
    edges = [(x, y, iv.transformed(a, b)) for x, y, iv in tree.edges]
    return Tree(nodes, edges)


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

def to_dot(tree: Tree) -> str:
    """Graphviz source matching the usual figure style: boxed nodes labeled
    "ℂ₊: m" / "ℂ₋: m" and edges labeled with their open intervals."""
    lines = ["graph valence_tree {", "  node [shape=box];"]
    for node in tree.nodes.values():
        half = "ℂ₊" if node.sign > 0 else "ℂ₋"
        lines.append(f'  "{node.id}" [label="{half}: {node.valence}"];')
    for a, b, iv in tree.edges:
        label = str(iv).replace("inf", "∞")
        lines.append(f'  "{a}" -- "{b}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Extract the plane valence tree of a rational real Smirnov function.

The open unit disk splits along the level set ``Im phi = 0`` into regions
where ``Im phi`` has a constant sign.  Each region covers its half plane a
fixed number of times (its valence), adjacent regions of the same sign that
meet at a branch point of the level set weld into collections, and the
adjacency of collections across the traced level curves is a tree whose
edges carry the open real intervals those curves map onto.

The pipeline here:

1. ``find_branch_points`` -- interior critical points with real critical
                       value (the only places level arcs can cross).
2. ``trace_segments`` -- follow every level arc with a predictor/corrector
                       walk from a seed on a small ring round an event of
                       the boundary pieces of phi or a branch point (where
                       every arc ends, in numbers the local form of phi
                       fixes), and record its (monotone) image interval.
   ``faces``        -- the regions are the faces of the planar graph of the
                       circle, the traced arcs and the branch points, found
                       by walking round each with the face on the left.
3. ``region_valence`` -- the valence of each region as the degree of phi on
                       its boundary: the traced arcs and the monotone
                       circle pieces of phi run over the real line once per
                       sheet.
4. ``extract_full`` -- weld regions into collections, tile arc pieces
                       into whole interfaces, and assemble the tree,
                       retrying at doubled resolution whenever a
                       consistency check trips.
5. ``crosscheck``   -- verify an extracted tree against direct root counts
                       at fresh sample points.
6. ``render_svg``   -- draw each face as its boundary polygon filled by
                       its sign, the traced arcs, and the collection labels.

Everything is deterministic for a fixed seed; failures surface as typed
exceptions rather than wrong trees.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import (
    BP_RADIUS,
    POLE_CUTOFF,
    TRACE_MAX_STEPS,
    TRACE_NON_MONOTONE,
    TRACE_STALLED,
    classify_grid,
    horner_scalar,
    trace_arc,
)
from .blaschke_smirnov import BoundaryPieces, valence_counts
from .valence_tree import Interval, InvalidTree, Node, Tree, profile

__all__ = [
    "DEFAULT_RESOLUTION",
    "MIN_RESOLUTION",
    "MAX_RESOLUTION",
    "ExtractionError",
    "TraceStalled",
    "NonMonotone",
    "ExtractionMismatch",
    "Region",
    "BranchPoint",
    "End",
    "BoundaryArc",
    "Collection",
    "Extraction",
    "CrosscheckReport",
    "partition",
    "region_valence",
    "find_branch_points",
    "trace_segments",
    "faces",
    "extract_full",
    "crosscheck",
    "render_svg",
]

DEFAULT_RESOLUTION = 512
#: the coarsest grid partition and extract_full accept
MIN_RESOLUTION = 64
MAX_RESOLUTION = 4096
#: width and height of render_svg's picture, in pixels
SVG_SIZE = 640
#: depth of the seed ring round an event, in steps 1/resolution: the half
#: ring meets its first arc sqrt(2) RING_DEPTH / res inside the circle
RING_DEPTH = 3.0
#: samples of a seed ring per arc the local form sends across it
RING_SAMPLES = 16
#: radius of the seed ring round a branch point, in BP_RADIUS (traces stop
#: within BP_RADIUS of it, and seeds within 1.5 BP_RADIUS start none)
BP_RING = 2.0
#: a seed this close to a traced arc's polyline lies on the arc.  Seeds
#: lie on the rings, and within a ring a walk's step is at most half its
#: distance to the ring's centre, so the chords there hug the arc.
ON_ARC = 4e-4
#: how far a region's boundary turn may sit from a multiple of pi
TURN_TOL = 1e-3
#: distance from its end at which an arc's direction is read
ARC_PROBE = 0.02
#: largest step, in radians, between the points of a circle piece on a
#: face's boundary polygon
CIRCLE_STEP = 2.0 * math.pi / 1024
#: decimals to which faces' lowest points are compared: mirror-image faces
#: whose lowest points differ by rounding noise go from left to right
LOW_DIGITS = 9
#: faces whose areas differ by less than this are equally large (mirror
#: images, up to the chords of their traced arcs)
AREA_TOL = 1e-4


class ExtractionError(RuntimeError):
    """Base class for everything that can go wrong during extraction."""


class TraceStalled(ExtractionError):
    """A level-curve trace could not make progress."""


class NonMonotone(ExtractionError):
    """Re phi failed to stay monotone along a traced arc."""


class ExtractionMismatch(ExtractionError):
    """The traced interfaces and regions do not fit together as a tree."""


# ---------------------------------------------------------------------------
# grid partition


def _valid_resolution(resolution) -> int:
    """resolution as an int, or ValueError below MIN_RESOLUTION."""
    res = int(resolution)
    if res < MIN_RESOLUTION:
        raise ValueError("resolution must be at least %d" % MIN_RESOLUTION)
    return res


def partition(phi, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Cells [iy, ix] of a resolution x resolution grid over [-1, 1]^2,
    +1 / -1 by the sign of Im phi, 2 where the value is too close to zero
    to call, and 0 outside the disk.  No code path calls it (render_svg
    draws the faces): it, classify_grid and BAND_FLOOR stay only for
    pipebench's tracer and tests/test_tooling.py, until ROADMAP's item
    "Dead code that the tracer names leaves src/" deletes them."""
    res = _valid_resolution(resolution)
    return classify_grid(phi.num.coeffs, phi.den.coeffs, phi.w_poly.coeffs,
                         res, 1.0 / res, 2.5 / res)


# ---------------------------------------------------------------------------
# branch points


@dataclass(frozen=True)
class BranchPoint:
    """Interior critical point whose critical value is real; ``mult`` is
    its multiplicity as a root of W, and 2 (mult + 1) arc ends meet there."""

    index: int
    z: complex
    value: float
    mult: int


def find_branch_points(phi) -> list[BranchPoint]:
    """Interior zeros of W = N'D - ND' that lie on the level set Im phi = 0.

    These are the only points where level arcs may meet; everywhere else the
    level set is a disjoint union of smooth arcs.  They are the interior
    roots of W with a real value that the boundary pieces of phi keep.
    """
    kept = sorted(phi.boundary_pieces.interior_real,
                  key=lambda zv: (zv[0].real, zv[0].imag))
    return [BranchPoint(i, z, v, m) for i, (z, v, m) in enumerate(kept)]


# ---------------------------------------------------------------------------
# level-curve tracing


@dataclass(frozen=True)
class End:
    """Where a traced arc terminates and the value of Re phi there.

    kind is "branch" when the arc ran into the interior branch point
    ``branch``; value is its critical value.  Otherwise the arc reached the
    circle, where the level set meets it only at the events of phi's
    BoundaryPieces, and ``event`` indexes the nearest one.  The end takes
    its value: kind "circle" with the critical value at a circle critical
    point, kind "pole" with -inf at an arc's lo end and +inf at its hi end
    at a circle pole.
    """

    kind: str
    value: float
    branch: int | None = None
    event: int | None = None


@dataclass(frozen=True)
class BoundaryArc:
    """A traced piece of the level set with its flanking regions.

    Re phi increases strictly along ``points``; ``upper`` / ``lower`` are
    the ids of the faces on the side where Im phi is positive / negative
    (0 until ``faces`` names them).
    """

    points: np.ndarray
    upper: int
    lower: int
    lo: End
    hi: End


def _newton_to_level(coefs, z0: complex) -> complex | None:
    """Pull z0 onto the level set Im phi = 0, or give up (coefs: N, D, W lists)."""
    ncoef, dcoef, wcoef = coefs
    z = complex(z0)
    for _ in range(15):
        dv = horner_scalar(dcoef, z)
        if abs(dv) < 1e-150:
            return None
        w = horner_scalar(ncoef, z) / dv
        if abs(w.imag) <= 1e-11 * max(1.0, abs(w)):
            # points already inside a pole's blow-up zone seed nothing useful:
            # the arc stub between here and the pole is reached from farther out
            return z if abs(w) < 0.01 * POLE_CUTOFF else None
        fp = horner_scalar(wcoef, z) / (dv * dv)
        if abs(fp) < 1e-150:
            return None
        z = z - w.imag * 1j * fp.conjugate() / abs(fp) ** 2
        if abs(z) > 1.05:
            return None
    return None


def _ring_seeds(phi, center: complex, step: complex, angles: np.ndarray) -> list[complex]:
    """Where Im phi changes sign on the ring center + step * exp(i angle),
    sampled at ``angles`` (increasing): between each two consecutive
    samples of opposite sign that both lie inside the disk, the point where
    Im(N conj D), which has the sign of Im phi, interpolates linearly to
    zero.  Im phi changes sign across the circle, so a pair with a sample
    outside it would put a seed on the circle itself."""
    z = center + step * np.exp(1j * angles)
    inside = np.abs(z) < 1.0
    im = (phi.num(z) * phi.den(z).conj()).imag
    k = np.flatnonzero(((im[1:] > 0) != (im[:-1] > 0)) & inside[1:] & inside[:-1])
    at = angles[k] + (angles[k + 1] - angles[k]) * im[k] / (im[k] - im[k + 1])
    return (center + step * np.exp(1j * at)).tolist()


def _noise_radius(phi, t: float, value: float, m: int) -> float:
    """Radius round the event at zeta = e^{it} within which Horner's
    rounding of p = N - value D (D at a pole), about n eps |p|_1, swamps p,
    which has a root of multiplicity m there (arcs + 1): p ~ q (z - zeta)^m
    with q = p^(m)(zeta) / m!.  It is 4e-16 round double_slit's simple
    poles and 7e-3 round power_chain(6)'s 6-fold zero."""
    p = phi.den if math.isinf(value) else phi.num - phi.den.scale(value)
    noise = max(phi.num.degree, phi.den.degree) * math.ulp(1.0) * np.abs(p.coeffs).sum()
    for _ in range(m):
        p = p.derivative()
    q = abs(p(cmath.exp(1j * t))) / math.factorial(m)
    return float(noise / q) ** (1.0 / m) if q > 0 else 0.0


def _seeds(phi, pieces: BoundaryPieces, bps: list[BranchPoint], res: int,
           noise: np.ndarray) -> list[complex]:
    """Seeds on a small ring round each event and each branch point.

    An event's local form sends its arcs into the disk at angles
    j pi / (arcs + 1) from its tangent; the half ring round it meets the
    first sqrt(2) RING_DEPTH / res inside the circle, and lies at least
    twice the event's noise radius from it, so no seed lies in the disk
    where walks toward the event stop.  The part of a half ring that
    reaches past the circle seeds nothing (_ring_seeds).
    """
    seeds = []
    for (t, _), arcs, r_noise in zip(pieces.events, pieces.arcs, noise):
        if arcs:
            n = RING_SAMPLES * (arcs + 1)
            zeta = cmath.exp(1j * t)
            radius = max(math.sqrt(2.0) * RING_DEPTH / (res * math.sin(math.pi / (arcs + 1))),
                         2.0 * r_noise)
            seeds += _ring_seeds(phi, zeta, radius * 1j * zeta,
                                 math.pi * (np.arange(n) + 0.5) / n)
    for bp in bps:
        n = 2 * RING_SAMPLES * (bp.mult + 1)  # n + 1 samples close the ring
        seeds += _ring_seeds(phi, bp.z, BP_RING * BP_RADIUS,
                             2.0 * math.pi * (np.arange(n + 1) + 0.5) / n)
    return seeds


def _distance(pts: np.ndarray, z: complex) -> float:
    """Distance from z to the polyline through pts."""
    a, d = pts[:-1], np.diff(pts)
    s = np.clip(((z - a) * d.conj()).real / np.maximum((d * d.conj()).real, 1e-300), 0, 1)
    return np.abs(a + s * d - z).min(initial=abs(pts[-1] - z))


def _make_end(pieces: BoundaryPieces, zetas: np.ndarray, bps: list[BranchPoint],
              z: complex, bp_hit: int, side: float) -> End:
    """The end at z of a traced arc: branch point bp_hit if it is >= 0, or
    else the event nearest z (zetas are the events on the circle); side is
    -1 at the arc's lo end and +1 at its hi end."""
    if bp_hit >= 0:
        bp = bps[bp_hit]
        return End("branch", bp.value, bp.index)
    k = int(np.argmin(np.abs(zetas - z)))
    value = pieces.events[k][1]
    if math.isinf(value):
        return End("pole", side * math.inf, event=k)
    return End("circle", value, event=k)


def _vertex(end: End) -> tuple[str, int]:
    """The vertex of the traced level-set graph where an arc end lies."""
    return ("branch", end.branch) if end.kind == "branch" else ("event", end.event)


def trace_segments(phi, resolution: int) -> list[BoundaryArc]:
    """Trace every arc of the level set Im phi = 0 inside the disk.

    Each returned arc is maximal between arc endpoints (circle, pole, or
    branch point) and has strictly increasing Re phi along its points; its
    flanks are left for ``faces`` to name.  Every arc ends at an event of
    phi's boundary pieces or at a branch point, and is traced once, both
    ways from a seed on a small ring round one (_seeds): no seed within
    1.5 BP_RADIUS of a branch point or within ON_ARC of a traced arc
    starts a trace.  The resolution sets only the rings: trace_arc's steps
    follow the arc's curvature and shrink toward the branch points and
    the events with arcs.  A walk ends at the circle, at a pole, at a
    branch point, or on entering an event's _noise_radius disk, within
    which N - value D (D at a pole) is rounding noise; a walk that
    stalls, turns non-monotone or runs out of steps raises TraceStalled
    or NonMonotone.  Circle and pole ends take the values of the events of
    phi's boundary pieces (see End), so phi without trusted pieces raises
    ExtractionMismatch; so does an arc with both ends at one point or a
    degenerate image, or a count of arc ends at an event or a branch point
    other than its local form's (``pieces.arcs``, 2 (mult + 1)).
    """
    res = int(resolution)
    pieces = phi.boundary_pieces
    if pieces.spans is None:
        raise ExtractionMismatch("phi has no trusted monotone boundary pieces")
    zetas = np.exp(1j * np.array([t for t, _ in pieces.events]))
    noise = np.array([_noise_radius(phi, t, v, arcs + 1)
                      for (t, v), arcs in zip(pieces.events, pieces.arcs)])
    bps = find_branch_points(phi)
    bp_z = [bp.z for bp in bps]
    coefs = (phi.num.coeffs.tolist(), phi.den.coeffs.tolist(),
             phi.w_poly.coeffs.tolist())
    # walks end on entering the noise disk of an event with arcs
    stops = [(complex(zeta), float(r))
             for zeta, r, arcs in zip(zetas, noise, pieces.arcs) if arcs]
    segments: list[BoundaryArc] = []

    def run(z0: complex, direction: float):
        pts, status, bp_hit = trace_arc(*coefs, z0, direction, branch_points=bp_z,
                                        stops=stops)
        if status == TRACE_NON_MONOTONE:
            raise NonMonotone(f"Re phi not monotone along the arc through {z0:.6f}")
        if status in (TRACE_STALLED, TRACE_MAX_STEPS):
            raise TraceStalled(f"trace from {z0:.6f} stalled")
        return pts, bp_hit

    for seed in _seeds(phi, pieces, bps, res, noise):
        z = _newton_to_level(coefs, seed)
        if z is None:
            continue
        if any(abs(z - b) < 1.5 * BP_RADIUS for b in bp_z):
            continue
        if any(_distance(arc.points, z) < ON_ARC for arc in segments):
            continue
        fwd, bp_f = run(z, +1.0)
        bwd, bp_b = run(z, -1.0)
        pts = np.concatenate([bwd[::-1], fwd[1:]]) if len(fwd) > 1 else bwd[::-1]
        lo = _make_end(pieces, zetas, bps, complex(pts[0]), bp_b, -1.0)
        hi = _make_end(pieces, zetas, bps, complex(pts[-1]), bp_f, +1.0)
        if not lo.value < hi.value or _vertex(lo) == _vertex(hi):
            raise ExtractionMismatch(f"the arc through {z:.6f} runs from {_vertex(lo)} to "
                                     f"{_vertex(hi)} over ({lo.value}, {hi.value})")
        segments.append(BoundaryArc(pts, 0, 0, lo, hi))

    ends = Counter(v for arc in segments for v in (_vertex(arc.lo), _vertex(arc.hi)))
    want = [(("event", k), arcs) for k, arcs in enumerate(pieces.arcs)]
    for (kind, k), n in want + [(("branch", b.index), 2 * b.mult + 2) for b in bps]:
        if ends[kind, k] != n:
            raise ExtractionMismatch(f"{ends[kind, k]} traced arc ends at {kind} {k}, "
                                     f"where the local form of phi has {n}")
    segments.sort(key=lambda s: (s.lo.value, s.hi.value))
    return segments


def _tile(group: list[BoundaryArc]) -> Interval:
    """The image of the arc pieces between one pair of regions, ordered
    into a single interface.

    Consecutive pieces must hand over at a shared branch point and the outer
    ends must be circle or pole ends; the image of the whole interface is
    then the open interval between the outer values.
    """
    group = sorted(group, key=lambda s: (s.lo.value, s.hi.value))
    for a, b in zip(group, group[1:]):
        if a.hi.kind != "branch" or b.lo.kind != "branch" or a.hi.branch != b.lo.branch:
            raise ExtractionMismatch(
                "traced pieces of one interface do not join at a branch point"
            )
    if group[0].lo.kind == "branch" or group[-1].hi.kind == "branch":
        raise ExtractionMismatch("an interface terminates at an interior branch point")
    try:
        return Interval(group[0].lo.value, group[-1].hi.value)
    except ValueError as exc:
        raise ExtractionMismatch(f"interface has a degenerate image: {exc}") from exc


# ---------------------------------------------------------------------------
# faces


@dataclass(frozen=True, eq=False)
class Region:
    """One region of Im phi != 0: a face of the planar graph made of the
    circle, the traced arcs and the branch points.

    ``sides`` runs round the face with it on the left: ("arc", i, +1) is
    segment i run lo -> hi, ("arc", i, -1) the same run hi -> lo, and
    ("circle", k, +1) circle piece k run counterclockwise.  ``boundary`` is
    the closed polygon of their points, each circle piece sampled at most
    CIRCLE_STEP apart, and ``area`` the area the face encloses.
    """

    id: int
    sign: int
    sides: tuple[tuple[str, int, int], ...]
    boundary: np.ndarray
    area: float


def faces(phi, segments: list[BoundaryArc]
          ) -> tuple[dict[int, Region], list[BoundaryArc]]:
    """The regions of Im phi != 0 as faces of the traced level-set graph,
    and the segments (trace_segments of phi) with their flanks named by
    face id.

    Im phi is harmonic in the disk, so its zero set has no closed curve
    there and every region is simply connected: one face of the planar
    graph whose vertices are the events of phi's boundary pieces and its
    branch points, and whose edges are the traced arcs and the circle
    pieces.  The walk round a face leaves each vertex by the side next
    clockwise from the one it came in by, which keeps the face on its left.
    The sides at an event are ordered by their angle from its
    counterclockwise tangent (the circle piece leaving at 0, the one
    arriving at pi), those at a branch point by their direction from it.
    An arc run lo -> hi has its positive face on its left; a circle piece
    run counterclockwise has the sign of its direction in ``pieces.spans``.
    A face whose sides disagree on its sign (as when an arc was missed)
    raises ExtractionMismatch.

    Positive faces are numbered first, from 1; within a sign, faces go by
    their lowest boundary point (imag, then real).
    """
    spans = phi.boundary_pieces.spans
    n = len(spans)
    bp_z = {bp.index: bp.z for bp in find_branch_points(phi)}
    start: dict[tuple, tuple] = {}  # side -> (vertex it leaves, angle there, its point)
    for k in range(n):
        start["circle", k, 1] = (("event", k), 0.0, None)
    for i, arc in enumerate(segments):
        for end, pts, d in ((arc.lo, arc.points, 1), (arc.hi, arc.points[::-1], -1)):
            if end.kind == "branch":
                z0, ref = bp_z[end.branch], 1.0
            else:
                z0 = cmath.exp(1j * spans[end.event][0])
                ref = 1j * z0
            start["arc", i, d] = (_vertex(end), _angle_from(pts, z0, ref), z0)
    rotation: dict[tuple, tuple[list[float], list[tuple]]] = {}
    for side, (vertex, angle, _) in sorted(start.items(), key=lambda e: e[1][1]):
        angles, sides = rotation.setdefault(vertex, ([], []))
        angles.append(angle)
        sides.append(side)

    def after(side: tuple) -> tuple:
        kind, i, d = side
        if kind == "circle":
            vertex, angle = ("event", (i + 1) % n), math.pi
        else:
            vertex, angle, _ = start[kind, i, -d]
        angles, sides = rotation[vertex]
        return sides[bisect_left(angles, angle) - 1]

    walked: set[tuple] = set()
    found = []
    for first in start:
        side = first
        cycle = []
        while side not in walked:
            walked.add(side)
            cycle.append(side)
            side = after(side)
        if not cycle:
            continue
        if side != first:
            raise ExtractionMismatch("the traced arcs do not close up into faces")
        signs = {d if kind == "arc" else int(spans[i][2]) for kind, i, d in cycle}
        if len(signs) != 1:
            raise ExtractionMismatch("a face of the traced arcs has sides of both signs")
        sign = signs.pop()
        poly, area = _outline(cycle, segments, spans, start)
        low = poly[np.lexsort((poly.real, poly.imag))[0]]
        order = (-sign, round(low.imag, LOW_DIGITS), low.real)
        found.append((order, sign, tuple(cycle), poly, area))

    found.sort(key=lambda f: f[0])
    regions = {rid: Region(rid, *f[1:]) for rid, f in enumerate(found, start=1)}
    rid_of = {side: r.id for r in regions.values() for side in r.sides}
    named = [replace(arc, upper=rid_of["arc", i, 1], lower=rid_of["arc", i, -1])
             for i, arc in enumerate(segments)]
    return regions, named


def _outline(sides, segments: list[BoundaryArc], spans,
             start: dict[tuple, tuple]) -> tuple[np.ndarray, float]:
    """The closed polygon of a face's sides and the area of the face: the
    polygon's, and the circular segments between its circle chords and the
    circle.  Each traced arc's ends are snapped onto the event or branch
    point they end at (the last item of ``start``), so that the faces meet
    there without a corner cut off."""
    parts = []
    area = 0.0
    for kind, i, d in sides:
        if kind == "arc":
            pts = segments[i].points[::d]
            parts.append(np.concatenate(([start["arc", i, d][2]], pts[1:-1],
                                         [start["arc", i, -d][2]])))
            continue
        t0, t1, _ = spans[i]
        # the angles between the ends are multiples of CIRCLE_STEP, so mirror
        # images sample alike and the bottom of the circle is a sample
        k = np.arange(math.ceil(t0 / CIRCLE_STEP), math.floor(t1 / CIRCLE_STEP) + 1)
        ts = np.concatenate(([t0], k * CIRCLE_STEP, [t1]))
        parts.append(np.exp(1j * ts))
        dt = np.diff(ts)
        area += 0.5 * float(np.sum(dt - np.sin(dt)))
    poly = np.concatenate(parts)
    x, y = poly.real, poly.imag
    return poly, area + 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _angle_from(pts: np.ndarray, z0: complex, ref: complex) -> float:
    """Angle from the direction ref at z0 to the traced arc ``pts`` that
    leaves z0: in (0, pi) for an arc leaving the circle point z0 inside,
    ref its counterclockwise tangent.

    It is measured at the first point ARC_PROBE away from z0 (the far end
    of a shorter arc): arcs that do not cross leave a small disk around
    their common end in the order they leave the end itself.
    """
    far = np.nonzero(np.abs(pts - z0) >= ARC_PROBE)[0]
    p = pts[far[0]] if far.size else pts[-1]
    return cmath.phase((p - z0) / ref)


# ---------------------------------------------------------------------------
# region valences


def region_valence(phi, regions: dict[int, Region],
                   segments: list[BoundaryArc]) -> dict[int, int]:
    """Valence of every region: the degree of phi on the region's boundary.

    phi maps a region properly onto its half plane, so along the boundary
    it runs monotonically over the extended real line once per sheet.  Each
    side of the face turns arctan phi through the arctan of its image: a
    traced arc (lo, hi), a circle piece the value range of phi on it.  A
    total that is not pi times a positive integer raises
    ExtractionMismatch.
    """
    ranges = phi.boundary_pieces.ranges
    valences = {}
    for rid, region in regions.items():
        angle = 0.0
        for kind, i, _ in region.sides:
            lo, hi = ((segments[i].lo.value, segments[i].hi.value)
                      if kind == "arc" else ranges[i])
            angle += math.atan(hi) - math.atan(lo)
        v = round(angle / math.pi)
        if v < 1 or abs(angle - v * math.pi) > TURN_TOL:
            raise ExtractionMismatch(
                f"the boundary of region {rid} turns through "
                f"{angle / math.pi:.6f} pi, not a positive multiple of pi"
            )
        valences[rid] = v
    return valences


# ---------------------------------------------------------------------------
# collections and tree assembly


@dataclass(frozen=True)
class Collection:
    """A maximal weld of same-sign regions; one node of the valence tree."""

    id: str
    sign: int
    members: tuple[int, ...]
    valence: int


def _assemble(regions: dict[int, Region], valences: dict[int, int],
              segments: list[BoundaryArc]) -> tuple[Tree, list[Collection], dict[int, str]]:
    """Weld regions into collections and connect them into the valence tree.

    Welding is done while walking outward from a root collection: a branch
    point consumed by a collection no longer welds the opposite-sign regions
    that meet there (they continue into different complement components), so
    each closure only follows branch points not consumed by an earlier one.
    The root is the collection of the largest positive region (the largest
    region when none is positive), the first in face order among those
    within AREA_TOL of it.
    """
    bp_regions: dict[int, set[int]] = {}
    for seg in segments:
        for end in (seg.lo, seg.hi):
            if end.kind == "branch":
                bp_regions.setdefault(end.branch, set()).update((seg.upper, seg.lower))
    bps_of_region = {rid: {b for b, rids in bp_regions.items() if rid in rids}
                     for rid in regions}

    consumed: set[int] = set()
    assigned: dict[int, str] = {}

    def close(seed_rid: int) -> tuple[int, ...]:
        sign = regions[seed_rid].sign
        members = {seed_rid}
        stack = [seed_rid]
        while stack:
            rid = stack.pop()
            for b in bps_of_region[rid]:
                if b in consumed:
                    continue
                for other in bp_regions[b]:
                    if (
                        other not in members
                        and other not in assigned
                        and regions[other].sign == sign
                    ):
                        members.add(other)
                        stack.append(other)
        for rid in members:
            consumed.update(bps_of_region[rid])
        return tuple(sorted(members))

    plus_regions = [r for r in regions.values() if r.sign > 0]
    pool = plus_regions or list(regions.values())
    largest = max(r.area for r in pool)
    root_rid = min(r.id for r in pool if r.area > largest - AREA_TOL)
    root_sign = regions[root_rid].sign

    counters = {1: 0, -1: 0}
    nodes: list[Node] = []
    edges: list[tuple[str, str, Interval]] = []
    collections: list[Collection] = []
    parent_of: dict[str, str] = {}

    def make_node(members: tuple[int, ...], sign: int) -> str:
        counters[sign] += 1
        name = ("p" if sign > 0 else "m") + str(counters[sign])
        val = sum(valences[r] for r in members)
        nodes.append(Node(name, sign, val))
        collections.append(Collection(name, sign, members, val))
        for rid in members:
            assigned[rid] = name
        return name

    root_members = close(root_rid)
    root_name = make_node(root_members, root_sign)
    queue = deque([(root_name, root_members, root_sign)])
    while queue:
        name, members, sign = queue.popleft()
        groups: dict[int, list[BoundaryArc]] = {}
        for seg in segments:
            own, opp = (seg.upper, seg.lower) if sign > 0 else (seg.lower, seg.upper)
            if own in members:
                groups.setdefault(opp, []).append(seg)
        pending = []
        for opp, group in groups.items():
            holder = assigned.get(opp)
            if holder is not None:
                if holder == parent_of.get(name):
                    continue  # the interface back to the parent, already an edge
                raise ExtractionMismatch(
                    f"interface from {name} reaches already-placed node {holder}"
                )
            interval = _tile(group)
            pending.append((interval.lo, interval.hi, opp, interval))
        pending.sort()
        for _, _, opp, interval in pending:
            child_members = close(opp)
            for other in pending:
                if other[2] != opp and other[2] in child_members:
                    raise ExtractionMismatch(
                        "two traced interfaces lead into one collection"
                    )
            child = make_node(child_members, -sign)
            parent_of[child] = name
            edges.append((name, child, interval))
            queue.append((child, child_members, -sign))

    missing = sorted(rid for rid in regions if rid not in assigned)
    if missing:
        raise ExtractionMismatch(
            f"regions {missing} were never reached by any traced interface"
        )
    edge_pairs = {(a, b) for a, b, _ in edges} | {(b, a) for a, b, _ in edges}
    for seg in segments:
        pair = (assigned[seg.upper], assigned[seg.lower])
        if pair not in edge_pairs:
            raise ExtractionMismatch(
                f"stray interface between non-adjacent collections {pair}"
            )
    tree = Tree(nodes, edges)
    return tree, collections, assigned


# ---------------------------------------------------------------------------
# crosscheck


@dataclass
class CrosscheckReport:
    """Direct root counts at fresh sample points versus an extracted tree."""

    samples: int
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "ok": self.ok,
            "mismatches": self.mismatches,
        }


def crosscheck(phi, tree: Tree, n_samples: int = 200, seed: int = 0,
               delta: float = 1e-3) -> CrosscheckReport:
    """Compare the tree's valence profile against direct root counts.

    Draws sample points in both half planes (expected count: the half-plane
    valences) and on the real axis away from breakpoints (expected count:
    the profile's local multiplicity).  At real sample points only interior
    roots are counted; the circle preimages that a real value always has are
    not part of the count.  Every point is drawn first, and valence_counts
    counts the roots of N - lambda D inside the disk at all of them in one
    call.
    """
    prof = profile(tree)
    rng = np.random.default_rng(seed)
    n_half = n_samples // 4
    n_real = n_samples - 2 * n_half
    # (kind, point, expected) per sample, in drawing order
    samples: list[tuple[str, complex, int]] = []

    # each group in one draw: uniform gives every element the value that
    # one call per element would, in the same order
    for sign, expected in ((1, prof.v_plus), (-1, prof.v_minus)):
        kind = "upper" if sign > 0 else "lower"
        pairs = rng.uniform([-3.0, 0.2] * n_half, [3.0, 3.0] * n_half)
        for re, im in pairs.reshape(n_half, 2).tolist():
            samples.append((kind, complex(re, sign * im), expected))

    # the real points: the first n_real of 100 n_real draws that lie at
    # least delta from every finite breakpoint
    finite = [b for b in prof.breakpoints if math.isfinite(b)]
    lo = (min(finite) - 2.0) if finite else -3.0
    hi = (max(finite) + 2.0) if finite else 3.0
    xs = rng.uniform(lo, hi, 100 * n_real)
    if finite:
        xs = xs[np.abs(xs[:, None] - np.array(finite)).min(axis=1) >= delta]
    for x in xs[:n_real].tolist():
        samples.append(("real", x, prof.multiplicity_at(x)))

    counts = valence_counts(phi, [lam for _, lam, _ in samples])
    mismatches: list[dict] = []
    for (kind, lam, expected), got in zip(samples, counts.tolist()):
        if got != expected:
            point = lam if kind == "real" else [lam.real, lam.imag]
            mismatches.append(
                {"kind": kind, "point": point, "expected": expected,
                 "got": got}
            )
    return CrosscheckReport(len(samples), mismatches)


# ---------------------------------------------------------------------------
# top-level extraction


@dataclass
class Extraction:
    """Everything produced by one successful extraction run."""

    tree: Tree
    resolution: int
    regions: dict[int, Region]
    region_valences: dict[int, int]
    branch_points: list[BranchPoint]
    segments: list[BoundaryArc]
    collections: list[Collection]
    node_of_region: dict[int, str]


def _attempt(phi, res: int, seed: int) -> Extraction:
    regions, segments = faces(phi, trace_segments(phi, res))
    valences = region_valence(phi, regions, segments)
    tree, collections, node_of_region = _assemble(regions, valences, segments)
    try:
        # crosscheck's profile validates the tree
        report = crosscheck(phi, tree, n_samples=36, seed=seed + 1)
    except InvalidTree as exc:
        raise ExtractionMismatch("assembled tree is invalid: %s" % exc) from exc
    if not report.ok:
        raise ExtractionMismatch(
            f"extracted tree contradicts direct counts: {report.mismatches[:3]}"
        )
    return Extraction(
        tree=tree,
        resolution=res,
        regions=regions,
        region_valences=valences,
        branch_points=find_branch_points(phi),
        segments=segments,
        collections=collections,
        node_of_region=node_of_region,
    )


def extract_full(phi, resolution: int = DEFAULT_RESOLUTION,
                 max_resolution: int = MAX_RESOLUTION, seed: int = 0) -> Extraction:
    """Extract the valence tree, doubling the resolution on failure.

    An attempt traces the level arcs from the events and branch points
    (trace_segments: the resolution sets only the seed rings), walks the
    faces they cut the disk into, reads the region valences off their
    boundaries, assembles and validates the tree, and
    checks it against root counts at 36 fresh points
    (crosscheck with seed + 1), whose half-plane samples test the region
    valence sums.  Any ExtractionError restarts at twice the resolution;
    past max_resolution the last one is raised.  A resolution below
    MIN_RESOLUTION raises ValueError.
    """
    res = _valid_resolution(resolution)
    while True:
        try:
            return _attempt(phi, res, seed)
        except ExtractionError:
            if 2 * res > max_resolution:
                raise
            res *= 2


# ---------------------------------------------------------------------------
# rendering


_SVG_COLORS = {1: "#aecbfa", -1: "#f6b09a"}


def _label_point(boundary: np.ndarray) -> complex:
    """Where the label of the face inside the polygon ``boundary`` goes:
    the middle of the widest stretch inside it along the line halfway up."""
    y = 0.5 * (boundary.imag.min() + boundary.imag.max())
    a, b = boundary, np.roll(boundary, -1)
    crossing = (a.imag < y) != (b.imag < y)
    a, b = a[crossing], b[crossing]
    xs = np.sort(a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag))
    lo, hi = xs[0::2], xs[1::2]
    k = int(np.argmax(hi - lo))
    return complex(0.5 * (lo[k] + hi[k]), y)


def render_svg(ex: Extraction) -> str:
    """Plain SVG picture of the extraction ex: each region filled in its
    sign's colour as the polygon of its boundary, then the circle, the
    traced arcs, and each collection's label in its largest region."""
    scale = SVG_SIZE / 2.0

    def sx(x: float) -> float:
        return (x + 1.0) * scale

    def sy(y: float) -> float:
        return (1.0 - y) * scale  # svg y grows downward

    def coords(pts: np.ndarray) -> str:
        return " ".join(f"{sx(p.real):.2f},{sy(p.imag):.2f}" for p in pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    parts += [f'<polygon points="{coords(r.boundary)}" fill="{_SVG_COLORS[r.sign]}"/>'
              for _, r in sorted(ex.regions.items())]
    parts.append(f'<circle cx="{scale:.1f}" cy="{scale:.1f}" r="{scale:.1f}" '
                 'fill="none" stroke="#444" stroke-width="1.5"/>')
    for seg in ex.segments:
        pts = seg.points[:: max(1, len(seg.points) // 400)]
        parts.append(f'<polyline points="{coords(pts)}" fill="none" '
                     'stroke="#222" stroke-width="1.2"/>')
    for coll in ex.collections:
        biggest = max((ex.regions[rid] for rid in coll.members), key=lambda r: r.area)
        anchor = _label_point(biggest.boundary)
        parts.append(f'<text x="{sx(anchor.real):.1f}" y="{sy(anchor.imag):.1f}" '
                     'font-family="sans-serif" font-size="16" '
                     f'text-anchor="middle">{coll.id}:{coll.valence}</text>')
    parts.append("</svg>")
    return "\n".join(parts)

"""Realizing a target valence tree as a rational real Smirnov function.

Every valid tree is the valence tree of some rational real Smirnov
function, so failing to find one is always a budget statement and never
an impossibility proof.  Two routes are implemented here.

A small closed-form catalog covers the classical shapes: a single node
of valence m is covered by i(1 + z^m)/(1 - z^m), a single bounded-
interval edge by an affine image of the double slit map iz/(1 - z^2), a
half-line edge by an affine image of the Koebe map z/(1 - z)^2, and an
alternating chain whose intervals share one finite breakpoint by an even
power of (1 + z)/(1 - z).

Everything else goes through derivative-free search over the zeros of
the two Blaschke products (and one phase each): simplex descent with
random restarts on a cheap algebraic loss built from root counts, then a
full tree extraction to confirm any claimed optimum.  Restarts are
independent searches merged by minimum loss, deterministic given the
seed and restart count.  The simplex search is the package's own
adaptive Nelder-Mead (Gao & Han), ported from scipy bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .complex_poly import count_inside
from .blaschke_smirnov import (
    Blaschke,
    BoundaryPieces,
    RealSmirnov,
    DenominatorVanishesInDisk,
    NotRelativelyPrime,
    _helson_quotient,
    from_blaschke,
    real_affine,
    real_valence,
)
from .valence_tree import (
    InvalidTree,
    Tree,
    canonical_code,
    is_isomorphic,
    profile,
    validate,
)
from .fixtures import halfplane_node, koebe, power_chain
from .region_extraction import ExtractionError, crosscheck, extract_full

INF = math.inf
HALF_PI = math.pi / 2.0

# one differing canonical code costs as much as the whole real line of
# interval mismatch, so the optimizer always prefers fixing the shape
SHAPE_PENALTY = 1000.0
# a denominator zero inside the disk is not a Smirnov function at all;
# rank every such candidate behind every admissible one
CONSTRAINT_WEIGHT = 5000.0
# weight of the smooth pull that parks a candidate breakpoint on every
# target breakpoint (the interval integral alone goes flat once the
# heights agree almost everywhere)
PULL_WEIGHT = 0.5
CATALOG_TOL = 1e-6
# the largest single-node valence the catalog builds: confirming one took 4.7 s
# at 256 (one Intel Xeon core) and over 10 minutes at 384
CATALOG_MAX_VALENCE = 256


class NotInCatalog(LookupError):
    """The target matches none of the closed-form families."""


class InfeasibleTarget(ValueError):
    """The target fails validation, so no function can realize it."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "target is not a valid tree: "
            + "; ".join(str(v) for v in self.violations)
        )


class BudgetExhausted(RuntimeError):
    """Search ran out of evaluations without matching the target shape.

    The best candidate found (status "failed") rides along as .best.
    """

    def __init__(self, best):
        self.best = best
        super().__init__(
            "evaluation budget exhausted; best loss %.6g" % best.loss
        )


# ---------------------------------------------------------------------------
# seed functions
# ---------------------------------------------------------------------------


def double_slit() -> RealSmirnov:
    """iz/(1 - z^2): two slits, one bounded real interval (-1/2, 1/2).

    The golden-ratio zeros -+a, a = (sqrt(5)-1)/2, are exactly the
    Blaschke pair whose Helson quotient reduces to iz/(1 - z^2).
    """
    a = (math.sqrt(5.0) - 1.0) / 2.0
    return from_blaschke(Blaschke([-a]), Blaschke([a]))


@dataclass
class SeedCatalogEntry:
    """One matched closed form: its name and its parameters."""

    name: str
    params: dict


# ---------------------------------------------------------------------------
# catalog matching
# ---------------------------------------------------------------------------


def _match_chain(target: Tree):
    """(n, c, s) when the valid target is the chain s*M^n + c of n = 4 or 6
    nodes; power_chain rejects n >= 8, so longer chains are left to the
    search.  With valence 1 and degree at most 2 everywhere a valid tree is
    a path, and packing keeps the two intervals at each inner node apart,
    so its half-lines alternate between (-inf, c) and (c, inf) unchecked:
    the edge at the first end node fixes c and s."""
    n = len(target.nodes)
    if n not in (4, 6) or any(node.valence != 1 or target.degree(v) > 2
                              for v, node in target.nodes.items()):
        return None
    end = min(v for v in target.nodes if target.degree(v) == 1)
    first = target.incident_intervals(end)[0]
    below = first.lo == -INF
    c = first.hi if below else first.lo
    tol = 1e-9 * max(1.0, abs(c))
    if any(math.isinf(iv.lo) == math.isinf(iv.hi)
           or abs((iv.hi if iv.lo == -INF else iv.lo) - c) > tol
           for _, _, iv in target.edges):
        return None
    # both end edges of M^n lie below 0 when 4 divides n, above it otherwise
    s = 1 if below == (n % 4 == 0) else -1
    return n, c, s


def _match_catalog(target: Tree) -> tuple[SeedCatalogEntry, RealSmirnov]:
    """The catalog entry and closed form that realize the target, which
    must already pass validate(): one node then has no edge, two have one."""
    nodes = list(target.nodes.values())
    if len(nodes) == 1:
        sign, m = nodes[0].sign, nodes[0].valence
        if m > CATALOG_MAX_VALENCE:
            raise NotInCatalog("valence %g is above the catalog's limit of %d"
                               % (m, CATALOG_MAX_VALENCE))
        return (SeedCatalogEntry("halfplane-node", {"sign": sign, "m": m}),
                halfplane_node(sign, m))
    if len(nodes) == 2 and all(node.valence == 1 for node in nodes):
        iv = target.edges[0][2]
        lo, hi = iv.lo, iv.hi
        if math.isfinite(lo) and math.isfinite(hi):
            return (SeedCatalogEntry("double-slit-edge", {"lo": lo, "hi": hi}),
                    real_affine(double_slit(), hi - lo, (lo + hi) / 2.0))
        if math.isfinite(lo) and hi == INF:
            return (SeedCatalogEntry("koebe-ray", {"lo": lo, "hi": INF}),
                    real_affine(koebe(), 1.0, lo + 0.25))
        if lo == -INF and math.isfinite(hi):
            return (SeedCatalogEntry("koebe-ray", {"lo": -INF, "hi": hi}),
                    real_affine(koebe(), -1.0, hi - 0.25))
    chain = _match_chain(target)
    if chain is not None:
        n, c, s = chain
        return (SeedCatalogEntry("power-chain",
                                 {"n": n, "shift": c, "sign": s}),
                real_affine(power_chain(n), float(s), c))
    raise NotInCatalog("target matches no closed-form family")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _arc(x: float) -> float:
    """arctan with the infinite endpoints pinned to -+pi/2."""
    if x == INF:
        return HALF_PI
    if x == -INF:
        return -HALF_PI
    return math.atan(x)


def _arctan_integral(breakpoints, height) -> float:
    """Integral over u in (-pi/2, pi/2) of height(tan u), for a step
    function height that is constant between the breakpoints.

    Exact piece by piece: each piece between consecutive arctan images of
    the breakpoints (one narrower than 1e-14 is skipped) adds height at its
    midpoint times its width, from left to right.
    """
    cuts = sorted({_arc(b) for b in breakpoints})
    grid = [-HALF_PI, *cuts, HALF_PI]
    total = 0.0
    for u0, u1 in zip(grid, grid[1:]):
        if u1 - u0 < 1e-14:
            continue
        total += height(math.tan(0.5 * (u0 + u1))) * (u1 - u0)
    return total


def _profile_distance(pa, pb) -> float:
    """Integral of |difference| of two real profiles after x -> arctan x."""
    return _arctan_integral(
        [*pa.breakpoints, *pb.breakpoints],
        lambda x: abs(pa.multiplicity_at(x) - pb.multiplicity_at(x)))


def tree_loss(extracted: Tree, target: Tree) -> float:
    """Structural penalty plus the interval distance of the two profiles.

    Depends only on canonical codes and profiles, so relabeling node ids
    on either side leaves the loss unchanged.
    """
    structural = 0.0
    if canonical_code(extracted) != canonical_code(target):
        structural = SHAPE_PENALTY
    return structural + _profile_distance(profile(extracted), profile(target))


def _end_distance(x: float, y: float) -> float:
    if math.isinf(x) or math.isinf(y):
        return 0.0 if x == y else INF
    return abs(x - y)


def endpoint_error(extracted: Tree, target: Tree) -> float:
    """Worst endpoint displacement under the best interval matching.

    Infinite when the shapes differ, when an endpoint changes kind
    (finite against infinite), or when snapping each extracted interval
    to its nearest target interval does not reproduce the target tree
    exactly.
    """
    if not is_isomorphic(extracted, target, mode="shape"):
        return INF
    tgt_ivs = [(iv.lo, iv.hi) for _, _, iv in target.edges]
    if not tgt_ivs:
        return 0.0
    worst = 0.0
    snapped_edges = []
    for a, b, iv in extracted.edges:
        best_iv, best_d = None, INF
        for lo, hi in tgt_ivs:
            d = max(_end_distance(iv.lo, lo), _end_distance(iv.hi, hi))
            if d < best_d:
                best_iv, best_d = (lo, hi), d
        if best_iv is None or not math.isfinite(best_d):
            return INF
        worst = max(worst, best_d)
        snapped_edges.append((a, b, best_iv))
    snapped = Tree(list(extracted.nodes.values()), snapped_edges)
    if not is_isomorphic(snapped, target, mode="full"):
        return INF
    return worst


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class SynthesisResult:
    """A candidate function with its loss against the target.

    status "exact" needs full tree isomorphism with every endpoint within
    tolerance and a clean crosscheck; "approximate" means the shape is
    right but some endpoint is not; "failed" means not even the shape was
    matched (such results only ride inside BudgetExhausted).
    """

    candidate: RealSmirnov | None
    loss: float
    tree: Tree | None
    status: str
    entry: SeedCatalogEntry | None = None
    evaluations: int = 0

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "loss": self.loss if math.isfinite(self.loss) else None,
            "evaluations": self.evaluations,
            "candidate": None if self.candidate is None
            else self.candidate.to_json(),
            "tree": None if self.tree is None else self.tree.to_json(),
        }
        if self.entry is not None:
            out["catalog"] = {"name": self.entry.name,
                              "params": dict(self.entry.params)}
        return out


def catalog_realize(target: Tree) -> SynthesisResult:
    """Closed-form realization, confirmed by a full extraction.  The
    catalog matches valid targets only, so the target is validated first."""
    violations = validate(target)
    if violations:
        raise InfeasibleTarget(violations)
    entry, phi = _match_catalog(target)
    ext = extract_full(phi)
    loss = tree_loss(ext.tree, target)
    err = endpoint_error(ext.tree, target)
    status = "exact" if err < CATALOG_TOL else "approximate"
    return SynthesisResult(phi, loss, ext.tree, status, entry=entry)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass
class SynthesisProblem:
    """A validated target plus the optimizer budget.

    The product degrees are not free: synthesize_search takes deg B1 and
    deg B2 from the target's lower and upper half-plane valences.
    """

    target: Tree
    restarts: int = 16
    budget: int = 100_000
    seed: int = 0
    tol: float = 1e-2


def _squash(px: float, py: float) -> complex:
    """Unconstrained plane into the open disk, radially: |w| = r/(1+r)."""
    r = math.hypot(px, py)
    w = complex(px, py) / (1.0 + r)
    if abs(w) > 1.0 - 1e-9:
        w *= (1.0 - 1e-9) / abs(w)
    return w


def _params_to_blaschke(x, deg1: int, deg2: int):
    # Python floats: _squash rounds them as it rounds numpy's, and faster
    x = np.asarray(x, dtype=np.float64).tolist()
    z1 = [_squash(x[2 * k], x[2 * k + 1]) for k in range(deg1)]
    off = 2 * deg1
    z2 = [_squash(x[off + 2 * k], x[off + 2 * k + 1]) for k in range(deg2)]
    return (Blaschke(z1, cmath.exp(1j * x[-2])),
            Blaschke(z2, cmath.exp(1j * x[-1])))


class _MaxFev(Exception):
    """minimize's evaluation cap was reached."""


# minimize stops once the simplex lies within SIMPLEX_XATOL of its best
# vertex in every coordinate and within SIMPLEX_FATOL of its value
SIMPLEX_XATOL = 1e-8
SIMPLEX_FATOL = 1e-12


def minimize(fun, x0, *, maxfev: int):
    """Adaptive Nelder-Mead (Gao & Han 2012, Comput. Optim. Appl. 51:259).

    A port of scipy 1.17's minimize(method="Nelder-Mead", adaptive=True)
    with no bounds, callback or initial simplex, bit for bit: the same
    points are evaluated in the same order, so a search moves exactly as
    it did on scipy.  Hence the literal operand orders below and the
    repeated sorts (argsort's default sort is not stable, so a second pass
    over sorted values can still swap ties).  fun gets a copy of each
    point.  The call that would exceed maxfev is not made: the iteration
    it belongs to ends where it stands, so a cap hit during the first
    simplex leaves inf and one hit during a shrink leaves the old value
    of a vertex already moved.  Returns the best vertex and the least
    value on the final simplex.
    """
    x0 = np.asarray(x0, dtype=np.float64).flatten()
    n = len(x0)
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    diag = np.arange(n)
    sim[diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    fcalls = 0

    def f(x):
        nonlocal fcalls
        if fcalls >= maxfev:
            raise _MaxFev
        fcalls += 1
        return fun(np.copy(x))

    def sort(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass
    sim, fsim = sort(*sort(sim, fsim))

    while fcalls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= SIMPLEX_XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= SIMPLEX_FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _MaxFev:
            pass
        sim, fsim = sort(sim, fsim)
    return sim[0], np.min(fsim)


def _real_critical_values(pieces: BoundaryPieces) -> list[float]:
    """Real values of phi at the critical points in the closed disk.

    These are exactly the points where the real preimage count can step:
    interior critical points with real value, and circle critical points
    where level arcs end.  Both come from the roots of W that the pieces
    already sorted.  Values are deduplicated to 1e-8.
    """
    vals = [v for _, v, _ in pieces.interior_real]
    vals.extend(v for _, v in pieces.critical if v is not None)
    vals.sort()
    out: list[float] = []
    for v in vals:
        if not out or v - out[-1] > 1e-8:
            out.append(v)
    return out


def _surrogate_loss(phi: RealSmirnov, tprof, tarcs) -> float:
    """Extraction-free loss: exact interval integral from root counts,
    plus a smooth pull parking a candidate breakpoint on every target
    breakpoint (the integral alone is flat once heights agree almost
    everywhere, which is what lets simplex descent polish endpoints).

    The counts come from the boundary pieces, which read the roots of D
    that the objective's constraint found (phi.den_roots), so outside
    their fallbacks W is the only polynomial whose roots are found here."""
    bps = _real_critical_values(phi.boundary_pieces)
    try:
        loss = _arctan_integral(
            [*bps, *tprof.breakpoints],
            lambda x: abs(real_valence(phi, x) - tprof.multiplicity_at(x)))
    except ValueError:
        return 1e6
    barcs = [_arc(b) for b in bps]
    for ta in tarcs:
        loss += PULL_WEIGHT * (min(abs(ba - ta) for ba in barcs)
                               if barcs else math.pi)
    return loss


def _search_loss(x, deg1: int, deg2: int, tprof, tarcs) -> float:
    """synthesize_search's objective at the parameters x: a penalty when
    the denominator is identically zero or vanishes inside the disk (every
    root of D within 1e-6 of the circle or beyond counts as outside), the
    surrogate loss otherwise.  tprof is the target's profile and tarcs the
    arctangents of its finite breakpoints."""
    num, den = _helson_quotient(*_params_to_blaschke(x, deg1, deg2))
    if den.is_zero():
        return 1e7
    phi = RealSmirnov(num, den)
    penalty = 0.0
    if den.degree >= 1:
        for r0 in phi.den_roots.roots:
            rr = abs(r0)
            if rr < 1.0 - 1e-6:
                penalty += 1.0 + (1.0 - rr)
    if penalty > 0.0:
        return CONSTRAINT_WEIGHT * penalty
    return _surrogate_loss(phi, tprof, tarcs)


def synthesize_search(problem: SynthesisProblem) -> SynthesisResult:
    """Simplex descent with restarts over Blaschke zeros and phases.

    Each restart minimizes the algebraic loss, rebuilding a fresh simplex
    at its own optimum until that stops paying; the restart's best point
    is then confirmed by a full extraction.  Returns as soon as a
    confirmed candidate is exact; otherwise returns the best shape-
    matching candidate, or raises BudgetExhausted when not even the shape
    was found.
    """
    target = problem.target
    try:
        tprof = profile(target)
    except InvalidTree as exc:
        raise InfeasibleTarget(exc.violations) from exc
    deg1, deg2 = tprof.v_minus, tprof.v_plus
    if deg1 > 4 or deg2 > 4:
        raise ValueError("search is capped at Blaschke degree 4 per product")
    tcode = canonical_code(target)
    tarcs = [_arc(b) for b in tprof.breakpoints if math.isfinite(b)]
    ncoords = 2 * (deg1 + deg2)
    budget = int(problem.budget)
    evals = 0
    best: SynthesisResult | None = None

    def objective(x):
        nonlocal evals
        evals += 1
        return _search_loss(x, deg1, deg2, tprof, tarcs)

    for restart in range(max(1, int(problem.restarts))):
        if evals >= budget:
            break
        rng = np.random.default_rng((problem.seed, restart))
        x = np.concatenate([rng.normal(0.0, 0.8, ncoords),
                            rng.uniform(0.0, 2.0 * math.pi, 2)])
        fbest = INF
        for _ in range(6):
            remaining = budget - evals
            if remaining <= 0:
                break
            xr, fr = minimize(objective, x, maxfev=min(2500, remaining))
            if not fr < fbest - 1e-12:
                if fr < fbest:
                    x, fbest = xr, fr
                break
            x, fbest = xr, fr
        if fbest >= 1.0:
            continue
        b1, b2 = _params_to_blaschke(x, deg1, deg2)
        try:
            phi = from_blaschke(b1, b2)
        except (NotRelativelyPrime, DenominatorVanishesInDisk):
            continue
        try:
            ext = extract_full(phi, resolution=256, max_resolution=1024,
                               seed=problem.seed)
        except ExtractionError:
            continue
        loss = tree_loss(ext.tree, target)
        if best is None or loss < best.loss:
            best = SynthesisResult(phi, loss, ext.tree, "approximate",
                                   evaluations=evals)
        if canonical_code(ext.tree) != tcode:
            continue
        if endpoint_error(ext.tree, target) < problem.tol:
            report = crosscheck(phi, target, n_samples=200,
                                seed=problem.seed,
                                delta=max(problem.tol, 1e-3))
            if report.ok:
                return SynthesisResult(phi, loss, ext.tree, "exact",
                                       evaluations=evals)

    if best is not None and canonical_code(best.tree) == tcode:
        best.evaluations = evals
        return best
    if best is None:
        best = SynthesisResult(None, INF, None, "failed", evaluations=evals)
    else:
        best.status = "failed"
        best.evaluations = evals
    raise BudgetExhausted(best)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    """Independent residuals for a synthesis candidate.

    construction covers the function itself (an outer denominator, by
    count_inside of its roots as the constructors decide it, and real
    boundary values; a Blaschke zero cannot leave the disk, since Blaschke
    rejects it); extraction and crosscheck re-derive the tree and compare
    root counts against it.
    """

    construction_ok: bool
    notes: list[str]
    boundary_max_im: float
    den_min_radius: float
    tree: Tree | None = None
    extraction_error: str | None = None
    crosscheck: object = None
    matches_result_tree: bool | None = None

    @property
    def ok(self) -> bool:
        return (self.construction_ok and self.tree is not None
                and self.crosscheck is not None and self.crosscheck.ok)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "construction_ok": self.construction_ok,
            "notes": list(self.notes),
            "boundary_max_im": self.boundary_max_im,
            "den_min_radius": (self.den_min_radius
                               if math.isfinite(self.den_min_radius) else None),
            "tree": None if self.tree is None else self.tree.to_json(),
            "extraction_error": self.extraction_error,
            "crosscheck": (None if self.crosscheck is None
                           else self.crosscheck.to_json()),
            "matches_result_tree": self.matches_result_tree,
        }


def verify(result: SynthesisResult, resolution: int = 512) -> VerifyReport:
    """Re-derive everything the result claims, from the candidate alone."""
    if result.status == "failed" or result.candidate is None:
        raise ValueError("nothing to verify: the synthesis failed")
    phi = result.candidate
    notes: list[str] = []
    construction_ok = True

    den_min_radius = INF
    if phi.den.degree >= 1:
        roots = phi.den_roots.roots
        den_min_radius = float(np.abs(roots).min())
        # the constructors' rule: a root on the circle is a pole
        if count_inside(roots) > 0:
            construction_ok = False
            notes.append("denominator vanishes inside the disk "
                         "(min |root| = %.6f)" % den_min_radius)

    boundary_max_im = 0.0
    if phi.num.degree + phi.den.degree > 0:
        _, ims = phi.boundary_im_samples()
        if ims.size:
            boundary_max_im = float(ims.max())
        if boundary_max_im > 1e-6:
            construction_ok = False
            notes.append("boundary values are not real "
                         "(max |Im| = %.3g)" % boundary_max_im)

    tree = None
    extraction_error = None
    report = None
    matches = None
    if construction_ok:
        try:
            ext = extract_full(phi, resolution=resolution)
            tree = ext.tree
        except ExtractionError as exc:
            extraction_error = "%s: %s" % (type(exc).__name__, exc)
        if tree is not None:
            report = crosscheck(phi, tree, seed=1)
            if result.tree is not None:
                matches = is_isomorphic(tree, result.tree, mode="shape")

    return VerifyReport(construction_ok, notes, boundary_max_im,
                        den_min_radius, tree, extraction_error, report,
                        matches)

"""Real valences from the boundary pieces against direct root counting.

BoundaryPieces counts the valence at a real x from how often the boundary
function t -> phi(e^{it}) takes the value x: once on every piece whose
range holds x strictly inside, m + 1 times at an m-fold critical point
whose value is x.  valence_at counts the roots of N - xD inside the disk.
The two are independent, so every count the fast path gives is compared
with the oracle, at the circle critical values themselves too.  Where they
disagree, the count of N - xD at 50 digits, built from phi's Blaschke
zeros, decides, and it must side with the fast path: within about 1e-12
of a circle critical value N - xD has two roots just off the circle, one
on either side, which the oracle's multiplicity fit may place as one
double root on the circle.

valence_counts counts the roots of N - lambda D at many points at once, as
coefficient rows, and valence_at is valence_counts at one point; it must
give the count of reference_valence_at, which builds N - lambda D with
Poly arithmetic and counts find_roots' roots of it, at every point, real
or not.  The root driver it shares with find_roots must give every row
find_roots' roots bit for bit, whatever else is in the stack.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rsmirnov import blaschke_smirnov, complex_poly
from rsmirnov.blaschke_smirnov import (
    Blaschke,
    BoundaryNotReal,
    BoundaryPieces,
    RealSmirnov,
    from_blaschke,
    random_helson,
    real_valence,
    valence_at,
    valence_counts,
)
from rsmirnov.complex_poly import BOUNDARY_TOL, Poly, count_inside, find_roots
from rsmirnov.fixtures import (
    all_fixtures,
    double_slit,
    fourth_power_map,
    koebe,
    lower_halfplane_map,
    power_chain,
    upper_halfplane_map,
)
from rsmirnov.region_extraction import crosscheck, extract_full


def mp_mul(a, b):
    """Product of two ascending coefficient lists, in mpmath."""
    out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def mp_helson_quotient(b1, b2):
    """(N, D) of the pair (B1, B2), as blaschke_smirnov._helson_quotient
    builds them, in mpmath from the zeros and from the constants scaled to
    modulus 1 (Blaschke takes them to within 1e-12), so that N - xD is
    self-inversive at every real x."""
    def rational(b):
        c = mpmath.mpc(b.constant)
        p, q = [c / abs(c)], [mpmath.mpc(1)]
        for a in b.zeros.tolist():
            if a == 0:
                p = mp_mul(p, [mpmath.mpc(0), mpmath.mpc(1)])
            else:
                p = mp_mul(p, [mpmath.mpc(a), mpmath.mpc(-1)])
                q = mp_mul(q, [mpmath.mpc(1), -mpmath.mpc(a.conjugate())])
        return p, q

    (p1, q1), (p2, q2) = rational(b1), rational(b2)
    a, b = mp_mul(p1, q2), mp_mul(p2, q1)
    return [1j * (u + v) for u, v in zip(a, b)], [u - v for u, v in zip(a, b)]


def test_mp_helson_quotient_rounds_to_the_coefficients():
    rng = np.random.default_rng(5)
    for d1, d2 in ((1, 1), (1, 2), (3, 2), (4, 3)):
        phi = random_helson(rng, d1, d2, rmax=0.999)
        with mpmath.workdps(50):
            for got, want in zip(mp_helson_quotient(phi.b1, phi.b2),
                                 (phi.num, phi.den)):
                got = np.array([complex(c) for c in got])
                assert got[:len(want.coeffs)] == pytest.approx(
                    want.coeffs, abs=1e-13)
                assert np.abs(got[len(want.coeffs):]).max(initial=0.0) < 1e-13


def exact_valence(phi, x):
    """Roots of N - xD inside the disk, found at 50 digits, with N and D
    built at that precision from phi's Blaschke pair when it carries one
    (from its rounded coefficients otherwise)."""
    with mpmath.workdps(50):
        if phi.b1 is not None and phi.b2 is not None:
            num, den = mp_helson_quotient(phi.b1, phi.b2)
        else:
            num, den = ([mpmath.mpc(c) for c in p.coeffs.tolist()]
                        for p in (phi.num, phi.den))
        width = max(len(num), len(den))
        num += [0] * (width - len(num))
        den += [0] * (width - len(den))
        row = [u - mpmath.mpf(x) * v for u, v in zip(num, den)]
        while row and row[-1] == 0:
            row.pop()
        roots = mpmath.polyroots(row[::-1], maxsteps=500, extraprec=500)
        return sum(1 for r in roots if abs(r) < 1 - BOUNDARY_TOL)


def mp_derivative(a):
    return [k * c for k, c in enumerate(a)][1:]


def exact_critical_value(phi, t):
    """phi's value at the root of W = N'D - ND' next to e^{it}, at 50
    digits from phi's Blaschke pair: the circle critical value that the
    float one at t approximates (to a few units in the last place)."""
    with mpmath.workdps(50):
        num, den = mp_helson_quotient(phi.b1, phi.b2)
        w = [u - v for u, v in zip(mp_mul(mp_derivative(num), den),
                                   mp_mul(num, mp_derivative(den)))]
        z = mpmath.findroot(lambda z: mpmath.polyval(w[::-1], z), mpmath.expj(t))
        return mpmath.re(mpmath.polyval(num[::-1], z) / mpmath.polyval(den[::-1], z))


def critical_values(pieces):
    """The real values of the circle critical points, sorted, once each."""
    return sorted({v for _, v in pieces.critical if v is not None})


def probe_points(pieces):
    """The circle critical values, the midpoints between consecutive
    ones, and points beyond both ends; fixed points when there are no
    critical values."""
    vals = critical_values(pieces)
    if not vals:
        return [-2.0, 0.3, 1.7]
    xs = [vals[0] - max(1.0, abs(vals[0])), vals[-1] + max(1.0, abs(vals[-1]))]
    xs += [0.5 * (a + b) for a, b in zip(vals, vals[1:])]
    return xs + vals


def assert_agrees(phi, pieces, x):
    """real_valence at x is the count of the pieces, or valence_at's where
    they give none; where the two differ, the 50-digit count decides, at
    the exact critical value when x is the float of one."""
    fast = pieces.count(x)
    want = valence_at(phi, x)
    assert real_valence(phi, x) == (want if fast is None else fast)
    if fast is not None and fast != want:
        ts = [t for t, v in pieces.critical if v == x]
        exact_x = exact_critical_value(phi, ts[0]) if ts else x
        assert fast == exact_valence(phi, exact_x), (x, fast, want)


@given(
    seed=st.integers(0, 10 ** 6),
    deg1=st.integers(1, 4),
    deg2=st.integers(1, 3),
    rmax=st.sampled_from([0.9, 0.999]),
)
# W has simple roots on the circle that find_roots puts 1.1e-9 (3271) and
# up to 1.6e-8 (2503) off it, beyond BOUNDARY_TOL: events all the same
@example(seed=3271, deg1=4, deg2=3, rmax=0.999)
@example(seed=2503, deg1=4, deg2=3, rmax=0.999)
@settings(max_examples=60, deadline=None)
def test_pieces_agree_with_root_counts_random_helson(seed, deg1, deg2, rmax):
    phi = random_helson(np.random.default_rng(seed), deg1, deg2, rmax=rmax,
                        max_tries=20000)
    pieces = BoundaryPieces(phi)
    for x in probe_points(pieces):
        assert_agrees(phi, pieces, x)
    # an exact critical value is counted from the pieces
    if pieces.ranges is not None:
        assert all(pieces.count(v) is not None for v in critical_values(pieces))


@pytest.mark.parametrize("name", sorted(all_fixtures()))
def test_pieces_take_the_fast_path_on_fixtures(name):
    phi = all_fixtures()[name]
    pieces = BoundaryPieces(phi)
    assert pieces.ranges is not None
    for x in [*probe_points(pieces), -7.5, -0.3, 0.05, 0.6, 12.0]:
        fast = pieces.count(x)
        assert fast is not None
        assert fast == valence_at(phi, x)


def test_double_slit_counts():
    # univalent onto the plane minus (-inf, -1/2] and [1/2, inf)
    pieces = BoundaryPieces(double_slit())
    # at the critical values -+1/2, where the slits end, N - xD has a
    # double circle root and no root inside
    xs = (-3.0, -0.5, -0.2, 0.0, 0.4, 0.5, 9.0)
    assert [pieces.count(x) for x in xs] == [0, 0, 1, 1, 1, 0, 0]


def pieces_fields(pieces):
    return (pieces.events, pieces.arcs, pieces.critical, pieces.ranges,
            pieces.spans, pieces.interior_real)


@pytest.mark.parametrize("phi", [koebe(), fourth_power_map(), power_chain(6)],
                         ids=["koebe", "fourth_power_map", "power_chain6"])
def test_roots_of_w_at_a_circle_pole_are_not_evaluated(phi, monkeypatch):
    """At an m-fold pole W has an (m - 1)-fold root, whose boundary value is
    the pole's inf.  BoundaryPieces takes it as the pole's event without
    evaluating it, and builds the pieces it built when it evaluated it."""
    with monkeypatch.context() as m:
        m.setattr(blaschke_smirnov, "BOUNDARY_TOL", -1.0)  # nothing is at a pole
        evaluating = BoundaryPieces(phi)
    asked = []
    value = RealSmirnov.boundary_value
    monkeypatch.setattr(RealSmirnov, "boundary_value",
                        lambda self, t: asked.append(t) or value(self, t))
    pieces = BoundaryPieces(phi)
    assert pieces_fields(pieces) == pieces_fields(evaluating)
    ((pole, mult),) = phi.circle_poles
    assert mult >= 2 and (pole, math.inf) in pieces.events
    assert all(abs(cmath.exp(1j * t) - cmath.exp(1j * pole)) > 1e-3 for t in asked)


def test_events_are_the_circle_critical_points_and_poles_in_order():
    # double_slit = iz/(1 - z^2): circle poles at +-1, critical points at +-i
    pieces = BoundaryPieces(double_slit())
    ts = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert [t for t, _ in pieces.events] == pytest.approx(ts, abs=1e-12)
    assert [v for _, v in pieces.events] == pytest.approx(
        [math.inf, -0.5, math.inf, 0.5], abs=1e-12)
    assert [t0 for t0, _, _ in pieces.spans] == [t for t, _ in pieces.events]
    assert pieces.interior_real == []


def numpy_scalar_pieces(phi, events):
    """_monotone_pieces with W and D evaluated on numpy scalars and the
    square taken as numpy's power: the reference for its Python-number
    evaluation."""
    w, d = phi.w_poly, phi.den
    pieces = []
    for k, (t0, v0) in enumerate(events):
        t1, v1 = events[(k + 1) % len(events)]
        if k + 1 == len(events):
            t1 += 2.0 * math.pi
        z = cmath.exp(0.5j * (t0 + t1))
        slope = (1j * z * w(z) * d(z).conjugate() ** 2).real
        if not math.isfinite(slope) or slope == 0.0:
            return None
        s = 1.0 if slope > 0.0 else -1.0
        a = -s * math.inf if math.isinf(v0) else v0
        b = s * math.inf if math.isinf(v1) else v1
        if s * (b - a) < 0.0:
            return None
        pieces.append((t0, t1, s, min(a, b), max(a, b)))
    return pieces


def test_monotone_pieces_match_numpy_scalar_arithmetic():
    rng = np.random.default_rng(12)
    phis = list(all_fixtures().values())
    phis += [random_helson(rng, d1, d2, 0.95)
             for d1 in range(1, 4) for d2 in range(1, 4) for _ in range(6)]
    for phi in phis:
        events = BoundaryPieces(phi).events
        if not events or any(v is None for _, v in events):
            continue
        got = blaschke_smirnov._monotone_pieces(phi, events)
        assert got == numpy_scalar_pieces(phi, events)


def test_pieces_right_where_clustering_misleads_the_oracle():
    # a (3, 2) pair with circle poles 0.015 apart on either side of a
    # circle critical point of value -17279.79; one below that value all
    # five roots of N - xD lie on the circle, two of them 1.2e-4 apart near
    # the critical point.  The derivative test of the clustering passes on
    # them, and merged they make a double root 1.7e-9 inside (a count of
    # 2), but they lie thousands of rounding radii apart, so valence_at
    # keeps them apart
    b1 = Blaschke([0.7564551179952949 - 0.5318841971101056j,
                   0.22314179229004222 - 0.533621832503816j,
                   -0.10689726691617898 + 0.9819082676580152j],
                  -0.42560438512567494 - 0.9049093365425047j)
    b2 = Blaschke([0.7104821401217002 + 0.2685283497868504j,
                   0.8301778120120067 + 0.021812147728971977j],
                  -0.35157263482557544 - 0.9361606071832987j)
    phi = from_blaschke(b1, b2)
    pieces = BoundaryPieces(phi)
    x = min(v for _, v in pieces.critical) - 1.0
    assert x == pytest.approx(-17280.79, abs=0.01)
    assert pieces.count(x) == exact_valence(phi, x) == 0
    assert valence_at(phi, x) == 0


# A (1, 2) pair from the uncapped seed-1 solve of the (2, 1) edge on
# (-1, 1), and a lambda 2.3e-14 below its circle critical value -1.  Built
# from the Blaschke zeros, N - lambda D has a radial pair of roots 1.0e-7
# inside and outside the circle there, so the valence is 1.
RADIAL_PAIR = (
    [-0.007496226203731074 + 0.6451247722284428j],
    -0.4504331875983746 + 0.8928101385568868j,
    [0.10431800355467877 - 0.5454222303624868j,
     0.6220523484595262 + 0.03761558644417989j],
    -0.82497214512584 + 0.5651733891174193j,
    -1.000000000000023,
)


def radial_pair_case():
    z1, c1, z2, c2, lam = RADIAL_PAIR
    return from_blaschke(Blaschke(z1, c1), Blaschke(z2, c2)), lam


def test_pieces_count_a_radial_pair_by_a_critical_value():
    phi, lam = radial_pair_case()
    pieces = BoundaryPieces(phi)
    assert min(abs(lam - v) for v in critical_values(pieces)) < 1e-13
    assert real_valence(phi, lam) == exact_valence(phi, lam) == 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item \"The oracle decides an ill-conditioned row at 50 "
    "digits\", a radial pair closer than about sqrt(theta): "
    "valence_at fits the two roots 1e-7 off the circle as one double root "
    "on it"))
def test_valence_at_counts_a_radial_pair_by_a_critical_value():
    phi, lam = radial_pair_case()
    assert valence_at(phi, lam) == 1


# A (1, 1) pair (from random_helson, rmax 0.9) whose circle critical
# value, a minimum of the boundary function, rounds to a float just below
# it, where N - xD has a radial pair 1.2e-7 off the circle.
ROUNDED_BELOW = (
    [-0.8817364778961199 - 0.029046559706296226j],
    -0.2317707416198977 - 0.972770437117084j,
    [-0.7087215929014496 + 0.5493109423382228j],
    -0.9996271834381204 - 0.02730373841748489j,
)


def test_a_critical_value_is_counted_at_the_critical_point():
    # the pieces count the float of a critical value as the value itself,
    # with a double circle root; valence_at resolves the radial pair at
    # the float, a few units in the last place off it
    z1, c1, z2, c2 = ROUNDED_BELOW
    phi = from_blaschke(Blaschke(z1, c1), Blaschke(z2, c2))
    pieces = BoundaryPieces(phi)
    (t, v), = [e for e in pieces.critical if e[1] > 0]
    exact_v = exact_critical_value(phi, t)
    assert 0 < exact_v - v < 4 * math.ulp(v)
    assert pieces.count(v) == exact_valence(phi, exact_v) == 0
    assert valence_at(phi, v) == exact_valence(phi, v) == 1
    assert_agrees(phi, pieces, v)


def pair_with_bounded_piece():
    """A Helson pair whose boundary function has a piece between two
    circle critical points (both ends finite)."""
    rng = np.random.default_rng(7)
    while True:
        phi = random_helson(rng, 2, 2)
        ranges = BoundaryPieces(phi).ranges or []
        if any(math.isfinite(lo) and math.isfinite(hi) for lo, hi in ranges):
            return phi


def test_inconsistent_piece_falls_back(monkeypatch):
    phi = pair_with_bounded_piece()
    # negated boundary values run against the direction of a bounded piece
    true_value = type(phi).boundary_value
    monkeypatch.setattr(phi, "boundary_value",
                        lambda t: -true_value(phi, t))
    pieces = phi.boundary_pieces
    assert pieces.ranges is None
    for x in (-3.0, 0.0, 0.4):
        assert pieces.count(x) is None
        assert real_valence(phi, x) == valence_at(phi, x)


def test_no_events_falls_back(monkeypatch):
    phi = all_fixtures()["upper_halfplane_map"]
    # W is constant, so the circle pole is the only event
    assert BoundaryPieces(phi).count(0.0) == 0
    monkeypatch.setattr(phi, "circle_poles", [])
    pieces = phi.boundary_pieces
    assert pieces.ranges is None
    assert real_valence(phi, 0.0) == 0


def test_non_real_critical_value_falls_back(monkeypatch):
    phi = double_slit()

    def not_real(t):
        raise BoundaryNotReal(1.0, t)

    monkeypatch.setattr(phi, "boundary_value", not_real)
    pieces = phi.boundary_pieces
    assert pieces.ranges is None
    assert pieces.critical and all(v is None for _, v in pieces.critical)
    assert real_valence(phi, 0.0) == 1


def test_odd_count_falls_back():
    phi = double_slit()
    pieces = phi.boundary_pieces
    # a piece that is not there makes n - c odd
    pieces.ranges = pieces.ranges + [(-1.0, 1.0)]
    assert pieces.count(0.0) is None
    assert real_valence(phi, 0.0) == 1


def test_crosscheck_counts_every_sample_from_roots(monkeypatch):
    phi = double_slit()
    tree = extract_full(phi, resolution=128).tree
    rows = []
    original_rows = blaschke_smirnov.disk_root_counts

    def counting_rows(r, *args, **kwargs):
        rows.append(len(r))
        return original_rows(r, *args, **kwargs)

    monkeypatch.setattr(blaschke_smirnov, "disk_root_counts", counting_rows)
    monkeypatch.setattr(BoundaryPieces, "count",
                        lambda self, x: pytest.fail("fast path in crosscheck"))
    report = crosscheck(phi, tree, n_samples=40)
    assert report.ok
    assert sum(rows) == report.samples == 40


# -- valence_counts against the reference count ------------------------------


def reference_valence_at(phi, lam):
    """The count of N - lambda D's roots inside the disk, with N - lambda D
    built by Poly arithmetic and its roots from find_roots, one lambda at a
    time: the independent oracle of valence_counts."""
    p = phi.num - phi.den.scale(complex(lam))
    if p.is_zero():
        raise ValueError("phi is constant and equal to lambda")
    if p.degree == 0:
        return 0
    return int(count_inside(find_roots(p).roots))


def lambda_rows(phi, lams):
    """N - lambda D by Poly arithmetic, zero-padded to a common width."""
    width = max(len(phi.num.coeffs), len(phi.den.coeffs))
    rows = np.zeros((len(lams), width), dtype=np.complex128)
    for row, lam in zip(rows, lams):
        c = (phi.num - phi.den.scale(complex(lam))).coeffs
        row[:len(c)] = c
    return rows


def lambda_probes(phi, rng):
    """Points in both half planes and on the real line, points within 1e-9
    (relative) of every circle critical value, and the point at which
    N - lambda D loses its leading coefficient."""
    lams = [complex(rng.uniform(-3.0, 3.0), sign * rng.uniform(0.2, 3.0))
            for sign in (1, -1) for _ in range(6)]
    lams += rng.uniform(-5.0, 5.0, 6).tolist()
    for _, v in BoundaryPieces(phi).critical:
        if v is not None:
            lams += [v, v * (1.0 + 1e-9), v * (1.0 - 1e-9)]
    num, den = phi.num.coeffs, phi.den.coeffs
    if len(num) == len(den):
        lams.append(num[-1] / den[-1])
    return lams


def is_trimmed(row):
    """True when _trimmed drops a leading coefficient or a zero root of
    the row, which then never reaches the row driver."""
    return len(complex_poly._trimmed(row)[0]) < len(row)


def is_clustered(row):
    """True when the row's driver roots fail the closeness test of
    _separated, so that disk_root_counts counts the row from the roots of
    the multiplicity structure that _merge_clusters fits."""
    return not complex_poly._separated(complex_poly._aberth_rows(row[None]))[0]


@given(
    seed=st.integers(0, 10 ** 6),
    deg1=st.integers(1, 4),
    deg2=st.integers(1, 3),
    rmax=st.sampled_from([0.9, 0.999]),
)
@settings(max_examples=40, deadline=None)
def test_valence_counts_equal_valence_at_random_helson(seed, deg1, deg2, rmax):
    phi = random_helson(np.random.default_rng(seed), deg1, deg2, rmax=rmax,
                        max_tries=20000)
    lams = lambda_probes(phi, np.random.default_rng(seed))
    assert valence_counts(phi, lams).tolist() == [reference_valence_at(phi, lam)
                                                  for lam in lams]
    # the driver's roots of a whole row are find_roots' roots, bit for bit,
    # wherever find_roots fits no multiplicity structure to them
    rows = lambda_rows(phi, lams)
    whole = rows[np.array([not is_trimmed(row) for row in rows])]
    for row, r in zip(whole, complex_poly._aberth_rows(whole)):
        if not is_clustered(row) or complex_poly._structure(r, row) is None:
            assert np.array_equal(np.sort_complex(r), find_roots(Poly(row)).roots)


def test_valence_counts_builds_the_polynomials_of_valence_at(monkeypatch):
    phi = random_helson(np.random.default_rng(3), 3, 2, rmax=0.999)
    lams = lambda_probes(phi, np.random.default_rng(3))
    seen = []
    original = blaschke_smirnov.disk_root_counts
    monkeypatch.setattr(blaschke_smirnov, "disk_root_counts",
                        lambda rows: seen.append(rows) or original(rows))
    valence_counts(phi, lams)
    (rows,) = seen
    assert np.array_equal(rows, lambda_rows(phi, lams))


def leading_cancelled():
    """A (1, 1) pair at the ratio of its leading coefficients, where the
    leading coefficient of N - lambda D drops to rounding level."""
    phi = random_helson(np.random.default_rng(0), 1, 1, rmax=0.999)
    return phi, phi.num.coeffs[-1] / phi.den.coeffs[-1]


@pytest.mark.parametrize("make, trimmed", [
    (lambda: (koebe(), 0.0), True),             # N - 0 D = z: an exact zero root
    (lambda: (fourth_power_map(), 0.0), False),  # (1 + z)^4: a four-fold root
    (lambda: (power_chain(4), 0.0), False),
    (lambda: (double_slit(), 0.5), False),       # a double circle root at -i
    (leading_cancelled, True),
], ids=["koebe_zero_root", "fourth_power_ring", "power_chain_ring",
        "critical_value", "degree_drop"])
def test_rows_the_fast_path_leaves_are_counted_by_the_fallback(
        monkeypatch, make, trimmed):
    # a trimmed row goes to find_roots; a whole row with a multiple root is
    # counted from its merged stack roots, without a second root find
    phi, lam = make()
    row = lambda_rows(phi, [lam])[0]
    assert is_trimmed(row) == trimmed
    assert trimmed or is_clustered(row)
    expected = reference_valence_at(phi, lam)
    drives, finds = [], []
    aberth_rows, find = complex_poly._aberth_rows, complex_poly.find_roots
    monkeypatch.setattr(complex_poly, "_aberth_rows",
                        lambda rows: drives.append(rows) or aberth_rows(rows))
    monkeypatch.setattr(complex_poly, "find_roots",
                        lambda p: finds.append(p) or find(p))
    assert valence_counts(phi, [lam]).tolist() == [expected]
    assert len(finds) == int(trimmed)
    # the stack drives a whole row; find_roots drives what _trimmed leaves
    # of a trimmed one, nothing when that is a constant
    assert len(drives) == 1 or (trimmed and not drives)


@pytest.mark.parametrize("make", [upper_halfplane_map, lower_halfplane_map])
def test_constant_polynomial_is_counted_per_lambda(monkeypatch, make):
    phi = make()
    # N - lambda D is a nonzero constant at the ratio of leading coefficients
    lam = phi.num.coeffs[-1] / phi.den.coeffs[-1]
    monkeypatch.setattr(blaschke_smirnov, "disk_root_counts",
                        lambda rows: pytest.fail("no row to count"))
    assert valence_counts(phi, [lam]).tolist() == [0]


def test_a_constant_phi_raises_where_it_equals_lambda():
    # N - lambda D is the constant 2 - lambda
    phi = RealSmirnov(Poly([2.0]), Poly([1.0]))
    for count in (lambda: valence_at(phi, 2.0), lambda: valence_counts(phi, [3.0, 2.0])):
        with pytest.raises(ValueError, match="^phi is constant and equal to lambda$"):
            count()
    assert valence_at(phi, 3.0) == 0
    assert valence_counts(phi, [3.0]).tolist() == [0]

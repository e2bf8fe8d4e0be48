"""Tests for polynomial arithmetic, the Aberth root finder, and root counting.

Root-count oracles use numpy's companion-matrix eigenvalue solver, which
shares no code with the Aberth iteration under test, and the
argument-principle winding count defined here, which evaluates the
polynomial on a contour and finds no root at all.  find_roots starts
Aberth from those eigenvalues when they are well separated; it is compared
with circle_start_roots below, which always starts from a circle.  The
multiplicity structures that find_roots reports are checked by their
backward error in 50-digit mpmath.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsmirnov import _kernels, complex_poly
from rsmirnov.blaschke_smirnov import random_helson
from rsmirnov.complex_poly import (
    BOUNDARY_TOL,
    NonConvergence,
    Poly,
    compose_rational,
    disk_root_counts,
    find_roots,
    on_circle,
    poly_from_roots,
)
from rsmirnov.fixtures import all_fixtures
from rsmirnov.region_extraction import crosscheck, extract_full

#: winding_count's first sampling of the contour, doubled as needed
WINDING_SAMPLES = 4096


class CircleTooClose(Exception):
    """A zero or pole sits too close to the winding contour."""


def winding_count(p, q, radius):
    """Winding number of t -> p(r e^{it})/q(r e^{it}) around 0: an
    argument-principle count that shares no code with the root finder.

    Computed as winding(p) - winding(q) from accumulated phase increments
    over WINDING_SAMPLES points.  The sampling is doubled (up to 2^20
    points) until every increment is below pi/2; failure to get there, or a
    sample modulus collapsing to zero, raises CircleTooClose.
    """

    def poly_winding(c):
        if len(c.coeffs) == 1:
            if c.coeffs[0] == 0:
                raise CircleTooClose("zero polynomial has no winding")
            return 0
        n = WINDING_SAMPLES
        scale = np.abs(c.coeffs).max()
        while True:
            t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            w = c(radius * np.exp(1j * t))
            if np.abs(w).min() < 1e-13 * scale:
                raise CircleTooClose(
                    "polynomial modulus collapses on the contour")
            dphase = np.angle(w / np.roll(w, 1))
            if np.abs(dphase).max() < 0.5 * np.pi:
                return int(np.rint(dphase.sum() / (2.0 * np.pi)))
            if n >= 2 ** 20:
                raise CircleTooClose(
                    "phase increments stay too large; a root is within "
                    "sampling distance of the contour")
            n *= 2

    return poly_winding(p) - poly_winding(q)


def disk_count(p):
    """disk_root_counts of p alone, as a one-row stack."""
    return int(disk_root_counts(p.coeffs[None])[0])


def residual(p, roots):
    """Largest |p(root)| over roots, relative to the coefficient scale."""
    return float(np.abs(p(roots)).max() / np.abs(p.coeffs).max())


def np_roots_in_disk(p, radius=1.0):
    """Independent oracle: companion-matrix eigenvalues, strict interior."""
    c = p.coeffs[::-1]  # numpy wants descending
    return int(np.sum(np.abs(np.roots(c)) < radius))


class TestArithmetic:
    def test_monomial_product(self):
        p = Poly([0, 1]) * Poly([0, 1])
        assert p.degree == 2
        assert np.allclose(p.coeffs, [0, 0, 1])

    def test_additive_inverse_degree_convention(self):
        p = Poly([1, 2, 3])
        z = p + (-p)
        assert z.is_zero()
        assert z.degree == 0

    def test_compose_rational_padding(self):
        # p(w) = w with power 3 gives rnum*rden^2
        p = Poly([0, 1])
        out = compose_rational(p, Poly([0, 1]), Poly([1, -1]), power=3)
        expect = Poly([0, 1]) * Poly([1, -1]) * Poly([1, -1])
        assert np.allclose(out.coeffs, expect.coeffs)

    def test_scale_and_eval(self):
        p = Poly([1, 1]).scale(2)
        assert p(3.0) == pytest.approx(8.0)
        vals = p(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(vals, [2, 4, 6])

    def test_trailing_zeros_trimmed(self):
        p = Poly([1, 2, 0, 0])
        assert p.degree == 1


class TestFindRoots:
    def test_quadratic(self):
        p = Poly([-1, 1, 1])  # z^2 + z - 1
        rep = find_roots(p)
        got = sorted(rep.roots.real.tolist())
        assert got[0] == pytest.approx(-1.6180339887, abs=1e-9)
        assert got[1] == pytest.approx(0.6180339887, abs=1e-9)
        assert residual(p, rep.roots) < 1e-12

    def test_pure_cube(self):
        rep = find_roots(Poly([0, 0, 0, 1]))  # z^3
        assert len(rep.roots) == 3
        assert np.all(rep.multiplicities == 3)
        assert np.allclose(rep.roots, 0)

    def test_expanded_product(self):
        p = poly_from_roots([0.5, 2.0])
        rep = find_roots(p)
        got = sorted(rep.roots.real.tolist())
        assert got == pytest.approx([0.5, 2.0], abs=1e-10)

    def test_multiple_root_clustering(self):
        # (z - 0.5)^2 (z + 0.3)
        p = poly_from_roots([0.5, 0.5, -0.3])
        rep = find_roots(p)
        pairs = rep.clusters()
        mults = sorted(m for _, m in pairs)
        assert mults == [1, 2]

    def test_triple_root_off_origin(self):
        p = poly_from_roots([0.4 + 0.2j] * 3)
        rep = find_roots(p)
        assert sorted(m for _, m in rep.clusters()) == [3]
        assert abs(rep.roots[0] - (0.4 + 0.2j)) < 1e-4

    def test_boundary_flags(self):
        p = poly_from_roots([1.0, 0.5])
        rep = find_roots(p)
        assert on_circle(rep.roots).sum() == 1

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(Poly([3.0]))


class TestCountRootsInDisk:
    def test_quadratic_one_inside(self):
        p = Poly([-1, 1, 1])
        assert disk_count(p) == 1
        assert not on_circle(find_roots(p).roots).any()

    def test_root_outside(self):
        assert disk_count(Poly([-2, 1])) == 0

    def test_quartic_interior_count(self):
        # numerator of ((1+z)/(1-z))^4 - i; two of the four roots are inside
        n = Poly([1, 4, 6, 4, 1])
        d = Poly([1, -4, 6, -4, 1])
        p = n - d.scale(1j)
        count = disk_count(p)
        assert count == np_roots_in_disk(p)
        assert count == 2

    def test_circle_root_not_counted(self):
        p = poly_from_roots([1.0 + 0.0j, 0.2])
        assert disk_count(p) == 1
        roots = find_roots(p).roots
        assert (np.abs(np.abs(roots) - 1.0) < 1e-9).sum() == 1


class TestWinding:
    def test_single_zero(self):
        assert winding_count(Poly([0, 1]), Poly([1]), 0.9) == 1

    def test_two_zeros(self):
        p = poly_from_roots([0.5, 0.6])
        assert winding_count(p, Poly([1]), 0.9) == 2

    def test_rational_matches_root_count(self):
        # numerator/denominator of iz/(1-z^2) - (0.3+0.4j)
        lam = 0.3 + 0.4j
        num = Poly([-lam, 1j, lam])
        den = Poly([1, 0, -1])
        w = winding_count(num, den, 0.999)
        c_num = np_roots_in_disk(num, 0.999)
        c_den = np_roots_in_disk(den, 0.999)
        assert w == c_num - c_den
        assert w == 1

    def test_zero_on_contour_rejected(self):
        with pytest.raises(CircleTooClose):
            winding_count(poly_from_roots([1.0]), Poly([1]), 1.0)


# -- property-based invariants ------------------------------------------------

well_separated = st.lists(
    st.tuples(
        st.floats(-2, 2, allow_nan=False, allow_infinity=False),
        st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=12,
).filter(
    lambda pts: all(
        abs(complex(*a) - complex(*b)) > 0.3
        for i, a in enumerate(pts)
        for b in pts[i + 1:]
    )
)


@given(well_separated)
@settings(max_examples=60, deadline=None)
def test_roots_reconstruct_coefficients(pts):
    roots = [complex(*p) for p in pts]
    p = poly_from_roots(roots)
    rep = find_roots(p)
    q = poly_from_roots(rep.roots)
    scale = np.abs(p.coeffs).max()
    assert np.abs(q.coeffs - p.coeffs).max() < 1e-8 * scale


@given(well_separated)
@settings(max_examples=40, deadline=None)
def test_disk_count_matches_winding(pts):
    roots = [complex(*p) for p in pts]
    p = poly_from_roots(roots)
    tol = BOUNDARY_TOL
    count = disk_count(p)
    if (np.abs(np.abs(find_roots(p).roots) - 1.0) < tol).any():
        return  # a root on the circle voids the comparison by contract
    if any(abs(abs(r) - 1.0) < 0.05 for r in roots):
        return  # keep the winding contour honestly clear of roots
    w = winding_count(p, Poly([1]), 1.0 - 2 * tol)
    assert count == w


@given(
    well_separated,
    st.complex_numbers(min_magnitude=0.1, max_magnitude=5, allow_nan=False,
                       allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_count_invariant_under_scaling(pts, const):
    roots = [complex(*p) for p in pts]
    p = poly_from_roots(roots)
    c1 = disk_count(p)
    c2 = disk_count(p.scale(const))
    assert c1 == c2


# -- the eigenvalue start against the circle start ---------------------------


def _mp_monic(row):
    """The coefficients of row over its leading one, as mpmath numbers."""
    lead = mpmath.mpc(complex(row[-1]))
    return [mpmath.mpc(complex(c)) / lead for c in row]


def _mp_structure_error(row, roots):
    """Largest coefficient error of the monic polynomial with the given
    roots (each repeated once per multiplicity) against the monic row, at
    the working precision."""
    f = [mpmath.mpc(1)]
    for r in roots.tolist():
        f = [a - r * b for a, b in zip([mpmath.mpc(0)] + f, f + [0])]
    return max(abs(a - b) for a, b in zip(f, _mp_monic(row)))


def mp_backward_error(row, roots):
    """_mp_structure_error of roots against row relative to the largest
    coefficient of the monic row, in 50-digit mpmath."""
    with mpmath.workdps(50):
        return float(_mp_structure_error(row, roots)
                     / max(abs(b) for b in _mp_monic(row)))


def mp_displacement(row, roots, z, start):
    """(gap, bound) in 50-digit mpmath for a simple root z of a reported
    structure roots of row: gap is the distance from z to the root of row
    that Newton's method reaches from start; bound is twice the
    first-order displacement that the structure's backward error allows,
    2 beta sum |z|^k / |a'(z)|, since z is a root of a polynomial whose
    monic coefficients lie within beta of those of the monic row a; it is
    infinite where z is a multiple root of a."""
    with mpmath.workdps(50):
        a = _mp_monic(row)[::-1]
        beta = _mp_structure_error(row, roots)
        t = mpmath.mpc(complex(start))
        for _ in range(100):
            v, dv = mpmath.polyval(a, t, derivative=True)
            if not dv:
                break
            step = v / dv
            t -= step
            if abs(step) <= mpmath.mpf(10) ** -45 * (1 + abs(t)):
                break
        zz = mpmath.mpc(complex(z))
        _, dz = mpmath.polyval(a, zz, derivative=True)
        size = sum(abs(zz) ** k for k in range(len(a)))
        bound = 2 * beta * size / abs(dz) if dz else mpmath.inf
        return float(abs(zz - t)), float(bound)


def assert_structure_fits(row, rep, simple):
    """rep, the find_roots report of the polynomial with coefficients row,
    against simple, the roots of row found one by one with no multiplicity
    rule.

    A report without a multiple root keeps the polished roots of its row,
    so each of its roots lies within 1e-12 of the scale of one of simple.
    A report with one is checked in 50 digits: its backward error is
    within the acceptance bound STRUCTURE_TOL * n, doubled to absorb the
    rounding of the float-side check.  That places each m-fold root,
    which the roots of simple locate only to about eps^(1/m) (and a flung
    root of a cluster not at all), so the m roots of simple nearest to it
    are only set aside.  Its simple roots are roots of the fitted
    polynomial, not of row, so each lies within its mp_displacement bound
    of the root of row refined in 50 digits from the nearest of the rest.
    Every simple root is on the same side of BOUNDARY_TOL as that one of
    simple."""
    n = len(simple)
    assert len(rep.roots) == n
    scale = max(1.0, np.abs(simple).max())
    fitted = (rep.multiplicities > 1).any()
    if fitted:
        bound = 2.0 * complex_poly.STRUCTURE_TOL * n
        assert mp_backward_error(row, rep.roots) <= bound
    unmatched = list(range(n))
    for z, m in sorted(rep.clusters(), key=lambda c: -c[1]):
        near = sorted(unmatched, key=lambda i: abs(simple[i] - z))[:m]
        if m == 1:
            if fitted:
                gap, bound = mp_displacement(row, rep.roots, z,
                                             simple[near[0]])
                assert gap <= bound, (z, simple[near], gap, bound)
            else:
                assert abs(simple[near[0]] - z) <= 1e-12 * scale, (
                    z, simple[near])
            assert on_circle(z) == on_circle(simple[near[0]])
        for i in near:
            unmatched.remove(i)


def circle_start_roots(p):
    """(row, roots): the coefficients of p without vanishing leading ones,
    and its roots with Aberth always started from a circle (with up to
    three random perturbation restarts) and polished, each exact zero root
    stripped first and kept as zero, with no multiplicity rule.  It shares
    the polish with find_roots, so a comparison isolates the start."""
    c = p.coeffs.copy()
    scale = np.abs(c).max()
    while len(c) > 1 and abs(c[-1]) < 1e-14 * scale:
        c = c[:-1]
    row = c
    n_zero = 0
    while c[0] == 0:
        c = c[1:]
        n_zero += 1
    all_roots = [0.0 + 0.0j] * n_zero
    if len(c) > 1:
        roots = None
        rng = None
        for attempt in range(4):
            guesses = complex_poly._initial_guesses(c, rng)
            cand, _, ok = _kernels.aberth_iterate(c, guesses)
            if ok:
                roots = cand
                break
            rng = np.random.default_rng(0xC0FFEE + attempt)
        if roots is None:
            raise NonConvergence("no convergence")
        all_roots.extend(
            complex_poly._newton_polish(c[None], roots[None])[0].tolist())
    return row, np.array(all_roots, dtype=np.complex128)


def assert_same_report(p):
    row, simple = circle_start_roots(p)
    assert_structure_fits(row, find_roots(p), simple)


def _point(r_max):
    return st.complex_numbers(max_magnitude=r_max, allow_nan=False,
                              allow_infinity=False)


def _apart(pts, gap):
    return all(abs(a - b) > gap for i, a in enumerate(pts) for b in pts[i + 1:])


# simple roots at least 0.3 apart in |z| <= 2
separated_roots = st.lists(_point(2.0), min_size=1, max_size=6).filter(
    lambda pts: _apart(pts, 0.3))
# a base set plus a pair 1e-7 to 1e-3 apart
close_pair_roots = st.builds(
    lambda base, r, d, theta: base + [r, r + d * np.exp(1j * theta)],
    st.lists(_point(2.0), max_size=3),
    _point(2.0),
    st.floats(-7, -3).map(lambda e: 10.0 ** e),
    st.floats(0, 2 * np.pi),
).filter(lambda pts: _apart(pts[:-1], 0.3))
# an m-fold root on the circle or off it, plus simple roots
multiple_roots = st.builds(
    lambda base, r, m: base + [r] * m,
    st.lists(_point(2.0), max_size=2),
    st.one_of(st.floats(0, 2 * np.pi).map(lambda t: complex(np.exp(1j * t))),
              _point(2.0)),
    st.integers(2, 4),
).filter(lambda pts: _apart(sorted(set(pts), key=lambda z: (z.real, z.imag)),
                            0.3))
# simple roots within 1e-9 of the circle (clear of BOUNDARY_TOL itself,
# where the last bit decides the flag), plus simple roots
near_circle_roots = st.builds(
    lambda base, rim: base + rim,
    st.lists(_point(2.0), max_size=2),
    st.lists(st.builds(lambda t, d: complex((1.0 + d) * np.exp(1j * t)),
                       st.floats(0, 2 * np.pi),
                       st.floats(-0.99e-9, 0.99e-9)),
             min_size=1, max_size=3),
).filter(lambda pts: _apart(pts, 0.3))


@pytest.mark.parametrize("roots", [separated_roots, close_pair_roots,
                                   multiple_roots, near_circle_roots],
                         ids=["separated", "close_pair", "multiple",
                              "near_circle"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eigenvalue_start_matches_circle_start(roots, data):
    pts = data.draw(roots)
    lead = data.draw(_point(3.0).filter(lambda a: abs(a) > 0.1))
    assert_same_report(poly_from_roots(pts, lead=lead))


def _recording_aberth(monkeypatch):
    calls = []
    original = _kernels.aberth_iterate

    def recording(coeffs, initial, *args):
        out = original(coeffs, initial, *args)
        calls.append((np.array(initial), out[1]))
        return out

    monkeypatch.setattr(_kernels, "aberth_iterate", recording)
    return calls


@pytest.mark.parametrize("p, m", [(poly_from_roots([1.0] * 4), 4),
                                  (poly_from_roots([1.0] * 3), 3)])
def test_multiple_root_takes_the_circle_start(monkeypatch, p, m):
    calls = _recording_aberth(monkeypatch)
    rep = find_roots(p)
    assert not complex_poly._eigenvalue_start(p.coeffs[None])[1][0]
    circle = complex_poly._initial_guesses(p.coeffs, None)
    assert len(calls) == 1 and np.array_equal(calls[0][0], circle)
    assert rep.multiplicities.tolist() == [m] * m
    assert np.abs(rep.roots - 1.0).max() < 1e-3


def test_separated_cubic_takes_the_eigenvalue_start(monkeypatch):
    p = poly_from_roots([0.5, -0.4 + 0.7j, 1.5 - 0.2j], lead=2.0)
    calls = _recording_aberth(monkeypatch)
    rep = find_roots(p)
    eigs = np.roots(p.coeffs[::-1])
    assert len(calls) == 1
    start, sweeps = calls[0]
    assert np.abs(np.sort_complex(start) - np.sort_complex(eigs)).max() < 1e-14
    assert sweeps == 1
    assert rep.roots == pytest.approx(
        sorted([0.5, -0.4 + 0.7j, 1.5 - 0.2j], key=lambda z: z.real),
        abs=1e-14)


def test_row_driver_roots_do_not_depend_on_the_stack():
    # a four-fold root takes the circle start, a separated quartic the
    # eigenvalue start; each row keeps the roots it has alone
    ring = poly_from_roots([1.0] * 4).coeffs
    simple = poly_from_roots([0.5, -0.4 + 0.7j, 1.5 - 0.2j, 0.3j],
                             lead=2.0).coeffs
    stack = np.array([ring, simple])
    assert complex_poly._eigenvalue_start(stack)[1].tolist() == [False, True]
    roots = complex_poly._aberth_rows(stack)
    for row, r in zip(stack, roots):
        assert np.array_equal(r, complex_poly._aberth_rows(row[None])[0])
    assert np.array_equal(np.sort_complex(roots[1]),
                          find_roots(Poly(simple)).roots)


def crosscheck_stacks():
    """Every stack of rows with an eigenvalue start that _aberth_rows sees
    in the extractions and 200-point crosschecks of the five fixtures and
    of 30 draws of the (3, 2) census, with those starts."""
    stacks = []
    original = complex_poly._aberth_rows

    def recording(rows):
        stacks.append(rows.copy())
        return original(rows)

    rng = np.random.default_rng(101)
    phis = list(all_fixtures().values()) + [
        random_helson(rng, 3, 2, rmax=0.999, max_tries=20000)
        for _ in range(30)]
    complex_poly._aberth_rows = recording
    try:
        for phi in phis:
            ex = extract_full(phi, resolution=256, max_resolution=1024)
            crosscheck(phi, ex.tree, n_samples=200, seed=1)
    finally:
        complex_poly._aberth_rows = original
    out = []
    for rows in stacks:
        eigs, ok = complex_poly._eigenvalue_start(rows)
        if ok.any():
            out.append((rows[ok], eigs[ok]))
    return out


def hand_made_stacks():
    """Stacks whose rows stop in different sweeps or take the guards: a
    start at the roots, a start off them, coincident starts (dz = 0), a
    start at a critical point (p' = 0), a nan start, which stops after one
    sweep because no nan passes a running maximum, and a degree-1 stack."""
    simple = poly_from_roots([0.5, -0.4 + 0.7j, 1.5 - 0.2j], lead=2.0).coeffs
    near = np.array([0.5, -0.4 + 0.7j, 1.5 - 0.2j])
    cubic = np.array([simple] * 6)
    starts = np.array([near, near + 1e-6, near + 0.05j, [0.3, 0.3, 1.0],
                       [0.0, 1.0, 2.0j], [np.nan, 1.0, 2.0]])
    cubic[4] = [0.0, -3.0, 0.0, 1.0]
    linear = np.array([[1.0, 2.0], [0.5j, -1.0 + 1.0j], [3.0, 1e-3]],
                      dtype=np.complex128)
    return [(cubic, starts.astype(np.complex128)),
            (linear, np.array([[0.0], [1.0], [-5.0 + 2.0j]]))]


def test_aberth_batch_matches_aberth_iterate_row_by_row():
    stacks = crosscheck_stacks()
    assert sum(len(rows) for rows, _ in stacks) > 5000
    sweeps = set()
    for rows, starts in stacks + hand_made_stacks():
        roots, iterations, converged = _kernels.aberth_batch(rows, starts)
        with np.errstate(invalid="ignore"):  # the nan start
            want = [_kernels.aberth_iterate(row, start)
                    for row, start in zip(rows, starts)]
        assert roots.tobytes() == np.array([r for r, _, _ in want]).tobytes()
        assert iterations.tolist() == [it for _, it, _ in want]
        assert converged.tolist() == [done for _, _, done in want]
        sweeps.update(iterations.tolist())
    assert len(sweeps) >= 4


# -- the one-row root find against its stages ---------------------------------


def reference_polish(rows, roots):
    """The Newton polish as it ran before _newton_polish laid out its
    coefficients once: p and p' as one stack of 2k rows through
    horner_many, the points concatenated at every step, and both guards
    applied through masks at every step."""
    k, m = rows.shape
    both = np.zeros((2 * k, m), dtype=np.complex128)
    both[:k] = rows
    both[k:, :-1] = rows[:, 1:] * np.arange(1, m)
    for _ in range(complex_poly.POLISH_STEPS):
        pv = _kernels.horner_many(both, np.concatenate([roots, roots]))
        p, dp = pv[:k], pv[k:]
        mask = np.abs(dp) > 1e-280
        upd = np.where(mask, p / np.where(mask, dp, 1.0), 0.0)
        big = np.abs(upd) > 0.1 * (1.0 + np.abs(roots))
        upd[big] = 0.0
        roots = roots - upd
    return roots


def reference_min_gaps(roots):
    """Smallest distance between two entries of each row, over the whole
    distance matrix with its diagonal set to inf."""
    k, n = roots.shape
    gaps = np.abs(roots[:, :, None] - roots[:, None, :]).reshape(k, n * n)
    gaps[:, ::n + 1] = np.inf
    return gaps.min(axis=1)


def staged_find_roots(p):
    """find_roots of p one stage at a time, up to its multiplicity rule, as
    (row, roots, n_zero, separated): _trimmed; the companion eigenvalues of
    _eigenvalue_start; Aberth from them, or from the circle with up to
    three perturbation restarts; and the reference polish.  row is the
    coefficient row that _trimmed leaves, with its n_zero exact zero roots
    kept; roots are those zeros, then the polished roots, with one below
    1e-300 in modulus set to zero; separated is True when every two
    polished roots lie at least EIG_START_SEPARATION * (1 + max |r|)
    apart, so that find_roots keeps them all simple as they are."""
    c, n_zero = complex_poly._trimmed(p.coeffs)
    roots = np.zeros(0, dtype=np.complex128)
    if len(c) > 1:
        eigs, ok = complex_poly._eigenvalue_start(c[None])
        assert complex_poly._min_gaps(eigs).tobytes() == (
            reference_min_gaps(eigs).tobytes())
        start, done = eigs[0], False
        if ok[0]:
            start, _, done = _kernels.aberth_iterate(c, start)
        rng = None
        for attempt in range(0 if done else 4):
            start, _, done = _kernels.aberth_iterate(
                c, complex_poly._initial_guesses(c, rng))
            if done:
                break
            rng = np.random.default_rng(0xC0FFEE + attempt)
        assert done
        roots = reference_polish(c[None], start[None])[0]
    roots = np.where(np.abs(roots) < 1e-300, 0.0, roots)
    separated = True
    if len(roots) > 1:
        gap = reference_min_gaps(roots[None])
        assert complex_poly._min_gaps(roots[None]).tobytes() == gap.tobytes()
        separated = gap[0] >= (
            complex_poly.EIG_START_SEPARATION * (1.0 + np.abs(roots).max()))
    row = p.coeffs[:len(c) + n_zero]
    return (row, np.concatenate([np.zeros(n_zero, dtype=np.complex128), roots]),
            n_zero, separated)


def objective_polynomials():
    """D and W of 300 parameter vectors of the (2, 1) edge, drawn as
    synthesize_search draws its starts, then rows with a leading
    coefficient that _trimmed drops, with exact zero roots, and with
    clustered roots."""
    from rsmirnov.blaschke_smirnov import RealSmirnov, _helson_quotient
    from rsmirnov.synthesis import _params_to_blaschke

    polys = []
    for seed in range(300):
        rng = np.random.default_rng((seed, 0))
        x = np.concatenate([rng.normal(0.0, 0.8, 6),
                            rng.uniform(0.0, 2.0 * np.pi, 2)])
        num, den = _helson_quotient(*_params_to_blaschke(x, 1, 2))
        polys += [den, RealSmirnov(num, den).w_poly]
    polys += [
        Poly([1.0, -0.5, 0.25, 1e-17]),
        Poly([0.5 - 1j, 2.0, 0.3j, 1.0, 3e-16]),
        Poly([0.0, 0.0, 2.0, -1.0, 1j]),
        Poly([0.0, 1.0, 1.0]),
        Poly([0.0, 0.0, 3.0]),
        poly_from_roots([0.3 + 0.1j] * 3 + [-1.5]),
        poly_from_roots([0.5, 0.5, 0.5 + 1e-9, -0.2j], lead=2.0 - 1j),
        poly_from_roots([1.0] * 4),
        # the polish flings exactly one root of the four-fold cluster
        poly_from_roots([0.6636506051269776 - 0.961985826145586j,
                         -0.032428864394952926 - 0.4919140789794038j]
                        + [-1.337260325066792 - 0.8053650220211703j] * 4,
                        lead=-0.4444107616426947 - 0.8400406772234785j),
    ]
    return [p for p in polys if p.degree >= 1]


# an m-fold root on the circle, inside it and outside it, alone or beside a
# simple root; a six-fold root at 1 (the denominator of power_chain(6)); a
# four-fold root beside a simple one in the disk; and two simple roots 1e-6
# apart, which stay simple
PLANTED = ([(w, m, extra) for m in (2, 3, 4)
            for w in (1.0, -1j, -0.3 + 0.4j, 1.1 + 0.1j)
            for extra in ([], [-0.5])]
           + [(w, 4, extra) for w in (-0.5j, 0.4, 1.1)
              for extra in ([], [-0.5])]
           + [(1.0, 6, []), (1j, 4, [0.3 - 0.2j]),
              (0.5, 1, [0.500001, -0.3j])])


def test_find_roots_matches_its_stages():
    planted = [poly_from_roots([w] * m + extra) for w, m, extra in PLANTED]
    for p, (w, m, extra) in zip(planted, PLANTED):
        rep = find_roots(p)
        assert sorted(rep.multiplicities.tolist()) == sorted(
            [m] * m + [1] * len(extra)), (w, m)
        placed = [z for z, k in rep.clusters() if k == m]
        # two simple roots 1e-6 apart are located only to about 1e-10
        assert min(abs(z - w) for z in placed) <= (
            1e-12 if m > 1 else 1e-9), (w, m)
        inside = m * (abs(w) < 1.0 - BOUNDARY_TOL) + sum(abs(e) < 1.0 for e in extra)
        assert complex_poly.count_inside(rep.roots) == inside, (w, m)
    polys = objective_polynomials() + planted
    by_length = {}
    for p in polys:
        rep = find_roots(p)
        row, roots, n_zero, separated = staged_find_roots(p)
        if separated:
            mult = np.array([n_zero] * n_zero + [1] * (len(roots) - n_zero))
            order = np.lexsort((roots.imag, roots.real))
            assert rep.roots.tobytes() == roots[order].tobytes()
            assert rep.multiplicities.tobytes() == mult[order].tobytes()
        else:
            assert_structure_fits(row, rep, roots)
        by_length.setdefault(len(p.coeffs), []).append(
            (p.coeffs, complex_poly.count_inside(rep.roots)))
    for rows in by_length.values():
        counts = disk_root_counts(np.array([c for c, _ in rows]))
        assert counts.tolist() == [n for _, n in rows]


def test_unmerged_four_fold_circle_root_is_not_counted():
    p = poly_from_roots([-1j] * 4)
    assert [m for _, m in find_roots(p).clusters()] == [4]
    assert disk_count(p) == 0

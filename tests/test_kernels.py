"""The kernels against scalar references and known answers.

classify_grid evaluates whole rows of cells with numpy.  It must classify
every cell exactly as the per-cell loop below does: the arithmetic is the
same, so no tolerance is allowed.  aberth_iterate and trace_arc are
checked on inputs whose roots and level curve are known in closed form.
horner_many over a stack of coefficient rows must match it one row at a
time, bit for bit.  trace_arc must walk exactly as the same walk written out again
below (trace_arc_python) does, on the same Python numbers.  Fed numpy
arrays, that walk runs on numpy scalars as the kernel once did; trace_arc
must end each walk as it ends.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsmirnov import region_extraction as rx
from rsmirnov._kernels import (
    BAND_FLOOR,
    BP_RADIUS,
    POLE_CUTOFF,
    TRACE_H_FIRST,
    TRACE_H_MAX,
    TRACE_H_MIN,
    TRACE_HIT_BRANCH,
    TRACE_HIT_CIRCLE,
    TRACE_HIT_POLE,
    TRACE_MAX_STEPS,
    TRACE_NON_MONOTONE,
    TRACE_R_STOP,
    TRACE_STALLED,
    TRACE_STEP_LIMIT,
    aberth_iterate,
    classify_grid,
    horner_many,
    horner_scalar,
    trace_arc,
)
from rsmirnov.blaschke_smirnov import Blaschke, precompose_inner, random_helson
from rsmirnov.fixtures import all_fixtures, double_slit


def classify_grid_loop(ncoef, dcoef, wcoef, res, margin, band):
    """Scalar reference: one cell at a time, Horner by horner_scalar."""
    cls = np.zeros((res, res), dtype=np.int8)
    h = 2.0 / res
    rlim2 = (1.0 - margin) ** 2
    for iy in range(res):
        y = -1.0 + (iy + 0.5) * h
        for ix in range(res):
            x = -1.0 + (ix + 0.5) * h
            if x * x + y * y >= rlim2:
                continue
            z = complex(x, y)
            nv = horner_scalar(ncoef, z)
            dv = horner_scalar(dcoef, z)
            wv = horner_scalar(wcoef, z)
            imnd = (nv * dv.conjugate()).imag
            d2 = (dv * dv.conjugate()).real
            if abs(imnd) < band * abs(wv) + BAND_FLOOR * d2:
                cls[iy, ix] = 2
            elif imnd > 0:
                cls[iy, ix] = 1
            else:
                cls[iy, ix] = -1
    return cls


def assert_same_cells(phi, res):
    # the margin and band partition() uses at this resolution
    args = (phi.num.coeffs, phi.den.coeffs, phi.w_poly.coeffs,
            res, 1.0 / res, 2.5 / res)
    got = classify_grid(*args)
    want = classify_grid_loop(*args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert int((got != want).sum()) == 0


@pytest.mark.parametrize("name", sorted(all_fixtures()))
# 200 takes three row blocks, the last one short
@pytest.mark.parametrize("res", [64, 97, 128, 200])
def test_classify_grid_fixtures_match_loop(name, res):
    assert_same_cells(all_fixtures()[name], res)


@given(
    seed=st.integers(0, 10 ** 6),
    deg1=st.integers(1, 4),
    deg2=st.integers(1, 3),
    rmax=st.sampled_from([0.9, 0.999]),
    res=st.integers(64, 128),
)
@settings(max_examples=20, deadline=None)
def test_classify_grid_random_helson_match_loop(seed, deg1, deg2, rmax, res):
    phi = random_helson(np.random.default_rng(seed), deg1, deg2, rmax=rmax,
                        max_tries=20000)
    assert_same_cells(phi, res)


@given(seed=st.integers(0, 10 ** 6), deg=st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_horner_many_matches_horner_scalar(seed, deg):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    z = (rng.uniform(-1.2, 1.2, size=(7, 5))
         + 1j * rng.uniform(-1.2, 1.2, size=(7, 5)))
    got = horner_many(coeffs, z)
    assert got.shape == z.shape
    # numpy's array loop for complex products may fuse multiply-adds where
    # the scalar path does not, so the two agree to within Horner's
    # rounding bound, not bit for bit
    eps = np.finfo(np.float64).eps
    for idx in np.ndindex(z.shape):
        scale = horner_scalar(np.abs(coeffs), abs(z[idx])).real
        bound = 4 * (deg + 1) * eps * scale
        assert abs(got[idx] - horner_scalar(coeffs, z[idx])) <= bound


@given(seed=st.integers(0, 10 ** 6), deg=st.integers(0, 8),
       k=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_horner_many_rows_match_one_row_at_a_time(seed, deg, k):
    # coefficient rows, one column per Horner step broadcast along each
    # row of points, take the same array arithmetic as a single row, so the
    # root finder's stacked polish matches its one-row polish exactly
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(k, deg + 1)) + 1j * rng.normal(size=(k, deg + 1))
    z = rng.normal(size=(k, 5)) + 1j * rng.normal(size=(k, 5))
    got = horner_many(coeffs.T[:, :, None], z)
    assert got.shape == z.shape
    for row, zi, g in zip(coeffs, z, got):
        assert np.array_equal(g, horner_many(row, zi))


def monic_ascending(roots):
    """Coefficients, constant term first, of prod (z - r) over roots."""
    return np.poly(roots)[::-1]


@pytest.mark.parametrize("roots, tol", [
    ([0.5, -0.3 + 0.4j, 1.2j, -1.0], 1e-12),
    # a double root: the iterates near it close in only linearly, so the
    # residual stop ends the run, and the root is good to about sqrt(eps)
    ([0.5, 0.5, -0.7, 0.2j], 1e-7),
])
def test_aberth_iterate_finds_known_roots(roots, tol):
    n = len(roots)
    guesses = 0.9 * np.exp(2j * np.pi * (np.arange(n) + 0.25) / n)
    found, iterations, converged = aberth_iterate(monic_ascending(roots),
                                                  guesses)
    assert converged and iterations < 400
    # every root has an iterate near it, counted with multiplicity
    unmatched = list(found)
    for r in roots:
        k = int(np.argmin([abs(z - r) for z in unmatched]))
        assert abs(unmatched.pop(k) - r) < tol


@pytest.mark.parametrize("direction, end", [(1.0, -1j), (-1.0, 1j)])
def test_trace_arc_follows_the_double_slit_axis(direction, end):
    # Im phi = 0 on the imaginary axis, where phi(iy) = -y / (1 + y^2):
    # walking with Re phi increasing runs down to -i, decreasing up to +i
    phi = double_slit()
    pts, status, bp_hit = trace_arc(phi.num.coeffs.tolist(), phi.den.coeffs.tolist(),
                                     phi.w_poly.coeffs.tolist(), 0.05j, direction)
    assert status == TRACE_HIT_CIRCLE and bp_hit == -1
    assert pts[0] == 0.05j and abs(pts[-1] - end) < 1e-6
    assert np.abs(pts.real).max() < 1e-9
    values = phi.eval(pts)
    assert np.abs(values.imag).max() < 1e-9
    assert np.all(np.diff(direction * values.real) > 0)


# ---------------------------------------------------------------------------
# trace_arc against the same walk written out again


def trace_arc_python(ncoef, dcoef, wcoef, z0, direction, branch_points=(), stops=()):
    """trace_arc step for step: on Python numbers, with Python's divisions,
    the reference the kernel's walk matches bit for bit; on numpy arrays,
    the numpy-scalar walk the kernel replaced."""
    pole_cutoff, bp_radius, r_stop = POLE_CUTOFF, BP_RADIUS, TRACE_R_STOP
    h_min, h_max, max_steps = TRACE_H_MIN, TRACE_H_MAX, TRACE_STEP_LIMIT
    pts = np.empty(max_steps, dtype=np.complex128)

    def phi(z):
        return horner_scalar(ncoef, z), horner_scalar(dcoef, z)

    def dphi(z, dv):
        wv = horner_scalar(wcoef, z)
        d2 = dv * dv
        if abs(d2) < 1e-150:
            return 0.0 + 0.0j
        return wv / d2

    def reach(z):
        near = 1e300
        for c in list(branch_points) + [c for c, _ in stops]:
            if abs(z - c) < near:
                near = abs(z - c)
        return 0.5 * near

    z = complex(z0)
    nv, dv = phi(z)
    if abs(dv) < 1e-150:
        return pts[:0].copy(), TRACE_STALLED, -1
    fz = nv / dv
    fp = dphi(z, dv)
    n = 0
    pts[n] = z
    n += 1
    re_prev = fz.real
    h = TRACE_H_FIRST
    he_cap = reach(z)
    status = TRACE_MAX_STEPS
    bp_hit = -1
    while n < max_steps:
        if abs(fp) < 1e-150:
            status = TRACE_HIT_CIRCLE if 1.0 - abs(z) < 1e-3 else TRACE_STALLED
            break
        tau = direction * fp.conjugate() / abs(fp)
        he = h
        cap = 0.3 * (1.0 - abs(z))
        if cap < 2e-4:
            cap = 2e-4
        if he > cap:
            he = cap
        if he > he_cap:
            he = he_cap
        zp = z + he * tau
        ok = False
        zc = zp
        prev_c = 1e300
        for _ in range(6):
            nv2, dv2 = phi(zc)
            if abs(dv2) < 1e-150:
                break
            f2 = nv2 / dv2
            fp2 = dphi(zc, dv2)
            if abs(fp2) < 1e-150:
                break
            corr = f2.imag * 1j * fp2.conjugate() / (abs(fp2) ** 2)
            zc = zc - corr
            c = abs(corr)
            if c < 1e-13 + 1e-9 * he or (c > 0.25 * prev_c and c < 1e-12 + 1e-3 * he):
                ok = True
                break
            prev_c = c
        if not ok:
            h = 0.5 * he
            if h < h_min:
                status = TRACE_HIT_CIRCLE if 1.0 - abs(z) < 1e-3 else TRACE_STALLED
                break
            continue
        nv2, dv2 = phi(zc)
        if abs(dv2) < 1e-150:
            status = TRACE_HIT_POLE
            break
        f2 = nv2 / dv2
        fp2 = dphi(zc, dv2)
        if abs(fp2) > 0:
            tau2 = direction * fp2.conjugate() / abs(fp2)
            dot = (tau2 * tau.conjugate()).real
            if dot < 0.98 and he > h_min:
                h = 0.5 * he
                continue
            if dot > 0.999 and h < h_max:
                h *= 1.3
                if h > h_max:
                    h = h_max
        dre = direction * (f2.real - re_prev)
        if dre < -1e-9 * (1.0 + abs(f2.real)):
            status = TRACE_NON_MONOTONE
            break
        z = zc
        fz = f2
        fp = fp2
        re_prev = f2.real
        pts[n] = z
        n += 1
        if abs(z) >= r_stop:
            status = TRACE_HIT_CIRCLE
            break
        if abs(fz) >= pole_cutoff:
            status = TRACE_HIT_POLE
            break
        hit = -1
        for b in range(len(branch_points)):
            if abs(z - branch_points[b]) < bp_radius:
                hit = b
                break
        if hit >= 0:
            status = TRACE_HIT_BRANCH
            bp_hit = hit
            break
        if any(abs(z - c) < r for c, r in stops):
            status = TRACE_HIT_CIRCLE
            break
        he_cap = reach(z)
    return pts[:n].copy(), status, bp_hit


def census_pairs(n):
    rng = np.random.default_rng(101)
    return [random_helson(rng, 3, 2, rmax=0.999, max_tries=20000)
            for _ in range(n)]


TRACE_CASES = {
    **all_fixtures(),
    "slit_squared": precompose_inner(double_slit(), Blaschke([0, 0])),
    **{"census %d" % k: phi for k, phi in enumerate(census_pairs(4))},
}


def recorded_walks(name, monkeypatch):
    """Every walk an extraction of TRACE_CASES[name] at 256 and 512 makes:
    trace_arc's arguments and its result, call by call."""
    calls = []

    def recording(*args, **kwargs):
        out = trace_arc(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(rx, "trace_arc", recording)
    phi = TRACE_CASES[name]
    for res in (256, 512):
        rx.trace_segments(phi, res)
    return phi, calls


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_arc_matches_the_python_reference_walk(name, monkeypatch):
    # every walk, run again by the reference from the same start
    phi, calls = recorded_walks(name, monkeypatch)
    coeffs = (phi.num.coeffs.tolist(), phi.den.coeffs.tolist(),
              phi.w_poly.coeffs.tolist())
    for (_, _, _, z0, direction), kwargs, (pts, status, bp_hit) in calls:
        want = trace_arc_python(*coeffs, z0, direction,
                                branch_points=kwargs["branch_points"],
                                stops=kwargs["stops"])
        assert (status, bp_hit) == want[1:]
        assert pts.dtype == want[0].dtype
        assert pts.tobytes() == want[0].tobytes()
    statuses = {out[1] for *_, out in calls}
    assert statuses <= {TRACE_HIT_CIRCLE, TRACE_HIT_POLE, TRACE_HIT_BRANCH}
    if name == "slit_squared":
        assert TRACE_HIT_BRANCH in statuses


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_arc_matches_the_numpy_scalar_walk(name, monkeypatch):
    # the reference fed numpy arrays runs on numpy scalars and divides as
    # numpy does: the walk trace_arc replaced.  Their low bits differ, so
    # each walk must end as that one ends: the same way, at the same
    # branch point, and within BP_RADIUS of its last point.
    phi, calls = recorded_walks(name, monkeypatch)
    coeffs = (phi.num.coeffs, phi.den.coeffs, phi.w_poly.coeffs)
    for (_, _, _, z0, direction), kwargs, (pts, status, bp_hit) in calls:
        bps = np.array(kwargs["branch_points"], dtype=np.complex128)
        stops = [(np.complex128(c), np.float64(r)) for c, r in kwargs["stops"]]
        want = trace_arc_python(*coeffs, z0, direction, branch_points=bps,
                                stops=stops)
        assert (status, bp_hit) == want[1:]
        assert pts[0] == want[0][0]
        assert abs(pts[-1] - want[0][-1]) < BP_RADIUS


# the double slit's axis walk down from 0.05i passes through -0.5i, so a
# walk with an end disk round -0.5i ends in it; the recorded walks need
# not reach any of these
END_DISK_CASES = {
    # a branch point wins over a stop disk that holds the same points
    "branch inside a stop": ([-0.5j], [(-0.5j, BP_RADIUS)], TRACE_HIT_BRANCH, 0),
    # of two branch points at one place, the first is hit
    "coincident branches": ([-0.5j, -0.5j], [], TRACE_HIT_BRANCH, 0),
    # the start point is not checked: the walk ends at its next point
    "start inside a stop": ([], [(0.1j, 0.1)], TRACE_HIT_CIRCLE, -1),
}


@pytest.mark.parametrize("name", sorted(END_DISK_CASES))
def test_trace_arc_scans_its_end_disks_in_order(name):
    branch_points, stops, status, bp_hit = END_DISK_CASES[name]
    phi = double_slit()
    args = (phi.num.coeffs.tolist(), phi.den.coeffs.tolist(),
            phi.w_poly.coeffs.tolist(), 0.05j, 1.0)
    pts, got_status, got_bp = trace_arc(*args, branch_points=branch_points, stops=stops)
    want = trace_arc_python(*args, branch_points=branch_points, stops=stops)
    assert (got_status, got_bp) == (status, bp_hit) == want[1:]
    assert pts.tobytes() == want[0].tobytes()
    assert len(pts) >= 2 and pts[0] == 0.05j

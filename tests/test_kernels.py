"""The kernels against scalar references and known answers.

classify_grid evaluates whole rows of cells with numpy.  It must classify
every cell exactly as the per-cell loop below does: the arithmetic is the
same, so no tolerance is allowed.  aberth_iterate and trace_arc are
checked on inputs whose roots and level curve are known in closed form.
horner_many over coefficient rows must match it one row at a time, bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsmirnov._kernels import (
    BAND_FLOOR,
    TRACE_HIT_CIRCLE,
    aberth_iterate,
    classify_grid,
    horner_many,
    horner_scalar,
    trace_arc,
)
from rsmirnov.blaschke_smirnov import random_helson
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
    args = (phi.num.coeffs, phi.den.coeffs, phi.w_poly().coeffs,
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
    # coefficient rows take the same array arithmetic as a single row, so
    # the root finder's stacked polish matches its one-row polish exactly
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(k, deg + 1)) + 1j * rng.normal(size=(k, deg + 1))
    z = rng.normal(size=(k, 5)) + 1j * rng.normal(size=(k, 5))
    got = horner_many(coeffs, z)
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
    pts, status, bp_hit = trace_arc(phi.num.coeffs, phi.den.coeffs,
                                     phi.w_poly().coeffs, 0.05j, direction)
    assert status == TRACE_HIT_CIRCLE and bp_hit == -1
    assert pts[0] == 0.05j and abs(pts[-1] - end) < 1e-6
    assert np.abs(pts.real).max() < 1e-9
    values = phi.eval(pts)
    assert np.abs(values.imag).max() < 1e-9
    assert np.all(np.diff(direction * values.real) > 0)

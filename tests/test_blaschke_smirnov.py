"""Tests for Blaschke products, real Smirnov construction, and valences.

The quartic fixture has a closed-form preimage oracle: with w = (1+z)/(1-z)
the equation w^4 = lambda has a disk solution per fourth root of lambda
with positive real part.  That oracle is independent of all root finding.
Integral means are checked against a 30-digit mpmath quadrature
(mp_integral_mean).
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rsmirnov.blaschke_smirnov import (
    Blaschke,
    BoundaryNotReal,
    DenominatorVanishesInDisk,
    NotRelativelyPrime,
    QuadratureUnstable,
    RealSmirnov,
    from_blaschke,
    from_rational,
    halfplane_valences,
    integral_means,
    is_infinite,
    precompose_inner,
    random_helson,
    real_affine,
    valence_at,
    valence_counts,
)
from rsmirnov.complex_poly import (
    BOUNDARY_TOL,
    Poly,
    find_roots,
    poly_from_roots,
)
from rsmirnov import _kernels, blaschke_smirnov, complex_poly, fixtures
from rsmirnov._kernels import horner_scalar
from rsmirnov.region_extraction import extract_full


def mp_integral_mean(phi, p, r):
    """Oracle for integral_means: M_p(r, phi) by mpmath's tanh-sinh
    quadrature at 30 digits, with N/D in the monomial basis and
    breakpoints at the angles of the roots of N and D (numpy.roots)."""
    with mpmath.workdps(30):
        def coeffs(poly):
            return [mpmath.mpc(c.real, c.imag) for c in poly.coeffs[::-1]]

        num, den = coeffs(phi.num), coeffs(phi.den)
        rr, pp = mpmath.mpf(r), mpmath.mpf(p)

        def integrand(t):
            z = rr * mpmath.expj(t)
            return abs(mpmath.polyval(num, z) / mpmath.polyval(den, z)) ** pp

        angles = {0.0}
        for poly in (phi.num, phi.den):
            if poly.degree >= 1:
                for z in np.roots(poly.coeffs[::-1]):
                    angles.add(math.atan2(z.imag, z.real) % (2.0 * math.pi))
        points = [mpmath.mpf(t) for t in sorted(angles)] + [2 * mpmath.pi]
        total = mpmath.quad(integrand, points)
        return float((total / (2 * mpmath.pi)) ** (1 / pp))


def quartic_preimage_count(lam):
    """Oracle: solutions of ((1+z)/(1-z))^4 = lam in the disk equal fourth
    roots of lam in the right half plane."""
    r = abs(lam) ** 0.25
    base = cmath.phase(lam) / 4.0
    count = 0
    for k in range(4):
        w = r * cmath.exp(1j * (base + k * math.pi / 2.0))
        if w.real > 0:
            count += 1
    return count


def blaschke_value(b, z):
    """Oracle: B(z) as the constant times the factors (a - z)/(1 - conj(a) z)
    taken one by one, with the factor z for a zero at the origin."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, b.constant, dtype=np.complex128)
    for a in b.zeros:
        if a == 0:
            out = out * z
        else:
            out = out * (a - z) / (1.0 - np.conj(a) * z)
    if out.shape == ():
        return complex(out)
    return out


class TestBlaschke:
    def test_single_zero_at_half(self):
        b = Blaschke([0.0])
        assert blaschke_value(b, 0.5) == pytest.approx(0.5)

    def test_boundary_modulus_one(self):
        b = Blaschke([0.3 + 0.2j, -0.5j, 0.0], cmath.exp(0.7j))
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        vals = blaschke_value(b, np.exp(1j * t))
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-12

    def test_degree_zero_constant(self):
        b = Blaschke([], 1j)
        assert blaschke_value(b, 0.3 - 0.1j) == 1j

    def test_zero_modulus_guard(self):
        with pytest.raises(ValueError):
            Blaschke([1.0])
        with pytest.raises(ValueError):
            Blaschke([0.5], constant=2.0)

    def test_non_finite_zero_is_rejected(self):
        # a NaN zero used to hide the zero outside the disk beside it
        for zeros in ([complex("nan")], [complex("nan"), 2.0], [0.3, complex("inf")]):
            with pytest.raises(ValueError, match="zeros"):
                Blaschke(zeros)

    def test_non_finite_constant_is_rejected(self):
        for c in (complex("nan"), complex(0.6, float("nan")), complex("inf")):
            with pytest.raises(ValueError, match="constant"):
                Blaschke([0.3], constant=c)

    def test_rational_form_matches_product(self):
        b = Blaschke([0.4, -0.2 + 0.3j, 0.0], cmath.exp(0.3j))
        p, q = map(Poly, b.as_rational())
        for z in [0.1 + 0.2j, -0.7j, 0.55]:
            assert p(z) / q(z) == pytest.approx(blaschke_value(b, z), abs=1e-13)

    def test_json_round_trip(self):
        b = Blaschke([0.4, -0.2 + 0.3j], cmath.exp(0.3j))
        b2 = Blaschke.from_json(b.to_json())
        assert np.allclose(b2.zeros, b.zeros)
        assert b2.constant == pytest.approx(b.constant)


class TestConstruction:
    def test_halfplane_map_from_pair(self):
        phi = from_blaschke(Blaschke(), Blaschke([0.0]))
        for z in [0.0, 0.3 + 0.1j, -0.2j]:
            expect = 1j * (1 + z) / (1 - z)
            assert phi.eval(z) == pytest.approx(expect, abs=1e-12)

    def test_negated_halfplane_map_from_pair(self):
        phi = from_blaschke(Blaschke([0.0]), Blaschke())
        for z in [0.0, 0.3 + 0.1j, -0.2j]:
            expect = -1j * (1 + z) / (1 - z)
            assert phi.eval(z) == pytest.approx(expect, abs=1e-12)

    def test_shared_zero_rejected(self):
        with pytest.raises(NotRelativelyPrime):
            from_blaschke(Blaschke([0.0]), Blaschke([0.0]))

    def test_koebe_accepted(self):
        phi = fixtures.koebe()
        assert phi.boundary_value(math.pi) == pytest.approx(-0.25, abs=1e-12)

    def test_double_slit_accepted(self):
        phi = fixtures.double_slit()
        assert phi.boundary_value(math.pi / 2) == pytest.approx(-0.5, abs=1e-12)

    def test_interior_denominator_zero_rejected(self):
        with pytest.raises(DenominatorVanishesInDisk):
            from_rational(Poly([0, 1]), Poly([-0.5, 1]))

    def test_non_real_boundary_rejected(self):
        # z itself is not real on the circle
        with pytest.raises(BoundaryNotReal):
            from_rational(Poly([0, 1]), Poly([1]))

    def test_boundary_that_overflows_is_not_real(self):
        # (1 + z)/(1 + z/2) is not real on the circle; at t = 0 its Im
        # overflows to NaN, which failed every comparison and was accepted
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BoundaryNotReal):
            from_rational([1e308, 1e308], [1, 0.5])

    @pytest.mark.parametrize("num, den", [
        ([math.nan, 1], [1, 0.5]),
        ([0, 1], [1, 0, math.inf]),
        ([1, math.inf], [1, 0.5]),
        ([0, 1j], [1, 0, math.nan]),
    ])
    def test_non_finite_coefficient_rejected(self, num, den):
        # a NaN fails every tolerance comparison, so no later check sees it
        with pytest.raises(ValueError, match="finite"):
            from_rational(num, den)

    def test_helson_identity(self):
        # (phi - i)/(phi + i) = B2/B1 at interior points
        rng = np.random.default_rng(7)
        phi = random_helson(rng, 2, 3)
        pts = 0.8 * np.sqrt(rng.random(32)) * np.exp(
            2j * np.pi * rng.random(32)
        )
        for z in pts:
            w = phi.eval(complex(z))
            lhs = (w - 1j) / (w + 1j)
            rhs = blaschke_value(phi.b2, z) / blaschke_value(phi.b1, z)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_pair_and_rational_agree(self):
        rng = np.random.default_rng(11)
        phi = random_helson(rng, 2, 2)
        pts = 0.9 * np.sqrt(rng.random(64)) * np.exp(
            2j * np.pi * rng.random(64)
        )
        for z in pts:
            b1, b2 = blaschke_value(phi.b1, z), blaschke_value(phi.b2, z)
            direct = 1j * (b1 + b2) / (b1 - b2)
            assert phi.eval(complex(z)) == pytest.approx(direct, abs=1e-9)

    def test_smirnov_json_round_trip(self):
        phi = fixtures.double_slit()
        phi2 = RealSmirnov.from_json(phi.to_json())
        for z in [0.1, 0.2 + 0.3j]:
            assert phi2.eval(z) == pytest.approx(phi.eval(z), abs=1e-12)
        rng = np.random.default_rng(3)
        psi = random_helson(rng, 1, 2)
        psi2 = RealSmirnov.from_json(psi.to_json())
        assert psi2.b1.degree == 1 and psi2.b2.degree == 2
        for z in [0.1, -0.4j]:
            assert psi2.eval(z) == pytest.approx(psi.eval(z), abs=1e-10)


class TestEval:
    def test_upper_map_at_origin(self):
        assert fixtures.upper_halfplane_map().eval(0.0) == pytest.approx(1j)

    def test_koebe_at_origin(self):
        assert fixtures.koebe().eval(0.0) == pytest.approx(0.0)

    def test_koebe_near_slit_tip(self):
        val = fixtures.koebe().eval(-1 + 1e-9j)
        assert val == pytest.approx(-0.25, abs=1e-6)

    def test_pole_gives_infinity(self):
        assert is_infinite(fixtures.koebe().eval(1.0))

    def test_boundary_values_match_formulas(self):
        phi1 = fixtures.upper_halfplane_map()
        for t in [0.5, 1.0, math.pi, 4.0]:
            assert phi1.boundary_value(t) == pytest.approx(
                -1.0 / math.tan(t / 2), abs=1e-9
            )
        phi3 = fixtures.fourth_power_map()
        for t in [0.5, 1.2, math.pi]:
            assert phi3.boundary_value(t) == pytest.approx(
                (1.0 / math.tan(t / 2)) ** 4, abs=1e-7
            )
        phi5 = fixtures.double_slit()
        for t in [0.7, math.pi / 2, 2.0]:
            assert phi5.boundary_value(t) == pytest.approx(
                -0.5 / math.sin(t), abs=1e-9
            )

    def test_koebe_pole_is_infinite(self):
        # inf at a circle pole, as BoundaryPieces lists it, though both
        # one-sided limits of Re phi are -inf here
        assert fixtures.koebe().boundary_value(0.0) == math.inf


class TestValence:
    def test_halfplane_bijection(self):
        phi = fixtures.upper_halfplane_map()
        assert valence_at(phi, 2j) == 1
        assert valence_at(phi, -1j) == 0

    def test_quartic_samples(self):
        phi = fixtures.fourth_power_map()
        assert valence_at(phi, 1j) == 2
        assert valence_at(phi, 0.5) == 1
        assert valence_at(phi, -0.5) == 2

    def test_quartic_against_sector_oracle(self):
        phi = fixtures.fourth_power_map()
        rng = np.random.default_rng(5)
        for _ in range(40):
            lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(lam.imag) < 1e-3 or abs(lam) < 1e-2:
                continue
            assert valence_at(phi, lam) == quartic_preimage_count(lam)

    def test_omitted_real_ray(self):
        phi = fixtures.double_slit()
        # at 0.5, the end of the slit, N - 0.5 D = 0.5 (z + i)^2 has one
        # double root, on the circle
        for lam in (0.75, 0.5):
            assert valence_at(phi, lam) == 0
            assert valence_counts(phi, [lam]).tolist() == [0]
            # the preimages sit on the circle, and are not counted
            roots = find_roots(phi.num - phi.den.scale(lam)).roots
            assert (np.abs(np.abs(roots) - 1.0) < BOUNDARY_TOL).sum() == 2

    def test_four_fold_circle_pole_is_placed_on_the_circle(self):
        assert fixtures.fourth_power_map().circle_poles == [(0.0, 4)]

    def test_a_root_is_inside_on_or_outside_the_circle_by_one_rule(self):
        # 1e-7 inside, 1e-12 inside and 1e-7 outside the circle: only the
        # middle root lies within BOUNDARY_TOL of it, so the first counts
        # inside the disk and is no circle pole
        phi = RealSmirnov(Poly([1.0]), poly_from_roots(
            [1 - 1e-7, -1 + 1e-12, 1j * (1 + 1e-7)]))
        assert complex_poly.count_inside(phi.den_roots.roots) == 1
        assert phi.circle_poles == [(pytest.approx(math.pi), 1)]

    def test_halfplane_valences(self):
        assert halfplane_valences(fixtures.upper_halfplane_map()) == (1, 0)
        assert halfplane_valences(fixtures.double_slit()) == (1, 1)
        assert halfplane_valences(fixtures.fourth_power_map()) == (2, 2)

    def test_degree_law_sampled(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            d1, d2 = rng.integers(0, 4), rng.integers(0, 4)
            if d1 + d2 == 0:
                continue
            phi = random_helson(rng, int(d1), int(d2))
            assert halfplane_valences(phi, seed=77) == (d2, d1)


class TestIntegralMeans:
    def test_radius_zero_is_center_modulus(self):
        phi = fixtures.upper_halfplane_map()
        assert integral_means(phi, 0.5, 0.0) == pytest.approx(1.0)

    def test_koebe_small_exponent_bounded(self):
        phi = fixtures.koebe()
        ratio = integral_means(phi, 0.25, 0.9999) / integral_means(
            phi, 0.25, 0.99
        )
        assert ratio < 3.0

    def test_koebe_large_exponent_grows(self):
        phi = fixtures.koebe()
        ratio = integral_means(phi, 0.75, 0.9999) / integral_means(
            phi, 0.75, 0.99
        )
        assert ratio > 10.0

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            integral_means(fixtures.koebe(), 0.5, 1.0)

    @pytest.mark.parametrize("p, ratio", [(0.125, 1.32), (0.375, 542.0)])
    def test_fourth_power_map_at_its_circle_poles_matches_the_oracle(
            self, p, ratio):
        """At r = 0.9999 the monomial denominator (1 - z)^4 is rounding
        noise, (1 - r)^4 = 1e-16; |D| from its factors is not.  p = 1/8 is
        below the H^p threshold 1/(2m) = 1/4 and p = 3/8 above it."""
        phi = fixtures.fourth_power_map()
        outer = integral_means(phi, p, 0.9999)
        assert outer == pytest.approx(mp_integral_mean(phi, p, 0.9999),
                                      rel=1e-6)
        assert outer / integral_means(phi, p, 0.99) == pytest.approx(
            ratio, rel=1e-2)

    def test_false_settle_is_caught(self):
        """A doubling trapezoid rule settles here at 0.55555171, 2.6e-5
        (relative) from the mean 0.55556589, above its 1e-5 tolerance."""
        rng = np.random.default_rng(5)
        for d1, d2 in [(2, 1), (3, 2), (3, 3), (1, 2), (4, 3), (2, 2)]:
            phi = random_helson(rng, d1, d2, rmax=0.99)
        got = integral_means(phi, 0.25, 0.9999)
        assert got == pytest.approx(mp_integral_mean(phi, 0.25, 0.9999),
                                    rel=1e-6)

    def test_peaks_at_one_angle_match_the_oracle(self):
        # three roots on the positive real axis, 0.2, 0.3 and 0.4 from
        # the circle of radius 0.9: the middle centre has no gap to
        # either neighbour
        phi = RealSmirnov(poly_from_roots([0.7, 1.2]), poly_from_roots([1.3]))
        assert integral_means(phi, 0.25, 0.9) == pytest.approx(
            mp_integral_mean(phi, 0.25, 0.9), rel=1e-6)

    def test_sum_that_is_not_finite_raises_at_once(self):
        # |koebe| reaches 1e8 at r = 0.9999, and 1e8^400 overflows
        with pytest.raises(QuadratureUnstable, match="not finite"):
            integral_means(fixtures.koebe(), 400.0, 0.9999)

    @pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
    def test_shared_means_are_the_means_one_exponent_at_a_time(self, name):
        # bit for bit, at the radii analyze probes and others
        phi = fixtures.all_fixtures()[name]
        ps = (0.125, 0.25, 0.375, 0.75)
        for r in (0.0, 0.9, 0.99, 0.9999):
            got = integral_means(phi, ps, r)
            assert isinstance(got, tuple) and len(got) == len(ps)
            assert [g.hex() for g in got] == [integral_means(phi, p, r).hex()
                                              for p in ps]

    def test_shared_means_raise_per_exponent(self):
        # 1e8^400 overflows at r = 0.9999; the other exponents do not
        got = integral_means(fixtures.koebe(), (0.25, 400.0, 0.75), 0.9999)
        assert isinstance(got[1], QuadratureUnstable)
        assert "not finite" in str(got[1])
        assert got[0] == integral_means(fixtures.koebe(), 0.25, 0.9999)
        assert got[2] == integral_means(fixtures.koebe(), 0.75, 0.9999)

    def test_pole_on_the_radius_does_not_settle(self):
        # a pole at 1/2, on the circle of radius 1/2, makes |phi|^2 not
        # integrable: each halving moves the nodes nearer the pole
        phi = RealSmirnov(Poly([1.0]), Poly([-0.5, 1.0]))
        with pytest.raises(QuadratureUnstable, match="did not settle"):
            integral_means(phi, 2.0, 0.5)


@given(seed=st.integers(0, 10 ** 6),
       degrees=st.tuples(st.integers(0, 4), st.integers(0, 3)).filter(
           lambda d: d != (0, 0)),
       rmax=st.floats(0.85, 0.999),
       r=st.sampled_from([0.9, 0.99, 0.9999]),
       p=st.sampled_from([0.125, 0.25, 0.375, 0.75]))
@settings(max_examples=8, deadline=None)
def test_integral_means_match_the_oracle(seed, degrees, rmax, r, p):
    try:
        phi = random_helson(np.random.default_rng(seed), *degrees, rmax=rmax)
    except RuntimeError:
        # B1 - B2 rarely has no zero in the disk when deg B2 > deg B1
        assume(False)
    assert integral_means(phi, p, r) == pytest.approx(
        mp_integral_mean(phi, p, r), rel=1e-6)


class TestClosureOps:
    def test_affine_identity(self):
        phi = fixtures.double_slit()
        same = real_affine(phi, 1.0, 0.0)
        for z in [0.2, 0.3j]:
            assert same.eval(z) == pytest.approx(phi.eval(z))

    def test_negation_swaps_halfplanes(self):
        phi1 = fixtures.upper_halfplane_map()
        phi2 = fixtures.lower_halfplane_map()
        neg = real_affine(phi1, -1.0, 0.0)
        for z in [0.0, 0.2 + 0.1j, -0.5j]:
            assert neg.eval(z) == pytest.approx(phi2.eval(z), abs=1e-12)
        assert halfplane_valences(neg) == (0, 1)

    def test_affine_valence_transport(self):
        phi = fixtures.double_slit()
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.uniform(0.5, 2.0) * (1 if rng.random() < 0.5 else -1)
            b = rng.uniform(-1, 1)
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            psi = real_affine(phi, a, b)
            assert (
                valence_at(psi, a * lam + b) == valence_at(phi, lam)
            )

    def test_precompose_square_doubles(self):
        phi = fixtures.upper_halfplane_map()
        psi = precompose_inner(phi, Blaschke([0.0, 0.0]))
        assert halfplane_valences(psi) == (2, 0)

    def test_precompose_identity(self):
        phi = fixtures.double_slit()
        psi = precompose_inner(phi, Blaschke([0.0]))
        for z in [0.3, 0.1 - 0.2j]:
            assert psi.eval(z) == pytest.approx(phi.eval(z), abs=1e-12)

    def test_precompose_cube_triples(self):
        phi = fixtures.double_slit()
        psi = precompose_inner(phi, Blaschke([0.0, 0.0, 0.0]))
        lam = 0.1j
        assert valence_at(psi, lam) == 3 * valence_at(phi, lam)

    def test_precompose_law_random(self):
        rng = np.random.default_rng(31)
        phi = random_helson(rng, 1, 2)
        c = Blaschke([0.3, -0.2 + 0.4j])
        psi = precompose_inner(phi, c)
        for _ in range(10):
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            if rng.random() < 0.5:
                lam = lam.conjugate()
            assert valence_at(psi, lam) == 2 * valence_at(phi, lam)


@given(st.integers(0, 10 ** 6))
@example(21060)  # phi = -16333.4 - 1.95e-8 i, 0.0013 from a circle pole
@settings(max_examples=30, deadline=None)
def test_boundary_realness_random_helson(seed):
    rng = np.random.default_rng(seed)
    phi = random_helson(rng, int(rng.integers(0, 3)), int(rng.integers(1, 3)))
    ts, ims = phi.boundary_im_samples()
    # boundary_value's rule: rounding noise in Im grows with |phi|
    re_phi = np.abs(phi.eval(np.exp(1j * ts)).real)
    assert np.all(ims <= 1e-8 * np.maximum(1.0, re_phi))


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_boundary_im_samples_match_the_per_sample_loop(name):
    """boundary_im_samples takes the double-precision fast path over all
    samples at once; it must agree with _boundary_eval sample by sample,
    which can differ only below the fast path's 1e-9 bar."""
    phi = fixtures.all_fixtures()[name]
    ts, ims = phi.boundary_im_samples()
    loop = np.array([abs(phi._boundary_eval(float(t))[1]) for t in ts])
    assert len(ts) >= 510
    assert np.all(np.abs(ims - loop) < 1e-9)


def converting_boundary_eval(phi, t):
    """RealSmirnov._boundary_eval as it was when its 40-digit branch
    converted N and D to mpmath at every call."""
    z = cmath.exp(1j * t)
    nv = horner_scalar(phi.num.coeffs, z)
    dv = horner_scalar(phi.den.coeffs, z)
    if abs(dv) > 1e-7 * phi.den_scale:
        with np.errstate(over="ignore"):
            w = nv / dv
        if abs(w.imag) < 1e-9:
            return w.real, w.imag
    with mpmath.workdps(40):
        zmp = mpmath.expjpi(mpmath.mpf(t) / mpmath.pi)
        nmp = horner_scalar(blaschke_smirnov._poly_to_mp(phi.num.coeffs), zmp)
        dmp = horner_scalar(blaschke_smirnov._poly_to_mp(phi.den.coeffs), zmp)
        if abs(dmp) < 1e-25 * phi.den_scale:
            return math.inf, 0.0
        wmp = nmp / dmp
        return float(wmp.real), float(wmp.imag)


def test_mpmath_coefficients_are_converted_once_per_phi(monkeypatch):
    """fourth_power_map's boundary samples escalate many of them to 40
    digits; N and D are converted to mpmath once for all of
    them, to the same values."""
    converted, evals = [], []
    to_mp, boundary_eval = blaschke_smirnov._poly_to_mp, RealSmirnov._boundary_eval

    def recording_eval(self, t):
        out = boundary_eval(self, t)
        evals.append((t, out))
        return out

    def recording_horner(coeffs, z):
        # counted on mpmath coefficients only: the 40-digit branch
        if isinstance(coeffs[-1], mpmath.mpc):
            converted.append(None)
        return horner_scalar(coeffs, z)

    monkeypatch.setattr(blaschke_smirnov, "_poly_to_mp",
                        lambda coeffs: converted.append(coeffs) or to_mp(coeffs))
    monkeypatch.setattr(_kernels, "horner_scalar", recording_horner)
    monkeypatch.setattr(RealSmirnov, "_boundary_eval", recording_eval)
    phi = fixtures.fourth_power_map()
    ts, ims = phi.boundary_im_samples()
    monkeypatch.undo()
    # two Horner runs per escalated sample, one conversion per polynomial
    polys = [c.tolist() for c in converted if c is not None]
    assert polys == [phi.num.coeffs.tolist(), phi.den.coeffs.tolist()]
    assert len(converted) - len(polys) >= 2 * 20
    im_at = dict(zip(ts.tolist(), ims.tolist()))
    for t, out in evals:
        assert out == converting_boundary_eval(phi, t)
        assert im_at[t] == abs(out[1])


def run_fresh(script, *args):
    """The stdout of script, run by a fresh interpreter on this src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout


def test_mpmath_is_imported_on_the_first_40_digit_value():
    """Importing the package's modules leaves mpmath unloaded, and so does
    building fourth_power_map, which is exactly real; sampling its
    boundary, which escalates near the pole, loads it."""
    script = (
        "import sys\n"
        "import rsmirnov.cli, rsmirnov.synthesis, rsmirnov.region_extraction\n"
        "import rsmirnov.fixtures, rsmirnov.valence_tree\n"
        "print('mpmath' in sys.modules)\n"
        "phi = rsmirnov.fixtures.fourth_power_map()\n"
        "print('mpmath' in sys.modules)\n"
        "phi.boundary_im_samples()\n"
        "print('mpmath' in sys.modules)\n")
    assert run_fresh(script).split() == ["False", "False", "True"]


def test_analyze_of_exactly_real_inputs_leaves_mpmath_unloaded(tmp_path):
    """rsmirnov analyze at 256 and 512 of every fixture and of
    power_chain(6) never needs a 40-digit value: the construction decides
    realness in integers, and the boundary pieces skip the roots of W at
    the poles."""
    functions = dict(fixtures.all_fixtures(), power_chain6=fixtures.power_chain(6))
    paths = []
    for name, phi in functions.items():
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(phi.to_json()), encoding="utf-8")
        paths.append(str(path))
    script = (
        "import contextlib, io, sys\n"
        "from rsmirnov.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    for res in ('256', '512'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            code = main(['analyze', path, '--resolution', res])\n"
        "        print(code, 'mpmath' in sys.modules)\n")
    assert run_fresh(script, *paths).splitlines() == ["0 False"] * (2 * len(paths))


# -- the exact realness certificate ---------------------------------------------


def construction(num, den):
    """"accepted", or the class and message of what from_rational raises."""
    try:
        from_rational(num, den)
    except (BoundaryNotReal, DenominatorVanishesInDisk, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "accepted"


def sampled_construction(num, den):
    """construction(num, den) as the sampled boundary test alone decides it."""
    with mock.patch.object(blaschke_smirnov, "_exactly_real", lambda n, d: False):
        return construction(num, den)


def exactly_real_inputs():
    """The analyze inputs of the benchmarks whose coefficients are exactly
    real on the circle, by name."""
    functions = dict(fixtures.all_fixtures(), power_chain6=fixtures.power_chain(6))
    functions["slit_squared"] = precompose_inner(fixtures.double_slit(),
                                                 Blaschke([0, 0]))
    # fourth_power_map(iz): both N and D have real and imaginary parts
    phi, turn = fixtures.fourth_power_map(), 1j ** np.arange(5)
    functions["fourth_power_map_turned"] = from_rational(phi.num.coeffs * turn,
                                                         phi.den.coeffs * turn)
    return functions


@pytest.mark.parametrize("name", sorted(exactly_real_inputs()))
def test_exactly_real_inputs_skip_the_sampled_test(name):
    phi = exactly_real_inputs()[name]
    assert blaschke_smirnov._exactly_real(phi.num, phi.den)
    with mock.patch.object(RealSmirnov, "boundary_im_samples",
                           side_effect=AssertionError("sampled")):
        from_rational(phi.num, phi.den)


def test_exactly_real_is_exact():
    """A real multiple keeps the identity, as does a complex factor common
    to N and D and any real change of the middle coefficient of koebe's D,
    which keeps D self-inversive; one ulp of any other part breaks it."""
    num, den = fixtures.koebe().num.coeffs, fixtures.koebe().den.coeffs
    up = np.nextafter(1.0, 2.0)
    assert blaschke_smirnov._exactly_real(Poly(num * up), Poly(den))
    assert blaschke_smirnov._exactly_real(Poly(num * 2.0 ** -1074), Poly(den))
    assert not blaschke_smirnov._exactly_real(Poly(num * (1 + 1e-300j)), Poly(den))
    assert not blaschke_smirnov._exactly_real(Poly([0, 1]), Poly([1]))
    # times G/G for a complex G: N and D have complex parts
    g = [1 + 2j, 0.5 - 1j, 0.25j]
    for phi in (fixtures.koebe(), fixtures.double_slit()):
        num2, den2 = np.convolve(phi.num.coeffs, g), np.convolve(phi.den.coeffs, g)
        assert blaschke_smirnov._exactly_real(Poly(num2), Poly(den2))
        den2[2] *= 1j
        assert not blaschke_smirnov._exactly_real(Poly(num2), Poly(den2))
    for k in range(len(den)):
        for moved in (complex(math.nextafter(den[k].real, math.inf), den[k].imag),
                      den[k] + 2.0 ** -1074 * 1j):
            nudged = den.copy()
            nudged[k] = moved
            real = k == 1 and moved.imag == 0
            assert blaschke_smirnov._exactly_real(Poly(num), Poly(nudged)) == real


def test_power_chain_8_is_exactly_real():
    """The one kind of decision the certificate moves: a function that is
    exactly real, which the sampled test rejected because 40-digit
    rounding near its 8-fold pole left |Im| above its absolute 1e-8."""
    phi = fixtures.power_chain(8)
    assert construction(phi.num, phi.den) == "accepted"
    assert sampled_construction(phi.num, phi.den)[0] == "BoundaryNotReal"


def nudged_coefficients(coeffs, k, part, size):
    """coeffs with the real (part 0) or imaginary part of coefficient k
    moved: by size ulps when size is an int, else by size times the
    largest coefficient modulus."""
    out = coeffs.copy()
    x = (out[k].real, out[k].imag)[part]
    if isinstance(size, int):
        for _ in range(size):
            x = math.nextafter(x, math.inf)
    else:
        x += size * float(np.abs(coeffs).max())
    out[k] = complex(x, out[k].imag) if part == 0 else complex(out[k].real, x)
    return out


@given(name=st.sampled_from(sorted(exactly_real_inputs())),
       which=st.sampled_from(["num", "den"]), k=st.integers(0, 12),
       part=st.integers(0, 1),
       size=st.one_of(st.integers(1, 4), st.floats(1e-16, 1e-6)))
@example(name="fourth_power_map", which="num", k=2, part=0, size=1)
@example(name="double_slit", which="num", k=1, part=0, size=1e-9)
@settings(max_examples=40, deadline=None)
def test_nudged_fixtures_are_decided_as_the_sampled_test_decides(name, which, k,
                                                                part, size):
    phi = exactly_real_inputs()[name]
    num, den = phi.num.coeffs, phi.den.coeffs
    coeffs = num if which == "num" else den
    coeffs = nudged_coefficients(coeffs, k % len(coeffs), part, size)
    num, den = (coeffs, den) if which == "num" else (num, coeffs)
    assert construction(num, den) == sampled_construction(num, den)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_helson_pairs_as_num_den_are_decided_as_the_sampled_test_decides(seed):
    rng = np.random.default_rng(seed)
    phi = random_helson(rng, int(rng.integers(0, 4)), int(rng.integers(1, 4)),
                        rmax=0.999, max_tries=20000)
    outcome = construction(phi.num, phi.den)
    assert outcome == sampled_construction(phi.num, phi.den)


def test_denominator_roots_are_found_once(monkeypatch):
    """Constructing koebe from JSON and extracting its tree finds the
    roots of D once: the outer check, the shared-zero check and the
    circle poles all read RealSmirnov.den_roots."""
    phi = fixtures.koebe()
    inputs = []
    original = complex_poly.find_roots

    def recording(p):
        inputs.append(p.coeffs)
        return original(p)

    monkeypatch.setattr(complex_poly, "find_roots", recording)
    monkeypatch.setattr(blaschke_smirnov, "find_roots", recording)
    psi = RealSmirnov.from_json(phi.to_json())
    extract_full(psi, resolution=256)
    assert sum(np.array_equal(c, psi.den.coeffs) for c in inputs) == 1


def test_real_affine_keeps_the_denominator_roots(monkeypatch):
    """a*phi + b has phi's denominator, so it takes phi's den_roots report
    and extracting it finds no roots of D again."""
    phi = fixtures.koebe()
    report = phi.den_roots
    inputs = []
    original = complex_poly.find_roots

    def recording(p):
        inputs.append(p.coeffs)
        return original(p)

    monkeypatch.setattr(complex_poly, "find_roots", recording)
    monkeypatch.setattr(blaschke_smirnov, "find_roots", recording)
    psi = real_affine(phi, -1.0, 0.5)
    assert psi.den_roots is report
    extract_full(psi, resolution=256)
    assert not any(np.array_equal(c, psi.den.coeffs) for c in inputs)


# -- N, D and W against Poly arithmetic ----------------------------------------
#
# The reference below is the Poly arithmetic that _helson_quotient and
# w_poly used to run, written out on coefficient arrays: trailing zeros
# trimmed after every operation, sums accumulated into zeros, products by
# np.convolve, derivatives by the integer factors.  The bytes must agree,
# signed zeros included.


def ref_trim(c):
    c = np.atleast_1d(np.asarray(c, dtype=np.complex128)).ravel()
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return c[:1] if c.size else np.zeros(1, dtype=np.complex128)
    return c[: nz[-1] + 1]


def ref_add(a, b):
    c = np.zeros(max(len(a), len(b)), dtype=np.complex128)
    c[: len(a)] += a
    c[: len(b)] += b
    return ref_trim(c)


def ref_mul(a, b):
    if (len(a) == 1 and a[0] == 0) or (len(b) == 1 and b[0] == 0):
        return ref_trim([0])
    return ref_trim(np.convolve(a, b))


def ref_derivative(a):
    if len(a) == 1:
        return ref_trim([0])
    return ref_trim(a[1:] * np.arange(1, len(a)))


def ref_rational(b):
    p = np.array([b.constant], dtype=np.complex128)
    q = np.array([1.0], dtype=np.complex128)
    n_origin = 0
    for a in b.zeros:
        if a == 0:
            n_origin += 1
        else:
            p = np.convolve(p, np.array([a, -1.0], dtype=np.complex128))
            q = np.convolve(q, np.array([1.0, -np.conj(a)],
                                        dtype=np.complex128))
    if n_origin:
        p = np.concatenate([np.zeros(n_origin, dtype=np.complex128), p])
    return ref_trim(p), ref_trim(q)


def ref_helson_quotient(b1, b2):
    """(N, D) = ((P1 Q2 + P2 Q1).scale(1j), P1 Q2 - P2 Q1)."""
    p1, q1 = ref_rational(b1)
    p2, q2 = ref_rational(b2)
    a, b = ref_mul(p1, q2), ref_mul(p2, q1)
    return ref_trim(ref_add(a, b) * complex(1j)), ref_add(a, ref_trim(-b))


def ref_w(num, den):
    """N'D - ND'."""
    return ref_add(ref_mul(ref_derivative(num), den),
                   ref_trim(-ref_mul(num, ref_derivative(den))))


def helson_pairs():
    """Random pairs of every degree 0-4 against every degree 0-4, the
    same with a zero of B1, of B2 or of both moved to the origin, pairs
    with real zeros and constants +-1 or +-i (whose coefficients carry
    signed zeros), and the fixtures' pairs."""
    rng = np.random.default_rng(16)
    pairs = []
    for d1 in range(5):
        for d2 in range(5):
            for origin in range(4):
                b1 = blaschke_smirnov.random_blaschke(rng, d1, 0.95)
                b2 = blaschke_smirnov.random_blaschke(rng, d2, 0.95)
                z1, z2 = list(b1.zeros), list(b2.zeros)
                if origin & 1 and z1:
                    z1[0] = 0.0
                if origin & 2 and z2:
                    z2[-1] = 0.0
                pairs.append((Blaschke(z1, b1.constant),
                              Blaschke(z2, b2.constant)))
            for c1, c2 in ((1.0, -1.0), (-1.0, 1j), (1j, -1j)):
                pairs.append((Blaschke(rng.uniform(-0.9, 0.9, d1), c1),
                              Blaschke(rng.uniform(-0.9, 0.9, d2), c2)))
    pairs += [(phi.b1, phi.b2) for phi in fixtures.all_fixtures().values()
              if phi.b1 is not None]
    return pairs


def test_helson_quotient_and_w_match_poly_arithmetic():
    for b1, b2 in helson_pairs():
        num, den = blaschke_smirnov._helson_quotient(b1, b2)
        ref_num, ref_den = ref_helson_quotient(b1, b2)
        assert num.coeffs.tobytes() == ref_num.tobytes()
        assert den.coeffs.tobytes() == ref_den.tobytes()
        w = RealSmirnov(num, den).w_poly
        assert w.coeffs.tobytes() == ref_w(ref_num, ref_den).tobytes()


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_fixture_w_matches_poly_arithmetic(name):
    phi = fixtures.all_fixtures()[name]
    w = RealSmirnov(phi.num, phi.den).w_poly
    assert w.coeffs.tobytes() == ref_w(phi.num.coeffs,
                                       phi.den.coeffs).tobytes()

"""Reference functions used across the test suite and the docs.

Each is a small rational real Smirnov function with known range, boundary
values, and valence structure:

- halfplane_node:       i(1+z^m)/(1-z^m), covering one half plane m times;
  the seed of the synthesis catalog's single nodes.
- upper_halfplane_map:  i(1+z)/(1-z), a bijection of the disk onto the
  upper half plane; boundary values -cot(t/2).
- lower_halfplane_map:  its negative, covering the lower half plane.
- power_chain:          ((1+z)/(1-z))^n for even n, an alternating chain
  of n nodes; the seed of the synthesis catalog's chains.
- fourth_power_map:     power_chain(4), covering C minus the origin;
  boundary values cot^4(t/2).
- koebe:                z/(1-z)^2, univalent onto C minus the slit
  (-inf, -1/4]; boundary values -(1/2)/(1-cos t).
- double_slit:          iz/(1-z^2), univalent onto C minus the two slits
  (-inf, -1/2] and [1/2, inf); boundary values -(1/2)csc t.

koebe and double_slit also seed the synthesis catalog: its rays and its
bounded-interval edges are real affine images of them.
"""

import math

from .blaschke_smirnov import (
    Blaschke,
    RealSmirnov,
    from_blaschke,
    from_rational,
)
from .complex_poly import Poly


def halfplane_node(sign: int, m: int) -> RealSmirnov:
    """i(1 + z^m)/(1 - z^m): the disk covers one half plane m times.

    The Helson pair is simply (1, z^m); negating (swapping the pair)
    covers the lower half plane instead.
    """
    if m < 1:
        raise ValueError("valence must be >= 1")
    if sign > 0:
        return from_blaschke(Blaschke(), Blaschke([0.0] * m))
    return from_blaschke(Blaschke([0.0] * m), Blaschke())


def upper_halfplane_map():
    return halfplane_node(1, 1)


def lower_halfplane_map():
    return halfplane_node(-1, 1)


def power_chain(n: int) -> RealSmirnov:
    """((1 + z)/(1 - z))^n for even n: an alternating chain of n nodes.

    The power map is real on the circle only for even n (the Cayley
    transform sends the circle to the imaginary axis, whose even powers
    are real).  Its interval pattern alternates around 0, with the two
    end edges below 0 when n = 0 mod 4 and above 0 when n = 2 mod 4.

    The expanded coefficients concentrate an n-fold zero at -1 and an
    n-fold pole at +1, so the evaluation noise near those points grows
    like eps^(1/n).  The integer coefficients are exactly real on the
    circle, but from n = 10 on find_roots scatters the pole into the disk
    and the construction rejects it.
    """
    if n < 2 or n % 2:
        raise ValueError("the power map is boundary-real only for even n >= 2")
    num = Poly([float(math.comb(n, k)) for k in range(n + 1)])
    den = Poly([float(math.comb(n, k)) * (-1.0) ** k for k in range(n + 1)])
    # the denominator is exactly (1 - z)^n, an n-fold root on the circle,
    # which find_roots places on z = 1
    return from_rational(num, den)


def fourth_power_map():
    return power_chain(4)


def koebe() -> RealSmirnov:
    """z/(1 - z)^2: slit plane, single edge with interval (-1/4, inf)."""
    return from_rational(Poly([0.0, 1.0]), Poly([1.0, -2.0, 1.0]))


def double_slit():
    return from_rational(Poly([0, 1j]), Poly([1, 0, -1]))


def all_fixtures():
    """name -> function, for parametrized tests and the docs."""
    return {
        "upper_halfplane_map": upper_halfplane_map(),
        "lower_halfplane_map": lower_halfplane_map(),
        "fourth_power_map": fourth_power_map(),
        "koebe": koebe(),
        "double_slit": double_slit(),
    }

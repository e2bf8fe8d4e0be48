"""Finite Blaschke products and rational real Smirnov functions.

A rational function holomorphic on the unit disk with real boundary values
almost everywhere can be written as

    phi = i (B1 + B2) / (B1 - B2)

for relatively prime finite Blaschke products B1, B2 such that B1 - B2 has
no zeros in the disk (the denominator is outer).  This module builds such
functions either from a Blaschke pair or from a reduced rational pair N/D,
evaluates them, computes valences (preimage counts) by root counting or,
at real points, from the monotone pieces of the boundary function, and
estimates integral means.

Convention: (phi - i)/(phi + i) = B2/B1, so the valence on the upper half
plane is deg B2 and on the lower half plane deg B1.
"""

import cmath
import functools
import math

import numpy as np

from . import _kernels
from .complex_poly import (
    Poly,
    _add,
    _derivative,
    _mul,
    _strip,
    _unpaired,
    compose_rational,
    count_inside,
    disk_root_counts,
    find_roots,
    on_circle,
)

#: returned by eval at poles
INFINITY = complex(math.inf, 0.0)

#: |zero| must stay below 1 minus this margin
ZERO_MARGIN = 1e-12

#: boundary samples with |D(z)| below this (times coefficient scale) count
#: as poles when validating realness
POLE_EVAL_TOL = 1e-13

#: a boundary value is real when |Im phi| is at most this: relative to
#: |Re phi| above 1 in boundary_value, absolute in from_rational's check
BOUNDARY_IM_TOL = 1e-8

#: boundary_im_samples takes this many equispaced angles, leaving out those
#: within POLE_GAP of a circle pole
BOUNDARY_SAMPLES = 512
POLE_GAP = 1e-3


class NotRelativelyPrime(Exception):
    """The two Blaschke products share a zero."""


class DenominatorVanishesInDisk(Exception):
    """The denominator has a zero inside the open unit disk (not outer)."""


class BoundaryNotReal(Exception):
    """Boundary samples have imaginary parts above tolerance away from poles."""

    def __init__(self, max_im, worst_t):
        self.max_im = max_im
        self.worst_t = worst_t
        super().__init__(
            "max |Im phi(e^it)| = %.3e at t = %.6f" % (max_im, worst_t)
        )


class InconsistentValence(Exception):
    """Sampled valences disagree where theory demands constancy."""


class QuadratureUnstable(Exception):
    """The integral-mean quadrature did not settle, or its sum is not
    finite."""


def is_infinite(w):
    return isinstance(w, complex) and (math.isinf(w.real) or math.isinf(w.imag))


class Blaschke:
    """Finite Blaschke product: unimodular constant times factors
    (a - z)/(1 - conj(a) z), with the plain factor z used for a zero at the
    origin."""

    __slots__ = ("zeros", "constant")

    def __init__(self, zeros=(), constant=1.0):
        z = np.asarray(zeros, dtype=np.complex128) if len(zeros) \
            else np.empty(0, dtype=np.complex128)
        # written so that a NaN fails the test: every comparison with it is False
        if z.size and not np.maximum.reduce(np.abs(z)) < 1.0 - ZERO_MARGIN:
            raise ValueError("Blaschke zeros must satisfy |a| < 1 - 1e-12")
        c = complex(constant)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise ValueError("|constant| must be 1 within 1e-12")
        self.zeros = z
        self.constant = c

    @property
    def degree(self):
        return len(self.zeros)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.full(z.shape, self.constant, dtype=np.complex128)
        for a in self.zeros:
            if a == 0:
                out = out * z
            else:
                out = out * (a - z) / (1.0 - np.conj(a) * z)
        if out.shape == ():
            return complex(out)
        return out

    def as_rational(self):
        """The coefficients (ascending, without trailing zeros) of the pair
        of polynomials (P, Q) with B = P/Q."""
        p = np.array([self.constant], dtype=np.complex128)
        q = np.array([1.0], dtype=np.complex128)
        n_origin = 0
        for a in self.zeros.tolist():
            if a == 0:
                n_origin += 1
            else:
                p = np.convolve(p, np.array([a, -1.0], dtype=np.complex128))
                q = np.convolve(q, np.array([1.0, -a.conjugate()],
                                            dtype=np.complex128))
        if n_origin:
            p = np.concatenate([np.zeros(n_origin, dtype=np.complex128), p])
        return _strip(p), _strip(q)

    def to_json(self):
        return {
            "zeros": [[float(a.real), float(a.imag)] for a in self.zeros],
            "constant": [float(self.constant.real), float(self.constant.imag)],
        }

    @classmethod
    def from_json(cls, obj):
        unknown = sorted(set(obj) - {"zeros", "constant"})
        if unknown:
            raise KeyError("unknown Blaschke key(s) %s" % ", ".join(unknown))
        zeros = [_json_complex(w) for w in obj.get("zeros", [])]
        return cls(zeros, _json_complex(obj.get("constant", 1.0)))

    def __repr__(self):
        return "Blaschke(deg=%d)" % self.degree


def _json_complex(value) -> complex:
    """A number of a function file, a real number or [re, im] of two, else
    TypeError (complex() would parse a string, read true as 1 and raise
    OverflowError on an integer too large for a float)."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    if not all(type(x) in (int, float) for x in parts):
        raise TypeError(f"not a real number or [re, im] pair: {value!r}")
    try:
        return complex(*parts)
    except OverflowError:
        raise TypeError("an integer too large for a float") from None


def _min_pairwise_distance(za, zb):
    if len(za) == 0 or len(zb) == 0:
        return math.inf
    d = np.abs(za[:, None] - zb[None, :])
    return float(d.min())


def _poly_to_mp(coeffs):
    import mpmath  # loaded on the first 40-digit boundary value

    return [mpmath.mpc(c.real, c.imag) for c in coeffs]


class RealSmirnov:
    """Rational real Smirnov function in reduced form N/D.

    The Blaschke pair is kept when the function was built from one.  The
    data phi determines are cached properties, each computed on its first
    read: den_scale, the coefficient scale of D that the pole tests read;
    w_poly; den_roots, which the constructors' check that D does not
    vanish in the disk, circle_poles and integral_means read; num_roots,
    for from_rational's shared-zero check and integral_means;
    circle_poles; mp_coeffs, N and D in mpmath for the 40-digit boundary
    evaluation, read (and mpmath imported) only when a boundary value
    needs 40 digits; and boundary_pieces.  Instances are treated as
    immutable.
    """

    def __init__(self, num, den, b1=None, b2=None):
        self.num = num
        self.den = den
        self.b1 = b1
        self.b2 = b2

    # -- basic evaluation ---------------------------------------------------

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """N(z)/D(z); INFINITY where the denominator vanishes numerically."""
        if np.isscalar(z) or np.asarray(z).shape == ():
            z = complex(z)
            nv = _kernels.horner_scalar(self.num.coeffs, z)
            dv = _kernels.horner_scalar(self.den.coeffs, z)
            if abs(dv) < POLE_EVAL_TOL * self.den_scale:
                return INFINITY
            return nv / dv
        z = np.asarray(z, dtype=np.complex128)
        nv = self.num(z)
        dv = self.den(z)
        pole = np.abs(dv) < POLE_EVAL_TOL * self.den_scale
        out = np.where(pole, INFINITY, nv / np.where(pole, 1.0, dv))
        return out

    @functools.cached_property
    def den_scale(self):
        """The largest coefficient modulus of D."""
        return np.abs(self.den.coeffs).max()

    @functools.cached_property
    def w_poly(self):
        """Numerator W = N'D - ND' of the derivative (phi' = W/D^2)."""
        n, d = self.num.coeffs, self.den.coeffs
        return Poly(_add(_mul(_derivative(n), d), -_mul(n, _derivative(d))))

    @functools.cached_property
    def den_roots(self):
        """The find_roots report of the denominator (find_roots raises
        ValueError for a constant denominator)."""
        return find_roots(self.den)

    @functools.cached_property
    def num_roots(self):
        """The find_roots report of the numerator (find_roots raises
        ValueError for a constant numerator)."""
        return find_roots(self.num)

    @functools.cached_property
    def circle_poles(self):
        """(angle t, multiplicity m) of each denominator zero on the circle
        (on_circle)."""
        ts = []
        if self.den.degree >= 1:
            for r, m in self.den_roots.clusters():
                if on_circle(r):
                    ts.append((math.atan2(r.imag, r.real) % (2 * math.pi), m))
        return sorted(ts)

    @functools.cached_property
    def mp_coeffs(self):
        """The coefficients of N and D as mpmath numbers, for
        _boundary_eval's 40-digit branch (a double converts exactly)."""
        return _poly_to_mp(self.num.coeffs), _poly_to_mp(self.den.coeffs)

    @functools.cached_property
    def boundary_pieces(self):
        """The BoundaryPieces of phi."""
        return BoundaryPieces(self)

    # -- boundary -----------------------------------------------------------

    def boundary_value(self, t):
        """Re phi(e^{it}), escalating to high precision when doubles cannot
        separate a real boundary value from cancellation noise near a pole.

        Returns inf at a circle pole, whatever the signs of its one-sided
        limits, as the pole events of BoundaryPieces do.  Raises
        BoundaryNotReal if the imaginary residual survives escalation; the
        tolerance BOUNDARY_IM_TOL is relative to |Re| above 1, since the
        rounding noise of N/D grows with |phi| near a circle pole.
        """
        re, im = self._boundary_eval(t)
        if abs(im) > BOUNDARY_IM_TOL * max(1.0, abs(re)):
            raise BoundaryNotReal(abs(im), t)
        return re

    def _boundary_eval(self, t):
        """(Re, Im) of phi(e^{it}) with automatic escalation; (inf, 0) at a
        circle pole.

        Doubles decide wherever D is not small and Im is an order under
        BOUNDARY_IM_TOL; elsewhere N and D are evaluated at 40 digits in
        mpmath, which this branch imports on its first use."""
        z = cmath.exp(1j * t)
        nv = _kernels.horner_scalar(self.num.coeffs, z)
        dv = _kernels.horner_scalar(self.den.coeffs, z)
        dscale = self.den_scale
        if abs(dv) > 1e-7 * dscale:
            with np.errstate(over="ignore"):
                w = nv / dv
            # double precision leaves |Im| ~ |w| * 1e-16 of cancellation
            # noise; trust the fast path only when the result is already an
            # order under BOUNDARY_IM_TOL
            if abs(w.imag) < 1e-9:
                return w.real, w.imag
        import mpmath  # loaded here, on the first 40-digit boundary value

        with mpmath.workdps(40):
            zmp = mpmath.expjpi(mpmath.mpf(t) / mpmath.pi)
            num_mp, den_mp = self.mp_coeffs
            nmp = _kernels.horner_scalar(num_mp, zmp)
            dmp = _kernels.horner_scalar(den_mp, zmp)
            if abs(dmp) < 1e-25 * dscale:
                return math.inf, 0.0
            wmp = nmp / dmp
            return float(wmp.real), float(wmp.imag)

    def boundary_im_samples(self):
        """|Im phi| at BOUNDARY_SAMPLES equispaced boundary samples,
        excluding arcs within POLE_GAP of circle poles.  Returns (t values,
        |Im| values)."""
        t = np.linspace(0.0, 2.0 * math.pi, BOUNDARY_SAMPLES, endpoint=False)
        keep = np.ones(BOUNDARY_SAMPLES, dtype=bool)
        for tp, _ in self.circle_poles:
            d = np.abs((t - tp + math.pi) % (2.0 * math.pi) - math.pi)
            keep &= d > POLE_GAP
        tk = t[keep]
        # _boundary_eval's double-precision fast path over every sample at
        # once; the samples it does not trust go to _boundary_eval itself
        z = np.exp(1j * tk)
        dv = self.den(z)
        far = np.abs(dv) > 1e-7 * self.den_scale
        with np.errstate(over="ignore"):
            ims = np.abs((self.num(z) / np.where(far, dv, 1.0)).imag)
        for k in np.flatnonzero(~far | (ims >= 1e-9)):
            ims[k] = abs(self._boundary_eval(float(tk[k]))[1])
        return tk, ims

    # -- serialization ------------------------------------------------------

    def to_json(self):
        if self.b1 is not None and self.b2 is not None:
            return {"b1": self.b1.to_json(), "b2": self.b2.to_json()}
        enc = lambda p: [[float(c.real), float(c.imag)] for c in p.coeffs]
        return {"num": enc(self.num), "den": enc(self.den)}

    @classmethod
    def from_json(cls, obj):
        if "b1" in obj and "b2" in obj:
            return from_blaschke(
                Blaschke.from_json(obj["b1"]), Blaschke.from_json(obj["b2"])
            )
        dec = lambda cs: Poly([_json_complex(c) for c in cs])
        return from_rational(dec(obj["num"]), dec(obj["den"]))

    def __repr__(self):
        return "RealSmirnov(deg N=%d, deg D=%d)" % (
            self.num.degree, self.den.degree)


# -- constructors -----------------------------------------------------------

def _helson_quotient(b1, b2):
    """(N, D) = (i(P1 Q2 + P2 Q1), P1 Q2 - P2 Q1) for B1 = P1/Q1, B2 = P2/Q2."""
    p1, q1 = b1.as_rational()
    p2, q2 = b2.as_rational()
    a = _mul(p1, q2)
    b = _mul(p2, q1)
    return Poly(_add(a, b) * 1j), Poly(_add(a, -b))


def from_blaschke(b1, b2):
    """phi = i(B1+B2)/(B1-B2); rejects shared zeros and non-outer B1-B2."""
    if _min_pairwise_distance(b1.zeros, b2.zeros) < 1e-8:
        raise NotRelativelyPrime("B1 and B2 share a zero within 1e-8")
    num, den = _helson_quotient(b1, b2)
    if den.is_zero():
        raise NotRelativelyPrime("B1 - B2 is identically zero")
    phi = RealSmirnov(num, den, b1=b1, b2=b2)
    n_inside = count_inside(phi.den_roots.roots)
    if n_inside > 0:
        raise DenominatorVanishesInDisk(
            "B1 - B2 has %d zero(s) in the open disk" % n_inside
        )
    return phi


def from_rational(num, den):
    """Reduced rational phi = N/D with finite coefficients, outer
    denominator and real boundary values (to BOUNDARY_IM_TOL at
    boundary_im_samples' angles).

    A denominator root on the unit circle (on_circle, where find_roots
    places an m-fold circle root) is a pole, not a zero inside.
    """
    num = num if isinstance(num, Poly) else Poly(num)
    den = den if isinstance(den, Poly) else Poly(den)
    # a NaN would pass every tolerance test below: comparisons with it fail
    if not (np.isfinite(num.coeffs).all() and np.isfinite(den.coeffs).all()):
        raise ValueError("coefficients must be finite")
    if den.is_zero():
        raise ValueError("denominator is identically zero")
    phi = RealSmirnov(num, den)
    if den.degree >= 1:
        rd = phi.den_roots
        n_inside = count_inside(rd.roots)
        if n_inside > 0:
            raise DenominatorVanishesInDisk(
                "denominator has %d zero(s) in the open disk" % n_inside
            )
        # reduced form: no shared zeros
        if num.degree >= 1:
            rn = phi.num_roots
            if _min_pairwise_distance(rn.roots, rd.roots) < 1e-8:
                raise ValueError("numerator and denominator share a zero; "
                                 "reduce the fraction first")
    if num.degree + den.degree > 0:
        ts, ims = phi.boundary_im_samples()
        if ims.size:
            # argmax picks a NaN (Im overflowed), which no tolerance admits
            worst = int(np.argmax(ims))
            if not ims[worst] <= BOUNDARY_IM_TOL:
                raise BoundaryNotReal(float(ims[worst]), float(ts[worst]))
    return phi


def random_blaschke(rng, degree, rmax=0.85):
    """Random product: zeros uniform in the disk of radius rmax, random
    unimodular constant.  Deterministic given the generator state."""
    r = rmax * np.sqrt(rng.random(degree))
    th = 2.0 * np.pi * rng.random(degree)
    zeros = r * np.exp(1j * th)
    c = np.exp(2j * np.pi * rng.random())
    return Blaschke(zeros, c)


def random_helson(rng, deg1, deg2, rmax=0.85, max_tries=100):
    """Random Helson-form function with deg B1 = deg1, deg B2 = deg2,
    retrying until the pair is relatively prime with outer difference."""
    for _ in range(max_tries):
        b1 = random_blaschke(rng, deg1, rmax)
        b2 = random_blaschke(rng, deg2, rmax)
        try:
            return from_blaschke(b1, b2)
        except (NotRelativelyPrime, DenominatorVanishesInDisk):
            continue
    raise RuntimeError("no admissible Blaschke pair after %d tries" % max_tries)


# -- valence and related counts ----------------------------------------------

def valence_at(phi, lam):
    """Number of solutions of phi(w) = lambda in the open unit disk.

    Counts roots of N - lambda D inside the disk; roots within
    BOUNDARY_TOL of the circle are excluded (they occur legitimately when
    lambda is real and touches the boundary range).
    """
    p = phi.num - phi.den.scale(complex(lam))
    if p.is_zero():
        raise ValueError("phi is constant and equal to lambda")
    if p.degree == 0:
        return 0
    return int(count_inside(find_roots(p).roots))


def _lambda_rows(phi, lams):
    """The coefficients of N - lambda D for every lambda of lams (k,), as
    rows (k, max(len N, len D)), built with the operations valence_at's
    Poly arithmetic performs, so every row is bit for bit that polynomial's
    coefficients (before Poly trims its vanishing leading ones)."""
    num, den = phi.num.coeffs, phi.den.coeffs
    rows = np.zeros((len(lams), max(len(num), len(den))), dtype=np.complex128)
    rows[:, :len(num)] += num
    rows[:, :len(den)] += -(den * lams[:, None])
    return rows


def valence_counts(phi, lams):
    """valence_at(phi, lam) for every lam of lams, as an integer array.

    disk_root_counts counts the rows of every N - lambda D (_lambda_rows)
    in one call.  A lambda at which N - lambda D is constant goes to
    valence_at.
    """
    lams = np.asarray(lams, dtype=np.complex128).ravel()
    rows = _lambda_rows(phi, lams)
    counts = np.zeros(len(lams), dtype=np.int64)
    moving = (rows[:, 1:] != 0).any(axis=1)
    for i in np.flatnonzero(~moving):
        counts[i] = valence_at(phi, lams[i])
    if moving.any():
        counts[moving] = disk_root_counts(rows[moving])
    return counts


#: an interior critical point is a branch point of the level set when
#: |Im phi| there is at most this, relative to max(1, |phi|)
LEVEL_IM_TOL = 1e-6


class BoundaryPieces:
    """The monotone pieces of t -> phi(e^{it}), for counting real valences.

    For real x, N - xD is self-inversive (phi is real on the circle), so
    its zeros pair across the circle and

        valence(x) = (n - c) / 2,  n = max(deg N, deg D),

    where c counts the solutions t of phi(e^{it}) = x with multiplicity.

    The boundary function is monotone between consecutive events: circle
    critical points (roots of W on the circle, by on_circle or, since W is
    self-inversive, for want of a reflected partner, at their boundary
    values) and circle poles (at -+inf, by the direction of the piece).
    Each piece meets x once when x lies strictly inside its value range,
    and an m-fold critical point whose value is x meets it m + 1 times, so
    one root find of W replaces one root find per real point.

    ``events`` lists the events in order as (t, value), t in [0, 2 pi),
    with the value inf at a circle pole (None at a critical point whose
    boundary value is not real); ``critical`` holds the critical points
    among them, and piece k starts at events[k].  The level set Im phi = 0
    meets the circle only at events, so a traced level arc ends at one;
    ``arcs`` holds how many level arcs leave each event into the disk, by
    the local form of phi: m at an m-fold critical point (a root of W of
    multiplicity m), m - 1 at an m-fold pole.
    ``ranges`` holds the value range (lo, hi) of each piece, and ``spans``
    its (t0, t1, direction): the events it runs between (t1 passes 2 pi on
    the piece that wraps) and +1 where phi increases along it, -1 where it
    decreases.  Both are None when the pieces cannot be trusted (no
    events, a critical point whose boundary value is not real, a piece
    whose end values disagree with its direction); ``count`` then returns
    None, as it does for an odd or negative n - c.
    ``interior_real`` holds (z, Re phi(z), m) for the roots z of W, of
    multiplicity m, inside the disk and not on the circle (as the events
    decide it) where phi is real (to LEVEL_IM_TOL): the branch points of
    the level set.
    """

    def __init__(self, phi):
        self.n = max(phi.num.degree, phi.den.degree)
        self.interior_real = []
        crit = []  # (t, v, multiplicity)
        self.ranges = None
        self.spans = None
        w = phi.w_poly
        if w.degree >= 1:
            roots = find_roots(w).clusters()
            # W is self-inversive when phi is real on the circle, so a root
            # of W without a reflected partner lies on the circle, also
            # where rounding puts it further off than on_circle allows; a
            # root at 0 reflects to infinity and counts as paired
            with np.errstate(divide="ignore", invalid="ignore"):
                alone = _unpaired(np.array([r for r, _ in roots])).tolist()
            for (root, mult), unpaired in zip(roots, alone):
                if not (unpaired or on_circle(root)):
                    if abs(root) < 1.0:
                        v = phi.eval(root)
                        if (not is_infinite(v) and abs(v.imag)
                                <= LEVEL_IM_TOL * max(1.0, abs(v))):
                            self.interior_real.append(
                                (complex(root), float(v.real), mult))
                    continue
                t = math.atan2(root.imag, root.real)
                try:
                    v = float(phi.boundary_value(t))
                except BoundaryNotReal:
                    v = None
                # a root of W at a circle pole is the pole's own event
                if v is None or math.isfinite(v):
                    crit.append((t % (2.0 * math.pi), v, mult))
        self.critical = [e[:2] for e in crit]
        events = sorted(crit + [(t, math.inf, m - 1) for t, m in phi.circle_poles])
        self.events, self.arcs = [e[:2] for e in events], [e[2] for e in events]
        if self.events and all(v is not None for _, v in self.events):
            pieces = _monotone_pieces(phi, self.events)
            if pieces is not None:
                self.spans = [(t0, t1, s) for t0, t1, s, _, _ in pieces]
                self.ranges = [(lo, hi) for _, _, _, lo, hi in pieces]

    def count(self, x):
        """Valence at real x from the pieces, or None when it must come
        from the oracle.  x equal to a critical value is counted at the
        critical point, whose exact value the float may miss by a few ulps."""
        if self.ranges is None:
            return None
        c = 0
        for lo, hi in self.ranges:
            if lo < x < hi:
                c += 1
        for (_, v), m in zip(self.events, self.arcs):
            if v == x:
                c += m + 1
        if c > self.n or (self.n - c) % 2:
            return None
        return (self.n - c) // 2


def _monotone_pieces(phi, events):
    """(t0, t1, direction, lo, hi) of each piece between consecutive
    events, or None when a piece's end values disagree with its direction.

    The direction is the sign of d/dt phi(e^{it}) = Re(i z W(z)/D(z)^2),
    taken as the sign of Re(i z W(z) conj(D(z))^2) at the middle of the
    piece; a pole end takes the infinity the piece runs into.  W and D are
    evaluated on Python numbers: their sums and products round as numpy's
    scalar ones do, and no division follows.  The square is a product, which
    differs from numpy's power only when conj(D(z)) is zero or not finite,
    and such a slope rejects the pieces either way.
    """
    w, d = phi.w_poly.coeffs.tolist(), phi.den.coeffs.tolist()
    horner = _kernels.horner_scalar
    pieces = []
    for k, (t0, v0) in enumerate(events):
        t1, v1 = events[(k + 1) % len(events)]
        if k + 1 == len(events):
            t1 += 2.0 * math.pi
        z = cmath.exp(0.5j * (t0 + t1))
        dz = horner(d, z).conjugate()
        slope = (1j * z * horner(w, z) * (dz * dz)).real
        if not math.isfinite(slope) or slope == 0.0:
            return None
        s = 1.0 if slope > 0.0 else -1.0
        a = -s * math.inf if math.isinf(v0) else v0
        b = s * math.inf if math.isinf(v1) else v1
        if s * (b - a) < 0.0:
            return None
        pieces.append((t0, t1, s, min(a, b), max(a, b)))
    return pieces


def real_valence(phi, x):
    """Number of solutions of phi(w) = x in the open disk, for real x.

    Fast path: the circle solutions of phi(e^{it}) = x counted on the
    monotone boundary pieces of phi (phi.boundary_pieces), with m + 1 at
    an m-fold critical point of value x.  Fallback: root counting by
    valence_at where the pieces are untrusted or their count fails the
    parity check (count returns None).
    """
    v = phi.boundary_pieces.count(x)
    if v is None:
        v = valence_at(phi, x)
    return v


#: points halfplane_valences draws in each half plane
HALFPLANE_SAMPLES = 8


def halfplane_valences(phi, seed=0):
    """(v on C+, v on C-).

    With a Helson pair present this is (deg B2, deg B1), cross-checked by
    sampling; otherwise both half planes are sampled and constancy is
    asserted.  The HALFPLANE_SAMPLES points of each half plane are drawn
    first and counted by one valence_counts call.  Raises
    InconsistentValence when samples disagree (numerical failure: the
    valence is constant on each half plane).

    These are also the deficiency indices, the codimensions of the ranges
    of the Toeplitz operator T_phi - lambda over each half plane: for
    rational phi the inner factor at every lambda is a finite Blaschke
    product, so the indices coincide with the half-plane valences.
    """
    rng = np.random.default_rng(seed)
    n = HALFPLANE_SAMPLES
    lams = [complex(rng.uniform(-3.0, 3.0), sign * rng.uniform(0.2, 3.0))
            for sign in (+1,) * n + (-1,) * n]
    counts = valence_counts(phi, lams).tolist()
    up, lo = counts[:n], counts[n:]
    if phi.b1 is not None and phi.b2 is not None:
        expect = (phi.b2.degree, phi.b1.degree)
        if any(c != expect[0] for c in up) or any(c != expect[1] for c in lo):
            raise InconsistentValence(
                "sampled valences %s/%s disagree with Blaschke degrees %s"
                % (up, lo, expect)
            )
        return expect
    if len(set(up)) != 1 or len(set(lo)) != 1:
        raise InconsistentValence(
            "sampled valences not constant: C+ %s, C- %s" % (up, lo)
        )
    return up[0], lo[0]


#: a root of N or D nearer than this to the circle of radius r centres a
#: peak (pole) or a dip (zero) of |phi|^p, toward which the panels of
#: integral_means are graded
PEAK_DISTANCE = 0.5

#: the narrowest peak integral_means grades toward: a root on the circle
#: of radius r itself is graded down to panels this wide
MIN_PEAK_WIDTH = 1e-12

#: times integral_means halves every panel before it gives up
MAX_HALVINGS = 4

#: integral_means' 16- and 32-point estimates must agree to this, relative
MEANS_REL_TOL = 1e-5

@functools.cache
def _gauss_legendre():
    """integral_means' two rules on [-1, 1]: the 16- and the 32-point
    Gauss-Legendre nodes in one array (48,), and a weight column for each
    rule (48, 2), zero at the other rule's nodes.  Built on first use:
    leggauss's eigenvalue call pages in about 1 MB of LAPACK that only
    integral_means needs."""
    (x16, w16), (x32, w32) = (np.polynomial.legendre.leggauss(n)
                              for n in (16, 32))
    weights = np.zeros((48, 2))
    weights[:16, 0] = w16
    weights[16:, 1] = w32
    return np.concatenate([x16, x32]), weights


def _graded_breakpoints(centres):
    """Breakpoints of the panels of integral_means, sorted, spanning one
    period [t0, t0 + 2 pi).

    centres holds (angle, width) pairs.  Each width first drops to the
    smallest width plus angular distance over all centres, so a wide
    centre does not hide a narrow one next to it.  From each centre the
    breakpoints run out geometrically, at angle +- width 2^k, to the
    midpoints with its neighbours; the quarter points of the circle cap
    the widest panels.
    """
    two_pi = 2.0 * math.pi
    pts = [two_pi / 4.0 * np.arange(4)]
    if centres:
        th, widths = np.array(sorted((t % two_pi, max(w, MIN_PEAK_WIDTH))
                                     for t, w in centres)).T
        apart = np.abs(th[:, None] - th[None, :])
        apart = np.minimum(apart, two_pi - apart)
        widths = (widths[None, :] + apart).min(axis=1)
        # half the gap to the next centre, and to the previous one
        after = 0.5 * np.diff(np.append(th, th[0] + two_pi))
        before = np.roll(after, 1)
        pts += [th, th + after]
        for t, w, a, b in zip(th, widths, after, before):
            steps = w * 2.0 ** np.arange(int(math.log2(max(a, b, w) / w)) + 1)
            pts += [t + steps[steps < a], t - steps[steps < b]]
    bp = np.unique(np.concatenate(pts) % two_pi)
    return np.append(bp, bp[0] + two_pi)


def integral_means(phi, p, r):
    """M_p(r, phi) = ((1/2 pi) int |phi(r e^{it})|^p dt)^(1/p), by composite
    Gauss-Legendre quadrature on panels graded toward the peaks of the
    integrand (Hale & Trefethen 2008, SIAM J. Numer. Anal. 46).

    Every distinct root of N or D within PEAK_DISTANCE of the circle of
    radius r, at a distance delta from it, makes a peak (a pole) or a dip
    (a zero) of width about delta at its angle; the panels are graded
    toward it (_graded_breakpoints), so a pole 1e-4 from the circle needs
    a few dozen panels where an equispaced rule needs 10^5 samples.  The
    16- and 32-point rules on every panel, evaluated on one node array,
    give two estimates.  Until they agree to MEANS_REL_TOL, every panel is
    halved, up to MAX_HALVINGS times; then QuadratureUnstable is raised.
    A sum that is not finite raises it at once.  The 32-point estimate is
    returned.

    p may also be a tuple of exponents.  Then |phi| is evaluated once per
    panel grid for all of them, and the result is a tuple holding, for
    each exponent, the mean or the QuadratureUnstable or OverflowError
    that integral_means(phi, p, r) raises for it alone: the same result,
    bit for bit.

    |phi| is |N| over |D| = |c| prod |z - zeta_k|^m_k, from D's roots
    (den_roots, where find_roots places a multiple root to full
    precision): in the monomial basis D is rounding noise near a multiple
    circle pole, since (1 - r)^4 = 1e-16 at r = 0.9999.
    """
    if isinstance(p, tuple):
        return tuple(_means(phi, p, r))
    got = _means(phi, (p,), r)[0]
    if isinstance(got, Exception):
        raise got
    return got


def _means(phi, ps, r):
    """integral_means at each exponent of ps: a list of means and the
    exceptions raised in their place."""
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if any(p <= 0 for p in ps):
        raise ValueError("exponent must be positive")
    if r == 0.0:
        return [abs(phi.eval(0.0))] * len(ps)

    poles = []
    lead = phi.den.coeffs[0]
    if phi.den.degree >= 1:
        report = phi.den_roots
        poles = report.clusters()
        lead = phi.den.coeffs[len(report.roots)]
    zeros = []
    if phi.num.degree >= 1:
        zeros = phi.num_roots.clusters()
    centres = [(cmath.phase(z), abs(abs(z) - r)) for z, _ in poles + zeros
               if abs(abs(z) - r) < PEAK_DISTANCE]
    pole_at = np.array([z for z, _ in poles], dtype=np.complex128)
    pole_mult = np.array([m for _, m in poles], dtype=np.float64)

    nodes, weights = _gauss_legendre()
    bp = _graded_breakpoints(centres)
    out = [None] * len(ps)
    unsettled = list(range(len(ps)))
    for _ in range(MAX_HALVINGS + 1):
        mid = 0.5 * (bp[:-1] + bp[1:])
        half = 0.5 * (bp[1:] - bp[:-1])
        z = r * np.exp(1j * (mid[:, None] + half[:, None] * nodes))
        den_mod = abs(lead) * np.prod(
            np.abs(z[..., None] - pole_at) ** pole_mult, axis=-1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            modulus = np.abs(phi.num(z)) / den_mod
        for i in list(unsettled):
            p = ps[i]
            with np.errstate(over="ignore", invalid="ignore"):
                sums = half @ ((modulus ** p) @ weights)
            if not np.isfinite(sums).all():
                out[i] = QuadratureUnstable(
                    "integral mean sum is not finite (r = %g)" % r)
                unsettled.remove(i)
                continue
            try:
                coarse, fine = (float(s / (2.0 * math.pi)) ** (1.0 / p) for s in sums)
            except OverflowError as exc:
                out[i] = exc
                unsettled.remove(i)
                continue
            if abs(coarse - fine) <= MEANS_REL_TOL * abs(fine):
                out[i] = fine
                unsettled.remove(i)
        if not unsettled:
            return out
        bp = np.sort(np.concatenate([bp, mid]))
    for i in unsettled:
        out[i] = QuadratureUnstable(
            "integral mean did not settle after %d halvings (r = %g)"
            % (MAX_HALVINGS, r))
    return out


# -- closure operations -------------------------------------------------------

def real_affine(phi, a, b):
    """a*phi + b for real a != 0, b; half-plane valences swap when a < 0."""
    a = float(a)
    b = float(b)
    if a == 0:
        raise ValueError("a must be nonzero")
    psi = RealSmirnov(phi.num.scale(a) + phi.den.scale(b), phi.den)
    if phi.den.degree >= 1:
        psi.den_roots = phi.den_roots  # D is unchanged
    return psi


def precompose_inner(phi, c):
    """phi composed with a finite Blaschke product c (valences scale by
    deg c)."""
    if c.degree < 1:
        raise ValueError("precomposition requires deg C >= 1")
    pc, qc = map(Poly, c.as_rational())
    m = max(phi.num.degree, phi.den.degree)
    num = compose_rational(phi.num, pc, qc, m)
    den = compose_rational(phi.den, pc, qc, m)
    psi = RealSmirnov(num, den)
    if count_inside(psi.den_roots.roots) > 0:
        raise DenominatorVanishesInDisk(
            "composed denominator vanishes in the disk (numerical)"
        )
    return psi

"""Complex polynomial arithmetic, root finding, and disk root counting.

Polynomials are stored with ascending coefficients (c[0] + c[1] z + ...).
One driver, _aberth_rows, finds the roots of a stack of coefficient rows
of one degree: a simultaneous Aberth-Ehrlich iteration (Aberth 1973) per
row, then one Newton polish over the stack.  A row's Aberth run starts
from the eigenvalues of its companion matrix (Edelman & Murakami 1995),
all taken in one call, when every two of them are at least
EIG_START_SEPARATION * (1 + max |e|) apart; the iteration then only
confirms them, usually in one sweep.  A closer pair suggests a multiple or
clustered root, whose computed eigenvalues scatter further than Aberth's
iterates do, so that row starts instead from points on a circle, with
random perturbation restarts.  _merge_clusters then decides the
multiplicities, row by row, by one rule: a row whose polished roots fail
the same separation test is a candidate, and its multiplicity structure
is the coarsest single-linkage grouping of its roots whose Gauss-Newton
fit on the pejorative manifold lies within a backward error of
STRUCTURE_TOL * n of the row (Zeng's MultRoot, Math. Comp. 74 (2005)).
The fitted roots are the placed roots; in a self-inversive row, such as
N - xD at real x, those without a reflected partner are fitted on the
unit circle.  find_roots takes one polynomial through both as a one-row
stack.  A placed root lies on the unit circle when on_circle says so
(within BOUNDARY_TOL of it), and otherwise inside or outside it; every
module decides a root's place by this one rule.  Root counts inside the
unit circle (count_inside) are the basic primitive behind every valence
computation; disk_root_counts counts many polynomials at once, so that
the fixed cost of a call is paid once per stack.

No stage may move its arithmetic between numpy arrays and Python numbers,
because the two round differently.  Measured with numpy 2.4 on x86-64,
over random pairs of complex doubles:

- numpy's product of two complex arrays runs a fused SIMD loop and
  differs in the last bit from the product of Python complex numbers, or
  of numpy scalars, in about 44% of pairs, at every array length;
- numpy's complex division, of arrays and of scalars alike, is Smith's
  method and differs from Python's in about 43% of pairs; Python's
  complex / float differs from numpy's too, which multiplies by the
  reciprocal;
- np.abs of a complex array differs from abs of the same numbers as
  Python or numpy scalars in about 35% of values.

Sums and differences agree everywhere, and so do products and moduli of
numpy scalars and Python numbers.  A root one ulp off moves the search's
loss, and with it every later simplex step.  So the cost of a call is
cut here by making fewer numpy calls on arrays of the same shapes, with
the operands in the same order, never by moving a product, a division or
a modulus between arrays and scalars.  The one exception,
_kernels.aberth_batch, runs aberth_iterate's scalar arithmetic over a
stack of rows on float arrays of real and imaginary parts, with each
product written out, each modulus np.hypot and each quotient by Smith's
rule, so that every row rounds as aberth_iterate does.  The level-curve walk
(_kernels.trace_arc) is no stage of the root finder: it runs on Python
numbers with Python's division, and its low bits reach no root or count.
"""

import functools

import numpy as np

from . import _kernels

#: distance from the unit circle within which a root counts as sitting on
#: it (on_circle), whatever its multiplicity: _merge_clusters places an
#: m-fold root by its fitted structure, not to eps^(1/m)
BOUNDARY_TOL = 1e-9


def on_circle(z):
    """True where z lies within BOUNDARY_TOL of the unit circle, for a
    number or an array: the one rule that puts a root on the circle."""
    return abs(abs(z) - 1.0) < BOUNDARY_TOL


#: companion eigenvalues start the Aberth iteration only when every two of
#: them are at least this far apart, relative to 1 + max |e|
EIG_START_SEPARATION = 1e-2

#: Newton steps of the polish after Aberth
POLISH_STEPS = 3

#: _trimmed drops leading coefficients smaller than this, relative to the
#: largest coefficient
LEAD_TOL = 1e-14

_EPS = np.finfo(np.float64).eps

#: a multiplicity structure of a degree-n row is accepted when its fitted
#: polynomial lies within STRUCTURE_TOL * n of the monic row, coefficient by
#: coefficient and relative to its largest coefficient
STRUCTURE_TOL = 16.0 * _EPS


class NonConvergence(Exception):
    """Root iteration exhausted its budget (ill-conditioned input)."""


class Poly:
    """Immutable complex polynomial with ascending coefficients.

    Trailing zero coefficients are trimmed on construction, so ``degree``
    is always the index of the last nonzero coefficient (the zero
    polynomial keeps a single zero coefficient and reports degree 0).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).ravel()
        object.__setattr__(self, "coeffs", _strip(c))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        if np.isscalar(z) or np.asarray(z).shape == ():
            return _kernels.horner_scalar(self.coeffs, z)
        return _kernels.horner_many(self.coeffs, z.ravel()).reshape(z.shape)

    def __add__(self, other):
        return Poly(_add(self.coeffs, _as_poly(other).coeffs))

    def __neg__(self):
        return Poly(-self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(other)
        return Poly(_mul(self.coeffs, _as_poly(other).coeffs))

    __rmul__ = __mul__

    def scale(self, a):
        return Poly(self.coeffs * complex(a))

    def derivative(self):
        return Poly(_derivative(self.coeffs))

    def __repr__(self):
        return "Poly(%s)" % np.array2string(self.coeffs, precision=6)


def _as_poly(p):
    return p if isinstance(p, Poly) else Poly(p)


# Poly's arithmetic on coefficient arrays (ascending, without trailing
# zeros), for callers that build a polynomial from several operations and
# need only the last result as a Poly

def _strip(c):
    """c without its trailing zero coefficients; the zero polynomial keeps
    its first coefficient, and an empty c becomes [0]."""
    if c.size and c[-1] != 0:
        return c
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return c[:1] if c.size else np.zeros(1, dtype=np.complex128)
    return c[: nz[-1] + 1]


def _add(a, b):
    """Coefficients of a + b."""
    c = np.zeros(max(len(a), len(b)), dtype=np.complex128)
    c[: len(a)] += a
    c[: len(b)] += b
    return _strip(c)


def _mul(a, b):
    """Coefficients of a * b."""
    if (len(a) == 1 and a[0] == 0) or (len(b) == 1 and b[0] == 0):
        return np.zeros(1, dtype=np.complex128)
    return _strip(np.convolve(a, b))


def _derivative(a):
    """Coefficients of the derivative of a."""
    if len(a) == 1:
        return np.zeros(1, dtype=np.complex128)
    return _strip(a[1:] * _ramp(len(a)))


def _ramp(m):
    """The factors 1, ..., m - 1 that differentiate a polynomial with m
    coefficients.  They are complex, so a product with them runs no cast,
    and are exact, so it equals the product with the integer factors."""
    return np.arange(1, m, dtype=np.complex128)


def poly_from_roots(roots, lead=1.0):
    """Monic-from-roots constructor, scaled by ``lead``."""
    c = np.array([complex(lead)], dtype=np.complex128)
    for r in roots:
        c = np.convolve(c, np.array([-complex(r), 1.0], dtype=np.complex128))
    return Poly(c)


def compose_rational(p, rnum, rden, power):
    """Numerator of p(rnum/rden) * rden**power, with power >= deg p.

    Writing p(w) = sum c_k w^k, the returned polynomial is
    sum c_k rnum^k rden^(power-k).  With power = deg p this is the usual
    clearing of denominators; a larger power pads with rden factors so two
    compositions can share one denominator.
    """
    n = p.degree
    if power < n:
        raise ValueError("power must be at least deg p")
    out = Poly([0])
    num_pow = Poly([1])
    den_pows = [Poly([1])]
    for _ in range(power):
        den_pows.append(den_pows[-1] * rden)
    for k in range(n + 1):
        if p.coeffs[k] != 0:
            out = out + (num_pow * den_pows[power - k]).scale(p.coeffs[k])
        if k < n:
            num_pow = num_pow * rnum
    return out


class RootReport:
    """All roots of a polynomial, with multiplicities.

    ``roots`` has length equal to the degree (each multiple root repeated)
    and ``multiplicities`` is aligned with it.
    """

    def __init__(self, roots, multiplicities):
        self.roots = roots
        self.multiplicities = multiplicities

    def clusters(self):
        """Distinct roots as a list of (value, multiplicity) pairs, in
        Python numbers."""
        roots, mult = self.roots.tolist(), self.multiplicities.tolist()
        out = []
        k = 0
        while k < len(roots):
            out.append((roots[k], mult[k]))
            k += mult[k]
        return out


def _initial_guesses(coeffs, rng):
    n = len(coeffs) - 1
    ratios = np.abs(coeffs[:-1] / coeffs[-1])
    radius = 1.0 + (ratios.max() if ratios.size else 0.0)
    radius = min(radius, 1e6)
    ang = 2.0 * np.pi * (np.arange(n) + 0.37) / n
    jitter = 0.05 * (rng.random(n) - 0.5) if rng is not None else 0.0
    return (0.5 + 0.5 * radius) * np.exp(1j * (ang + jitter))


def _eigenvalue_start(rows):
    """Companion eigenvalues of coefficient rows (k, n + 1), as (eigs, ok):
    eigs (k, n), and ok (k,) where the companion matrix of the row is
    finite and every two of its eigenvalues are at least
    EIG_START_SEPARATION * (1 + max |e|) apart."""
    k, n = rows.shape[0], rows.shape[1] - 1
    last = -rows[:, :-1] / rows[:, -1:]
    finite = np.isfinite(last)
    if np.count_nonzero(finite) == finite.size:
        finite = None
    else:
        finite = finite.all(axis=1)
        last[~finite] = 0.0
    comp = np.zeros((k, n, n), dtype=np.complex128)
    comp.reshape(k, n * n)[:, n::n + 1] = 1.0  # the subdiagonal
    comp[:, :, -1] = last
    eigs = np.linalg.eigvals(comp)
    ok = _separated(eigs)
    if finite is not None:
        ok &= finite
    return eigs, ok


def _separated(roots):
    """(k,) True for the rows of roots (k, n) in which every two roots are
    at least EIG_START_SEPARATION * (1 + max |r|) apart; a nan root fails."""
    return _min_gaps(roots) >= EIG_START_SEPARATION * (
        1.0 + np.maximum.reduce(np.abs(roots), axis=1))


@functools.cache
def _pairs(n):
    """The index arrays (i, j) of the pairs i < j among n entries."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _min_gaps(roots):
    """Smallest distance between two entries of each row of roots (k, n);
    inf for n = 1."""
    k, n = roots.shape
    if n == 1:
        return np.full(k, np.inf)
    i, j = _pairs(n)
    return np.minimum.reduce(
        np.abs(roots.take(i, axis=1) - roots.take(j, axis=1)), axis=1)


def _aberth_rows(rows):
    """Polished roots (k, n) of every coefficient row of rows (k, n + 1),
    n >= 1, each kept whole by _trimmed.

    A row starts Aberth from its companion eigenvalues where they pass the
    separation test of _eigenvalue_start and the run converges from them;
    every other row starts from the circle of _initial_guesses, with up to
    three random perturbation restarts, and NonConvergence is raised when
    every start exhausts the budget.  One Newton polish then runs over the
    whole stack.  A row's roots do not depend on the other rows.

    The eigenvalue starts of a stack of two or more rows run in one
    _kernels.aberth_batch call, which gives each row aberth_iterate's
    result; a one-row stack, the root find of find_roots, and every circle
    start run aberth_iterate, which costs a twelfth of the batch on one row.
    """
    roots, ok = _eigenvalue_start(rows)
    if len(rows) == 1:
        done = ok.tolist()
        if done[0]:
            roots[0], _, done[0] = _kernels.aberth_iterate(rows[0], roots[0])
    else:
        start = np.flatnonzero(ok)
        if len(start):
            roots[start], _, ok[start] = _kernels.aberth_batch(
                rows[start], roots[start])
        done = ok.tolist()
    for i, converged in enumerate(done):
        if not converged:
            roots[i] = _circle_start(rows[i])
    return _newton_polish(rows, roots)


def _circle_start(row):
    """Aberth roots of one coefficient row started from the circle of
    _initial_guesses, with up to three random perturbation restarts;
    NonConvergence when every start exhausts the budget."""
    rng = None
    for attempt in range(4):
        roots, _, done = _kernels.aberth_iterate(
            row, _initial_guesses(row, rng))
        if done:
            return roots
        rng = np.random.default_rng(0xC0FFEE + attempt)
    raise NonConvergence("Aberth iteration failed after restarts (degree %d)"
                         % (len(row) - 1))


def _newton_polish(rows, roots):
    """POLISH_STEPS Newton steps on the roots (k, n) of the coefficient rows
    (k, n + 1).

    p and p' run through one Horner recurrence (horner_many) as a stack
    (2, k, n).  Their coefficients are laid out once as (n + 1, 2, k, n),
    each repeated over the row's points, and every step writes the points
    into one buffer, so the recurrence multiplies and adds arrays of one
    shape.  The rows of p' are padded with a zero leading coefficient, so
    Horner's first step gives exactly their own leading coefficient at any
    finite root.  A step in which every |p'| exceeds 1e-280 and no update
    is flung beyond 0.1 (1 + |root|) skips the masks that guard those
    cases.
    """
    m = rows.shape[1]
    cols = np.zeros((m, 2) + roots.shape, dtype=np.complex128)
    cols[:, 0] = rows.T[:, :, None]
    cols[:-1, 1] = (rows[:, 1:] * _ramp(m)).T[:, :, None]
    z = np.empty(cols.shape[1:], dtype=np.complex128)
    for _ in range(POLISH_STEPS):
        z[:] = roots
        pv = _kernels.horner_many(cols, z)
        p, dp = pv[0], pv[1]
        mask = np.abs(dp) > 1e-280
        if np.count_nonzero(mask) == mask.size:
            upd = p / dp
        else:
            upd = np.where(mask, p / np.where(mask, dp, 1.0), 0.0)
        # do not let a polish step fling a root far away (multiple roots)
        big = np.abs(upd) > 0.1 * (1.0 + np.abs(roots))
        if np.count_nonzero(big):
            upd[big] = 0.0
        roots = roots - upd
    return roots


def _trimmed(coeffs):
    """(c, n_zero): coeffs without vanishing leading coefficients (relative
    to the largest) and without its n_zero exact zero roots."""
    scale = np.maximum.reduce(np.abs(coeffs))
    if scale == 0:
        raise ValueError("cannot take roots of the zero polynomial")
    c = coeffs
    while len(c) > 1 and abs(c[-1]) < LEAD_TOL * scale:
        c = c[:-1]
    if len(c) - 1 < 1:
        raise ValueError("find_roots requires degree >= 1")
    # strip exact zero roots (monomial factors appear all over the place)
    n_zero = 0
    while c[0] == 0:
        c = c[1:]
        n_zero += 1
    return c, n_zero


def _whole(rows):
    """(k,) True for the coefficient rows (k, n + 1) that _trimmed keeps
    whole: no leading coefficient below LEAD_TOL of the largest, and no
    exact zero root."""
    return ((np.abs(rows[:, -1]) >= LEAD_TOL * np.abs(rows).max(axis=1))
            & (rows[:, 0] != 0))


def _merge_clusters(roots, rows):
    """(out, mult), both (k, n): the roots (k, n) of the coefficient rows
    (k, n + 1) and their multiplicities.  A row whose roots fail the
    closeness test of _separated takes the structure that _structure
    finds, each fitted root repeated once per multiplicity; while its
    distinct fitted roots still fail the test (a root the polish flung out
    of a cluster has come back to it), the search runs again from them, as
    long as the structure gets coarser.  Every other root is simple and
    keeps its value, except that one below 1e-300 in modulus is set to
    exactly zero.  This is the one rule that decides and places a multiple
    root: root reports, disk counts, circle poles and integral means read
    it.
    """
    tiny = np.abs(roots) < 1e-300
    out = (np.where(tiny, 0.0, roots) if np.count_nonzero(tiny)
           else roots.copy())
    mult = np.ones(roots.shape, dtype=np.int64)
    for i, alone in enumerate(_separated(out).tolist()):
        distinct = out.shape[1]
        while not alone and (fit := _structure(out[i], rows[i])) is not None:
            z, sizes = fit
            out[i], mult[i] = np.repeat(z, sizes), np.repeat(sizes, sizes)
            alone = len(z) == distinct or _separated(z[None])[0]
            distinct = len(z)
    return out, mult


def _structure(roots, row):
    """(z, sizes), the distinct fitted roots of one row and their
    multiplicities, decided by backward error as Zeng's MultRoot does
    (Math. Comp. 74 (2005)); None when every root stays simple as it is.

    The candidates are the single-linkage groupings of the roots, by the
    links shorter than _separated's distance on the scale of their ends,
    coarsest first; the first whose _fit lies within STRUCTURE_TOL * n of
    the monic row, coefficient by coefficient and relative to its largest
    coefficient, is kept.  A row self-inversive within that bound
    (a_k = u conj(a_(n-k)), as N - xD at real x) has each root on the
    circle or paired with its reflection 1/conj(z): _fit keeps the
    unpaired roots on the circle, and every root simple is tried last when
    that moves a root onto the circle from off it (on_circle).
    """
    n = len(roots)
    monic = row / row[-1]
    tol = STRUCTURE_TOL * n * np.maximum.reduce(np.abs(monic))
    with np.errstate(over="ignore", invalid="ignore"):
        # a subnormal constant term overflows here and fails the test
        circle = np.maximum.reduce(np.abs(
            monic - np.conj(monic[::-1]) / np.conj(monic[0]))) <= tol
    i, j = _pairs(n)
    gaps = np.abs(roots[i] - roots[j])
    size = np.abs(roots)
    reach = EIG_START_SEPARATION * (1.0 + np.maximum(size[i], size[j]))
    labels = list(range(n))
    chain = [labels] if circle and np.count_nonzero(
        _unpaired(roots) & ~on_circle(size)) else []
    for k in np.argsort(gaps, kind="stable").tolist():
        a, b = labels[i[k]], labels[j[k]]
        if gaps[k] < reach[k] and a != b:
            labels = [a if g == b else g for g in labels]
            chain.append(labels)
    real = not np.count_nonzero(row.imag)
    for labels in reversed(chain):
        groups = [roots[[a for a in range(n) if labels[a] == g]]
                  for g in dict.fromkeys(labels)]
        z, err = _fit(monic, groups, real, circle)
        if err <= tol:
            return z, np.array([len(g) for g in groups])
    return None


def _fit(monic, groups, real, circle):
    """(z, err): Gauss-Newton on the pejorative manifold of a monic row,
    the polynomials with roots z_j of multiplicities len(groups[j]), from
    the groups' centroids, while the largest coefficient error err falls
    and the step moves z by more than rounding.  Each iterate is put back
    on the row's structure: in a real row, a multiple root whose centroid
    lies within the spread of its group is real; in a self-inversive row
    (circle), an unpaired root is on the unit circle."""
    mults = np.array([len(g) for g in groups])
    z = np.array([g.mean() for g in groups])
    keep = np.array([real and len(g) > 1 and abs(c.imag) <= np.abs(g - c).max()
                     for g, c in zip(groups, z)])
    on = _unpaired(z) if circle else np.zeros_like(keep)
    n = len(monic) - 1
    best, err = z, np.inf
    for _ in range(_kernels.ABERTH_MAX_ITER):
        z[keep] = z[keep].real
        z[on] = z[on] / np.abs(z[on])
        f = poly_from_roots(np.repeat(z, mults)).coeffs
        e = np.maximum.reduce(np.abs(f - monic))
        if not e < err:
            break
        best, err = z, e
        # dF/dz_j = -m_j F / (x - z_j), by synthetic division
        q = np.empty((len(z), n), dtype=np.complex128)
        q[:, -1] = 1.0
        for k in range(n - 1, 0, -1):
            q[:, k - 1] = f[k] + z * q[:, k]
        step = np.linalg.lstsq(-(q * mults[:, None]).T, f[:-1] - monic[:-1],
                               rcond=None)[0]
        if not np.abs(step).max() > _EPS * (1.0 + np.abs(z).max()):
            break
        z = z - step
    return best, err


def _unpaired(z):
    """True for the entries of z (n,) whose reflection 1/conj(z) lies
    nearer to them than to every other entry: in a self-inversive row,
    the roots on the unit circle."""
    dist = np.abs(z[None, :] - 1.0 / np.conj(z)[:, None])
    own = np.diagonal(dist).copy()
    np.fill_diagonal(dist, np.inf)
    return own < dist.min(axis=1)


def find_roots(p):
    """All complex roots of p with multiplicities.

    _aberth_rows on the one row that _trimmed leaves (Aberth-Ehrlich
    simultaneous iteration from the companion eigenvalues when they are
    well separated, else from a circle with up to three random
    perturbation restarts, then a Newton polish), then the multiplicity
    structure of that row (_merge_clusters).  The n_zero exact zero roots
    that _trimmed strips are one root of multiplicity n_zero.  Raises
    NonConvergence when the budget is exhausted.
    """
    p = _as_poly(p)
    c, n_zero = _trimmed(p.coeffs)
    out = np.zeros(n_zero, dtype=np.complex128)
    mult = np.full(n_zero, n_zero, dtype=np.int64)
    if len(c) > 1:
        z, m = _merge_clusters(_aberth_rows(c[None]), c[None])
        out, mult = np.concatenate([out, z[0]]), np.concatenate([mult, m[0]])
    order = np.lexsort((out.imag, out.real))
    return RootReport(out[order], mult[order])


def count_inside(roots):
    """Number of roots inside the open unit disk, along the last axis of
    roots.

    Roots on the unit circle (on_circle) are *not* counted: a root
    numerically on the circle is outside the open disk for valence
    purposes.
    """
    mod = np.abs(roots)
    return (~on_circle(mod) & (mod < 1.0)).sum(axis=-1)


def disk_root_counts(rows):
    """count_inside of find_roots' roots for every coefficient row of rows
    (k, n + 1), n >= 1, as an integer array (k,).

    Every row that _trimmed keeps whole (_whole) goes through one
    _aberth_rows call over the stack: one companion eigenvalue call, one
    batched Aberth run over the rows whose eigenvalues start it, and one
    Newton polish.  Its roots are then exactly
    find_roots' (before the sort), and _merge_clusters decides their
    multiplicities as find_roots does, from the row.  A trimmed row
    falls back to find_roots of its polynomial.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    counts = np.zeros(len(rows), dtype=np.int64)
    whole = _whole(rows)
    if whole.any():
        kept = rows[whole]
        out, _ = _merge_clusters(_aberth_rows(kept), kept)
        counts[whole] = count_inside(out)
    for i in np.flatnonzero(~whole):
        counts[i] = count_inside(find_roots(Poly(rows[i])).roots)
    return counts

"""Hot numerical loops shared by the analysis modules.

Four kernels live here: Horner evaluation of polynomials, the
Aberth-Ehrlich simultaneous root iteration, grid classification by the
sign of Im(N/D), and the predictor-corrector stepper used to follow level
curves of Im(N/D), on Python numbers with Python's own arithmetic.

Horner's recurrence is written once per kind of number: horner_scalar for
any number type (Python, numpy and mpmath numbers, float arrays),
horner_many for complex arrays of points, _horner_split on pairs of real
and imaginary float arrays for aberth_batch, and inline in trace_arc's
step loop, which evaluates N, D and W together.  aberth_iterate runs one
row, and aberth_batch runs the same arithmetic over a stack of rows at
once, with the same result per row; on one row the batch costs twelve
times more.
"""

import numpy as np

# no build jits these kernels; kept because pipebench stamps every result
# with it and refuses to compare results whose stamps differ
USE_NUMBA = False

#: aberth_iterate's relative step tolerance and sweep budget
ABERTH_TOL = 1e-13
ABERTH_MAX_ITER = 400
#: floor of classify_grid's near-zero band, relative to |D|^2
BAND_FLOOR = 1e-14
#: where trace_arc stops: |N/D| at a pole, the distance to a branch point,
#: |z| at the circle, the smallest step, the most points
POLE_CUTOFF = 1e8
BP_RADIUS = 1e-3
TRACE_R_STOP = 1.0 - 1e-7
TRACE_H_MIN = 1e-7
TRACE_STEP_LIMIT = 200000
#: trace_arc's first and largest step
TRACE_H_FIRST = 2e-3
TRACE_H_MAX = 6.4e-2

# trace_arc status codes
TRACE_HIT_CIRCLE = 1
TRACE_HIT_POLE = 2
TRACE_HIT_BRANCH = 3
TRACE_STALLED = 4
TRACE_NON_MONOTONE = 5
TRACE_MAX_STEPS = 6


def horner_scalar(coeffs, z):
    """Evaluate the polynomial (coefficients ascending) at one point.

    Any number type that multiplies and adds will do: Python numbers, numpy
    scalars, mpmath numbers, or float arrays evaluated entrywise.
    """
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def horner_many(coeffs, z):
    """Evaluate sum_k coeffs[k] * z**k for every entry of the array z
    (ascending order).  Each coefficient is a number or an array that
    broadcasts against z.

    Every product is one of two arrays of z's shape: the leading
    coefficient is spread over z's shape first, because numpy multiplies a
    broadcast operand by another loop, which rounds differently on long
    arrays.  Coefficients that already have z's shape start as they are.
    """
    acc = coeffs[-1]
    if np.shape(acc) != z.shape:
        acc = np.full_like(z, acc, dtype=np.complex128)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def aberth_iterate(coeffs, initial):
    """Run the Aberth-Ehrlich iteration from the supplied initial guesses.

    Gauss-Seidel updates; coeffs ascending, monic not required.  Returns
    (roots, iterations, converged).

    Stops when the largest relative step drops below ABERTH_TOL, or when
    every residual |p(z_k)| is below machine noise for the evaluation
    itself (sum |c_j||z|^j scaled by eps) -- the step criterion alone stalls
    on multiple roots, whose iterate rings shrink only linearly.
    """
    roots = np.array(initial, dtype=np.complex128)
    n = roots.shape[0]
    acoeffs = np.abs(coeffs)
    # complex factors: the product with the integer ones, without the cast
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs), dtype=np.complex128)
    for it in range(ABERTH_MAX_ITER):
        delta = 0.0
        worst_resid = 0.0
        for k in range(n):
            zk = roots[k]
            p = horner_scalar(coeffs, zk)
            dp = horner_scalar(dcoeffs, zk)
            noise = horner_scalar(acoeffs, abs(zk)).real
            rr = abs(p) / (noise + 1e-150)
            if rr > worst_resid:
                worst_resid = rr
            if dp == 0:
                dp = 1e-150
            w = p / dp
            s = 0.0 + 0.0j
            for j in range(n):
                if j != k:
                    dz = zk - roots[j]
                    if dz == 0:
                        dz = 1e-12 * (1.0 + abs(zk))
                    s += 1.0 / dz
            denom = 1.0 - w * s
            if denom == 0:
                denom = 1e-150
            step = w / denom
            roots[k] = zk - step
            rel = abs(step) / (1.0 + abs(roots[k]))
            if rel > delta:
                delta = rel
        if delta < ABERTH_TOL or worst_resid < 1e-14:
            return roots, it + 1, True
    return roots, ABERTH_MAX_ITER, False


def _horner_split(cr, ci, xr, xi):
    """horner_scalar's recurrence on (real, imaginary) float arrays: the
    coefficients (m, a) ascending, the points (a,)."""
    pr, pi = cr[-1], ci[-1]
    for j in range(len(cr) - 2, -1, -1):
        pr, pi = pr * xr - pi * xi + cr[j], pr * xi + pi * xr + ci[j]
    return pr, pi


def _div(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) on float arrays, by Smith's rule, as numpy
    divides two complex scalars; the divisor must not be 0."""
    big = np.abs(br) >= np.abs(bi)
    num = np.where(big, bi, br)
    den = np.where(big, br, bi)
    rat = num / den
    scl = 1.0 / (den + num * rat)
    return (np.where(big, ar + ai * rat, ar * rat + ai) * scl,
            np.where(big, ai - ar * rat, ai * rat - ar) * scl)


def _nonzero(re, im):
    """(re, im) with each complex 0 replaced by 1e-150, as aberth_iterate
    guards a divisor."""
    zero = (re == 0) & (im == 0)
    if zero.any():
        return np.where(zero, 1e-150, re), np.where(zero, 0.0, im)
    return re, im


def aberth_batch(coeffs, initial):
    """aberth_iterate over every row of a stack: coeffs (k, m), initial
    (k, n).  Returns (roots (k, n), iterations (k,), converged (k,)), row i
    byte for byte what aberth_iterate(coeffs[i], initial[i]) returns.

    One Gauss-Seidel sweep runs over every row still iterating, root j of
    each before root j + 1, and a row leaves after the sweep that meets its
    stopping test.  numpy rounds an array complex product and modulus
    differently from a scalar one, so every complex number is a pair of
    float arrays: products are written out, moduli are np.hypot and
    quotients are _div, each rounding as aberth_iterate's scalars do.
    """
    k, n = initial.shape
    m = coeffs.shape[1]
    # made as aberth_iterate makes them: numpy gives each row the same bits
    acoeffs = np.abs(coeffs).T.copy()
    dcoeffs = (coeffs[:, 1:] * np.arange(1, m, dtype=np.complex128)).T
    cr, ci = coeffs.real.T.copy(), coeffs.imag.T.copy()
    dr, di = dcoeffs.real.copy(), dcoeffs.imag.copy()
    zr, zi = initial.real.T.copy(), initial.imag.T.copy()
    roots = np.empty((k, n), dtype=np.complex128)
    iterations = np.full(k, ABERTH_MAX_ITER)
    converged = np.zeros(k, dtype=bool)
    live = np.arange(k)
    for it in range(ABERTH_MAX_ITER):
        delta = np.zeros(len(live))
        worst = np.zeros(len(live))
        for j in range(n):
            xr, xi = zr[j], zi[j]
            pr, pi = _horner_split(cr, ci, xr, xi)
            dpr, dpi = _horner_split(dr, di, xr, xi)
            ax = np.hypot(xr, xi)
            noise = horner_scalar(acoeffs, ax)
            rr = np.hypot(pr, pi) / (noise + 1e-150)
            worst = np.where(rr > worst, rr, worst)
            wr, wi = _div(pr, pi, *_nonzero(dpr, dpi))
            sr = np.zeros(len(live))
            si = np.zeros(len(live))
            for q in range(n):
                if q == j:
                    continue
                dzr, dzi = xr - zr[q], xi - zi[q]
                zero = (dzr == 0) & (dzi == 0)
                guard = zero.any()
                if guard:
                    dzr = np.where(zero, 1.0, dzr)
                tr, ti = _div(1.0, 0.0, dzr, dzi)
                if guard:
                    # a real guard: 1.0 / dz is real
                    tr = np.where(zero, 1.0 / (1e-12 * (1.0 + ax)), tr)
                    ti = np.where(zero, 0.0, ti)
                sr = sr + tr
                si = si + ti
            er = 1.0 - (wr * sr - wi * si)
            ei = 0.0 - (wr * si + wi * sr)
            hr, hi = _div(wr, wi, *_nonzero(er, ei))
            zr[j] = xr - hr
            zi[j] = xi - hi
            rel = np.hypot(hr, hi) / (1.0 + np.hypot(zr[j], zi[j]))
            delta = np.where(rel > delta, rel, delta)
        done = (delta < ABERTH_TOL) | (worst < 1e-14)
        if done.any():
            out = live[done]
            roots.real[out] = zr[:, done].T
            roots.imag[out] = zi[:, done].T
            iterations[out] = it + 1
            converged[out] = True
            keep = ~done
            live = live[keep]
            if not len(live):
                return roots, iterations, converged
            acoeffs, cr, ci, dr, di, zr, zi = (
                a[:, keep] for a in (acoeffs, cr, ci, dr, di, zr, zi))
    roots.real[live] = zr.T
    roots.imag[live] = zi.T
    return roots, iterations, converged


def classify_grid(ncoef, dcoef, wcoef, res, margin, band):
    """Classify cell centers of a res x res grid over [-1,1]^2.

    Codes: 0 outside the working disk, +1 where Im(N/D) > 0, -1 where < 0,
    2 where |Im(N/D)| < band * |(N/D)'| + BAND_FLOOR (the near-zero band).
    The test is done on |Im(N conj D)| vs band*|W| where W = N'D - ND', so
    no division happens anywhere.
    """
    cls = np.zeros((res, res), dtype=np.int8)
    h = 2.0 / res
    rlim2 = (1.0 - margin) ** 2
    centers = -1.0 + (np.arange(res) + 0.5) * h
    # whole rows of about 16k cells per block keep the temporaries at a
    # few MB at any resolution
    rows = max(1, 16384 // res)
    for y0 in range(0, res, rows):
        y = centers[y0:y0 + rows, None]
        inside = centers * centers + y * y < rlim2
        z = (centers + 1j * y)[inside]
        nv = horner_many(ncoef, z)
        dv = horner_many(dcoef, z)
        wv = horner_many(wcoef, z)
        imnd = (nv * dv.conj()).imag
        d2 = (dv * dv.conj()).real
        cls[y0:y0 + rows][inside] = np.where(
            np.abs(imnd) < band * np.abs(wv) + BAND_FLOOR * d2,
            2,
            np.where(imnd > 0, 1, -1),
        )
    return cls


def trace_arc(ncoef, dcoef, wcoef, z0, direction, branch_points=(), stops=()):
    """Follow the level curve Im(N/D) = 0 from z0.

    direction=+1 walks with Re(N/D) increasing, -1 decreasing.  Stops at the
    circle (|z| >= TRACE_R_STOP), at a pole (|N/D| >= POLE_CUTOFF), in an
    end disk, when the corrector stalls, or when monotonicity of Re(N/D)
    fails.  The end disks are one list, scanned in order at each point
    after the first: branch_points with radius BP_RADIUS, then the disks
    ``stops`` ((centre, radius) pairs, ended as at the circle).  Returns
    (points, status, bp_index): the points of the walk as a complex array,
    a TRACE_* code, and the index of the branch point hit (-1 if none).

    The step starts at TRACE_H_FIRST and grows by 1.3, up to TRACE_H_MAX,
    where the curve turns by less than about 2.6 degrees in a step.  A
    step that turns it by more than about 11 degrees, or whose corrector
    fails, is tried again at half its length.  No predictor step is longer
    than half the distance to the nearest centre of an end disk, so none
    spans one, nor longer than 0.3 times the distance to the circle (at
    least 2e-4).
    The coefficients (ascending), branch points and stops are Python
    complex numbers, and so is every step of the walk, divisions included.
    N, D and W are evaluated together at each point, each by
    horner_scalar's operations in its order.
    """
    # locals, so the step loop looks up no globals
    pole_cutoff, r_stop = POLE_CUTOFF, TRACE_R_STOP
    h_min, h_max, max_steps = TRACE_H_MIN, TRACE_H_MAX, TRACE_STEP_LIMIT
    n_lead, n_rest = ncoef[-1], ncoef[-2::-1]
    d_lead, d_rest = dcoef[-1], dcoef[-2::-1]
    w_lead, w_rest = wcoef[-1], wcoef[-2::-1]
    # the end disks as (centre, radius, branch index, or -1 for a stop)
    disks = [(c, BP_RADIUS, b) for b, c in enumerate(branch_points)]
    disks += [(c, r, -1) for c, r in stops]
    pts = []

    def ev(z):
        nv = n_lead
        for c in n_rest:
            nv = nv * z + c
        dv = d_lead
        for c in d_rest:
            dv = dv * z + c
        wv = w_lead
        for c in w_rest:
            wv = wv * z + c
        return nv, dv, wv

    def dphi(dv, wv):
        # (N/D)' = W / D^2 with W = N'D - ND'
        d2 = dv * dv
        if abs(d2) < 1e-150:
            return 0.0 + 0.0j
        return wv / d2

    def scan(z):
        # the index of the first end disk z lies in (None if none), and
        # half the distance to the nearest centre
        end, near = None, 1e300
        for c, r, b in disks:
            d = abs(z - c)
            if d < r and end is None:
                end = b
            if d < near:
                near = d
        return end, 0.5 * near

    z = complex(z0)
    nv, dv, wv = ev(z)
    if abs(dv) < 1e-150:
        return np.empty(0, dtype=np.complex128), TRACE_STALLED, -1
    fp = dphi(dv, wv)
    pts.append(z)
    re_prev = (nv / dv).real
    h = TRACE_H_FIRST
    _, he_cap = scan(z)
    status = TRACE_MAX_STEPS
    bp_hit = -1
    while len(pts) < max_steps:
        if abs(fp) < 1e-150:
            status = TRACE_HIT_CIRCLE if 1.0 - abs(z) < 1e-3 else TRACE_STALLED
            break
        tau = direction * fp.conjugate() / abs(fp)
        # predictor; step throttled near the circle so arc endpoints are not
        # overshot (many arcs terminate there with phi' -> 0 or |phi| -> inf)
        # and near the points where walks end, so none is stepped over
        he = h
        cap = 0.3 * (1.0 - abs(z))
        if cap < 2e-4:
            cap = 2e-4
        if he > cap:
            he = cap
        if he > he_cap:
            he = he_cap
        zp = z + he * tau
        # corrector: Newton steps orthogonal to the curve; accept either a
        # small correction or one stagnating at the evaluation noise floor
        ok = False
        zc = zp
        prev_c = 1e300
        for _ in range(6):
            nv2, dv2, wv2 = ev(zc)
            if abs(dv2) < 1e-150:
                break
            f2 = nv2 / dv2
            fp2 = dphi(dv2, wv2)
            if abs(fp2) < 1e-150:
                break
            corr = f2.imag * 1j * fp2.conjugate() / abs(fp2) ** 2
            zc = zc - corr
            c = abs(corr)
            if c < 1e-13 + 1e-9 * he or (c > 0.25 * prev_c and c < 1e-12 + 1e-3 * he):
                ok = True
                break
            prev_c = c
        if not ok:
            h = 0.5 * he
            if h < h_min:
                # so close to the circle that phi' drowns in rounding noise:
                # the arc has reached its boundary endpoint
                status = TRACE_HIT_CIRCLE if 1.0 - abs(z) < 1e-3 else TRACE_STALLED
                break
            continue
        nv2, dv2, wv2 = ev(zc)
        if abs(dv2) < 1e-150:
            status = TRACE_HIT_POLE
            break
        f2 = nv2 / dv2
        fp2 = dphi(dv2, wv2)
        # curvature control: sharp turns halve the step
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
        # monotonicity of Re along the walk
        dre = direction * (f2.real - re_prev)
        if dre < -1e-9 * (1.0 + abs(f2.real)):
            status = TRACE_NON_MONOTONE
            break
        z = zc
        fp = fp2
        re_prev = f2.real
        pts.append(z)
        if abs(z) >= r_stop:
            status = TRACE_HIT_CIRCLE
            break
        if abs(f2) >= pole_cutoff:
            status = TRACE_HIT_POLE
            break
        end, he_cap = scan(z)
        if end is not None:
            status = TRACE_HIT_BRANCH if end >= 0 else TRACE_HIT_CIRCLE
            bp_hit = end
            break
    return np.array(pts, dtype=np.complex128), status, bp_hit

"""Hot numerical loops shared by the analysis modules.

Four kernels live here: Horner evaluation of a polynomial at one point or
(also for a stack of coefficient rows) over an array of points, the
Aberth-Ehrlich simultaneous root iteration, grid classification by the
sign of Im(N/D), and the predictor-corrector stepper used to follow level
curves of Im(N/D), on Python numbers with Python's own arithmetic.  Each
has one implementation.
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

# trace_arc status codes
TRACE_HIT_CIRCLE = 1
TRACE_HIT_POLE = 2
TRACE_HIT_BRANCH = 3
TRACE_STALLED = 4
TRACE_NON_MONOTONE = 5
TRACE_MAX_STEPS = 6


def _horner_many(coeffs, z):
    """Evaluate sum_k coeffs[k] * z**k for every entry of z (ascending order).

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


def horner_scalar(coeffs, z):
    """Evaluate the polynomial (coefficients ascending) at one point."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def horner_many(coeffs, z):
    """Evaluate the polynomial (coefficients ascending) at an array of points.

    With coefficient rows of shape (k, m), row i is evaluated at the points
    z[i], and z has a leading axis of length k.
    """
    if coeffs.ndim == 2:
        # one coefficient column per Horner step, broadcast along each row
        out = _horner_many(coeffs.T[:, :, None], z.reshape(len(coeffs), -1))
    else:
        out = _horner_many(coeffs, z.ravel())
    return out.reshape(z.shape)


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
        nv = _horner_many(ncoef, z)
        dv = _horner_many(dcoef, z)
        wv = _horner_many(wcoef, z)
        imnd = (nv * dv.conj()).imag
        d2 = (dv * dv.conj()).real
        cls[y0:y0 + rows][inside] = np.where(
            np.abs(imnd) < band * np.abs(wv) + BAND_FLOOR * d2,
            2,
            np.where(imnd > 0, 1, -1),
        )
    return cls


def trace_arc(ncoef, dcoef, wcoef, z0, direction, h0=2e-3, h_max=8e-3,
              branch_points=()):
    """Follow the level curve Im(N/D) = 0 from z0.

    direction=+1 walks with Re(N/D) increasing, -1 decreasing.  Stops at the
    circle (|z| >= TRACE_R_STOP), at a pole (|N/D| >= POLE_CUTOFF), near one
    of branch_points (within BP_RADIUS), when the corrector stalls, or when
    monotonicity of Re(N/D) fails.  Returns (points, status, bp_index): the
    points of the walk as a complex array, a TRACE_* code, and the index of
    the branch point hit (-1 if none).  The coefficients (ascending) and
    branch points are Python complex numbers, and so is every step of the
    walk, divisions included.
    """
    # locals, so the step loop looks up no globals
    pole_cutoff, bp_radius, r_stop = POLE_CUTOFF, BP_RADIUS, TRACE_R_STOP
    h_min, max_steps = TRACE_H_MIN, TRACE_STEP_LIMIT
    horner = horner_scalar
    pts = []

    def dphi(z, dv):
        # (N/D)' = W / D^2 with W = N'D - ND'
        d2 = dv * dv
        if abs(d2) < 1e-150:
            return 0.0 + 0.0j
        return horner(wcoef, z) / d2

    z = complex(z0)
    dv = horner(dcoef, z)
    if abs(dv) < 1e-150:
        return np.empty(0, dtype=np.complex128), TRACE_STALLED, -1
    fz = horner(ncoef, z) / dv
    fp = dphi(z, dv)
    pts.append(z)
    re_prev = fz.real
    h = h0
    status = TRACE_MAX_STEPS
    bp_hit = -1
    while len(pts) < max_steps:
        if abs(fp) < 1e-150:
            status = TRACE_HIT_CIRCLE if 1.0 - abs(z) < 1e-3 else TRACE_STALLED
            break
        tau = direction * fp.conjugate() / abs(fp)
        # predictor; step throttled near the circle so arc endpoints are not
        # overshot (many arcs terminate there with phi' -> 0 or |phi| -> inf)
        he = h
        cap = 0.3 * (1.0 - abs(z))
        if cap < 2e-4:
            cap = 2e-4
        if he > cap:
            he = cap
        zp = z + he * tau
        # corrector: Newton steps orthogonal to the curve; accept either a
        # small correction or one stagnating at the evaluation noise floor
        ok = False
        zc = zp
        prev_c = 1e300
        for _ in range(6):
            dv2 = horner(dcoef, zc)
            if abs(dv2) < 1e-150:
                break
            f2 = horner(ncoef, zc) / dv2
            fp2 = dphi(zc, dv2)
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
            h *= 0.5
            if h < h_min:
                # so close to the circle that phi' drowns in rounding noise:
                # the arc has reached its boundary endpoint
                status = TRACE_HIT_CIRCLE if 1.0 - abs(z) < 1e-3 else TRACE_STALLED
                break
            continue
        dv2 = horner(dcoef, zc)
        if abs(dv2) < 1e-150:
            status = TRACE_HIT_POLE
            break
        f2 = horner(ncoef, zc) / dv2
        fp2 = dphi(zc, dv2)
        # curvature control: sharp turns halve the step
        if abs(fp2) > 0:
            tau2 = direction * fp2.conjugate() / abs(fp2)
            dot = (tau2 * tau.conjugate()).real
            if dot < 0.995 and h > h_min:
                h *= 0.5
                continue
            if dot > 0.99995 and h < h_max:
                h *= 1.3
                if h > h_max:
                    h = h_max
        # monotonicity of Re along the walk
        dre = direction * (f2.real - re_prev)
        if dre < -1e-9 * (1.0 + abs(f2.real)):
            status = TRACE_NON_MONOTONE
            break
        z = zc
        fz = f2
        fp = fp2
        re_prev = f2.real
        pts.append(z)
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
    return np.array(pts, dtype=np.complex128), status, bp_hit

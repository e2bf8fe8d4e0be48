"""Hot numerical loops shared by the analysis modules.

Four kernels live here: Horner evaluation of a polynomial over an array of
points, the Aberth-Ehrlich simultaneous root iteration, grid classification
by the sign of Im(N/D), and the predictor-corrector stepper used to follow
level curves of Im(N/D).

horner_many and classify_grid are numpy code with a single implementation
on every build.  aberth_iterate and trace_arc (and the scalar Horner step)
also have a pure-python implementation; when numba is importable the
jit-compiled versions of those are used instead, unless the environment
variable RSMIRNOV_NO_NUMBA is set to a non-empty value, which forces the
fallback path (useful for debugging and for benchmarking the speedup; see
benchmarks/bench_kernels.py).
"""

import os

import numpy as np

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised via RSMIRNOV_NO_NUMBA
    numba = None
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and not os.environ.get("RSMIRNOV_NO_NUMBA")

# trace_arc status codes
TRACE_HIT_CIRCLE = 1
TRACE_HIT_POLE = 2
TRACE_HIT_BRANCH = 3
TRACE_STALLED = 4
TRACE_NON_MONOTONE = 5
TRACE_MAX_STEPS = 6


# ---------------------------------------------------------------------------
# pure-python / numpy reference implementations
# ---------------------------------------------------------------------------

def _horner_many_py(coeffs, z):
    """Evaluate sum_k coeffs[k] * z**k for every entry of z (ascending order)."""
    acc = np.full_like(z, coeffs[-1], dtype=np.complex128)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def _horner_scalar_py(coeffs, z):
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def _aberth_py(coeffs, roots, tol, max_iter):
    """Gauss-Seidel Aberth-Ehrlich iteration.  coeffs ascending, monic not
    required.  Returns (roots, iterations, converged).

    Stops when the largest relative step drops below tol, or when every
    residual |p(z_k)| is below machine noise for the evaluation itself
    (sum |c_j||z|^j scaled by eps) -- the step criterion alone stalls on
    multiple roots, whose iterate rings shrink only linearly.
    """
    n = roots.shape[0]
    acoeffs = np.abs(coeffs)
    dcoeffs = np.array(
        [coeffs[k] * k for k in range(1, len(coeffs))], dtype=np.complex128
    )
    for it in range(max_iter):
        delta = 0.0
        worst_resid = 0.0
        for k in range(n):
            zk = roots[k]
            p = _horner_scalar_py(coeffs, zk)
            dp = _horner_scalar_py(dcoeffs, zk)
            noise = _horner_scalar_py(acoeffs, abs(zk)).real
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
        if delta < tol or worst_resid < 1e-14:
            return roots, it + 1, True
    return roots, max_iter, False


def _trace_arc_py(
    ncoef,
    dcoef,
    wcoef,
    z0,
    direction,
    h0,
    h_min,
    h_max,
    r_stop,
    pole_cutoff,
    bps,
    bp_radius,
    max_steps,
):
    """Follow the level curve Im(N/D) = 0 from z0.

    direction=+1 walks with Re(N/D) increasing, -1 decreasing.  Stops at the
    circle (|z| >= r_stop), at a pole (|N/D| >= pole_cutoff), near one of the
    supplied branch points bps (within bp_radius), when the corrector stalls,
    or when monotonicity of Re(N/D) fails.  Returns (points, n, status,
    bp_index) with points a preallocated complex array.
    """
    pts = np.empty(max_steps, dtype=np.complex128)
    dn = np.array(
        [ncoef[k] * k for k in range(1, len(ncoef))], dtype=np.complex128
    )
    dd = np.array(
        [dcoef[k] * k for k in range(1, len(dcoef))], dtype=np.complex128
    )

    def phi(z):
        return _horner_scalar_py(ncoef, z), _horner_scalar_py(dcoef, z)

    def dphi(z, nv, dv):
        # (N/D)' = W / D^2 with W = N'D - ND'
        wv = _horner_scalar_py(wcoef, z)
        d2 = dv * dv
        if abs(d2) < 1e-150:
            return 0.0 + 0.0j
        return wv / d2

    z = z0
    nv, dv = phi(z)
    if abs(dv) < 1e-150:
        return pts, 0, TRACE_STALLED, -1
    fz = nv / dv
    fp = dphi(z, nv, dv)
    n = 0
    pts[n] = z
    n += 1
    re_prev = fz.real
    h = h0
    status = TRACE_MAX_STEPS
    bp_hit = -1
    while n < max_steps:
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
            nv2, dv2 = phi(zc)
            if abs(dv2) < 1e-150:
                break
            f2 = nv2 / dv2
            fp2 = dphi(zc, nv2, dv2)
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
            h *= 0.5
            if h < h_min:
                # so close to the circle that phi' drowns in rounding noise:
                # the arc has reached its boundary endpoint
                status = TRACE_HIT_CIRCLE if 1.0 - abs(z) < 1e-3 else TRACE_STALLED
                break
            continue
        nv2, dv2 = phi(zc)
        if abs(dv2) < 1e-150:
            status = TRACE_HIT_POLE
            break
        f2 = nv2 / dv2
        fp2 = dphi(zc, nv2, dv2)
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
        pts[n] = z
        n += 1
        if abs(z) >= r_stop:
            status = TRACE_HIT_CIRCLE
            break
        if abs(fz) >= pole_cutoff:
            status = TRACE_HIT_POLE
            break
        hit = -1
        for b in range(bps.shape[0]):
            if abs(z - bps[b]) < bp_radius:
                hit = b
                break
        if hit >= 0:
            status = TRACE_HIT_BRANCH
            bp_hit = hit
            break
    return pts, n, status, bp_hit


# ---------------------------------------------------------------------------
# numba-compiled versions
# ---------------------------------------------------------------------------

if USE_NUMBA:
    _horner_scalar = numba.njit(cache=True)(_horner_scalar_py)

    @numba.njit(cache=True)
    def _aberth_nb(coeffs, roots, tol, max_iter):
        n = roots.shape[0]
        nc = coeffs.shape[0]
        acoeffs = np.abs(coeffs)
        dcoeffs = np.empty(nc - 1, dtype=np.complex128)
        for k in range(1, nc):
            dcoeffs[k - 1] = coeffs[k] * k
        it_done = max_iter
        converged = False
        for it in range(max_iter):
            delta = 0.0
            worst_resid = 0.0
            for k in range(n):
                zk = roots[k]
                p = coeffs[nc - 1]
                for kk in range(nc - 2, -1, -1):
                    p = p * zk + coeffs[kk]
                azk = abs(zk)
                noise = acoeffs[nc - 1]
                for kk in range(nc - 2, -1, -1):
                    noise = noise * azk + acoeffs[kk]
                rr = abs(p) / (noise + 1e-150)
                if rr > worst_resid:
                    worst_resid = rr
                dp = dcoeffs[nc - 2]
                for kk in range(nc - 3, -1, -1):
                    dp = dp * zk + dcoeffs[kk]
                if dp == 0:
                    dp = 1e-150 + 0j
                w = p / dp
                s = 0.0 + 0.0j
                for j in range(n):
                    if j != k:
                        dz = zk - roots[j]
                        if dz == 0:
                            dz = 1e-12 * (1.0 + abs(zk)) + 0j
                        s += 1.0 / dz
                denom = 1.0 - w * s
                if denom == 0:
                    denom = 1e-150 + 0j
                step = w / denom
                roots[k] = zk - step
                rel = abs(step) / (1.0 + abs(roots[k]))
                if rel > delta:
                    delta = rel
            if delta < tol or worst_resid < 1e-14:
                it_done = it + 1
                converged = True
                break
        return roots, it_done, converged

else:
    _horner_scalar = _horner_scalar_py


# the trace loop uses closures, which numba cannot compile directly; the
# jitted variant below is a flattened rewrite of _trace_arc_py
if USE_NUMBA:

    @numba.njit(cache=True)
    def _trace_arc_nb(
        ncoef,
        dcoef,
        wcoef,
        z0,
        direction,
        h0,
        h_min,
        h_max,
        r_stop,
        pole_cutoff,
        bps,
        bp_radius,
        max_steps,
    ):
        pts = np.empty(max_steps, dtype=np.complex128)
        nn = ncoef.shape[0]
        nd = dcoef.shape[0]
        nw = wcoef.shape[0]

        z = z0
        nv = ncoef[nn - 1]
        for k in range(nn - 2, -1, -1):
            nv = nv * z + ncoef[k]
        dv = dcoef[nd - 1]
        for k in range(nd - 2, -1, -1):
            dv = dv * z + dcoef[k]
        if abs(dv) < 1e-150:
            return pts, 0, TRACE_STALLED, -1
        fz = nv / dv
        wv = wcoef[nw - 1]
        for k in range(nw - 2, -1, -1):
            wv = wv * z + wcoef[k]
        fp = wv / (dv * dv)
        n = 0
        pts[n] = z
        n += 1
        re_prev = fz.real
        h = h0
        status = TRACE_MAX_STEPS
        bp_hit = -1
        while n < max_steps:
            if abs(fp) < 1e-150:
                if 1.0 - abs(z) < 1e-3:
                    status = TRACE_HIT_CIRCLE
                else:
                    status = TRACE_STALLED
                break
            tau = direction * np.conj(fp) / abs(fp)
            he = h
            cap = 0.3 * (1.0 - abs(z))
            if cap < 2e-4:
                cap = 2e-4
            if he > cap:
                he = cap
            zp = z + he * tau
            ok = False
            zc = zp
            f2 = 0.0 + 0.0j
            fp2 = 0.0 + 0.0j
            prev_c = 1e300
            for _ in range(6):
                nv2 = ncoef[nn - 1]
                for k in range(nn - 2, -1, -1):
                    nv2 = nv2 * zc + ncoef[k]
                dv2 = dcoef[nd - 1]
                for k in range(nd - 2, -1, -1):
                    dv2 = dv2 * zc + dcoef[k]
                if abs(dv2) < 1e-150:
                    break
                f2 = nv2 / dv2
                wv2 = wcoef[nw - 1]
                for k in range(nw - 2, -1, -1):
                    wv2 = wv2 * zc + wcoef[k]
                fp2 = wv2 / (dv2 * dv2)
                if abs(fp2) < 1e-150:
                    break
                corr = f2.imag * 1j * np.conj(fp2) / (abs(fp2) ** 2)
                zc = zc - corr
                c = abs(corr)
                if c < 1e-13 + 1e-9 * he or (
                    c > 0.25 * prev_c and c < 1e-12 + 1e-3 * he
                ):
                    ok = True
                    break
                prev_c = c
            if not ok:
                h *= 0.5
                if h < h_min:
                    if 1.0 - abs(z) < 1e-3:
                        status = TRACE_HIT_CIRCLE
                    else:
                        status = TRACE_STALLED
                    break
                continue
            nv2 = ncoef[nn - 1]
            for k in range(nn - 2, -1, -1):
                nv2 = nv2 * zc + ncoef[k]
            dv2 = dcoef[nd - 1]
            for k in range(nd - 2, -1, -1):
                dv2 = dv2 * zc + dcoef[k]
            if abs(dv2) < 1e-150:
                status = TRACE_HIT_POLE
                break
            f2 = nv2 / dv2
            wv2 = wcoef[nw - 1]
            for k in range(nw - 2, -1, -1):
                wv2 = wv2 * zc + wcoef[k]
            fp2 = wv2 / (dv2 * dv2)
            if abs(fp2) > 0:
                tau2 = direction * np.conj(fp2) / abs(fp2)
                dot = (tau2 * np.conj(tau)).real
                if dot < 0.995 and h > h_min:
                    h *= 0.5
                    continue
                if dot > 0.99995 and h < h_max:
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
            for b in range(bps.shape[0]):
                if abs(z - bps[b]) < bp_radius:
                    hit = b
                    break
            if hit >= 0:
                status = TRACE_HIT_BRANCH
                bp_hit = hit
                break
        return pts, n, status, bp_hit


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------

def horner_many(coeffs, z):
    """Evaluate the polynomial (coefficients ascending) at an array of points."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    zf = np.ascontiguousarray(z, dtype=np.complex128).ravel()
    return _horner_many_py(coeffs, zf).reshape(np.shape(z))


def horner_scalar(coeffs, z):
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    return _horner_scalar(coeffs, complex(z))


def aberth_iterate(coeffs, initial, tol=1e-14, max_iter=400):
    """Run the Aberth-Ehrlich iteration from the supplied initial guesses."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    roots = np.array(initial, dtype=np.complex128)
    if USE_NUMBA:
        return _aberth_nb(coeffs, roots, tol, max_iter)
    return _aberth_py(coeffs, roots, tol, max_iter)


def classify_grid(ncoef, dcoef, wcoef, res, margin, band, tiny=1e-14):
    """Classify cell centers of a res x res grid over [-1,1]^2.

    Codes: 0 outside the working disk, +1 where Im(N/D) > 0, -1 where < 0,
    2 where |Im(N/D)| < band * |(N/D)'| + tiny (the near-zero band).  The
    test is done on |Im(N conj D)| vs band*|W| where W = N'D - ND', so no
    division happens anywhere.
    """
    ncoef = np.ascontiguousarray(ncoef, dtype=np.complex128)
    dcoef = np.ascontiguousarray(dcoef, dtype=np.complex128)
    wcoef = np.ascontiguousarray(wcoef, dtype=np.complex128)
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
        nv = _horner_many_py(ncoef, z)
        dv = _horner_many_py(dcoef, z)
        wv = _horner_many_py(wcoef, z)
        imnd = (nv * dv.conj()).imag
        d2 = (dv * dv.conj()).real
        cls[y0:y0 + rows][inside] = np.where(
            np.abs(imnd) < band * np.abs(wv) + tiny * d2,
            2,
            np.where(imnd > 0, 1, -1),
        )
    return cls


def trace_arc(
    ncoef,
    dcoef,
    wcoef,
    z0,
    direction,
    h0=2e-3,
    h_min=1e-7,
    h_max=8e-3,
    r_stop=1.0 - 1e-7,
    pole_cutoff=1e8,
    branch_points=None,
    bp_radius=1e-3,
    max_steps=200000,
):
    ncoef = np.ascontiguousarray(ncoef, dtype=np.complex128)
    dcoef = np.ascontiguousarray(dcoef, dtype=np.complex128)
    wcoef = np.ascontiguousarray(wcoef, dtype=np.complex128)
    if branch_points is None or len(branch_points) == 0:
        bps = np.empty(0, dtype=np.complex128)
    else:
        bps = np.ascontiguousarray(branch_points, dtype=np.complex128)
    fn = _trace_arc_nb if USE_NUMBA else _trace_arc_py
    pts, n, status, bp_hit = fn(
        ncoef,
        dcoef,
        wcoef,
        complex(z0),
        float(direction),
        float(h0),
        float(h_min),
        float(h_max),
        float(r_stop),
        float(pole_cutoff),
        bps,
        float(bp_radius),
        int(max_steps),
    )
    return pts[:n].copy(), status, bp_hit

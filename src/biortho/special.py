"""Principal-branch Lambert W on the real axis, the complex plane, and the cut.

W0 inverts w -> w*exp(w).  It is real on [-1/e, inf), analytic off the
half-line (-inf, -1/e], and acquires an imaginary part in (0, pi) when the
cut is approached from the upper half-plane.  All three views are needed
here: the real branch for monotone calculus, the complex branch for
Stieltjes-transform work, and the boundary values on the cut for spectral
densities.

Off the cut, root refinement is Halley's method (cubic convergence) with
regime-dependent starting points, after Corless, Gonnet, Hare, Jeffrey and
Knuth, "On the Lambert W function", Adv. Comput. Math. 5 (1996):
the square-root expansion sqrt(2e(z + 1/e)) - 1 within 1.5 of the branch
point -1/e, log(z) - log(log(z)) beyond it, and for |z| >= 1e290 Newton on
w + log(w) = log(z).  Below |z| = 2^-20 the value is the Taylor polynomial
z - z^2 + 3z^3/2, with no refinement.  The real branch is the real part of
this complex solve.  An upper-half-plane result outside the strip
0 < Im w < pi raises instead of being repaired.  On the cut the value
comes from one bracketed Halley solve in delta = pi - v on the boundary
parametrization w = -v*cot(v) + i*v, v in (0, pi), so Im(w) in (0, pi)
holds by construction; written in cot(delta), a step takes one tan and no
sin or cos (compare Fukushima, J. Comput. Appl. Math. 244 (2013), on
evaluating W with few transcendental calls).  Every solve steps its whole batch and
freezes each point at its own stop, so values do not depend on the batch.

All entry points accept scalars or numpy arrays, are pure, and raise
ValueError outside their domain, nan included.  numpy's SIMD tan, log and
exp may differ in the last bit on another CPU target.
"""

import numpy as np

BRANCH_POINT = -float(np.exp(-1.0))

_BRANCH_SLACK = 1e-15          # tolerated undershoot below -1/e on the real axis
_MAX_ITER = 100
_STEP_TOL = 1e-15              # |dw| <= tol*(1+|w|) declares convergence
_HUGE = 1e290                  # above this |z|, w*exp(w) can overflow; use log form
_SMALL = 2.0 ** -20            # below this |z|, W0 is its cubic Taylor polynomial
_CUT_MAX_ITER = 50             # a dense sweep of tau over (-1, 1e12] needs at most 4
_EPS = np.finfo(float).eps
_TINY = float(np.nextafter(0.0, 1.0))


class LambertWError(RuntimeError):
    """Iteration cap reached without meeting the step tolerance, or a
    result off the principal branch."""


def _halley(w0, z):
    """Refine w0 toward w*exp(w) = z elementwise; raises on non-convergence.

    The steps are undamped, so the root reached is the one the starting
    point leads to; callers check the branch.
    """
    w = np.array(w0, dtype=complex)
    z = np.asarray(z, dtype=complex)
    done = np.zeros(w.shape, dtype=bool)
    floor = 8.0 * _EPS * np.abs(z)              # rounding level of f
    last = np.full(w.shape, np.inf)
    for _ in range(_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        wp1 = np.where(np.abs(wp1) < 1e-12, 1e-12 + 0j, wp1)
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        dw = np.where(done, 0.0, dw)
        w = w - dw
        step = np.abs(dw)
        done |= step <= _STEP_TOL * (1.0 + np.abs(w))
        # near the branch point 1 + w is small and rounding in f keeps the
        # step above the tolerance, cycling; a step no shorter than the last
        # with f at its rounding level ends there
        done |= (step >= last) & (np.abs(f) <= floor)
        if done.all():
            return w
        last = step
    raise LambertWError("Halley iteration for Lambert W did not converge")


def _asymptotic_newton(z):
    """Solve w + log(w) = log(z); overflow-safe for very large |z|."""
    l1 = np.log(np.asarray(z, dtype=complex))
    w = l1 - np.log(l1)
    done = np.zeros(w.shape, dtype=bool)
    for _ in range(_MAX_ITER):
        dw = (l1 - w - np.log(w)) * w / (w + 1.0)
        w = np.where(done, w, w + dw)
        done |= np.abs(dw) <= _STEP_TOL * (1.0 + np.abs(w))
        if done.all():
            return w
    raise LambertWError("asymptotic Newton iteration did not converge")


def lambert_w0_real(x):
    """W0 on the real domain [-1/e, inf): the root w >= -1 of w*exp(w) = x.

    Accepts a scalar or array; residual |w e^w - x| <= 1e-12*max(1, |x|).
    Raises ValueError for x < -1/e (beyond a 1e-15 slack at the branch
    point), inf or nan, and LambertWError if the iteration cap is hit.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr).astype(float)
    if not np.all((a >= BRANCH_POINT - _BRANCH_SLACK) & (a < np.inf)):
        raise ValueError("lambert_w0_real requires finite x >= -1/e")
    # clip the slack to -1/e; on the real axis the complex solve returns +0.0j
    w = np.maximum(_w0_off_cut(np.maximum(a, BRANCH_POINT).astype(complex)).real, -1.0)
    return float(w[0]) if scalar else w


def lambert_w0_complex(z):
    """Principal branch W0(z) for complex z off the open cut (-inf, -1/e).

    For arguments exactly on the open cut (Im z == 0, Re z < -1/e) use
    lambert_w0_cut_above, which fixes the branch from the upper half-plane.
    For Im(z) > 0 the result satisfies Im(w) in (0, pi); a Halley solve
    that lands outside that strip raises LambertWError.  A non-finite z
    raises ValueError.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    zc = np.atleast_1d(arr).astype(complex)
    if not np.all(np.isfinite(zc)):
        raise ValueError("lambert_w0_complex requires finite z")
    if np.any((zc.imag == 0.0) & (zc.real < BRANCH_POINT)):
        raise ValueError(
            "argument on the open cut (-inf, -1/e); use lambert_w0_cut_above")
    w = _w0_off_cut(zc)
    # the open upper half-plane maps into the strip 0 < Im w < pi.
    # Im w underflows to 0 when Im z is near the subnormal range; the
    # smallest positive double keeps such a w on the side of its branch
    up = zc.imag > 0
    w.imag[up & (w.imag == 0.0)] = _TINY
    if np.any(up & ((w.imag <= 0.0) | (w.imag >= np.pi))):
        raise LambertWError("Halley iteration left the principal branch")
    return complex(w[0]) if scalar else w


def _w0_off_cut(zc):
    """W0 at a 1-d complex array of finite z off the open cut: the cubic
    series below _SMALL, else a Halley solve from the regime's starting
    point; the branch is not checked."""
    w = np.empty_like(zc)
    # the series z - z^2 + 3z^3/2 is exact to (8/3)|z|^3 relative; Halley's
    # absolute stop test would end there on a relatively inaccurate w
    small = np.abs(zc) < _SMALL
    zs = zc[small]
    w[small] = zs * (1.0 - zs * (1.0 - 1.5 * zs))
    near = ~small & (np.abs(zc - BRANCH_POINT) <= 1.5)
    w[near] = np.sqrt(2.0 * np.e * (zc[near] - BRANCH_POINT)) - 1.0
    huge = np.abs(zc) >= _HUGE
    far = ~small & ~near & ~huge
    if far.any():
        l1 = np.log(zc[far])
        w[far] = l1 - np.log(l1)
    if huge.any():
        w[huge] = _asymptotic_newton(zc[huge])
    refine = ~small & ~huge
    if refine.any():
        w[refine] = _halley(w[refine], zc[refine])
    return w


def lambert_w0_cut_above(x):
    """Boundary value lim_{eps->0+} W0(x + i*eps) for real x < -1/e.

    Returns the root w of w*exp(w) = x with Im(w) in (0, pi); residual
    <= 1e-12*|x|.  Raises ValueError for x >= -1/e and for nan.  The value
    is lambert_w0_cut_above_log(log(-x)), the cut solve in tau = log|x|.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr).astype(float)
    if not np.all(a < BRANCH_POINT):
        raise ValueError("lambert_w0_cut_above requires x < -1/e")
    w = lambert_w0_cut_above_log(np.log(-a))
    return complex(w[0]) if scalar else w


def lambert_w0_cut_above_log(tau):
    """Cut boundary value of W0 at x = -exp(tau), parametrized by tau = log|x|.

    Stable for tau far beyond float overflow of |x| itself (tau up to ~1e12).
    Requires tau > -1 (i.e. |x| > 1/e).

    On the cut the root is w = -v*cot(v) + i*v for a unique v in (0, pi).
    In delta = pi - v, which keeps full relative precision at both ends, and
    q = cot(delta), so that -log(sin delta) = log(c2)/2 with c2 = 1 + q^2,
    Halley's method solves the decreasing
        h(delta) = log(v) + log(c2)/2 + v*q - tau,
        h' = -1/v - 2q - v*c2,    h'' = c2*(3 + 2v*q) - 1/v^2,
    stepping delta - 2h*h'/(2h'^2 - h*h''), and returns w = v*q + i*v.  q is
    1/tan(delta): one tan per step, no sin or cos.  The start is
    v = sqrt(2(tau + 1)) near the branch point and
    pi/delta = L - log L + log(L)/L, L = tau + 1, beyond it.  Residual signs
    tighten the bracket [1e-14, pi - 1e-13]; a step that leaves it falls
    back to the midpoint.  A point stops when its residual reaches the
    rounding level of its four terms or its step is below 4e-16*delta, and
    LambertWError is raised after _CUT_MAX_ITER steps.  The whole batch
    steps together and each point freezes at its own stop, so a batch takes
    as many steps as its slowest point and values do not depend on the batch.
    """
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all(t > -1.0):
        raise ValueError("lambert_w0_cut_above_log requires tau > -1")
    if np.any(t > 1e12):
        raise ValueError("tau out of supported range (> 1e12)")
    dlo = np.full(t.shape, 1e-14)
    dhi = np.full(t.shape, np.pi - 1e-13)
    big = np.maximum(t + 1.0, 3.0)
    lg = np.log(big)
    d = np.where(t < 2.0, np.pi - np.sqrt(2.0 * (t + 1.0)),
                 np.pi / (big - lg + lg / big))
    d = np.clip(d, dlo, dhi)
    done = np.zeros(t.shape, dtype=bool)
    for _ in range(_CUT_MAX_ITER):
        v = np.pi - d
        q = 1.0 / np.tan(d)
        c2 = 1.0 + q * q
        a, b, c = np.log(v), 0.5 * np.log(c2), v * q
        h = a + b + c - t
        h1 = -1.0 / v - 2.0 * q - v * c2
        h2 = c2 * (3.0 + 2.0 * c) - 1.0 / (v * v)
        right = h > 0.0             # h decreases in delta; root lies at larger delta
        dlo = np.where(right, d, dlo)
        dhi = np.where(right, dhi, d)
        nxt = d - 2.0 * h * h1 / (2.0 * h1 * h1 - h * h2)
        nxt = np.where((nxt >= dlo) & (nxt <= dhi), nxt, 0.5 * (dlo + dhi))
        noise = 4.0 * _EPS * (np.abs(a) + np.abs(b) + np.abs(c) + np.abs(t))
        stop = (np.abs(h) <= noise) | (np.abs(nxt - d) <= 4e-16 * d)
        d = np.where(done, d, nxt)
        done |= stop
        if done.all():
            break
    else:
        raise LambertWError("Halley iteration on the cut did not converge")
    v = np.pi - d
    return v / np.tan(d) + 1j * v

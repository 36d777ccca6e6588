"""Principal-branch Lambert W on the real axis, the complex plane, and the cut.

W0 inverts w -> w*exp(w).  It is real on [-1/e, inf), analytic off the
half-line (-inf, -1/e], and acquires an imaginary part in (0, pi) when the
cut is approached from the upper half-plane.  All three views are needed
here: the real branch for monotone calculus, the complex branch for
Stieltjes-transform work, and the boundary values on the cut for spectral
densities.

Off the cut, root refinement is Halley's method (cubic convergence) on the
residual w - z*exp(-w), which is w*exp(w) - z divided by exp(w) and so
overflows for no finite z, after Corless, Gonnet, Hare, Jeffrey and Knuth,
"On the Lambert W function", Adv. Comput. Math. 5 (1996).  It starts from
the square-root expansion sqrt(2e(z + 1/e)) - 1 within 1.5 of the branch
point -1/e and from log(z) - log(log(z)) beyond it.  Below |z| = 2^-20 the
value is the Taylor polynomial z - z^2 + 3z^3/2, with no refinement.  The
real branch is the real part of this complex solve.  An upper-half-plane
result outside the strip 0 < Im w < pi raises instead of being repaired.
On the cut the value is built from delta = pi - v on the boundary
parametrization w = -v*cot(v) + i*v, v in (0, pi), so Im(w) in (0, pi) holds
by construction.  delta comes from Halley steps in cot(delta), one tan and
no sin or cos each (compare Fukushima, J. Comput. Appl. Math. 244 (2013), on
evaluating W with few transcendental calls), in bracketed_delta, the one
safeguarded iteration in delta, which dh_law's quantile shares.  Each solve
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
_SMALL = 2.0 ** -20            # below this |z|, W0 is its cubic Taylor polynomial
_CUT_MAX_ITER = 50             # a dense sweep of tau over (-1, 1e12] needs at most 4
_EPS = np.finfo(float).eps
_TINY = float(np.nextafter(0.0, 1.0))


class LambertWError(RuntimeError):
    """Iteration cap reached without meeting the step tolerance, or a
    result off the principal branch."""


def _halley(w0, z):
    """Refine w0 toward w*exp(w) = z elementwise; raises on non-convergence.

    The residual is f = w - z*exp(-w), so the step is Halley's
    f / ((w+1) - (w+2)*f/(2(w+1))).  The steps are undamped, so the root
    reached is the one the starting point leads to; callers check the branch.
    """
    w = np.array(w0, dtype=complex)
    z = np.asarray(z, dtype=complex)
    done = np.zeros(w.shape, dtype=bool)
    last = np.full(w.shape, np.inf)
    for _ in range(_MAX_ITER):
        f = w - z * np.exp(-w)
        wp1 = w + 1.0
        wp1 = np.where(np.abs(wp1) < 1e-12, 1e-12 + 0j, wp1)
        dw = f / (wp1 - (w + 2.0) * f / (2.0 * wp1))
        dw = np.where(done, 0.0, dw)
        w = w - dw
        step = np.abs(dw)
        done |= step <= _STEP_TOL * (1.0 + np.abs(w))
        # near the branch point 1 + w is small and rounding in f keeps the
        # step above the tolerance, cycling; a step no shorter than the last
        # with f at its rounding level ends there
        done |= (step >= last) & (np.abs(f) <= 8.0 * _EPS * (1.0 + np.abs(w)))
        if done.all():
            return w
        last = step
    raise LambertWError("Halley iteration for Lambert W did not converge")


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
    series below _SMALL, else one Halley solve from the square-root start
    near the branch point or the log start beyond it; the branch is not
    checked."""
    w = np.empty_like(zc)
    # the series z - z^2 + 3z^3/2 is exact to (8/3)|z|^3 relative; Halley's
    # absolute stop test would end there on a relatively inaccurate w
    small = np.abs(zc) < _SMALL
    zs = zc[small]
    w[small] = zs * (1.0 - zs * (1.0 - 1.5 * zs))
    near = ~small & (np.abs(zc - BRANCH_POINT) <= 1.5)
    w[near] = np.sqrt(2.0 * np.e * (zc[near] - BRANCH_POINT)) - 1.0
    far = ~small & ~near
    if far.any():
        l1 = np.log(zc[far])
        w[far] = l1 - np.log(l1)
    rest = ~small
    w[rest] = _halley(w[rest], zc[rest])
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
    """Cut boundary value of W0 at x = -exp(tau) for -1 < tau <= 1e12, far
    beyond float overflow of |x| itself: w = v*cot(delta) + i*v with
    v = pi - delta, delta = cut_delta(tau)."""
    d = cut_delta(tau)
    v = np.pi - d
    return v / np.tan(d) + 1j * v


def cut_delta(tau):
    """delta = pi - Im W+(-exp(tau)) in (0, pi) for -1 < tau <= 1e12, to full
    relative precision at both ends.  With v = pi - delta and
    q = cot(delta) = 1/tan(delta), so -log(sin delta) = log(c2)/2 with
    c2 = 1 + q^2, Halley's method solves the decreasing
        h(delta) = log(v) + log(c2)/2 + v*q - tau,
        h' = -1/v - 2q - v*c2,    h'' = c2*(3 + 2v*q) - 1/v^2,
    stepping delta - 2h*h'/(2h'^2 - h*h'') in bracketed_delta over
    [1e-14, pi - 1e-13], from v = sqrt(2(tau + 1)) near the branch point and
    pi/delta = L - log L + log(L)/L, L = tau + 1, beyond it.  A point also
    stops, after its step, once h is at the rounding level of its four
    terms; LambertWError is raised after _CUT_MAX_ITER steps.
    """
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all((t > -1.0) & (t <= 1e12)):
        raise ValueError("the cut solve requires -1 < tau <= 1e12")
    big = np.maximum(t + 1.0, 3.0)
    lg = np.log(big)
    d = np.where(t < 2.0, np.pi - np.sqrt(2.0 * (t + 1.0)),
                 np.pi / (big - lg + lg / big))

    def halley(d):
        v = np.pi - d
        q = 1.0 / np.tan(d)
        c2 = 1.0 + q * q
        a, b, c = np.log(v), 0.5 * np.log(c2), v * q
        h = a + b + c - t
        h1 = -1.0 / v - 2.0 * q - v * c2
        h2 = c2 * (3.0 + 2.0 * c) - 1.0 / (v * v)
        noise = 4.0 * _EPS * (np.abs(a) + np.abs(b) + np.abs(c) + np.abs(t))
        return h > 0.0, 2.0 * h * h1 / (2.0 * h1 * h1 - h * h2), np.abs(h) <= noise

    d = bracketed_delta(halley, d, 1e-14, np.pi - 1e-13, _CUT_MAX_ITER)
    if d is None:
        raise LambertWError("Halley iteration on the cut did not converge")
    return d


def bracketed_delta(step, d, lo, hi, max_iter):
    """Safeguarded solve in delta from d clipped to [lo, hi]; None when
    max_iter steps leave a point unstopped.  step(d) gives (up, s, stop):
    where the root lies above d, the step to d - s and the points that stop
    after it.  Each step tightens the bracket, an iterate outside it falls
    back to the midpoint, and a point also stops once it moves <= 4e-16*d."""
    d = np.clip(d, lo, hi)
    done = np.zeros(d.shape, dtype=bool)
    for _ in range(max_iter):
        up, s, stop = step(d)
        lo = np.where(up, d, lo)
        hi = np.where(up, hi, d)
        nxt = d - s
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        stop |= np.abs(nxt - d) <= 4e-16 * d
        d = np.where(done, d, nxt)
        done |= stop
        if done.all():
            return d
    return None

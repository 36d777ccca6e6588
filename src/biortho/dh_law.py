"""Dykema-Haagerup distribution: density, CDF, quantiles, moments, transforms.

The law is supported on [0, e] with moments k^k/(k+1)!; it is the law of
T*T for the quasi-nilpotent DT-operator T (Dykema & Haagerup, Amer. J.
Math. 126, 2004).  Its density is the boundary imaginary part of the
Stieltjes transform S(z) = -1 + exp(W0(-1/z)):

    f(x) = (1/pi) * Im exp(W+(-1/x)),    0 < x < e,

where W+ is the principal Lambert branch continued onto the cut from the
upper half-plane (-1/x < -1/e exactly when x < e).  Among the candidate
closed forms for S, exp(W0(-1/z)) is the one whose large-z expansion
reproduces the moment sequence (1/z-coefficient 1, then 1/2, ...); the
superficially similar expression -1/(x*W0(x)) is real on (0, e) on the
principal branch and therefore cannot carry a density, so it is not used.

On the cut the root is w = -v*cot(v) + i*v with v in (0, pi), so the density
there is sin(v)^2 / (pi * v * x).  In delta = pi - v, which keeps full
relative precision where the mass piles up at the origin, the law is in
closed form: as delta runs over (0, pi),

    x(delta) = sin(delta) * exp(-(pi - delta) * cot(delta)) / (pi - delta)
    F(x(delta)) = delta/pi + sin(delta)^2 / (pi * (pi - delta)),

with dF/ddelta = ((pi - delta + sin(delta)cos(delta))^2 + sin(delta)^4)
/ (pi * (pi - delta)^2) > 0.  The CDF and the density read delta from one
cut solve per point (special.cut_delta), without forming w.  The quantile
runs Newton steps on F(delta) = p in special.bracketed_delta, the bracketed
iteration the cut solve runs, with no Lambert call.  Moments are one fixed
Fejer rule in delta, closed-form nodes and weights, with weight dF/ddelta.
The total mass is exactly 1.

The density blows up like 1/(x log^2 x) at 0 (log x ~ -pi/delta; about 26%
of the mass sits below 0.01) and vanishes like sqrt(e - x) at the right
edge.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from . import special

_LOG_TINY = math.log(5e-324)  # quantiles below p ~ 1.3e-3 saturate here
_QUANTILE_MAX_ITER = 100      # 1.4e5 levels over (5e-324, 1 - 1e-16) needed <= 5
_MOMENT_NODES = 200           # even; moments k <= 12 to 4.4e-16 relative


def _fejer(n):
    """Nodes and weights of Fejer's first n-point rule on [-1, 1], n even:
    nodes cos(theta_k) at theta_k = (k + 1/2) pi / n and weights
    (2/n) (1 - 2 sum_{j=1}^{n/2} cos(2 j theta_k) / (4 j^2 - 1)), exact for
    polynomials of degree < n (Waldvogel, BIT 46, 2006).  The rule is
    symmetric about 0, so the cosine table covers theta < pi/2 only."""
    theta = (np.arange(n // 2) + 0.5) * (np.pi / n)
    j = np.arange(1, n // 2 + 1)
    terms = np.cos(np.outer(theta, 2 * j)) / (4.0 * j * j - 1.0)
    w = (2.0 / n) * (1.0 - 2.0 * terms.sum(axis=1))
    t = np.cos(theta)
    return np.concatenate([t, -t]), np.concatenate([w, w])


def _cdf_delta(d):
    """F at x(delta)."""
    return d / np.pi + np.sin(d) ** 2 / (np.pi * (np.pi - d))


def _cdf_slope(d):
    """dF/ddelta, positive on (0, pi) and free of cancellation."""
    v, sn = np.pi - d, np.sin(d)
    return ((v + sn * np.cos(d)) ** 2 + sn ** 4) / (np.pi * v * v)


def _log_x(d):
    """log x(delta); -inf once cot(delta) overflows (delta below ~1e-308)."""
    v, sn = np.pi - d, np.sin(d)
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(sn) - np.log(v) - v * (np.cos(d) / sn)


def _on_cut(x, edge, fn):
    """fn(delta(x)) on (0, e); 0 at x <= 0, `edge` at x >= e, nan at nan.

    delta(x) = pi - Im W+(-1/x).  A few ulps below e (tau <= -1 + 1e-15, at
    the cut solver's branch point) the value is taken as `edge` too: the
    density there is below 1e-8 and 1 - F below 1e-22.
    """
    a, back = special.elementwise(x, float)
    out = np.where(a >= np.e, edge, np.where(a <= 0.0, 0.0, np.nan))
    inside = (a > 0.0) & (a < np.e)
    if inside.any():
        tau = -np.log(a[inside])
        ok = tau > -1.0 + 1e-15
        vals = np.full(tau.shape, float(edge))
        if ok.any():
            vals[ok] = fn(special.cut_delta(tau[ok]))
        out[inside] = vals
    return back(out)


def _density_delta(d):
    """f at x(delta)."""
    # exp(Re w) sin(Im w) / pi with w = v*cot(delta) + i*v, v = pi - delta
    v = np.pi - d
    with np.errstate(over="ignore"):   # ~1/(x log^2 x): inf below 1e-305
        return np.exp(v / np.tan(d)) * np.sin(v) / np.pi


def dh_density(x):
    """Density of the Dykema-Haagerup law; zero outside (0, e), nan at nan."""
    return _on_cut(x, 0.0, _density_delta)


def _cdf_and_density(x):
    """(F(x), f(x)) for an array x in (0, e) from one cut solve per point;
    both nan a few ulps below e, where the CDF reads 1 and the density 0."""
    d = _on_cut(x, np.nan, lambda d: d)
    return _cdf_delta(d), _density_delta(d)


def dh_moment_exact(k):
    """k-th moment k^k/(k+1)! (0^0 = 1), exact rational arithmetic."""
    special.check_count("k", k)
    k = int(k)
    return float(Fraction(k ** k if k > 0 else 1, math.factorial(k + 1)))


def dh_stieltjes(z):
    """Stieltjes transform -1 + exp(W0(-1/z)) on the upper half-plane,
    formed as expm1 so that it keeps full relative precision at large |z|."""
    zc, back = special.elementwise(z, complex)
    if not (np.all(np.isfinite(zc)) and np.all(zc.imag > 0.0)):
        raise ValueError("dh_stieltjes requires finite z with Im(z) > 0")
    return back(np.expm1(special.lambert_w0_complex(-1.0 / zc)))


# Taylor coefficients of -1/((1-z)log(1-z)) - 1/z at 0; leading term is the
# first moment 1/2.  Used below the cancellation threshold.
_R_SERIES = (0.5, 5.0 / 12.0, 3.0 / 8.0, 251.0 / 720.0)


def dh_r_transform(z):
    """R-transform -1/((1-z)*log(1-z)) - 1/z for 0 < |z| < 1.

    The z -> 0 limit is the first moment 1/2; a short series replaces the
    formula for |z| < 1e-3 where direct evaluation cancels catastrophically.
    A real-typed argument gives real values and a complex-typed one complex
    values, whatever its imaginary part.
    """
    zc, back = special.elementwise(z, complex)
    if not np.all(np.isfinite(zc)):
        raise ValueError("dh_r_transform requires finite z")
    mag = np.abs(zc)
    if np.any(mag == 0.0):
        raise ValueError("dh_r_transform is undefined at z = 0; the limit is 0.5")
    if np.any(mag >= 1.0):
        raise ValueError("dh_r_transform requires |z| < 1")
    out = np.empty_like(zc)
    small = mag < 1e-3
    if small.any():
        zs = zc[small]
        acc = np.zeros_like(zs)
        for c in reversed(_R_SERIES):
            acc = acc * zs + c
        out[small] = acc
    rest = ~small
    if rest.any():
        zr = zc[rest]
        out[rest] = -1.0 / ((1.0 - zr) * np.log(1.0 - zr)) - 1.0 / zr
    return back(out.real if np.isrealobj(z) else out)


class DHLaw:
    """Evaluator bundle for the Dykema-Haagerup distribution.

    The CDF and quantile are closed-form in the cut parameter delta (see the
    module docstring) and need no table, so construction builds nothing; the
    Fejer rule that `moment_numeric` uses is built on its first call and
    kept.  The rule is the same whichever thread builds it, so
    instances are safe to share across workers.  `total_mass` is exactly 1.
    """

    total_mass = 1.0

    def __init__(self):
        """Nothing to build: the moment rule is made on first use."""

    @functools.cached_property
    def _moment_rule(self):
        """(log x(delta), weight) at the _MOMENT_NODES nodes of Fejer's first
        rule mapped to delta = (pi/2)(1 + t) over (0, pi), the weight
        carrying dF/ddelta."""
        t, w = _fejer(_MOMENT_NODES)
        d = 0.5 * np.pi * (1.0 + t)
        return _log_x(d), 0.5 * np.pi * w * _cdf_slope(d)

    # -- pointwise ---------------------------------------------------------

    def cdf(self, x):
        """P(X <= x) = F(delta) with delta = pi - Im W+(-1/x), one cut solve
        per point; 0 at x <= 0, exactly 1 at x >= e and nan at nan."""
        return _on_cut(x, 1.0, _cdf_delta)

    def quantile(self, p):
        """Inverse CDF by Newton steps on F(delta) = p in the cut solve's
        iteration, special.bracketed_delta.

        Both pi*p and pi - (3*pi*(1 - p))^(1/3) (from 1 - F <= v^3/(3*pi))
        have F >= p, so the smaller one starts the iteration and bounds the
        root from above; 0 bounds it from below.  A level keeps its delta
        (its step is zero) once |F - p| <= 4e-16*p; RuntimeError is raised
        after _QUANTILE_MAX_ITER steps.  The result is exp(log x(delta)),
        clipped at log(5e-324), so quantiles below p ~ 1.3e-3 saturate there.
        Distinct levels come out in order up to the rounding of log x: levels
        a few ulps apart may swap by an ulp or two of log x (5.7e-14 relative
        at worst where log x ~ -166).
        """
        pp, back = special.elementwise(p, float)
        if not np.all((pp > 0.0) & (pp < 1.0)):
            raise ValueError("quantile requires 0 < p < 1")

        def newton(d):
            g = _cdf_delta(d) - pp
            hit = np.abs(g) <= 4e-16 * pp
            step = np.where(hit, 0.0, g / _cdf_slope(d))
            return g < 0.0, step, hit

        d = np.minimum(np.pi * pp, np.pi - np.cbrt(3.0 * np.pi * (1.0 - pp)))
        d = special.bracketed_delta(newton, d, 0.0, d, _QUANTILE_MAX_ITER)
        if d is None:
            raise RuntimeError("DH quantile: Newton iteration did not converge")
        return back(np.exp(np.maximum(_log_x(d), _LOG_TINY)))

    # -- moments -----------------------------------------------------------

    def moment_numeric(self, k):
        """k-th moment, k up to 12, by the fixed Fejer rule in delta (built
        on the first call): sum of weight * x(delta)^k."""
        special.check_count("k", k)
        if k > 12:
            raise ValueError("moment_numeric supports k <= 12")
        log_x, weight = self._moment_rule
        with np.errstate(under="ignore"):
            vals = weight * np.exp(k * log_x)
        return float(vals.sum())

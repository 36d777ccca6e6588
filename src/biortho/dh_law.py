"""Dykema-Haagerup distribution: density, CDF, quantiles, moments, transforms.

The law is supported on [0, e] with moments k^k/(k+1)!.  Its density is
evaluated through the boundary imaginary part of the Stieltjes transform
S(z) = -1 + exp(W0(-1/z)):

    f(x) = (1/pi) * Im exp(W+(-1/x)),    0 < x < e,

where W+ is the principal Lambert branch continued onto the cut from the
upper half-plane (-1/x < -1/e exactly when x < e).  Among the candidate
closed forms for S, exp(W0(-1/z)) is the one whose large-z expansion
reproduces the moment sequence (1/z-coefficient 1, then 1/2, ...); the
superficially similar expression -1/(x*W0(x)) is real on (0, e) on the
principal branch and therefore cannot carry a density, so it is not used.

The density blows up like 1/(x log^2 x) at 0 (about 26% of the mass sits
below 0.01) and vanishes like sqrt(e - x) at the right edge.  Quadrature
splits [0, e] into three regions mapped to smooth integrands:

* (0, 0.1]   -- substitute t = -log(x); panels graded geometrically out to
               t = 1e9, beyond which the unaccounted mass is ~1e-9;
* [0.1, 2]   -- plain panels;
* [2, e]     -- substitute s = sqrt(e - x), absorbing the edge square root.

Composite 16-point Gauss-Legendre panels are doubled until two successive
resolutions agree to 1e-9.  The resulting per-node table is cached in a
DHLaw instance and shared by CDF, quantile and moment evaluations; after
construction everything is read-only.
"""

import math
from fractions import Fraction

import numpy as np

from . import special

SUPPORT = (0.0, float(np.e))

_X_LOW = 0.1                  # below: integrate in t = -log x
_X_HIGH = 2.0                 # above: integrate in s = sqrt(e - x)
_T_MAX = 1.0e9                # truncation of the t axis
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_LOG_PI = math.log(math.pi)
_LOG_TINY = math.log(5e-324)  # quantiles below p ~ 1.3e-3 saturate here
_QUANTILE_MAX_ITER = 100      # bisection alone needs at most ~52 from any panel

_KIND_T, _KIND_X, _KIND_S = 0, 1, 2


def dh_density(x):
    """Density of the Dykema-Haagerup law; zero outside (0, e)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr).astype(float)
    out = np.zeros_like(a)
    inside = (a > 0.0) & (a < np.e)
    if inside.any():
        tau = -np.log(a[inside])
        ok = tau > -1.0 + 1e-15     # a few ulps below e the value is < 1e-8
        vals = np.zeros(tau.shape)
        if ok.any():
            w = special.lambert_w0_cut_above_log(tau[ok])
            with np.errstate(over="ignore"):   # ~1/(x log^2 x): inf below 1e-305
                vals[ok] = np.exp(w.real) * np.sin(w.imag) / np.pi
        out[inside] = vals
    return float(out[0]) if scalar else out


def dh_moment_exact(k):
    """k-th moment k^k/(k+1)! (0^0 = 1), exact rational arithmetic."""
    k = int(k)
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return float(Fraction(k ** k if k > 0 else 1, math.factorial(k + 1)))


def dh_stieltjes(z):
    """Stieltjes transform -1 + exp(W0(-1/z)) on the upper half-plane."""
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    zc = np.atleast_1d(arr).astype(complex)
    if np.any(zc.imag <= 0.0):
        raise ValueError("dh_stieltjes requires Im(z) > 0")
    w = special.lambert_w0_complex(-1.0 / zc)
    s = -1.0 + np.exp(w)
    return complex(s[0]) if scalar else s


# Taylor coefficients of -1/((1-z)log(1-z)) - 1/z at 0; leading term is the
# first moment 1/2.  Used below the cancellation threshold.
_R_SERIES = (0.5, 5.0 / 12.0, 3.0 / 8.0, 251.0 / 720.0)


def dh_r_transform(z):
    """R-transform -1/((1-z)*log(1-z)) - 1/z for 0 < |z| < 1.

    The z -> 0 limit is the first moment 1/2; a short series replaces the
    formula for |z| < 1e-3 where direct evaluation cancels catastrophically.
    Real arguments give real values.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    zc = np.atleast_1d(arr).astype(complex)
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
    real_in = np.isrealobj(np.asarray(z)) or np.all(np.atleast_1d(np.asarray(z)).imag == 0)
    if scalar:
        val = complex(out[0])
        return val.real if real_in else val
    return out.real if real_in else out


class _PanelTable:
    """Per-node quadrature table over the three regions, ascending in x.

    lo_tr/hi_tr are the panel bounds in the panel's own variable (t, x or
    s); x_lo/x_hi are kept only for locating a point's panel and may
    underflow to 0 deep in region A without harm.
    """

    __slots__ = ("kind", "x_lo", "x_hi", "lo_tr", "hi_tr", "cum", "integral",
                 "total", "log_dens_jac", "log_x", "gl_weight", "node_panel")

    def __init__(self, n_base):
        n_a, n_b, n_c = n_base, n_base, max(n_base // 2, 8)
        t0 = -math.log(_X_LOW)
        t_edges = t0 * (_T_MAX / t0) ** (np.arange(n_a + 1) / n_a)
        x_edges_b = np.linspace(_X_LOW, _X_HIGH, n_b + 1)
        s_max = math.sqrt(np.e - _X_HIGH)
        s_edges = np.linspace(0.0, s_max, n_c + 1)

        kinds, xlo, xhi, lotr, hitr = [], [], [], [], []
        # region A in descending t so panels come out ascending in x
        for j in range(n_a, 0, -1):
            kinds.append(_KIND_T)
            with np.errstate(under="ignore"):
                xlo.append(float(np.exp(-t_edges[j])))
                xhi.append(float(np.exp(-t_edges[j - 1])))
            lotr.append(float(t_edges[j - 1]))    # t at the panel's x_hi
            hitr.append(float(t_edges[j]))        # t at the panel's x_lo
        for j in range(n_b):
            kinds.append(_KIND_X)
            xlo.append(float(x_edges_b[j]))
            xhi.append(float(x_edges_b[j + 1]))
            lotr.append(float(x_edges_b[j]))
            hitr.append(float(x_edges_b[j + 1]))
        # region C in descending s = ascending x
        for j in range(n_c, 0, -1):
            kinds.append(_KIND_S)
            xlo.append(float(np.e - s_edges[j] ** 2))
            xhi.append(float(np.e - s_edges[j - 1] ** 2))
            lotr.append(float(s_edges[j - 1]))    # s at the panel's x_hi
            hitr.append(float(s_edges[j]))        # s at the panel's x_lo
        self.kind = np.array(kinds, dtype=np.int8)
        self.x_lo = np.array(xlo)
        self.x_hi = np.array(xhi)
        self.lo_tr = np.array(lotr)
        self.hi_tr = np.array(hitr)

        # per-node data: log(density * jacobian) and log(x) in each panel's
        # own variable, so that moments of any order reuse one table
        ldj, lx, glw, owner = [], [], [], []
        for idx in range(len(kinds)):
            k = self.kind[idx]
            half = 0.5 * (self.hi_tr[idx] - self.lo_tr[idx])
            nodes = 0.5 * (self.hi_tr[idx] + self.lo_tr[idx]) + half * _GL_X
            if k == _KIND_T:
                w = special.lambert_w0_cut_above_log(nodes)
                ldj.append(w.real - nodes + np.log(np.sin(w.imag)) - _LOG_PI)
                lx.append(-nodes)
            elif k == _KIND_X:
                w = special.lambert_w0_cut_above_log(-np.log(nodes))
                ldj.append(w.real + np.log(np.sin(w.imag)) - _LOG_PI)
                lx.append(np.log(nodes))
            else:
                xval = np.e - nodes ** 2
                w = special.lambert_w0_cut_above_log(-np.log(xval))
                ldj.append(w.real + np.log(np.sin(w.imag)) - _LOG_PI
                           + np.log(2.0 * nodes))
                lx.append(np.log(xval))
            glw.append(_GL_W * half)
            owner.append(np.full(_GL_X.shape, idx, dtype=np.int64))
        self.log_dens_jac = np.concatenate(ldj)
        self.log_x = np.concatenate(lx)
        self.gl_weight = np.concatenate(glw)
        self.node_panel = np.concatenate(owner)

        contrib = self.gl_weight * np.exp(self.log_dens_jac)
        self.integral = np.bincount(self.node_panel, weights=contrib,
                                    minlength=len(kinds))
        self.cum = np.concatenate([[0.0], np.cumsum(self.integral)])[:-1]
        self.total = float(self.integral.sum())

    def moment(self, k):
        with np.errstate(under="ignore"):
            vals = self.gl_weight * np.exp(self.log_dens_jac + k * self.log_x)
        return float(vals.sum())


class DHLaw:
    """Cached evaluator bundle for the Dykema-Haagerup distribution.

    mesh is the base panel count per region; it is doubled until two
    successive total masses agree to `tol` (self-validating quadrature).
    `doublings` records the last level built and `converged` whether two
    totals met `tol` within `max_doublings`; if not, the last table is kept.
    Construction happens once; evaluations afterwards are read-only and
    safe to share across workers.
    """

    def __init__(self, mesh=24, tol=1e-9, max_doublings=6):
        mesh = int(mesh)
        if mesh < 4:
            raise ValueError("mesh parameter must be >= 4")
        self.mesh_parameter = mesh
        self.tol = float(tol)
        prev = None
        self.converged = False
        for level in range(max_doublings + 1):
            table = _PanelTable(mesh << level)
            if prev is not None and abs(table.total - prev) <= tol:
                self.converged = True
                break
            prev = table.total
        self.doublings = level
        self._table = table
        self.total_mass = table.total

    # -- pointwise ---------------------------------------------------------

    def cdf(self, x):
        """Integral of the density from 0 to x; monotone, cdf(e) = 1 - O(1e-9)."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        a = np.atleast_1d(arr).astype(float)
        out = np.zeros_like(a)
        out[a >= np.e] = self.total_mass
        inside = (a > 0.0) & (a < np.e)
        if inside.any():
            t = self._table
            xi = a[inside]
            idx = np.searchsorted(t.x_hi, xi, side="left")
            idx = np.minimum(idx, len(t.x_hi) - 1)
            out[inside] = t.cum[idx] + self._partial(idx, xi)
        return float(out[0]) if scalar else out

    def _partial(self, idx, x):
        """Integral of the density from the containing panel's x_lo to x."""
        t = self._table
        res = np.zeros_like(x)
        kind = t.kind[idx]

        sel = kind == _KIND_T
        if sel.any():
            hi_t = t.hi_tr[idx[sel]]
            lo_t = -np.log(x[sel])
            half = 0.5 * (hi_t - lo_t)
            nodes = 0.5 * (hi_t + lo_t)[:, None] + half[:, None] * _GL_X
            w = special.lambert_w0_cut_above_log(nodes.ravel()).reshape(nodes.shape)
            with np.errstate(under="ignore"):
                f = np.exp(w.real - nodes) * np.sin(w.imag) / np.pi
            res[sel] = (f * _GL_W).sum(axis=1) * half

        sel = kind == _KIND_X
        if sel.any():
            lo = t.x_lo[idx[sel]]
            half = 0.5 * (x[sel] - lo)
            nodes = 0.5 * (x[sel] + lo)[:, None] + half[:, None] * _GL_X
            f = dh_density(nodes.ravel()).reshape(nodes.shape)
            res[sel] = (f * _GL_W).sum(axis=1) * half

        sel = kind == _KIND_S
        if sel.any():
            hi_s = t.hi_tr[idx[sel]]
            lo_s = np.sqrt(np.maximum(np.e - x[sel], 0.0))
            half = 0.5 * (hi_s - lo_s)
            nodes = 0.5 * (hi_s + lo_s)[:, None] + half[:, None] * _GL_X
            f = dh_density((np.e - nodes ** 2).ravel()).reshape(nodes.shape)
            res[sel] = (f * 2.0 * nodes * _GL_W).sum(axis=1) * half
        return res

    def quantile(self, p):
        """Inverse CDF by bracketed Newton in y = log x, so that the heavy
        mass near the origin is resolved to full relative precision.

        The table panel holding p gives the bracket and a start interpolated
        linearly in (y, F).  Steps use dF/dy = x*f(x), formed as
        exp(Re w - tau)*sin(Im w)/pi with tau = -y as in region A, so it stays
        finite as x -> 0; a step that leaves the bracket falls back to the
        midpoint.  A level stops when |F - p| <= 4e-16*p or its step or
        bracket is below 4e-16*(1 + |y|) or the relative spacing of x (coarse
        where x is subnormal, so that a smaller step cannot move x);
        RuntimeError is raised after _QUANTILE_MAX_ITER steps.  The bracket is
        clipped at log(5e-324), so quantiles below p ~ 1.3e-3 saturate there.
        Levels iterate independently (results do not depend on the batch) and
        come out in order up to rounding: levels a few ulps apart may swap by
        ~1e-12.
        """
        arr = np.asarray(p, dtype=float)
        scalar = arr.ndim == 0
        pp = np.atleast_1d(arr).astype(float)
        if np.any((pp <= 0.0) | (pp >= 1.0)):
            raise ValueError("quantile requires 0 < p < 1")
        t = self._table
        idx = np.searchsorted(t.cum, pp, side="right") - 1
        in_a = t.kind[idx] == _KIND_T
        with np.errstate(divide="ignore"):     # x_lo, x_hi underflow deep in region A
            ylo = np.where(in_a, -t.hi_tr[idx], np.log(t.x_lo[idx]))
            yhi = np.where(in_a, -t.lo_tr[idx], np.log(t.x_hi[idx]))
        frac = (pp - t.cum[idx]) / t.integral[idx]
        y = ylo + frac * (yhi - ylo)
        ylo = np.maximum(ylo, _LOG_TINY)
        yhi = np.maximum(yhi, _LOG_TINY)
        y = np.clip(y, ylo, yhi)
        todo = np.arange(pp.size)
        for _ in range(_QUANTILE_MAX_ITER):
            yk, pk, lo, hi = y[todo], pp[todo], ylo[todo], yhi[todo]
            x = np.exp(yk)
            g = self.cdf(x) - pk
            tau = -yk
            ok = tau > -1.0 + 1e-15
            w = special.lambert_w0_cut_above_log(tau[ok])
            slope = np.zeros(tau.shape)      # dF/dy = x*f(x), finite as x -> 0
            with np.errstate(under="ignore"):
                slope[ok] = np.exp(w.real - tau[ok]) * np.sin(w.imag) / np.pi
            below = g < 0.0
            lo = np.where(below, yk, lo)
            hi = np.where(below, hi, yk)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = g / slope
            tol = np.maximum(4e-16 * (1.0 + np.abs(yk)), np.spacing(x) / x)
            small = np.abs(step) <= tol
            nxt = np.clip(yk - step, lo, hi)
            nxt = np.where(small | ((lo < nxt) & (nxt < hi)), nxt, 0.5 * (lo + hi))
            hit = np.abs(g) <= 4e-16 * pk
            y[todo] = np.where(hit, yk, nxt)
            ylo[todo], yhi[todo] = lo, hi
            todo = todo[~(hit | small | (hi - lo <= tol))]
            if todo.size == 0:
                break
        else:
            raise RuntimeError("DH quantile: Newton iteration did not converge")
        q = np.exp(y)
        return float(q[0]) if scalar else q

    # -- moments -----------------------------------------------------------

    def moment_numeric(self, k):
        """Quadrature moment against the cached table; k up to 12."""
        k = int(k)
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if k > 12:
            raise ValueError("moment_numeric supports k <= 12")
        return self._table.moment(k)


_DEFAULT_LAW = None


def default_law():
    """Shared DHLaw instance (built lazily, then read-only)."""
    global _DEFAULT_LAW
    if _DEFAULT_LAW is None:
        _DEFAULT_LAW = DHLaw()
    return _DEFAULT_LAW


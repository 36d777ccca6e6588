"""Numerical checks of the quantile-discretization estimates.

For a "nice" measure sigma -- compact support [a, b] in (0, inf), density h
with 1/C <= h <= C -- the lower-bound construction places one particle in
the central third [c_k, d_k] of each quantile interval [a_{k-1}, a_k].
This module builds those grids and measures the quantities the argument
runs on: the spacing bounds 1/(Cn) <= a_{k+1}-a_k <= C/n, the bounded ratio
(a_j - a_{i-1})/(d_j - c_i) together with the fraction of pairs where it is
below 1+eps, the Riemann-sum lower bounds for the two halves of the
logarithmic energy, and the bounded-Lipschitz distance between any
configuration from the central-thirds box and sigma itself.  The ratio
statistics divide only a near-diagonal band (see ratio_statistics).
"""

from dataclasses import dataclass

import numpy as np

from . import dh_law, special
from .measures import (EmpiricalMeasure, bl_distance, log_kernel_mean, lower_pairs,
                       pair_log_sum, with_image)


@dataclass(frozen=True)
class NiceMeasure:
    """Compactly supported measure with two-sided density bounds.

    density and quantile are vectorized callables; C >= 1 bounds the density
    between 1/C and C on [a, b].  analytic_energy, when known, is the exact
    logarithmic energy (used as the independent reference in gap tests).
    """

    a: float
    b: float
    density: object
    quantile: object
    C: float
    analytic_energy: float = None


def uniform_nice(a, b):
    """Uniform law on [a, b]; C = max(1/(b-a), b-a), energy 3/2 - log(b-a)."""
    a, b = float(a), float(b)
    if not 0 < a < b < np.inf:
        raise ValueError("need finite 0 < a < b")
    width = b - a
    dens = 1.0 / width

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), dens, 0.0)

    def quantile(p):
        return a + np.asarray(p, dtype=float) * width

    return NiceMeasure(a=a, b=b, density=density, quantile=quantile,
                       C=max(dens, width, 1.0),
                       analytic_energy=1.5 - np.log(width))


def truncated_dh(lo, law=None):
    """Dykema-Haagerup law conditioned to [lo, e - lo].  Its density falls on
    (0, e), since in dh_law's cut parameter delta d log f/d delta =
    -(pi - delta)/sin^2 delta < 0 while x rises, so C comes from the ends."""
    law = law or dh_law.DHLaw()
    lo = float(lo)
    hi = float(np.e - lo)
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < e/2")
    cdf, dens = dh_law._cdf_and_density(np.array([lo, hi]))
    f_lo, f_hi = cdf.tolist()
    mass = f_hi - f_lo

    def density(x):
        return dh_law.dh_density(x) / mass

    def quantile(p):
        p = np.asarray(p, dtype=float)
        inner = np.clip(f_lo + p * mass, 1e-15, 1.0 - 1e-15)
        q = law.quantile(inner)
        return np.clip(q, lo, hi)

    f_max, f_min = dens / mass
    if not f_min > 0.0:     # a few ulps below e the density is taken as 0
        raise ValueError(f"the density is 0 at e - lo for lo = {lo:g}; need lo >= 2.9e-15")
    c = max(float(f_max), 1.0 / float(f_min), 1.0)
    return NiceMeasure(a=lo, b=hi, density=density, quantile=quantile, C=c)


@dataclass(frozen=True)
class QuantileGrid:
    """1/n-quantiles a_0..a_n of a nice measure and the central thirds
    [c_k, d_k] of each quantile interval."""

    a: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def n(self):
        return self.c.size


def build_quantile_grid(sigma, n):
    """Quantile grid with a_k = quantile(k/n), endpoints pinned to [a, b]."""
    special.check_count("n", n, 2)
    a = np.asarray(sigma.quantile(np.arange(n + 1) / n), dtype=float)
    a[0], a[-1] = sigma.a, sigma.b
    if np.any(np.diff(a) <= 0):
        raise ValueError("quantiles are not strictly increasing")
    gap = np.diff(a)
    c = a[:-1] + gap / 3.0
    d = a[1:] - gap / 3.0
    return QuantileGrid(a=a, c=c, d=d)


def check_spacing_bounds(grid, big_c):
    """(holds, worst ratio) for 1/(Cn) <= a_{k+1}-a_k <= C/n; the worst
    ratio is how close (or beyond) the tightest gap comes to its bound, so
    the bounds hold exactly when it is <= 1."""
    n = grid.n
    gaps = np.diff(grid.a)
    upper = gaps * n / big_c
    lower = 1.0 / (big_c * n * gaps)
    worst = float(max(upper.max(), lower.max()))
    return worst <= 1.0 + 1e-12, worst


@dataclass(frozen=True)
class RatioStats:
    """Pairwise ratio statistics for the plain and g-mapped grids, and how
    many ratios were divided to get them (both maps together)."""

    a_max: float
    a_max_g: float
    fraction: float
    fraction_g: float
    evaluated: int


def _band_max_count(a, c, d, lo, hi, bound):
    """Max of the ratios (a_{j+1} - a_i)/(d_j - c_i) over the pairs
    lo_j <= i < hi_j of each row j, how many are <= bound, and how many."""
    top, count, total = -np.inf, 0, 0
    for i, rows, k in lower_pairs(lo, hi):
        r = a[1:][rows].repeat(k) - a.take(i)
        r /= d[rows].repeat(k) - c.take(i)
        top = np.maximum(top, r.max())
        count += int(np.count_nonzero(r <= bound))
        total += i.size
    return float(top), count, total


def _ratio_max_count(a, c, d, eps):
    """Max pair ratio, how many ratios are <= 1 + eps, and how many were
    divided: a row's certified prefix is counted without dividing, and
    walked only when the band max is below 1 + eps (see ratio_statistics)."""
    bound, h = 1.0 + eps, 0.5 * eps
    rows = np.arange(c.size)             # row j holds the j pairs i < j
    lo = np.zeros_like(rows)
    if h >= 2.0 ** -50 and (c[:-1] <= c[1:]).all():     # h >= 8u, c sorted
        s = np.maximum(a[1:] - d, 0.0) + max((c - a[:-1]).max(), 0.0)
        t = np.nextafter(d - s / h, -np.inf)
        t = np.fmax(t, -np.inf)          # a nan threshold certifies nothing
        lo = np.minimum(c.searchsorted(t, "right"), rows)
    top, count, evaluated = _band_max_count(a, c, d, lo, rows, bound)
    count += c.size * (c.size - 1) // 2 - evaluated
    if top < bound:
        top_lo, _, more = _band_max_count(a, c, d, np.zeros_like(rows), lo, bound)
        top, evaluated = max(top, top_lo), evaluated + more
    return top, count, evaluated


def ratio_statistics(grid, g, eps):
    """Max pair ratio and the fraction (2/n^2-normalized) of pairs with
    ratio <= 1 + eps, for the grid and for its image under g, and
    `evaluated`, the number of ratios divided to find them.

    Most pairs need no division.  For i < j, on the float inputs exactly,

        (a_{j+1} - a_i) - (d_j - c_i) = E_j + F_i,
        E_j = a_{j+1} - d_j,   F_i = c_i - a_i,

    so the ratio r satisfies r - 1 <= (E_j + F*)/(d_j - c_i) with
    F* = max F.  Let h = eps/2.  d_j - c_i falls as i grows (c is
    nondecreasing), so the pairs with (E_j + F*)/(d_j - c_i) <= h form a
    prefix i < lo_j of row j, and one searchsorted of
    t_j = d_j - (E_j + F*)/h in c gives every lo_j.  Those pairs are counted
    as <= 1 + eps without dividing; only the band lo_j <= i < j is divided,
    with the same subtract-subtract-divide as a full n x n gather.

    The other half of eps covers the rounding.  Let u = 2^-53 and assume no
    underflow or overflow.  E_j and F* come from their computed differences
    (clipped at 0), so E_j + F_i <= s_j/(1-u)^2 for the computed sum s_j.
    t_j is the computed d_j - s_j/h stepped down one ulp, so c_i <= t_j gives
    d_j - c_i >= fl(s_j/h) >= (1-u) s_j/h exactly, and r <= 1 + h/(1-u)^3.
    Rounding num, den and the division gives at most r (1+u)^2/(1-u), which
    stays below the computed bound fl(1 + eps) >= (1 + 2h)(1 - u) whenever
    h >= 8u.  For smaller eps, or where c decreases, the prefix is empty
    and every pair is divided.

    Every certified ratio is <= fl(1 + eps), so a band max at or above that
    bound is the global max.  Otherwise (e.g. eps >= 0.5 on a uniform grid,
    whose adjacent ratios are all 3/2) every pair is <= 1 + eps, the band
    by its max and the rest by the certificate, and the prefixes i < lo_j
    are walked once for the max alone: each pair is then divided exactly
    once.  A max and a count do not depend on order, so every field is
    bit-identical to the full gather at any block size.  When g leaves a, c
    and d unchanged the g fields are the plain ones and nothing more is divided.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    n = grid.n
    plain, image = with_image(lambda a, c, d: _ratio_max_count(a, c, d, eps),
                              g, grid.a, grid.c, grid.d)
    (top, count, evaluated), (top_g, count_g, more) = plain, image
    evaluated += more if image is not plain else 0
    return RatioStats(a_max=top, a_max_g=top_g,
                      fraction=2.0 * count / n ** 2,
                      fraction_g=2.0 * count_g / n ** 2, evaluated=evaluated)


@dataclass(frozen=True)
class EnergyGap:
    """Half-energies minus their Riemann-sum lower bounds; the argument
    needs these gaps to become <= 0 as n grows."""

    gap: float
    gap_g: float
    riemann_sum: float
    riemann_sum_g: float


def energy_gap(grid, g, e_half, e_half_g):
    """Compare (1/n^2) sum_{i<j} -log(d_j - c_i) against E(sigma)/2 (caller
    supplies the halves, analytically or by independent quadrature), and the
    same with all endpoints mapped through g (the plain sum again when g
    leaves them unchanged)."""
    n = grid.n
    # the pairwise sum is symmetric under sign, so -sum(log) is sum(-log)
    s, sg = with_image(lambda c, d: -pair_log_sum(c, d) / n ** 2, g, grid.c, grid.d)
    return EnergyGap(gap=e_half - s, gap_g=e_half_g - sg,
                     riemann_sum=s, riemann_sum_g=sg)


def configuration_bl_check(grid, sigma, m=10_000, z=None):
    """Bounded-Lipschitz distance between a central-thirds configuration
    (default: interval midpoints) and an m-point quantile discretization of
    sigma.  The construction promises <= C/n plus 2/m discretization slack."""
    special.check_count("m", m, 1)
    if z is None:
        z = 0.5 * (grid.c + grid.d)
    else:
        z = np.asarray(z, dtype=float)
        if np.any(z < grid.c) or np.any(z > grid.d):
            raise ValueError("configuration must lie inside the central thirds")
    ref = EmpiricalMeasure(sigma.quantile((np.arange(m) + 0.5) / m))
    return bl_distance(EmpiricalMeasure(z), ref)


def box_mass_log_rate(grid):
    """(1/n^2) * log of the reference-measure mass of the central-thirds box,
    with reference density exp(-x) per coordinate (b = 1, V(x) = x).

    The lower-bound argument needs this to vanish as n grows; no rate is
    quantified, so callers should only read the decay trend.  Each factor is
    the exact integral e^-c - e^-d over [c_k, d_k], whose log is
    -c + log(-expm1(c - d)) and stays finite where e^-c underflows.
    """
    log_mass = -grid.c + np.log(-np.expm1(grid.c - grid.d))
    return float(np.sum(log_mass) / grid.n ** 2)


def nice_energy(sigma, g=None, n0=256, tol=1e-6, max_doublings=4):
    """Logarithmic energy of sigma (or of g_* sigma): the mean of the exact
    cell-pair kernel (measures.log_kernel_mean) over the n equal-mass
    cells of build_quantile_grid(sigma, n), mapped by g when given;
    the cell count doubles until two resolutions agree to tol.

    Raises RuntimeError when max_doublings doublings leave no two
    resolutions within tol.  With max_doublings=0 nothing is compared, and
    the value at n0 cells is returned unchecked.
    """
    special.check_count("n0", n0, 2)
    prev = None
    n = n0
    for _ in range(max_doublings + 1):
        edges = build_quantile_grid(sigma, n).a
        if g is not None:
            edges = g(edges)
        val = log_kernel_mean(edges)
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
        n *= 2
    if max_doublings > 0:
        raise RuntimeError(f"nice_energy: {max_doublings} doublings from "
                           f"n0={n0} did not meet tol={tol:g}")
    return prev

"""Numerical checks of the quantile-discretization estimates.

For a "nice" measure sigma -- compact support [a, b] in (0, inf), density h
with 1/C <= h <= C -- the lower-bound construction places one particle in
the central third [c_k, d_k] of each quantile interval [a_{k-1}, a_k].
This module builds those grids and measures the quantities the argument
runs on: the spacing bounds 1/(Cn) <= a_{k+1}-a_k <= C/n, the bounded ratio
(a_j - a_{i-1})/(d_j - c_i) together with the fraction of pairs where it is
below 1+eps, the Riemann-sum lower bounds for the two halves of the
logarithmic energy, and the bounded-Lipschitz distance between any
configuration from the central-thirds box and sigma itself.
"""

from dataclasses import dataclass

import numpy as np

from . import dh_law
from .measures import EmpiricalMeasure, bl_distance


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
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
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
    """Dykema-Haagerup law conditioned to [lo, e - lo]."""
    law = law or dh_law.default_law()
    lo = float(lo)
    hi = float(np.e - lo)
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < e/2")
    f_lo, f_hi = law.cdf(lo), law.cdf(hi)
    mass = f_hi - f_lo

    def density(x):
        return dh_law.dh_density(x) / mass

    def quantile(p):
        p = np.asarray(p, dtype=float)
        inner = np.clip(f_lo + p * mass, 1e-15, 1.0 - 1e-15)
        q = law.quantile(inner)
        return np.clip(q, lo, hi)

    probe = np.linspace(lo, hi, 2001)
    dvals = density(probe)
    c = max(float(dvals.max()), 1.0 / float(dvals.min()), 1.0)
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
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
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
    """Pairwise ratio statistics for the plain and g-mapped grids."""

    a_max: float
    a_max_g: float
    fraction: float
    fraction_g: float


_PAIR_BLOCK = 1 << 17    # values per block of rows: 1 MB of float64


def _row_blocks(n):
    """Row ranges [j0, j1) of an n x n pair quantity, each about
    _PAIR_BLOCK values, so a block stays in cache and no n x n array is made."""
    rows = max(1, _PAIR_BLOCK // n)
    return [(j0, min(j0 + rows, n)) for j0 in range(0, n, rows)]


def _lower_pairs(block, n):
    """All pairs i < j of an n x n pair quantity, in the row-major order of
    m[np.tri(n, k=-1, dtype=bool)].  block(j0, j1) gives rows j0 <= j < j1
    over columns i < j1, for the _row_blocks ranges."""
    out = np.empty(n * (n - 1) // 2)
    start = 0
    for j0, j1 in _row_blocks(n):
        vals = block(j0, j1)[np.tri(j1 - j0, j1, k=j0 - 1, dtype=bool)]
        out[start:start + vals.size] = vals
        start += vals.size
    return out


def _ratio_max_count(a, c, d, bound):
    """Max of (a_j - a_{i-1})/(d_j - c_i) over pairs i < j, and how many of
    those ratios are <= bound, reduced block by block over _row_blocks.
    Columns i < j0 lie below the diagonal for every row of a block; only
    the block's diagonal square is masked.  A max and a count do not depend
    on order, so both are exact at any block size."""
    tops, count = [], 0
    for j0, j1 in _row_blocks(c.size):
        r = a[j0 + 1:j1 + 1, None] - a[None, :j1]
        r /= d[j0:j1, None] - c[None, :j1]
        left, square = r[:, :j0], r[:, j0:]
        below = np.tri(j1 - j0, k=-1, dtype=bool)
        tops += [left.max(initial=-np.inf), square.max(where=below, initial=-np.inf)]
        count += int(np.count_nonzero(left <= bound))
        count += int(np.count_nonzero((square <= bound) & below))
    return float(np.max(tops)), count


def ratio_statistics(grid, g, eps):
    """Max pair ratio and the fraction (2/n^2-normalized) of pairs with
    ratio <= 1 + eps, for the grid and for its image under g."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = grid.n
    top, count = _ratio_max_count(grid.a, grid.c, grid.d, 1.0 + eps)
    top_g, count_g = _ratio_max_count(np.asarray(g(grid.a), dtype=float),
                                      np.asarray(g(grid.c), dtype=float),
                                      np.asarray(g(grid.d), dtype=float), 1.0 + eps)
    return RatioStats(a_max=top, a_max_g=top_g,
                      fraction=2.0 * count / n ** 2,
                      fraction_g=2.0 * count_g / n ** 2)


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
    same with all endpoints mapped through g."""
    n = grid.n

    def riemann(c, d):
        vals = _lower_pairs(lambda j0, j1: d[j0:j1, None] - c[None, :j1], n)
        np.log(vals, out=vals)
        # the pairwise sum is symmetric under sign, so -sum(log) is sum(-log)
        return float(-vals.sum() / n ** 2)

    s = riemann(grid.c, grid.d)
    sg = riemann(np.asarray(g(grid.c), dtype=float),
                 np.asarray(g(grid.d), dtype=float))
    return EnergyGap(gap=e_half - s, gap_g=e_half_g - sg,
                     riemann_sum=s, riemann_sum_g=sg)


def configuration_bl_check(grid, sigma, m=10_000, z=None):
    """Bounded-Lipschitz distance between a central-thirds configuration
    (default: interval midpoints) and an m-point quantile discretization of
    sigma.  The construction promises <= C/n plus 2/m discretization slack."""
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
    a one-dimensional integral over [c_k, d_k], done by Gauss-Legendre.
    """
    n = grid.n
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 * (grid.d - grid.c)
    mid = 0.5 * (grid.d + grid.c)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    cell_mass = (np.exp(-x) * weights[None, :]).sum(axis=1) * half
    return float(np.sum(np.log(cell_mass)) / n ** 2)


def _log_cell_antideriv(u):
    """F with F'' = log|u|: F(u) = u^2 (2 log|u| - 3)/4, F(0) = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u != 0, 0.25 * u ** 2 * (2.0 * np.log(np.abs(u)) - 3.0), 0.0)


def nice_energy(sigma, g=None, n0=256, tol=1e-6, max_doublings=4):
    """Logarithmic energy of sigma (or of g_* sigma) by equal-mass-cell
    quadrature with the log kernel integrated exactly per cell pair;
    cell count doubles until two resolutions agree to tol.

    Raises RuntimeError when max_doublings doublings leave no two
    resolutions within tol.  With max_doublings=0 nothing is compared, and
    the value at n0 cells is returned unchecked.
    """
    prev = None
    n = n0
    for _ in range(max_doublings + 1):
        edges = np.asarray(sigma.quantile(np.arange(n + 1) / n), dtype=float)
        edges[0], edges[-1] = sigma.a, sigma.b
        if g is not None:
            edges = np.asarray(g(edges), dtype=float)
        widths = np.diff(edges)
        if np.any(widths <= 0):
            raise ValueError("degenerate quantile cells")
        fu = _log_cell_antideriv(edges[:, None] - edges[None, :])
        rect = -(fu[1:, :-1] + fu[:-1, 1:] - fu[1:, 1:] - fu[:-1, :-1])
        dens = 1.0 / (n * widths)
        val = float(dens @ rect @ dens)
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
        n *= 2
    if max_doublings > 0:
        raise RuntimeError(f"nice_energy: {max_doublings} doublings from "
                           f"n0={n0} did not meet tol={tol:g}")
    return prev

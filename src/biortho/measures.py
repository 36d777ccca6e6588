"""Measure containers, push-forwards, distances, and logarithmic energies.

Two finitely supported containers: EmpiricalMeasure (uniform 1/n weights on
sorted points) and GridMeasure (fixed nodes, probability weight vector).
On top of them: push-forward by an increasing map, the exact W1 distance
(integral of the CDF gap), the exact bounded-Lipschitz (Dudley) distance,
off-diagonal and grid logarithmic energies, and the two-scale pair kernel
with its confinement lower bound.

The bounded-Lipschitz distance is the W1 problem with the extra bound
|f| <= 1.  W1's maximizer is the potential f* whose slope is
-sign(F_a - F_b), and a constant shift of f* leaves its value unchanged
because both measures have unit mass.  So when f* oscillates by at most 2
it fits in [-1, 1] after a shift, and d_BL = W1 exactly; only otherwise
does bl_distance run its dynamic program along the sorted support.

The grid energy carries a diagonal regularization: a node of weight w and
local cell width h contributes w^2 * (-log h + 3/2), the exact self-energy
of the uniform density on a width-h cell.  This makes the grid energy a
consistent discretization of the continuous energy (the uniform law on
[0, 1] has energy exactly 3/2) and keeps the discrete minimization problem
from collapsing onto a single node.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

_CELL_SELF_ENERGY = 1.5      # iint -log|x-y| over the unit cell, unit density


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sorted support points carrying uniform weight 1/n each."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float).ravel())
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("support points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.size

    def weights(self):
        return np.full(self.n, 1.0 / self.n)


@dataclass(frozen=True)
class GridMeasure:
    """Fixed strictly increasing nodes with a probability weight vector."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        if nodes.size != w.size or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length, nonempty")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.nodes.size


def support_and_weights(m):
    """(points, weights) for either measure kind."""
    if isinstance(m, EmpiricalMeasure):
        return m.points, m.weights()
    if isinstance(m, GridMeasure):
        return m.nodes, m.weights
    raise TypeError(f"not a measure: {type(m).__name__}")


def pushforward(m, g):
    """Image measure under an increasing map g; weights unchanged."""
    if isinstance(m, EmpiricalMeasure):
        if m.n and m.points[0] <= 0:
            raise ValueError("pushforward requires support in (0, inf)")
        return EmpiricalMeasure(g(m.points))
    if isinstance(m, GridMeasure):
        if m.nodes[0] <= 0:
            raise ValueError("pushforward requires support in (0, inf)")
        return GridMeasure(g(m.nodes), m.weights)
    raise TypeError(f"not a measure: {type(m).__name__}")


def w1_distance(a, b):
    """Exact 1-Wasserstein distance: integral of |F_a - F_b| over the line."""
    xa, wa = support_and_weights(a)
    xb, wb = support_and_weights(b)
    x = np.concatenate([xa, xb])
    df = np.concatenate([wa, -wb])
    order = np.argsort(x, kind="stable")
    x, df = x[order], df[order]
    cdf_gap = np.cumsum(df)[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(x)))


def bl_distance(a, b):
    """Bounded-Lipschitz (Dudley) distance between finitely supported measures.

    Maximizes sum_i f_i delta_i, delta = a - b on the merged sorted support,
    over |f_i| <= 1 and |f_{i+1} - f_i| <= h_i, h the support gaps (on the
    line adjacent increments control every 1-Lipschitz extension).  These
    constraints form a path, solved exactly by a dynamic program along it:
    the value V_i(f) of the first i points is concave and piecewise linear on
    [-1, 1], held as deques of breakpoints on the two sides of its flat top
    (see _cross).  Backtracking f_i = clip(p_i, f_{i+1} - h_i, f_{i+1} + h_i)
    from the peaks p_i of V_i gives a feasible maximizer, so the value
    returned is attained and never exceeds W1.  O(m) for m support points.

    The DP runs only when the bound |f| <= 1 can bind.  With G_i the CDF
    gap after point i, summation by parts gives sum_i f_i delta_i =
    -sum_i G_i (f_{i+1} - f_i) for any f (the masses are equal), so the
    potential f* with increments -sign(G_i) h_i attains W1 = sum |G_i| h_i,
    and so does f* plus any constant.  If max f* - min f* <= 2, a shift
    puts f* in [-1, 1]; it is then feasible here, and since d_BL <= W1
    always, d_BL = W1, returned without the DP.
    """
    xa, wa = support_and_weights(a)
    xb, wb = support_and_weights(b)
    x = np.concatenate([xa, xb])
    signed = np.concatenate([wa, -wb])
    xs, inv = np.unique(x, return_inverse=True)
    delta = np.bincount(inv, weights=signed, minlength=xs.size)
    gaps = np.diff(xs)
    cdf_gap = np.cumsum(delta)[:-1]
    potential = np.concatenate(([0.0], np.cumsum(-np.sign(cdf_gap) * gaps)))
    if potential.max() - potential.min() <= 2.0:
        return float(np.sum(np.abs(cdf_gap) * gaps))
    delta, gaps = delta.tolist(), gaps.tolist()
    left, right = deque(), deque()
    shift = 0.0
    f = []                               # the peaks p_i, then the backtrack
    for d, h in zip(delta, gaps + [0.0]):
        if d > 0.0:
            _cross(right, left, d, shift)
        elif d < 0.0:
            _cross(left, right, -d, shift)
        f.append(-(left[-1][0] + shift) if left else -1.0)
        shift += h
        for side in (left, right):
            while side and side[0][0] + shift >= 1.0:
                side.popleft()
    for i in range(len(gaps) - 1, -1, -1):
        f[i] = min(max(f[i], f[i + 1] - gaps[i]), f[i + 1] + gaps[i])
    return max(0.0, float(np.dot(f, delta)))


def _cross(src, dst, d, shift):
    """Tilt V up by d > 0 toward src's side: the breakpoints nearest the top
    cross to dst until d is used up, the last one split, or the wall (an
    empty side) enters.  A breakpoint (key, slope drop) lies at outward
    distance key + shift (-position on the left, +position on the right),
    so the window max over |g - f| <= h adds h to shift, and breakpoints
    pushed past the wall at 1 drop off the far end of their deque.
    """
    while src and src[-1][1] <= d:
        key, drop = src.pop()
        dst.append((-key - 2.0 * shift, drop))
        d -= drop
    if d > 0.0:
        key = src[-1][0] if src else 1.0 - shift
        if src:
            src[-1] = (key, src[-1][1] - d)
        dst.append((-key - 2.0 * shift, d))


def log_energy_offdiag(m):
    """(1/n^2) * sum_{i != j} -log|x_i - x_j| for an empirical measure."""
    x = m.points
    n = x.size
    if n == 0:
        raise ValueError("empty measure")
    if n == 1:
        return 0.0
    diff = np.abs(x[:, None] - x[None, :])
    off = ~np.eye(n, dtype=bool)
    if np.any(diff[off] == 0.0):
        raise ValueError("coincident support points give infinite energy")
    return float(np.sum(-np.log(diff[off])) / n ** 2)


def voronoi_cell_widths(nodes):
    """Local cell widths from midpoints between neighbours (half cells at
    both ends).  Requires at least two nodes."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size < 2:
        raise ValueError("cell widths need >= 2 nodes")
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    edges = np.concatenate([[nodes[0]], mids, [nodes[-1]]])
    return np.diff(edges)


def energy_kernel(nodes):
    """Symmetric kernel K with K_ij = -log|x_i - x_j| off the diagonal and
    the cell self-energy K_ii = -log h_i + 3/2 on it, h the Voronoi cell
    widths; grid energy is w'Kw."""
    nodes = np.asarray(nodes, dtype=float)
    h = voronoi_cell_widths(nodes)
    if np.any(h <= 0):
        raise ValueError("cell widths must be positive")
    diff = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diff, 1.0)
    k = -np.log(diff)
    np.fill_diagonal(k, -np.log(h) + _CELL_SELF_ENERGY)
    return k


def log_energy_grid(m):
    """Grid logarithmic energy with diagonal cell self-energy."""
    return float(m.weights @ energy_kernel(m.nodes) @ m.weights)


def pair_kernel_f(x, y, cfg):
    """Two-scale pair kernel
    -log|x-y|/2 - log|g(x)-g(y)|/2 + (V(x)+V(y))/2; +inf at coincidence."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx, gy = cfg.g(x), cfg.g(y)
    with np.errstate(divide="ignore"):
        val = (-0.5 * np.log(np.abs(x - y))
               - 0.5 * np.log(np.abs(gx - gy))
               + 0.5 * (cfg.v(x) + cfg.v(y)))
    if val.ndim == 0:
        return float(val)
    return val


def pair_kernel_lower(t, cfg):
    """Single-variable confinement minorant phi with f(x,y) >= phi(x)+phi(y):
    phi(t) = -log(1+t)/2 - log(1+|g(t)|)/2 + V(t)/2."""
    t = np.asarray(t, dtype=float)
    val = (-0.5 * np.log1p(t) - 0.5 * np.log1p(np.abs(cfg.g(t)))
           + 0.5 * cfg.v(t))
    if val.ndim == 0:
        return float(val)
    return val

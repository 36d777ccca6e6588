"""Measure containers, distances, and logarithmic energies.

Two finitely supported containers: EmpiricalMeasure (uniform 1/n weights on
sorted points) and GridMeasure (fixed nodes, probability weight vector).
On top of them: the exact W1 distance (integral of the CDF gap), the exact
bounded-Lipschitz (Dudley) distance, off-diagonal and grid logarithmic
energies, and the two-scale pair kernel with its confinement lower bound.

The bounded-Lipschitz distance is the W1 problem with the extra bound
|f| <= 1.  W1's maximizer is the potential f* whose slope is
-sign(F_a - F_b), and a constant shift of f* leaves its value unchanged
because both measures have unit mass.  So when f* oscillates by at most 2
it fits in [-1, 1] after a shift, and d_BL = W1 exactly; only otherwise
does bl_distance run its dynamic program along the sorted support.  Both
distances read one merge of the two supports, stable-sorted with ties kept
as zero gaps, so where f* fits bl_distance returns w1_distance's value.

Every pass over the pairs i < j (the cell kernel, the off-diagonal energy,
the proof lab's ratios and Riemann sums) walks lower_pairs in 256 kB blocks.
Energies of measures spread uniformly over cells share one exact cell
integral, log_kernel_means.  A grid node's weight is spread over its
Voronoi cell (voronoi_cell_edges), so a width-h cell has self-energy
-log h + 3/2 (the uniform law on [0, 1] has energy exactly 3/2), which
keeps the discrete minimization from collapsing onto a single node.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import special


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
        if self.n == 0:
            raise ValueError("empty measure has no weights")
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


def _merged(a, b):
    """Both supports merged by one stable sort: the signed masses a - b at
    the sorted points, the gaps between neighbours (0 at a tie) and the CDF
    gap F_a - F_b after every point but the last."""
    xa, wa = support_and_weights(a)
    xb, wb = support_and_weights(b)
    x = np.concatenate([xa, xb])
    delta = np.concatenate([wa, -wb])
    order = np.argsort(x, kind="stable")
    x, delta = x[order], delta[order]
    return delta, np.diff(x), np.cumsum(delta)[:-1]


def w1_distance(a, b):
    """Exact 1-Wasserstein distance: integral of |F_a - F_b| over the line."""
    _, gaps, cdf_gap = _merged(a, b)
    return float(np.sum(np.abs(cdf_gap) * gaps))


def bl_distance(a, b):
    """Bounded-Lipschitz (Dudley) distance between finitely supported measures.

    Maximizes sum_i f_i delta_i, delta = a - b on both supports stable-sorted
    together (_merged, as w1_distance), over |f_i| <= 1 and
    |f_{i+1} - f_i| <= h_i, h the gaps (on the line adjacent increments
    control every 1-Lipschitz extension).  A tie is a zero gap, which
    forces f_i = f_{i+1}: the same problem as one merged point.  These
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
    delta, gaps, cdf_gap = _merged(a, b)
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


# pairs per block: 256 kB of float64.  A block keeps 5 to 15 temporaries
# live, so at 2^17 (1 MB) they spill a 2 MB L2.  Of 2^12 to 2^17, 2^15
# timed fastest on a 2-core Xeon: energy_kernel at 1600 nodes 69 ms against
# 77 at 2^14 and 92 at 2^17, a pair_log_sum at n = 1000 3.4 against 4.9 ms
_PAIR_BLOCK = 1 << 15


def lower_pairs(lo, hi):
    """The pairs lo_j <= i < hi_j of each row j, rows in order and i rising,
    in blocks (i, rows, k) of at most _PAIR_BLOCK pairs: column indices, a
    row slice and each row's pair count, so v[rows].repeat(k) lines up with i."""
    width = hi - lo
    ends = width.cumsum()
    starts, shift = ends - width, ends - hi     # pair p of row j: i = p - shift_j
    total = int(width.sum())
    for p0 in range(0, total, _PAIR_BLOCK):
        p1 = min(p0 + _PAIR_BLOCK, total)
        j0, j1 = ends.searchsorted(p0, "right"), starts.searchsorted(p1)
        k = np.minimum(ends[j0:j1], p1) - np.maximum(starts[j0:j1], p0)
        i = np.arange(p0, p1)
        i -= shift[j0:j1].repeat(k)
        yield i, slice(j0, j1), k


def pair_log_sum(c, d):
    """sum_{i<j} log(d_j - c_i), its terms laid out in the row-major order of
    a full n x n lower-triangle gather and summed once, as that gather is."""
    n = c.size
    vals, start = np.empty(n * (n - 1) // 2), 0
    for i, rows, k in lower_pairs(np.zeros(n, dtype=int), np.arange(n)):
        block = vals[start:start + i.size]
        np.log(np.subtract(d[rows].repeat(k), c.take(i), out=block), out=block)
        start += i.size
    return float(vals.sum())


def log_energy_offdiag(m):
    """(1/n^2) * sum_{i != j} -log|x_i - x_j| for an empirical measure."""
    x, n = m.points, m.n
    if n == 0:
        raise ValueError("empty measure")
    if n == 1:
        return 0.0
    if np.any(np.diff(x) == 0.0):
        raise ValueError("coincident support points give infinite energy")
    return -2.0 * pair_log_sum(x, x) / n ** 2


def with_image(fn, g, *arrays):
    """(fn(*arrays), fn(*images)) for the arrays and their images under g,
    both as float arrays.  When g leaves every array unchanged, fn runs
    once and its result is returned twice, as the same object."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    images = [np.asarray(g(a), dtype=float) for a in arrays]
    plain = fn(*arrays)
    if all(map(np.array_equal, images, arrays)):
        return plain, plain
    return plain, fn(*images)


def voronoi_cell_edges(nodes):
    """Voronoi cell edges of two or more increasing nodes: the midpoints
    between neighbours, with half cells ending on the two end nodes."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size < 2:
        raise ValueError("cell edges need >= 2 nodes")
    return np.concatenate([nodes[:1], 0.5 * (nodes[1:] + nodes[:-1]), nodes[-1:]])


def _step(u, s, k):
    """(u + s)^k log(u + s) - u^k log u, k = 1 or 2, for arrays u >= 0, s > 0
    of one shape: (u + s)^k log1p(s/u) + ((u + s)^k - u^k) log u with the
    second bracket expanded, so nothing cancels when s << u; s^k log s at 0."""
    rise = s if k == 1 else s * (2.0 * u + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (u + s) ** k * np.log1p(s / u) + rise * np.log(u)
    at0 = u == 0
    step[at0] = s[at0] ** k * np.log(s[at0])
    return step


def _cells(edges):
    """Lower ends, upper ends and widths of the cells between the edges."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    q = hi - lo
    if not np.all(q > 0):
        raise ValueError("cell widths must be positive")
    return lo, hi, q


def _lower_cell_means(lo, hi, q, k=None):
    """Walk the cell pairs below the diagonal of the cell-pair kernel
    (log_kernel_means) block by block over lower_pairs: with a kernel k,
    write each block's means to k[i, j] and k[j, i], cell i below cell j;
    without one, return the sum of all the means.  The formula stays in
    this loop, so a block's temporaries die one by one as the next block's
    replace them; freed together at a function return, they let the
    allocator trim the heap and fault it back in (2.8x the page faults of
    a 400-cell kernel)."""
    total, cells = 0.0, np.arange(q.size)
    for i, rows, r in lower_pairs(np.zeros_like(cells), cells):
        qi, qj = q.take(i), q[rows].repeat(r)
        s, big = np.minimum(qi, qj), np.maximum(qi, qj)
        gap = lo[rows].repeat(r) - hi.take(i)
        e = np.frexp(gap + big)[1]
        s, big, gap = (np.ldexp(v, -e) for v in (s, big, gap))
        means = 1.5 - e * np.log(2.0) - (
            _step(gap + big, s, 2) - _step(gap, s, 2)) / (2.0 * s * big)
        if k is None:
            total += float(means.sum())
        else:
            j = cells[rows].repeat(r)
            k[i, j] = k[j, i] = means
        del means      # one more 256 kB block live read 3% slower at 400 cells
    return total


def log_kernel_means(edges, points=None):
    """Exact means of -log|x - y| for y uniform on cell j = [edges[j],
    edges[j+1]] and x uniform on cell i (an m x m matrix) or x = points[i].

    With G(u) = u log|u| - u and F(u) = u(G(u) - u/2)/2, the first and
    second antiderivatives of log|u|, a point-cell integral is a difference
    of G and a cell-pair integral a second difference of F; their u and u^2
    parts difference exactly, their u^k log u parts by _step.  For cells of
    widths s <= L a gap D >= 0 apart the mean is 3/2 - [_step(D + L, s) -
    _step(D, s)]/(2sL), the inner difference over the smaller cell.  It is
    taken on the pair scaled exactly by 2^-e, where 2^(e-1) <= D + L < 2^e,
    so that no product underflows; scaling cells by l adds -log l to the
    mean, so e log 2 comes off it.  A cell with itself gives -log h + 3/2.  A point inside a cell splits it in two.
    """
    lo, hi, q = _cells(edges)
    if points is None:
        k = np.diag(1.5 - np.log(q))
        _lower_cell_means(lo, hi, q, k)
        return k
    x = np.asarray(points, dtype=float)[:, None]
    gap = np.maximum(lo - x, x - hi)
    k = 1.0 - _step(np.maximum(gap, 0.0), np.broadcast_to(q, gap.shape), 1) / q
    i, j = np.nonzero(gap < 0)
    piece = np.array([x[i, 0] - lo[j], hi[j] - x[i, 0]])
    k[i, j] = 1.0 - (piece * np.log(piece)).sum(axis=0) / q[j]
    return k


def log_kernel_mean(edges):
    """Mean of log_kernel_means(edges) over all m^2 cell pairs, (sum of the
    diagonal + 2 * sum below it) / m^2, without forming the m x m kernel."""
    lo, hi, q = _cells(edges)
    below = _lower_cell_means(lo, hi, q)
    return (float(np.sum(1.5 - np.log(q))) + 2.0 * below) / q.size ** 2


def energy_kernel(nodes):
    """Symmetric kernel K of the Voronoi cells of the nodes (see
    log_kernel_means): grid energy is w'Kw, and K_ii = -log h_i + 3/2."""
    return log_kernel_means(voronoi_cell_edges(nodes))


def log_energy_grid(m):
    """Grid logarithmic energy: each weight spread over its Voronoi cell."""
    return float(m.weights @ energy_kernel(m.nodes) @ m.weights)


def pair_kernel_f(x, y, cfg):
    """Two-scale pair kernel
    -log|x-y|/2 - log|g(x)-g(y)|/2 + (V(x)+V(y))/2; +inf at coincidence."""
    x, y = np.broadcast_arrays(x, y)
    (x, back), (y, _) = special.elementwise(x, float), special.elementwise(y, float)
    gx, gy = cfg.g(x), cfg.g(y)
    with np.errstate(divide="ignore"):
        return back(-0.5 * np.log(np.abs(x - y))
                    - 0.5 * np.log(np.abs(gx - gy))
                    + 0.5 * (cfg.v(x) + cfg.v(y)))


def pair_kernel_lower(t, cfg):
    """Single-variable confinement minorant phi with f(x,y) >= phi(x)+phi(y):
    phi(t) = -log(1+t)/2 - log(1+|g(t)|)/2 + V(t)/2."""
    t, back = special.elementwise(t, float)
    return back(-0.5 * np.log1p(t) - 0.5 * np.log1p(np.abs(cfg.g(t))) + 0.5 * cfg.v(t))

"""Rate-functional minimization over probability measures on a fixed grid.

The functional is

    I(mu) = E(mu)/2 + E(g_* mu)/2 + int V d(mu)

with E the logarithmic energy.  Discretized on fixed nodes with the cell
self-energy regularization from `measures`, it becomes a strictly convex
quadratic F(w) = w'Mw/2 + V'w on the probability simplex, with
M = K(nodes) + K(g(nodes)).  Fixing the nodes and optimizing only the
weights keeps the problem convex.

Its KKT conditions are the discrete Frostman conditions: the gradient
d = Mw + V equals a constant c on the support and is no smaller off it
(Saff & Totik, Logarithmic Potentials with External Fields, 1997).  The
solver is a primal active-set method in the style of Lawson-Hanson NNLS
(Solving Least Squares Problems, 1974).  Each iteration solves the problem
restricted to the current face exactly, through the saddle system

    [M_SS  -1] [z]   [-V_S]
    [1'     0] [c] = [  1 ],

which is nonsingular because M is positive definite on sum-zero vectors.
If z has a nonpositive entry, w steps toward z until its first weight
reaches zero and that node leaves the face; otherwise w moves to z and the
off-support node of smallest gradient joins the face if it violates the
conditions by more than tol.  Off-support weights are exact zeros.
Termination is by the KKT residual

    max( c - min_i d_i,  max_{i in support} |d_i - c| ),   c = sum w_i d_i,

with the support {w > 0}; its last node is the endpoint b_eq reported
for the largest-particle rate function J, whose additive constant is
fixed by J(b_eq) = 0.
"""

from dataclasses import dataclass

import numpy as np

# log_energy_grid is unused here but stays importable under this module,
# where perfbench/spans.py traces it
from .measures import (GridMeasure, energy_kernel, log_energy_grid,  # noqa: F401
                       log_energy_offdiag, pushforward)


@dataclass
class SolverReport:
    """Minimizer plus diagnostics.  iterations counts face solves;
    converged=False means the cap max_iter was reached before the KKT
    residual met tol, and the last iterate is reported.  objective_trace
    holds the objective after each face solve, non-increasing since every
    step moves toward a face minimizer."""

    minimizer: GridMeasure
    objective: float
    kkt_residual: float
    b_eq: float
    kappa: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray = None

    def to_dict(self):
        return {
            "nodes": self.minimizer.nodes.tolist(),
            "weights": self.minimizer.weights.tolist(),
            "objective": self.objective,
            "kkt_residual": self.kkt_residual,
            "b_eq": self.b_eq,
            "kappa": self.kappa,
            "iterations": self.iterations,
            "converged": self.converged,
        }


_GEO_UNTIL = 0.1     # make_grid spaces nodes geometrically below this


def make_grid(n, lo, hi, geo_fraction=0.25):
    """Solver grid: geo_fraction of the nodes spaced geometrically from lo up
    to 0.1 (resolving the 1/(x log^2 x)-type blow-up near 0), uniform
    spacing beyond."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    n = int(n)
    if n < 2:
        raise ValueError("need at least two nodes")
    if lo >= _GEO_UNTIL or geo_fraction <= 0:
        return np.linspace(lo, hi, n)
    split = min(_GEO_UNTIL, hi / 2)
    n_geo = max(2, int(n * geo_fraction))
    geo = np.geomspace(lo, split, n_geo, endpoint=False)
    uni = np.linspace(split, hi, n - n_geo)
    return np.concatenate([geo, uni])


def rate_I(m, cfg):
    """Discretized rate functional at a grid measure, w'Mw/2 + v'w."""
    mat, vv = _quadratic_model(m.nodes, cfg)
    return 0.5 * float(m.weights @ mat @ m.weights) + float(vv @ m.weights)


def _quadratic_model(nodes, cfg):
    """(M, v) with objective w'Mw/2 + v'w and gradient Mw + v; the kernels
    take Voronoi cell widths of the nodes and of their images, which need at
    least two nodes."""
    nodes = np.asarray(nodes, dtype=float)
    if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
        raise ValueError("grid must be strictly increasing in (0, inf)")
    m = energy_kernel(nodes) + energy_kernel(np.asarray(cfg.g(nodes), dtype=float))
    return m, np.asarray(cfg.v(nodes), dtype=float)


def _kkt(grad, w):
    c = float(w @ grad)
    active = w > 0
    res = c - float(grad.min())
    if active.any():
        res = max(res, float(np.max(np.abs(grad[active] - c))))
    return max(res, 0.0)


def kkt_residual(m, cfg):
    """First-order optimality residual of a grid measure for the discrete
    rate functional; 0 means exact discrete optimality."""
    mat, vv = _quadratic_model(m.nodes, cfg)
    return _kkt(mat @ m.weights + vv, m.weights)


def minimize_I(cfg, grid, tol=1e-6, max_iter=200_000, w0=None):
    """Primal active-set solve of the discrete rate functional, started
    from the support of w0 (all nodes, uniform weights, by default).

    Returns a SolverReport; converged=False (max_iter face solves without
    meeting tol) still carries the last iterate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    nodes = np.asarray(grid, dtype=float)
    mat, vv = _quadratic_model(nodes, cfg)
    m = nodes.size
    if w0 is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(w0, dtype=float)
        if w.size != m or np.any(w < 0) or not w.sum() > 0:
            raise ValueError("w0 must be a nonnegative weight vector on the grid")
        w = w / w.sum()
    free = w > 0
    grad = mat @ w + vv
    obj = 0.5 * float(w @ (grad + vv))
    kkt = _kkt(grad, w)
    iterations = 0
    trace = [obj]
    while kkt > tol and iterations < max_iter:
        iterations += 1
        s = np.flatnonzero(free)
        k = s.size
        saddle = np.zeros((k + 1, k + 1))
        saddle[:k, :k] = mat[np.ix_(s, s)]
        saddle[:k, k] = -1.0
        saddle[k, :k] = 1.0
        z = np.linalg.solve(saddle, np.append(-vv[s], 1.0))[:k]
        blocked = z <= 0
        if blocked.any():
            ws = w[s]
            ratios = ws[blocked] / (ws[blocked] - z[blocked])
            ws += ratios.min() * (z - ws)
            ws[np.flatnonzero(blocked)[ratios.argmin()]] = 0.0
            w[s] = np.maximum(ws, 0.0)
            free = w > 0
        else:
            w[s] = z
        grad = mat @ w + vv
        obj = 0.5 * float(w @ (grad + vv))
        trace.append(obj)
        kkt = _kkt(grad, w)
        if not blocked.any():
            j = np.where(free, np.inf, grad).argmin()
            if float(w @ grad) - grad[j] > tol:
                free[j] = True
    minimizer = GridMeasure(nodes, w)
    b_eq = _support_endpoint(minimizer)
    kappa = _effective_potential(np.array([b_eq]), minimizer, cfg)[0]
    return SolverReport(minimizer=minimizer, objective=obj, kkt_residual=kkt,
                        b_eq=b_eq, kappa=kappa, iterations=iterations,
                        converged=kkt <= tol, objective_trace=np.array(trace))


def _support_endpoint(mu):
    idx = np.flatnonzero(mu.weights > 0)
    if idx.size == 0:
        raise ValueError("measure has no positive weight")
    return float(mu.nodes[idx[-1]])


def _antideriv(u):
    """G(u) = u log|u| - u with G(0) = 0, so that the exact cell integral is
    int_a^b log|x-y| dy = G(b-x) - G(a-x), finite for x inside [a, b]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u != 0, u * np.log(np.abs(u)) - u, 0.0)


def cell_density(mu):
    """(edges, density): mu spread uniformly over cells split at the
    midpoints between nodes, each end cell reaching a quarter of its gap
    beyond its end node.  Density times cell width is the node weight, so
    the histogram has area 1."""
    if mu.n < 2:
        raise ValueError("cells need >= 2 nodes")
    nodes = mu.nodes
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    edges = np.concatenate([[nodes[0] - 0.5 * (mids[0] - nodes[0])], mids,
                            [nodes[-1] + 0.5 * (nodes[-1] - mids[-1])]])
    return edges, mu.weights / np.diff(edges)


def _effective_potential(x, mu, cfg):
    """U(x) = -0.5 * int [log|x-y| + log|g(x)-g(y)|] d(mu)(y) + V(x), the
    integral taken against mu spread piecewise-uniformly over its cells
    (semi-analytic, finite for x on the support)."""
    x = np.asarray(x, dtype=float)
    edges, dens_x = cell_density(mu)
    gedges = np.asarray(cfg.g(edges), dtype=float)
    gx = np.asarray(cfg.g(x), dtype=float)

    lo, hi = edges[:-1], edges[1:]
    glo, ghi = gedges[:-1], gedges[1:]
    dens_g = mu.weights / (ghi - glo)

    lx = ((_antideriv(hi[None, :] - x[:, None])
           - _antideriv(lo[None, :] - x[:, None])) * dens_x[None, :]).sum(axis=1)
    lg = ((_antideriv(ghi[None, :] - gx[:, None])
           - _antideriv(glo[None, :] - gx[:, None])) * dens_g[None, :]).sum(axis=1)
    return -0.5 * (lx + lg) + np.asarray(cfg.v(x), dtype=float)


def rate_J_largest(x, mu_eq, cfg):
    """Largest-particle rate function J(x) = U(x) - U(b_eq) for x >= b_eq
    and +inf below b_eq; J(b_eq) = 0 exactly by construction."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xs = np.atleast_1d(arr).astype(float)
    b_eq = _support_endpoint(mu_eq)
    kappa = _effective_potential(np.array([b_eq]), mu_eq, cfg)[0]
    out = np.full(xs.shape, np.inf)
    ge = xs >= b_eq
    if ge.any():
        out[ge] = _effective_potential(xs[ge], mu_eq, cfg) - kappa
    return float(out[0]) if scalar else out


def rate_I_empirical(m, cfg):
    """Rate functional of an empirical measure via off-diagonal energies."""
    if m.n and m.points[0] <= 0:
        raise ValueError("rate_I_empirical requires support in (0, inf)")
    e_x = log_energy_offdiag(m)
    e_g = log_energy_offdiag(pushforward(m, cfg.g))
    return 0.5 * e_x + 0.5 * e_g + float(np.mean(cfg.v(m.points)))

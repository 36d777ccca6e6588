"""Rate-functional minimization over probability measures on a fixed grid.

The functional is

    I(mu) = E(mu)/2 + E(g_* mu)/2 + int V d(mu)

with E the logarithmic energy.  Discretized on fixed nodes, each weight
spread over its Voronoi cell and g_*mu over those of g(nodes), it becomes
a strictly convex quadratic F(w) = w'Mw/2 + V'w on the probability simplex,
M = K(nodes) + K(g(nodes)) (the exact cell-pair kernels of `measures`).
Fixing the nodes and optimizing only the weights keeps the problem convex.

Its KKT conditions are the discrete Frostman conditions: the gradient
d = Mw + V equals a constant c on the support and is no smaller off it
(Saff & Totik, Logarithmic Potentials with External Fields, 1997).  The
solver is a primal active-set method in the style of Lawson-Hanson NNLS
(Solving Least Squares Problems, 1974).  Each iteration solves the problem
restricted to the current face S of k nodes exactly, through the bordered
saddle system

    [0  1'  ] [-c]   [   1]
    [1  M_SS] [ z] = [-V_S],

which is nonsingular because M is positive definite on sum-zero vectors.
If z has a nonpositive entry, w steps toward z until its first weight
reaches zero and that node leaves the face; otherwise w moves to z and the
off-support node of smallest gradient joins the face if it violates the
conditions by more than tol.  Off-support weights are exact zeros.

The solver keeps the inverse B of the saddle matrix across iterations, so
each face solve is the O(k^2) product of B with the right-hand side.  A
node that leaves the face is swapped into the last row and column of B,
and the rank-one deletion B - B[:,j] B[j,:] / B[j,j] (Golub & Van Loan,
Matrix Computations, sec. 2.1.4) leaves in the leading block the inverse
for the smaller face, again in O(k^2); a step that zeroes several weights
deletes each of those nodes in turn.  B is built from scratch, in O(k^3),
at the start, when a node joins the face, and when a face solve's residual
max(|M_SS z - c + V_S|, |sum z - 1|) exceeds _DRIFT_BOUND; that solve is
then redone on the new B.  The report's refactors counts these drift
rebuilds.  On the acceptance grids the solve starts from the full support
and only drops nodes, so the first build is its only factorization.

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
                       log_energy_offdiag, log_kernel_means, pushforward,
                       voronoi_cell_edges, with_image)


@dataclass
class SolverReport:
    """Minimizer plus diagnostics.  iterations counts face solves and
    refactors the face solves redone on a rebuilt saddle inverse after
    their residual failed the drift check; converged=False means the cap
    max_iter was reached before the KKT residual met tol, and the last
    iterate is reported.  objective_trace holds the objective after each
    face solve, non-increasing since every step moves toward a face
    minimizer."""

    minimizer: GridMeasure
    objective: float
    kkt_residual: float
    b_eq: float
    kappa: float
    iterations: int
    refactors: int
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
            "refactors": self.refactors,
            "converged": self.converged,
        }


_GEO_UNTIL = 0.1     # make_grid spaces nodes geometrically below this
# a face solve whose saddle residual exceeds this is redone on a rebuilt
# inverse; fresh solves on the acceptance grids read about 1e-14
_DRIFT_BOUND = 1e-12


def make_grid(n, lo, hi, geo_fraction=0.25):
    """Solver grid: geo_fraction of the nodes spaced geometrically from lo up
    to 0.1 (resolving the 1/(x log^2 x)-type blow-up near 0), uniform
    spacing beyond."""
    if not 0 < lo < hi < np.inf:
        raise ValueError("need finite 0 < lo < hi")
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
    take the Voronoi cells of the nodes and of their images, which need at
    least two nodes."""
    nodes = np.asarray(nodes, dtype=float)
    if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
        raise ValueError("grid must be strictly increasing in (0, inf)")
    k, k_g = with_image(energy_kernel, cfg.g, nodes)
    return k + k_g, np.asarray(cfg.v(nodes), dtype=float)


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
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
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
    s = np.flatnonzero(w > 0)
    inv = _saddle_inverse(mat, s)
    grad = mat @ w + vv
    obj = 0.5 * float(w @ (grad + vv))
    kkt = _kkt(grad, w)
    iterations = refactors = 0
    trace = [obj]
    while kkt > tol and iterations < max_iter:
        iterations += 1
        k = s.size
        rhs = np.concatenate(([1.0], -vv[s]))
        y = inv[:k + 1, :k + 1] @ rhs
        if _face_residual(mat, vv, s, y) > _DRIFT_BOUND:
            refactors += 1
            inv = _saddle_inverse(mat, s)
            y = inv @ rhs
        z = y[1:]
        blocked = z <= 0
        if blocked.any():
            ws = w[s]
            ratios = ws[blocked] / (ws[blocked] - z[blocked])
            ws += ratios.min() * (z - ws)
            ws[np.flatnonzero(blocked)[ratios.argmin()]] = 0.0
            w[s] = np.maximum(ws, 0.0)
            # descending, so each swap brings a staying node into the slot
            for p in np.flatnonzero(w[s] == 0)[::-1]:
                s = _drop_slot(inv, s, p)
        else:
            w[s] = z
        grad = mat @ w + vv
        obj = 0.5 * float(w @ (grad + vv))
        trace.append(obj)
        kkt = _kkt(grad, w)
        if not blocked.any():
            off = np.where(w > 0, np.inf, grad)
            j = off.argmin()
            if float(w @ grad) - off[j] > tol:
                s = np.append(s, j)
                inv = _saddle_inverse(mat, s)
    minimizer = GridMeasure(nodes, w)
    b_eq = _support_endpoint(minimizer)
    kappa = _effective_potential(np.array([b_eq]), minimizer, cfg)[0]
    return SolverReport(minimizer=minimizer, objective=obj, kkt_residual=kkt,
                        b_eq=b_eq, kappa=kappa, iterations=iterations,
                        refactors=refactors, converged=kkt <= tol,
                        objective_trace=np.array(trace))


def _saddle_inverse(mat, s):
    """Inverse of the bordered face matrix [[0, 1'], [1, M_SS]], its row and
    column 0 for the multiplier and p + 1 for node s[p]."""
    a = np.ones((s.size + 1, s.size + 1))
    a[0, 0] = 0.0
    a[1:, 1:] = mat[np.ix_(s, s)]
    return np.linalg.inv(a)


def _face_residual(mat, vv, s, y):
    """max(|M_SS z - c + v_S|, |sum z - 1|) of y = (-c, z) on the face s."""
    z_full = np.zeros(mat.shape[0])
    z_full[s] = y[1:]
    r = (mat @ z_full)[s] + vv[s] + y[0]
    return max(float(np.abs(r).max()), abs(float(y[1:].sum()) - 1.0))


def _drop_slot(inv, s, p):
    """Delete node slot p from the face: swap it into the last live slot of
    the inverse, then apply the rank-one deletion B - B[:,j] B[j,:] / B[j,j]
    to the leading block, in place.  Returns the face shortened by one."""
    k = s.size
    inv[[p + 1, k], :k + 1] = inv[[k, p + 1], :k + 1]
    inv[:k + 1, [p + 1, k]] = inv[:k + 1, [k, p + 1]]
    s[[p, k - 1]] = s[[k - 1, p]]
    live = inv[:k, :k]
    live -= np.outer(inv[:k, k], inv[k, :k] / inv[k, k])
    return s[:k - 1]


def _support_endpoint(mu):
    idx = np.flatnonzero(mu.weights > 0)
    if idx.size == 0:
        raise ValueError("measure has no positive weight")
    return float(mu.nodes[idx[-1]])


def _effective_potential(x, mu, cfg):
    """U(x) = -int [log|x-y| + log|g(x)-g(y)|] d(mu)(y) + V(x), the first
    variation of I at mu (unit coefficients: the 1/2 of the i < j pair sum
    cancels), on the cells of the solver's kernel (log_kernel_means).  Each
    row is reduced by itself, so U(x) does not depend on the batch.  At the
    minimizer U is constant on the support (the Frostman condition)."""
    x = np.asarray(x, dtype=float)
    means, means_g = with_image(
        lambda nodes, pts: log_kernel_means(voronoi_cell_edges(nodes), pts),
        cfg.g, mu.nodes, x)
    return ((means + means_g) * mu.weights).sum(axis=1) + np.asarray(cfg.v(x), dtype=float)


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

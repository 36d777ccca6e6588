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
(Saff & Totik, Logarithmic Potentials with External Fields, 1997).  They
form a linear complementarity problem, which the solver treats by block
principal pivoting (Judice & Pires, Comput. Oper. Res. 21(5), 1994; Kim &
Park, SIAM J. Sci. Comput. 33(6), 2011).  It keeps a partition of the
nodes into a free set F and a zero set.  F starts as the support of w0,
every node by default.  Each iteration solves the problem restricted to F
exactly, by one fresh factorization of the bordered system

    [0  1'  ] [-c]   [   1]
    [1  M_FF] [ z] = [-V_F],

which is nonsingular because M is positive definite on sum-zero vectors,
and forms the slack y = Mz + V - c off F.  An index is infeasible if z < 0
on F or y < -tol off F; when none is, the loop ends.  Otherwise every
infeasible index changes side (a full exchange) while their count falls.
Up to _FULL_EXCHANGES full exchanges that do not lower the count are
allowed; after that only the largest infeasible index changes side,
Murty's backup rule (Linear Complementarity, Linear and Nonlinear
Programming, 1988), which makes the method finite on strictly monotone
problems.  The acceptance grids take 8 or 9 face solves.

The weights returned are max(z, 0) of the last face solve rescaled to sum
1, whether the loop ended or max_iter face solves cut it, so off-support
weights are exact zeros.  Their KKT residual

    max( c - min_i d_i,  max_{i in support} |d_i - c| ),   c = sum w_i d_i,

with the support {w > 0}, decides converged (residual <= tol).  The
support's last node is the endpoint b_eq reported for the largest-particle
rate function J, whose additive constant is fixed by J(b_eq) = 0.
"""

from dataclasses import dataclass

import numpy as np

from . import special
# log_energy_grid is unused here but stays importable under this module,
# where perfbench/spans.py traces it
from .measures import (EmpiricalMeasure, GridMeasure, energy_kernel,  # noqa: F401
                       log_energy_grid, log_energy_offdiag, log_kernel_means,
                       voronoi_cell_edges, with_image)


@dataclass
class SolverReport:
    """Minimizer plus diagnostics.  iterations counts face solves.  The
    weights are those of the last face solve, clipped at 0 and rescaled,
    also when max_iter cut the solve; kkt_residual is measured on exactly
    these weights and converged is kkt_residual <= tol, so a capped solve
    reports converged=False with the residual it reached."""

    minimizer: GridMeasure
    objective: float
    kkt_residual: float
    b_eq: float
    kappa: float
    iterations: int
    converged: bool

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
# full exchanges that do not lower the infeasible count before the solve
# falls back to swapping one index (Murty's backup rule)
_FULL_EXCHANGES = 3


def make_grid(n, lo, hi, geo_fraction=0.25):
    """Solver grid of n strictly increasing nodes from lo to hi:
    geo_fraction of them (at most n - 2) spaced geometrically from lo up to
    min(0.1, hi/2), resolving the 1/(x log^2 x)-type blow-up near 0, and
    uniform spacing beyond.  Without room for both parts it is uniform."""
    if not 0 < lo < hi < np.inf:
        raise ValueError("need finite 0 < lo < hi")
    special.check_count("n", n, 2)
    split = min(_GEO_UNTIL, hi / 2)
    if lo >= split or geo_fraction <= 0 or n < 3:
        return np.linspace(lo, hi, n)
    n_geo = min(max(2, int(n * geo_fraction)), n - 2)
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
    """Block-principal-pivoting solve of the discrete rate functional, its
    partition started from the support of w0 (all nodes by default).

    Returns a SolverReport; converged=False (max_iter face solves without
    meeting tol) still carries max(z, 0) of the last face solve, rescaled,
    or the rescaled w0 (uniform by default) when max_iter is 0.
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
    free = w > 0
    fewest, spare = m + 1, _FULL_EXCHANGES
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        f = np.flatnonzero(free)
        a = np.ones((f.size + 1, f.size + 1))
        a[0, 0] = 0.0
        a[1:, 1:] = mat[np.ix_(f, f)]
        sol = np.linalg.solve(a, np.concatenate(([1.0], -vv[f])))
        z = np.zeros(m)
        z[f] = sol[1:]
        w = np.maximum(z, 0.0)
        w /= w.sum()
        y = mat[:, f] @ sol[1:] + vv + sol[0]
        bad = np.flatnonzero(np.where(free, z < 0, y < -tol))
        if bad.size == 0:
            break
        if bad.size < fewest:
            fewest, spare = bad.size, _FULL_EXCHANGES
        elif spare:
            spare -= 1
        else:
            bad = bad[-1:]          # Murty's backup rule
        free[bad] = ~free[bad]
    grad = mat @ w + vv
    kkt = _kkt(grad, w)
    minimizer = GridMeasure(nodes, w)
    b_eq = float(nodes[np.flatnonzero(w)[-1]])
    kappa = _effective_potential(np.array([b_eq]), minimizer, cfg)[0]
    return SolverReport(minimizer=minimizer, objective=0.5 * float(w @ (grad + vv)),
                        kkt_residual=kkt, b_eq=b_eq, kappa=kappa,
                        iterations=iterations, converged=kkt <= tol)


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


def rate_J_largest(x, report, cfg):
    """Largest-particle rate J(x) = U(x) - kappa under the solve's minimizer,
    for finite x >= b_eq; +inf below b_eq and at +inf, nan at nan.  b_eq and
    kappa = U(b_eq) are read from the SolverReport of minimize_I for cfg, so
    J(b_eq) = 0 exactly."""
    xs, back = special.elementwise(x, float)
    out = np.where(np.isnan(xs), np.nan, np.inf)
    ge = (xs >= report.b_eq) & (xs < np.inf)
    if ge.any():
        out[ge] = _effective_potential(xs[ge], report.minimizer, cfg) - report.kappa
    return back(out)


def rate_I_empirical(m, cfg):
    """Rate functional of an empirical measure via off-diagonal energies,
    that of the g-image read from the same with_image as the solver's."""
    if m.n and m.points[0] <= 0:
        raise ValueError("rate_I_empirical requires support in (0, inf)")
    e_x, e_g = with_image(lambda x: log_energy_offdiag(EmpiricalMeasure(x)),
                          cfg.g, m.points)
    return 0.5 * e_x + 0.5 * e_g + float(np.mean(cfg.v(m.points)))

"""Rate functional: discretization identities, solver, largest-particle rate."""

import math

import numpy as np
import pytest
import scipy.integrate

from biortho import acceptance, dh_law, equilibrium as eq
from biortho.gas_sampler import GasConfig, GFunction, Potential
from biortho.measures import (EmpiricalMeasure, GridMeasure,
                              log_energy_grid, w1_distance)


def dh_cfg():
    return GasConfig(2, GFunction("log"), Potential.linear(1.0), 1.0)


def id_cfg():
    return GasConfig(2, GFunction("identity"), Potential.linear(1.0), 1.0)


@pytest.fixture(scope="module")
def dh_report():
    """Shared moderate-resolution solve of the DH variational problem."""
    grid = eq.make_grid(200, 1e-4, 4.0)
    return eq.minimize_I(dh_cfg(), grid, tol=1e-4, max_iter=150_000)


class TestRateI:
    def test_identity_g_doubles_energy(self):
        rng = np.random.default_rng(0)
        nodes = np.sort(rng.uniform(0.5, 3.0, 40))
        w = rng.dirichlet(np.ones(40))
        m = GridMeasure(nodes, w)
        cfg = id_cfg()
        expected = log_energy_grid(m) + float(w @ cfg.v(nodes))
        assert eq.rate_I(m, cfg) == pytest.approx(expected, rel=1e-12)

    def test_constant_potential_shift(self):
        rng = np.random.default_rng(1)
        nodes = np.sort(rng.uniform(0.5, 3.0, 30))
        w = rng.dirichlet(np.ones(30))
        m = GridMeasure(nodes, w)
        base = GasConfig(2, GFunction("log"), Potential.polynomial([0.0, 1.0]), 1.0)
        shifted = GasConfig(2, GFunction("log"),
                            Potential.polynomial([2.5, 1.0]), 1.0)
        assert eq.rate_I(m, shifted) == pytest.approx(eq.rate_I(m, base) + 2.5,
                                                      rel=1e-12)

    def test_two_node_hand_value(self):
        # all weight on node 1 of [1, 1 + 2h], whose Voronoi cell has width h;
        # with identity g the two energy halves coincide
        h = 0.3
        m = GridMeasure([1.0, 1.0 + 2.0 * h], [1.0, 0.0])
        val = eq.rate_I(m, id_cfg())
        assert val == pytest.approx((-np.log(h) + 1.5) + 1.0, rel=1e-12)

    def test_domain(self):
        m = GridMeasure([-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            eq.rate_I(m, dh_cfg())
        with pytest.raises(ValueError):          # one node, no Voronoi width
            eq.rate_I(GridMeasure([1.0], [1.0]), id_cfg())


class TestGradientAndConvexity:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        nodes = eq.make_grid(60, 1e-3, 4.0)
        mat, vv = eq._quadratic_model(nodes, dh_cfg())
        for _ in range(10):
            w = rng.dirichlet(np.ones(60))
            grad = mat @ w + vv
            h = 1e-6
            for idx in rng.choice(60, 4, replace=False):
                wp, wm = w.copy(), w.copy()
                wp[idx] += h
                wm[idx] -= h
                fp = 0.5 * wp @ (mat @ wp) + vv @ wp
                fm = 0.5 * wm @ (mat @ wm) + vv @ wm
                fd = (fp - fm) / (2 * h)
                assert abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(grad[idx]))

    def test_convex_along_segments(self):
        rng = np.random.default_rng(3)
        nodes = eq.make_grid(100, 1e-3, 4.0)
        cfg = dh_cfg()
        for _ in range(30):
            wa = rng.dirichlet(np.ones(100))
            wb = rng.dirichlet(np.ones(100))
            ia = eq.rate_I(GridMeasure(nodes, wa), cfg)
            ib = eq.rate_I(GridMeasure(nodes, wb), cfg)
            im = eq.rate_I(GridMeasure(nodes, 0.5 * (wa + wb)), cfg)
            assert im <= 0.5 * (ia + ib) + 1e-10


class TestKkt:
    def test_minimizer_below_tolerance(self, dh_report):
        assert dh_report.converged
        assert dh_report.kkt_residual <= 1e-4
        assert eq.kkt_residual(dh_report.minimizer, dh_cfg()) <= 2e-4

    def test_uniform_weights_far_from_optimal(self):
        nodes = eq.make_grid(100, 1e-3, 4.0)
        m = GridMeasure(nodes, np.full(100, 0.01))
        assert eq.kkt_residual(m, dh_cfg()) > 0.01

    def test_perturbation_raises_objective(self, dh_report):
        # moving 1% of the mass off the minimizer must not lower the value
        rng = np.random.default_rng(4)
        mu = dh_report.minimizer
        base = eq.rate_I(mu, dh_cfg())
        for _ in range(5):
            w = mu.weights.copy()
            i, j = rng.choice(np.nonzero(w > 1e-3)[0], 2, replace=False)
            shift = 0.01 * w[i]
            w[i] -= shift
            w[j] += shift
            assert eq.rate_I(GridMeasure(mu.nodes, w), dh_cfg()) >= base - 1e-12


class TestMinimize:
    def test_failure_report_on_iteration_cap(self):
        # 7 face solves reach tol on this grid; the capped report still
        # holds a probability vector and the KKT residual of exactly it
        grid = eq.make_grid(100, 1e-4, 4.0)
        rep = eq.minimize_I(dh_cfg(), grid, tol=1e-12, max_iter=5)
        assert not rep.converged
        assert rep.iterations == 5
        w = rep.minimizer.weights
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert rep.kkt_residual == eq.kkt_residual(rep.minimizer, dh_cfg())

    def test_exact_zeros_off_support(self, dh_report):
        w = dh_report.minimizer.weights
        support = np.flatnonzero(w > 0)
        assert 0 < support.size < w.size
        assert np.all(w[w <= 0] == 0.0)
        assert dh_report.b_eq == dh_report.minimizer.nodes[support[-1]]

    def test_kkt_exact_on_criterion_5_grid(self):
        rep = acceptance._dh_equilibrium()
        assert rep.converged
        assert rep.kkt_residual <= 1e-12
        assert eq.kkt_residual(rep.minimizer, dh_cfg()) <= 1e-12

    def test_work_counts_pinned(self):
        # face solves, support and b_eq of the acceptance grids from the
        # full starting partition; b_eq is bit-equal to the one-node-at-a-time
        # active-set solve this loop replaced
        for solve, iterations, last, m, b_eq in (
                (acceptance._dh_equilibrium, 8, 303, 400, "0x1.5fb8c3e549760p+1"),
                (acceptance._id_equilibrium, 9, 297, 400, "0x1.fe5f8cedad76bp+1"),
                (acceptance._dh_equilibrium_deep, 9, 501, 600, "0x1.5c61f2a4bafdcp+1")):
            rep = solve()
            assert rep.converged and rep.iterations == iterations
            w = rep.minimizer.weights
            assert w.size == m
            np.testing.assert_array_equal(np.flatnonzero(w), np.arange(last + 1))
            assert rep.b_eq == float.fromhex(b_eq)
            assert rep.kkt_residual <= 1e-12

    def test_support_grows_from_few_nodes(self):
        # w0 on three nodes: the starting partition must take in nodes and
        # land on the cold-start minimizer
        grid = eq.make_grid(100, 1e-4, 4.0)
        cold = eq.minimize_I(dh_cfg(), grid, tol=1e-12)
        w0 = np.zeros(100)
        w0[[20, 50, 75]] = 1.0
        warm = eq.minimize_I(dh_cfg(), grid, tol=1e-12, w0=w0)
        assert warm.converged
        assert np.count_nonzero(warm.minimizer.weights) > 3
        assert warm.kkt_residual <= 1e-12
        assert eq.kkt_residual(warm.minimizer, dh_cfg()) <= 1e-12
        assert w1_distance(cold.minimizer, warm.minimizer) <= 1e-12

    def test_backup_rule_reaches_minimizer(self, monkeypatch):
        # with no non-improving full exchange allowed, the third face solve
        # from one node leaves two infeasible indices, as many as the
        # second: the backup rule swaps only the larger of them.  Swapping
        # both would reach the minimizer in 6 face solves, not 7.
        grid = eq.make_grid(150, 1e-2, 3.0)
        cold = eq.minimize_I(dh_cfg(), grid, tol=1e-12)
        monkeypatch.setattr(eq, "_FULL_EXCHANGES", 0)
        w0 = np.zeros(150)
        w0[75] = 1.0
        rep = eq.minimize_I(dh_cfg(), grid, tol=1e-12, w0=w0)
        assert rep.converged and rep.iterations == 7
        assert w1_distance(cold.minimizer, rep.minimizer) <= 1e-13

    def test_objective_matches_slsqp(self):
        optimize = pytest.importorskip("scipy.optimize")
        grid = eq.make_grid(20, 1e-3, 4.0)
        mat, vv = eq._quadratic_model(grid, dh_cfg())
        rep = eq.minimize_I(dh_cfg(), grid, tol=1e-12)
        ref = optimize.minimize(
            lambda w: 0.5 * w @ mat @ w + vv @ w, np.full(20, 0.05),
            jac=lambda w: mat @ w + vv, method="SLSQP", bounds=[(0, 1)] * 20,
            constraints={"type": "eq", "fun": lambda w: w.sum() - 1.0},
            options={"ftol": 1e-14, "maxiter": 1000})
        assert ref.success
        assert rep.converged
        assert rep.objective == pytest.approx(ref.fun, abs=1e-8)

    def test_grid_doubling_self_consistency(self, dh_report):
        grid2 = eq.make_grid(400, 1e-4, 4.0)
        rep2 = eq.minimize_I(dh_cfg(), grid2, tol=1e-4, max_iter=200_000)
        assert w1_distance(dh_report.minimizer, rep2.minimizer) <= 0.01

    def test_two_initializations_agree(self):
        grid = eq.make_grid(150, 1e-4, 4.0)
        r1 = eq.minimize_I(dh_cfg(), grid, tol=1e-5, max_iter=150_000)
        mids = np.concatenate([[grid[0]], 0.5 * (grid[1:] + grid[:-1]), [grid[-1]]])
        h = np.diff(mids)
        w0 = (grid / 4.0) * (1 - grid / 4.0) ** 3 * h
        r2 = eq.minimize_I(dh_cfg(), grid, tol=1e-5, max_iter=150_000,
                           w0=w0 / w0.sum())
        assert w1_distance(r1.minimizer, r2.minimizer) <= 1e-3

    def test_dh_minimizer_near_law(self, dh_report):
        law = dh_law.DHLaw()
        target = EmpiricalMeasure(law.quantile((np.arange(1500) + 0.5) / 1500))
        assert w1_distance(dh_report.minimizer, target) <= 0.03
        assert abs(dh_report.b_eq - np.e) <= 0.06

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.minimize_I(dh_cfg(), eq.make_grid(50, 1e-3, 4.0), tol=-1.0)
        with pytest.raises(ValueError):
            eq.minimize_I(dh_cfg(), eq.make_grid(50, 1e-3, 4.0), tol=np.nan)
        with pytest.raises(ValueError):
            eq.minimize_I(dh_cfg(), np.array([-1.0, 2.0]), tol=1e-4)
        with pytest.raises(ValueError):
            eq.minimize_I(dh_cfg(), eq.make_grid(50, 1e-3, 4.0), w0=np.zeros(50))


class TestRateJ:
    def test_zero_at_support_endpoint(self, dh_report):
        cfg = dh_cfg()
        assert eq.rate_J_largest(dh_report.b_eq, dh_report, cfg) == 0.0

    def test_infinite_below(self, dh_report):
        cfg = dh_cfg()
        assert np.isinf(eq.rate_J_largest(0.5 * dh_report.b_eq, dh_report, cfg))

    def test_non_finite_x(self, dh_report):
        cfg = dh_cfg()
        js = eq.rate_J_largest(np.array([np.nan, np.inf, -np.inf, dh_report.b_eq]),
                               dh_report, cfg)
        assert np.isnan(js[0]) and js[1] == np.inf and js[2] == np.inf and js[3] == 0.0
        assert np.isnan(eq.rate_J_largest(np.nan, dh_report, cfg))

    def test_small_near_e_and_increasing(self, dh_report):
        # the discrete support endpoint lands a node spacing or two above e,
        # so the rate is evaluated from b_eq on; there it starts at exactly 0
        cfg = dh_cfg()
        x_e = max(np.e, dh_report.b_eq)
        assert abs(eq.rate_J_largest(x_e, dh_report, cfg)) <= 0.02
        xs = np.linspace(dh_report.b_eq, 3 * np.e, 20)
        js = eq.rate_J_largest(xs, dh_report, cfg)
        assert np.all(np.isfinite(js))
        assert np.all(np.diff(js) > 0)

    def test_kappa_matches_report(self, dh_report):
        # kappa is the effective potential at b_eq, fixed by J(b_eq) = 0
        cfg = dh_cfg()
        u = eq._effective_potential(np.array([dh_report.b_eq]),
                                    dh_report.minimizer, cfg)[0]
        assert dh_report.kappa == pytest.approx(u, rel=1e-12)

    def test_frostman_flat_on_support(self):
        # U is the first variation of I, so at the minimizer it is constant
        # on the support.  The criterion-5 minimizer reads a spread of 0.0027
        # over its 302 interior support nodes, the largest deviation at the
        # seam of the geometric and uniform parts of the grid (x = 0.1);
        # 0.02 bounds that resolution effect.  Half the potential spreads by
        # 1.37 on the same nodes.
        rep = acceptance._dh_equilibrium()
        idx = np.flatnonzero(rep.minimizer.weights > 0)
        u = eq._effective_potential(rep.minimizer.nodes[idx[1:-1]],
                                    rep.minimizer, dh_cfg())
        assert np.ptp(u) <= 0.02

    def test_no_lower_potential_off_support(self):
        # a node off the support would lower the objective if U were below
        # kappa = U(b_eq) there; the criterion-5 grid reads a margin of 3.3e-4
        rep = acceptance._dh_equilibrium()
        off = rep.minimizer.nodes[rep.minimizer.weights == 0]
        u = eq._effective_potential(off, rep.minimizer, dh_cfg())
        assert np.all(u >= rep.kappa)


def mp_cdf(x):
    """Marchenko-Pastur MP(1) CDF [sqrt(x(4 - x)) + 4 arcsin(sqrt(x)/2)]/(2 pi)."""
    x = np.clip(x, 0.0, 4.0)
    return (np.sqrt(x * (4.0 - x)) + 4.0 * np.arcsin(np.sqrt(x) / 2.0)) / (2.0 * np.pi)


def mp_cdf_integral(x):
    """int_0^x of mp_cdf, in closed form (3 at x = 4, slope 1 beyond)."""
    t = np.clip(x, 0.0, 4.0)
    r = np.sqrt(t * (4.0 - t))
    inner = (0.5 * (t + 2.0) * r + 2.0 * np.arcsin(0.5 * (t - 2.0))
             + 4.0 * (t - 2.0) * np.arcsin(0.5 * np.sqrt(t)) + np.pi)
    return inner / (2.0 * np.pi) + np.maximum(x - 4.0, 0.0)


def w1_to_mp(mu):
    """Exact W1 = int |F_mu - F| against MP(1): on each gap [a, b] between
    atoms F_mu is a constant c, F crosses c once at x* (bisection), and
    int |c - F| is two differences of mp_cdf_integral."""
    nodes, w = mu.nodes, mu.weights
    a = np.concatenate([[0.0], nodes])
    b = np.concatenate([nodes, [max(4.0, nodes[-1])]])
    c = np.minimum(np.concatenate([[0.0], np.cumsum(w)]), 1.0)
    lo, hi = a.copy(), b.copy()
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = mp_cdf(mid) < c
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    xs, phi = 0.5 * (lo + hi), mp_cdf_integral
    return float(np.sum(c * (xs - a) - (phi(xs) - phi(a))
                        + (phi(b) - phi(xs)) - c * (b - xs)))


class TestTheta1Exact:
    """At g = identity, V(x) = x, b = 1 the equilibrium is Marchenko-Pastur
    MP(1): b_eq = 4, kappa = 2 (int log y dMP = -1), I_min = 3/2, and
    J(x) = sqrt(x(x - 4)) - 4 log((sqrt(x) + sqrt(x - 4))/2) from
    U'(x) = sqrt((x - 4)/x).  The criterion-6 solve (400 nodes on [1e-4, 6],
    tol 1e-4) reads the errors in the comments; with the point kernel
    between nodes they were 2.2e-3 (J), -1.9e-3 (objective) and -2.5e-3
    (kappa).  The half-coefficient potential fails the J and kappa tests."""

    def test_rate_j_closed_form(self):
        # max error 5.6e-5 over these points; bound 2e-4 (3.5x margin)
        rep = acceptance._id_equilibrium()
        xs = np.array([4.5, 5.0, 6.0, 8.0, 12.0])
        exact = np.sqrt(xs * (xs - 4.0)) - 4.0 * np.log(
            (np.sqrt(xs) + np.sqrt(xs - 4.0)) / 2.0)
        js = eq.rate_J_largest(xs, rep, id_cfg())
        assert np.max(np.abs(js - exact)) <= 2e-4

    def test_kappa_and_objective(self):
        # kappa - 2 = +7.0e-5 and objective - 3/2 = +4.9e-5; bounds 2e-4
        rep = acceptance._id_equilibrium()
        assert abs(rep.kappa - 2.0) <= 2e-4
        assert abs(rep.objective - 1.5) <= 2e-4

    def test_support_end_and_w1(self):
        # b_eq reads 3.9873, inside one grid spacing (0.0197) of 4; W1 to
        # MP reads 0.00406 (0.00426 with the point kernel), first order in
        # the spacing; bound 0.005 (23% margin)
        rep = acceptance._id_equilibrium()
        assert abs(rep.b_eq - 4.0) <= 0.0197
        assert w1_to_mp(rep.minimizer) <= 0.005

    def test_w1_to_mp_reference(self):
        # the exact W1 helper against a trapezoid rule on a 1e-5 grid
        nodes = np.array([0.5, 1.0, 2.5, 3.5])
        mu = GridMeasure(nodes, np.array([0.2, 0.3, 0.4, 0.1]))
        x = np.linspace(0.0, 4.0, 400_001)
        f_mu = np.concatenate([[0.0], np.cumsum(mu.weights)])[
            np.searchsorted(nodes, x, side="right")]
        brute = np.trapezoid(np.abs(f_mu - mp_cdf(x)), x)
        assert w1_to_mp(mu) == pytest.approx(brute, abs=1e-5)


class TestRateIEmpirical:
    def test_hand_value(self):
        m = EmpiricalMeasure([1.0, 2.0])
        assert eq.rate_I_empirical(m, id_cfg()) == pytest.approx(1.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.2, 3.0, 12)
        a = eq.rate_I_empirical(EmpiricalMeasure(pts), dh_cfg())
        b = eq.rate_I_empirical(EmpiricalMeasure(pts[rng.permutation(12)]), dh_cfg())
        assert a == pytest.approx(b, abs=1e-12)

    def test_coincidence_rejected(self):
        with pytest.raises(ValueError):
            eq.rate_I_empirical(EmpiricalMeasure([1.0, 1.0, 2.0]), dh_cfg())

    def test_domain(self):
        with pytest.raises(ValueError):
            eq.rate_I_empirical(EmpiricalMeasure([-1.0, 1.0]), id_cfg())


@pytest.mark.parametrize("cfg,builds", [(id_cfg(), 1), (dh_cfg(), 2)])
def test_quadratic_model_reuses_unchanged_image(monkeypatch, cfg, builds):
    # g = identity leaves the nodes unchanged, so one kernel serves both terms
    calls, kernel = [], eq.energy_kernel

    def counted(nodes):
        calls.append(nodes)
        return kernel(nodes)

    monkeypatch.setattr(eq, "energy_kernel", counted)
    nodes = eq.make_grid(40, 1e-3, 4.0)
    mat, _ = eq._quadratic_model(nodes, cfg)
    assert len(calls) == builds
    assert np.array_equal(mat, kernel(nodes) + kernel(cfg.g(nodes)))


@pytest.mark.parametrize("lo,hi", [(0.0, 4.0), (2.0, 1.0), (1e-4, np.inf),
                                   (np.nan, 4.0), (1e-4, np.nan)])
def test_make_grid_rejects_bad_domain(lo, hi):
    with pytest.raises(ValueError):
        eq.make_grid(50, lo, hi)


@pytest.mark.parametrize("n,lo,hi,geo_fraction", [
    (2, 1e-4, 4.0, 0.25), (3, 1e-4, 4.0, 0.25), (4, 1e-4, 4.0, 0.25),
    (100, 1e-4, 4.0, 1.0), (100, 1e-4, 4.0, 0.995), (100, 1e-4, 4.0, 0.0),
    (400, 0.05, 0.08, 0.25), (5, 0.05, 0.08, 1.0), (50, 0.5, 2.0, 0.25),
    (400, 1e-4, 4.0, 0.25), (600, 1e-8, 4.0, 0.5), (400, 1e-300, 4.0, 0.7)])
def test_make_grid_runs_from_lo_to_hi(n, lo, hi, geo_fraction):
    g = eq.make_grid(n, lo, hi, geo_fraction=geo_fraction)
    assert g.size == n and g[0] == lo and g[-1] == hi
    assert np.all(np.diff(g) > 0)


def test_make_grid_shape():
    g = eq.make_grid(100, 1e-4, 4.0)
    assert g.size == 100
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(4.0)
    u = eq.make_grid(50, 0.5, 2.0)
    assert np.allclose(np.diff(u), np.diff(u)[0])


def log_partition(n, theta, b=1.0, scaled=True):
    """log Z_n for g = x^theta, V = x and weight x^(b-1): Andreief's identity
    and a Vandermonde in a_k = b + theta*k give
    Z_n = n! theta^(n(n-1)/2) prod_{k<n} k! Gamma(b + theta*k).  The scaling
    x = n*y divides Z_n by n^((1+theta)n(n-1)/2 + nb).  By the paper's LDP
    at speed n^2, -(1/n^2) log Z_n(scaled) tends to I_min(theta), the
    minimum of the rate function (Laplace principle)."""
    log_z = math.lgamma(n + 1) + n * (n - 1) / 2 * math.log(theta)
    log_z += sum(math.lgamma(k + 1) + math.lgamma(b + theta * k) for k in range(n))
    if scaled:
        log_z -= ((1 + theta) * n * (n - 1) / 2 + n * b) * math.log(n)
    return log_z


def i_min(theta):
    """Stirling on log_partition's limit: 3(1+t)/4 - ((1+t)/2) log t."""
    return 0.75 * (1 + theta) - 0.5 * (1 + theta) * math.log(theta)


def kappa_exact(theta):
    """I_min = (kappa + int V dmu)/2 with the mean (1 + theta)/2."""
    return (1 + theta) * (1 - math.log(theta))


class TestPowerFamilyExact:
    """The x^theta family against its closed-form I_min and kappa; the limit
    rests on the paper's LDP (see log_partition)."""

    # theta, domain top, |objective - I_min| and |kappa - kappa(theta)| bounds:
    # 2x the measured -1.70e-5 / -8.40e-5 / -1.88e-4 and -4.27e-5 / -5.26e-5 /
    # -1.14e-4 at 800 nodes on [1e-8, hi], geo_fraction 0.5, tol 1e-7
    @pytest.mark.parametrize("theta,hi,obj_tol,kappa_tol", [
        (0.5, 4.5, 3.4e-5, 8.54e-5), (2.0, 6.0, 1.68e-4, 1.052e-4),
        (3.0, 7.0, 3.76e-4, 2.28e-4)])
    def test_solver_objective_and_kappa(self, theta, hi, obj_tol, kappa_tol):
        cfg = GasConfig(2, GFunction("power", theta), Potential.linear(1.0))
        rep = eq.minimize_I(cfg, eq.make_grid(800, 1e-8, hi, geo_fraction=0.5), tol=1e-7)
        assert rep.converged
        assert abs(rep.objective - i_min(theta)) <= obj_tol
        assert abs(rep.kappa - kappa_exact(theta)) <= kappa_tol

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 3.0])
    def test_partition_function_limit(self, theta):
        # reads 0.94e-3 to 1.00e-3 below I_min at n = 10^4
        n = 10 ** 4
        assert abs(-log_partition(n, theta) / n ** 2 - i_min(theta)) <= 1.5e-3

    @pytest.mark.parametrize("theta,z2", [(1.0, 2.0), (2.0, 8.0)])
    def test_two_particle_partition_function(self, theta, z2):
        # Z_2 = int int |x - y| |x^t - y^t| e^(-x-y), twice the y < x half
        direct = 2.0 * scipy.integrate.dblquad(
            lambda y, x: (x - y) * (x ** theta - y ** theta) * np.exp(-x - y),
            0.0, np.inf, 0.0, lambda x: x)[0]
        assert math.exp(log_partition(2, theta, scaled=False)) == pytest.approx(z2, rel=1e-12)
        assert direct == pytest.approx(z2, rel=1e-8)


def test_dh_largest_particle_rate_exact():
    """Above the edge, J_DH(x) = U(x) - 1 with U the DH law's logarithmic
    potential, U(x) = x - int log(x - y) dmu - int log(log x - log y) dmu; the
    law's 200-node Fejer rule in delta (DHLaw._moment_rule) reads the mpmath
    references within 1.9e-6.  The criterion-5 solve reads 0.0055 to 0.0220
    below them: its grid floor 1e-4 drops mass the limit law keeps."""
    log_y, w = dh_law.DHLaw()._moment_rule
    xs = np.array([2.8, 3.0, 3.5, 4.0])
    x = xs[:, None]
    j_dh = xs - 1.0 - np.sum(w * (np.log(x - np.exp(log_y)) + np.log(np.log(x) - log_y)),
                             axis=1)
    assert np.max(np.abs(j_dh - [0.009737, 0.060959, 0.267879, 0.537668])) <= 5e-6
    gap = j_dh - eq.rate_J_largest(xs, acceptance._dh_equilibrium(), dh_cfg())
    assert np.all(gap > 0) and np.all(gap <= 0.03)

"""Measure containers, distances, energies, pair kernel."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from biortho import equilibrium, measures as mm, proof_lab
from biortho.gas_sampler import GasConfig, GFunction, Potential


def em(*pts):
    return mm.EmpiricalMeasure(np.asarray(pts, dtype=float))


def bl_lp(a, b):
    """Reference d_BL: the same maximization as a sparse LP (HiGHS), its f
    clipped to [-1, 1] and clamped forward along the sorted support, which
    makes it exactly feasible, the LP's own being so only to ~1e-9."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    xa, wa = mm.support_and_weights(a)
    xb, wb = mm.support_and_weights(b)
    xs, inv = np.unique(np.concatenate([xa, xb]), return_inverse=True)
    delta = np.bincount(inv, weights=np.concatenate([wa, -wb]),
                        minlength=xs.size)
    if xs.size == 1:
        return float(abs(delta[0]))
    gaps = np.diff(xs)
    d = sparse.diags([-np.ones(xs.size - 1), np.ones(xs.size - 1)], [0, 1],
                     shape=(xs.size - 1, xs.size), format="csr")
    res = optimize.linprog(c=-delta, A_ub=sparse.vstack([d, -d], format="csr"),
                           b_ub=np.concatenate([gaps, gaps]),
                           bounds=(-1.0, 1.0), method="highs")
    assert res.success, res.message
    f = np.clip(res.x, -1.0, 1.0).tolist()
    for i, h in enumerate(gaps.tolist()):
        f[i + 1] = min(max(f[i + 1], f[i] - h), f[i] + h)
    return max(float(np.dot(f, delta)), 0.0)


def w1_potential_range(a, b):
    """max - min of the W1 maximizer, the running sum of -sign(F_a - F_b)
    over the support gaps; d_BL = W1 exactly when it is at most 2."""
    xa, wa = mm.support_and_weights(a)
    xb, wb = mm.support_and_weights(b)
    x = np.concatenate([xa, xb])
    order = np.argsort(x, kind="stable")
    cdf_gap = np.cumsum(np.concatenate([wa, -wb])[order])[:-1]
    f = np.cumsum(np.concatenate([[0.0], -np.sign(cdf_gap) * np.diff(x[order])]))
    return float(f.max() - f.min())


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestContainers:
    def test_empirical_sorts(self):
        m = em(3.0, 1.0, 2.0)
        assert np.array_equal(m.points, [1.0, 2.0, 3.0])
        assert np.allclose(m.weights(), 1.0 / 3.0)

    def test_empirical_rejects_nan(self):
        with pytest.raises(ValueError):
            em(1.0, np.nan)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mm.GridMeasure([1.0, 1.0], [0.5, 0.5])      # not strictly increasing
        with pytest.raises(ValueError):
            mm.GridMeasure([1.0, 2.0], [0.7, 0.7])      # sum != 1
        with pytest.raises(ValueError):
            mm.GridMeasure([1.0, 2.0], [-0.1, 1.1])     # negative weight
        g = mm.GridMeasure([1.0, 2.0], [0.25, 0.75])
        assert g.n == 2


class TestW1:
    def test_identical(self):
        assert mm.w1_distance(em(1.0, 2.0), em(1.0, 2.0)) == 0.0

    def test_point_masses(self):
        assert mm.w1_distance(em(0.0), em(1.0)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert mm.w1_distance(em(0.0, 1.0), em(0.5)) == pytest.approx(0.5)

    def test_vs_scipy(self, rng):
        for _ in range(50):
            a = rng.normal(size=rng.integers(1, 40))
            b = rng.normal(size=rng.integers(1, 40))
            ours = mm.w1_distance(mm.EmpiricalMeasure(a), mm.EmpiricalMeasure(b))
            assert ours == pytest.approx(wasserstein_distance(a, b), abs=1e-12)

    def test_weighted(self, rng):
        g = mm.GridMeasure([0.0, 1.0], [0.5, 0.5])
        assert mm.w1_distance(g, em(0.5)) == pytest.approx(0.5)

    @pytest.mark.parametrize("distance", [mm.w1_distance, mm.bl_distance])
    def test_empty_measure_rejected(self, distance):
        with pytest.raises(ValueError, match="^empty measure"):
            distance(em(), em(1.0))
        with pytest.raises(ValueError, match="^empty measure"):
            distance(em(1.0), em())


class TestBoundedLipschitz:
    def test_identical(self):
        assert mm.bl_distance(em(1.0), em(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_far_atoms_capped(self):
        # LP dual by hand: min(t, 2) at separation t = 5
        assert mm.bl_distance(em(0.0), em(5.0)) == pytest.approx(2.0, abs=1e-9)

    def test_near_atoms_linear(self):
        assert mm.bl_distance(em(0.0), em(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_dominated_by_w1_and_2(self, rng):
        for _ in range(100):
            a = mm.EmpiricalMeasure(rng.normal(size=rng.integers(1, 25)) * 3)
            b = mm.EmpiricalMeasure(rng.normal(size=rng.integers(1, 25)) * 3)
            bl = mm.bl_distance(a, b)
            w1 = mm.w1_distance(a, b)
            assert bl <= min(w1, 2.0) + 1e-9

    def test_metric_axioms(self, rng):
        for _ in range(25):
            triple = [mm.EmpiricalMeasure(rng.normal(size=6)) for _ in range(3)]
            a, b, c = triple
            for dist in (mm.bl_distance, mm.w1_distance):
                assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-10)
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10

    def test_matches_lp(self, rng):
        for k in range(240):
            scale = 10.0 ** rng.uniform(-3.0, np.log10(30.0))
            xa = rng.random(rng.integers(1, 30)) * scale
            xb = rng.random(rng.integers(1, 30)) * scale
            if k % 3 == 0:                      # shared atoms
                xb = np.concatenate([xb, xa[: rng.integers(1, xa.size + 1)]])
            a = mm.EmpiricalMeasure(xa)
            if k % 2:
                nodes = np.unique(xa)
                a = mm.GridMeasure(nodes, rng.dirichlet(np.ones(nodes.size)))
            b = mm.EmpiricalMeasure(xb)
            assert abs(mm.bl_distance(a, b) - bl_lp(a, b)) <= 1e-12

    def test_w1_when_potential_fits(self):
        # atoms alternately 0.4 left and right of the integers 0..9 zigzag
        # the W1 potential within 0.4 over a support of span 9.8
        k = np.arange(10.0)
        a = mm.EmpiricalMeasure(k)
        b = mm.EmpiricalMeasure(k + 0.4 * (-1.0) ** k)
        assert np.ptp(np.concatenate([a.points, b.points])) > 2.0
        assert w1_potential_range(a, b) <= 2.0
        bl = mm.bl_distance(a, b)
        assert bl == mm.w1_distance(a, b)
        assert abs(bl - bl_lp(a, b)) <= 1e-12

    def test_bound_binding_matches_lp(self, rng):
        # only cases whose W1 potential oscillates by more than 2, where
        # |f| <= 1 binds and the dynamic program answers
        checked = 0
        for k in range(200):
            scale = 10.0 ** rng.uniform(0.0, np.log10(30.0))
            xa = rng.random(rng.integers(1, 30)) * scale
            xb = rng.random(rng.integers(1, 30)) * scale + rng.uniform(-1.0, 1.0)
            if k % 3 == 0:                      # shared atoms
                xb = np.concatenate([xb, xa[: rng.integers(1, xa.size + 1)]])
            a = mm.EmpiricalMeasure(xa)
            if k % 2:
                nodes = np.unique(xa)
                a = mm.GridMeasure(nodes, rng.dirichlet(np.ones(nodes.size)))
            b = mm.EmpiricalMeasure(xb)
            if w1_potential_range(a, b) <= 2.0:
                continue
            checked += 1
            assert abs(mm.bl_distance(a, b) - bl_lp(a, b)) <= 1e-12
        assert checked >= 100

    def test_criterion_7_configuration_matches_lp(self):
        sigma = proof_lab.uniform_nice(1.0, 2.0)
        grid = proof_lab.build_quantile_grid(sigma, 100)
        m = 10_000
        a = mm.EmpiricalMeasure(0.5 * (grid.c + grid.d))
        b = mm.EmpiricalMeasure(sigma.quantile((np.arange(m) + 0.5) / m))
        assert abs(mm.bl_distance(a, b) - bl_lp(a, b)) <= 1e-12


class TestEnergies:
    def test_offdiag_trivial(self):
        assert mm.log_energy_offdiag(em(0.0, 1.0)) == 0.0
        assert mm.log_energy_offdiag(em(0.0, 2.0)) == pytest.approx(-np.log(2) / 2)

    def test_offdiag_uniform_limit(self):
        for n, tol in ((100, 0.12), (1000, 0.02)):
            e = mm.log_energy_offdiag(mm.EmpiricalMeasure(np.linspace(0, 1, n)))
            assert abs(e - 1.5) < tol

    def test_offdiag_coincidence(self):
        with pytest.raises(ValueError):
            mm.log_energy_offdiag(em(1.0, 1.0))

    def test_grid_single_node(self):
        # one node has no neighbour to give it a Voronoi cell width
        with pytest.raises(ValueError):
            mm.log_energy_grid(mm.GridMeasure([1.0], [1.0]))

    def test_grid_two_node_hand_value(self):
        # nodes 1 and 1 + 2h: both Voronoi cells have width h and share an
        # edge; the mean of -log|x - y| over two adjacent width-h cells is
        # -log h + 3/2 - 2 log 2
        for h in (0.1, 0.5, 2.0):
            x = [1.0, 1.0 + 2.0 * h]
            assert mm.log_energy_grid(mm.GridMeasure(x, [1.0, 0.0])) == \
                pytest.approx(-np.log(h) + 1.5, rel=1e-12)
            w1, w2 = 0.3, 0.7
            expected = ((w1 ** 2 + w2 ** 2) * (-np.log(h) + 1.5)
                        + 2 * w1 * w2 * (-np.log(h) + 1.5 - 2 * np.log(2)))
            assert mm.log_energy_grid(mm.GridMeasure(x, [w1, w2])) == \
                pytest.approx(expected, rel=1e-12)

    def test_grid_uniform_law(self):
        n = 1000
        g = mm.GridMeasure(np.linspace(0, 1, n), np.full(n, 1.0 / n))
        assert abs(mm.log_energy_grid(g) - 1.5) < 0.01

    def test_grid_translation_invariant(self):
        n = 200
        w = np.full(n, 1.0 / n)
        x = np.linspace(0.3, 1.7, n)
        e1 = mm.log_energy_grid(mm.GridMeasure(x, w))
        e2 = mm.log_energy_grid(mm.GridMeasure(x + 11.0, w))
        assert e1 == pytest.approx(e2, abs=1e-9)

    def test_splitting_point_mass_decreases_energy(self, rng):
        # a point mass split half-and-half onto its (empty) neighbours
        for _ in range(100):
            n = int(rng.integers(5, 30))
            x = np.cumsum(rng.uniform(0.5, 1.5, n))
            j = int(rng.integers(1, n - 1))
            w_atom = np.zeros(n)
            w_atom[j] = 1.0
            w_split = np.zeros(n)
            w_split[j - 1] = w_split[j + 1] = 0.5
            e_atom = mm.log_energy_grid(mm.GridMeasure(x, w_atom))
            e_split = mm.log_energy_grid(mm.GridMeasure(x, w_split))
            assert e_split < e_atom


def _log_antiderivs(u):
    """G(u) = u log|u| - u and F(u) = u^2 (2 log|u| - 3)/4 in Decimal,
    G' = log|u| and F' = G, both 0 at 0."""
    if u == 0:
        return Decimal(0), Decimal(0)
    log = abs(u).ln()
    return u * log - u, u * u * (2 * log - 3) / 4


def _assert_cell_pairs_match_decimal(nodes, pairs):
    """energy_kernel at the cell pairs (i, j) against the second difference
    of F over the Voronoi cells, at 700 digits: at 50 the reference itself
    cancels once cells are as narrow as 1e-200."""
    kern = mm.energy_kernel(nodes)
    with localcontext() as ctx:
        ctx.prec = 700
        # Voronoi cells: midpoints, half cells ending on the end nodes
        e = [Decimal(float(v)) for v in
             np.concatenate([nodes[:1], 0.5 * (nodes[1:] + nodes[:-1]), nodes[-1:]])]
        for i, j in pairs:
            p, q = e[i + 1] - e[i], e[j + 1] - e[j]
            f = [_log_antiderivs(e[j + b] - e[i + a])[1]
                 for a in (0, 1) for b in (0, 1)]
            exact = float((f[0] - f[1] - f[2] + f[3]) / (p * q))
            assert abs(kern[i, j] - exact) <= 1e-12 * max(1.0, abs(exact))


class TestCellKernel:
    """log_kernel_means against the same cell integrals in stdlib decimal
    on criterion 9's deep grid, [1e-8, 4] with 600 nodes, geometric below
    0.1 for half of them, and on grids whose floors put products of two
    cell widths below the smallest double.  The plain four-term difference
    of F in floats is off by 4.6e-4 relative at the first x last pair."""

    @pytest.fixture(scope="class")
    def nodes(self):
        return equilibrium.make_grid(600, 1e-8, 4.0, geo_fraction=0.5)

    @pytest.fixture(scope="class")
    def edges(self, nodes):
        # Voronoi cells: midpoints, half cells ending on the end nodes
        return np.concatenate([nodes[:1], 0.5 * (nodes[1:] + nodes[:-1]), nodes[-1:]])

    def test_cell_pairs_match_decimal(self, nodes):
        m = nodes.size
        pairs = [(0, m - 1), (m - 1, 0), (0, 1), (299, 300), (m - 2, m - 1)]
        pairs += [(i, i) for i in (0, 299, m - 1)] + [(5, 400), (100, 310)]
        _assert_cell_pairs_match_decimal(nodes, pairs)

    @pytest.mark.parametrize("floor", [1e-200, 1e-300])
    def test_cell_pairs_below_underflow_match_decimal(self, floor):
        # 280 geometric nodes from the floor to 0.1, 120 uniform to 4
        nodes = equilibrium.make_grid(400, floor, 4.0, geo_fraction=0.7)
        pairs = [(0, 399), (399, 0), (0, 1), (1, 2), (279, 280), (398, 399)]
        pairs += [(i, i) for i in (0, 279, 399)] + [(5, 300), (100, 285), (3, 140)]
        _assert_cell_pairs_match_decimal(nodes, pairs)

    def test_points_match_decimal(self, nodes, edges):
        # nodes inside their cells, cell edges, points between and beyond
        x = np.array([nodes[0], nodes[1], edges[1], 0.05, nodes[299], 2.0,
                      nodes[-2], edges[-2], nodes[-1], 4.5, 12.0])
        cols = [0, 1, 2, 299, 300, 597, 598, 599]
        kern = mm.log_kernel_means(edges, x)
        with localcontext() as ctx:
            ctx.prec = 50
            for r, xr in enumerate(x):
                for j in cols:
                    lo, hi = Decimal(float(edges[j])), Decimal(float(edges[j + 1]))
                    g_hi = _log_antiderivs(hi - Decimal(float(xr)))[0]
                    g_lo = _log_antiderivs(lo - Decimal(float(xr)))[0]
                    exact = float(-(g_hi - g_lo) / (hi - lo))
                    assert abs(kern[r, j] - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("block", [1000, 1 << 17])
    def test_blocks_match_default(self, monkeypatch, nodes, block):
        whole = mm.energy_kernel(nodes)
        monkeypatch.setattr(mm, "_PAIR_BLOCK", block)
        assert np.array_equal(mm.energy_kernel(nodes), whole)

    @pytest.mark.parametrize("block", [1000, 1 << 15])
    def test_kernel_mean_without_the_matrix(self, monkeypatch, edges, block):
        # 600 cells, 179,700 pairs: the block sum is the mean of the whole
        # kernel up to summation order, within a few ulps of the mean
        full = mm.log_kernel_means(edges).mean()
        monkeypatch.setattr(mm, "_PAIR_BLOCK", block)
        assert mm.log_kernel_mean(edges) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("block", [1, 7, 1 << 17])
def test_lower_pairs_walks_each_pair_once(monkeypatch, rng, block):
    # rows j with random lo_j <= hi_j <= j, empty rows included, and a walk
    # with no pair at all: every (i, j) with lo_j <= i < hi_j, row-major
    monkeypatch.setattr(mm, "_PAIR_BLOCK", block)
    for n in (1, 2, 9, 40):
        rows = np.arange(n)
        hi = rng.integers(0, rows + 1)
        lo = rng.integers(0, hi + 1)
        for lo_j, hi_j in ((lo, hi), (hi, hi)):
            expected = [(i, j) for j in rows for i in range(lo_j[j], hi_j[j])]
            walked = []
            for i, rows_b, k in mm.lower_pairs(lo_j, hi_j):
                assert 0 < i.size <= block and k.size == rows_b.stop - rows_b.start
                walked += zip(i.tolist(), rows[rows_b].repeat(k).tolist())
            assert walked == expected


class TestPairKernel:
    @pytest.fixture
    def cfg(self):
        return GasConfig(2, GFunction("identity"), Potential.linear(1.0), 1.0)

    def test_hand_value(self, cfg):
        assert mm.pair_kernel_f(1.0, 2.0, cfg) == pytest.approx(1.5)

    def test_symmetric(self, cfg, rng):
        x = rng.uniform(0.1, 10, 200)
        y = rng.uniform(0.1, 10, 200)
        assert np.array_equal(mm.pair_kernel_f(x, y, cfg),
                              mm.pair_kernel_f(y, x, cfg))

    def test_coincidence_infinite(self, cfg):
        assert mm.pair_kernel_f(2.0, 2.0, cfg) == np.inf

    @pytest.mark.parametrize("g,v", [
        (GFunction("log"), Potential.linear(1.0)),
        (GFunction("power", 2.0), Potential.linear(1.0)),
        (GFunction("asinh2"), Potential.polynomial([0.0, 0.0, 1.0])),
    ])
    def test_confinement_bound(self, g, v, rng):
        cfg = GasConfig(2, g, v, 1.0)
        x = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 10_000))
        y = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 10_000))
        f = mm.pair_kernel_f(x, y, cfg)
        phi = mm.pair_kernel_lower(x, cfg) + mm.pair_kernel_lower(y, cfg)
        assert np.all(f >= phi - 1e-12)
